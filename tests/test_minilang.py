"""Parser, printer, and their round-trip stability."""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dispatchkit.minilang import (
    Call,
    Ident,
    Lit,
    MethodDef,
    Param,
    ParseError,
    RangeLit,
    Splice,
    parse,
    print_expr,
    print_program,
)
from dispatchkit.preludes import RULE_NAMES, prelude_source


class TestDefinitions:
    def test_variadic_specialized(self):
        p = parse("index_shape(i::Real...) = ()")
        assert len(p.items) == 1
        d = p.items[0]
        assert isinstance(d, MethodDef)
        assert d.fname == "index_shape"
        assert d.params == [Param("i", "Real", True)]
        assert d.body == Call("tuple", [])

    def test_unspecialized_param(self):
        d = parse("g(x) = x").items[0]
        assert d.params == [Param("x", None, False)]
        assert d.body == Ident("x")

    def test_mixed_params(self):
        d = parse("f(x::Int, rest...) = rest").items[0]
        assert d.params == [Param("x", "Int", False), Param("rest", None, True)]

    def test_zero_params(self):
        d = parse("f() = 1").items[0]
        assert d.params == []

    def test_plus_as_function_name(self):
        d = parse("+(a::Int, b::Int) = sum(a, b)").items[0]
        assert d.fname == "+"

    def test_variadic_must_be_last(self):
        with pytest.raises(ParseError):
            parse("f(a..., b) = a")

    def test_continuation_inside_parens(self):
        src = "index_shape(i, I...) = tuple(length(i),\n" \
              "                             index_shape(I...)...)\n"
        d = parse(src).items[0]
        assert d.body.fname == "tuple"
        assert isinstance(d.body.args[1], Splice)

    def test_equals_of_a_later_statement_does_not_make_a_def(self):
        # the look-ahead for '=' stops at the statement's NEWLINE, also
        # when a parenthesised call spans several lines
        p = parse("f(1,\n  2)\ng(x) = x\nf(3)\n")
        assert [type(it) for it in p.items] == [Call, MethodDef, Call]
        with pytest.raises(ParseError, match="expected end of statement"):
            parse("f(1) g(x) = x\n")

    def test_comments_ignored(self):
        p = parse("# heading\nf(x) = x  # trailing\n\n# done\n")
        assert len(p.items) == 1


class TestExpressions:
    def test_tuple_literals(self):
        assert parse("()").items[0] == Call("tuple", [])
        assert parse("(1,)").items[0] == Call("tuple", [Lit(1)])
        assert parse("(1, 2)").items[0] == Call("tuple", [Lit(1), Lit(2)])
        assert parse("(1, 2,)").items[0] == Call("tuple", [Lit(1), Lit(2)])

    def test_parens_group(self):
        assert parse("(1)").items[0] == Lit(1)

    def test_single_splice_makes_tuple(self):
        assert parse("(xs...)").items[0] == Call("tuple", [Splice(Ident("xs"))])

    def test_call_with_splice(self):
        e = parse("f(a, b...)").items[0]
        assert e == Call("f", [Ident("a"), Splice(Ident("b"))])

    def test_range(self):
        assert parse("1:5").items[0] == RangeLit(Lit(1), Lit(5))
        assert parse("lo:hi").items[0] == RangeLit(Ident("lo"), Ident("hi"))

    def test_range_binds_tighter_than_plus(self):
        e = parse("1 + 2:4").items[0]
        assert e == Call("+", [Lit(1), RangeLit(Lit(2), Lit(4))])

    def test_nested_range_needs_parens(self):
        e = parse("(1:2):3").items[0]
        assert e == RangeLit(RangeLit(Lit(1), Lit(2)), Lit(3))

    def test_plus_left_associative(self):
        e = parse("1 + 2 + 3").items[0]
        assert e == Call("+", [Call("+", [Lit(1), Lit(2)]), Lit(3)])

    def test_prefix_plus_call(self):
        assert parse("+(1, 2)").items[0] == Call("+", [Lit(1), Lit(2)])
        e = parse("a + +(1, 2)").items[0]
        assert e == Call("+", [Ident("a"), Call("+", [Lit(1), Lit(2)])])

    def test_literals(self):
        assert parse("42").items[0] == Lit(42)
        assert parse("2.5").items[0] == Lit(2.5)
        assert parse('"hi \\"there\\""').items[0] == Lit('hi "there"')

    def test_int_before_ellipsis(self):
        assert parse("f(1...)").items[0] == Call("f", [Splice(Lit(1))])


class TestParseErrors:
    @pytest.mark.parametrize("src", [
        "f(",
        "f(x,",
        "1 +",
        "f(x::) = x",
        "f(x) =",
        "(1, 2",
        '"unterminated',
        "f(x)) = x",
        "1 2",
        "xs...",
        "f(x::1) = x",
        "1.",
    ])
    def test_rejected(self, src):
        with pytest.raises(SyntaxError):
            parse(src)

    def test_float_literal_too_large_is_located(self):
        with pytest.raises(ParseError, match="float literal of 401 digits is too large") as e:
            parse("f(x) = x\nf(" + "1" * 400 + ".0)\n")
        assert (e.value.lineno, e.value.offset) == (2, 3)
        # the largest powers of ten a Float holds, written out, still parse
        assert parse("1" + "0" * 308 + ".0").items[0].value == 1e308

    def test_location_reported(self):
        with pytest.raises(ParseError) as e:
            parse("f(x) = x\ng(y = y\n")
        assert e.value.lineno == 2
        assert "line 2" in str(e.value)

    @pytest.mark.parametrize("src, line, col", [
        ("\u00b2", 1, 1),
        ("f(\u00b2)", 1, 3),
        ("x = 1\n  1\u00b2 + 2\n", 2, 4),
        ("\u00b2x", 1, 1),
        ("\u0663", 1, 1),  # ARABIC-INDIC DIGIT THREE: a decimal, not [0-9]
    ])
    def test_non_ascii_digit_is_an_unexpected_character(self, src, line, col):
        with pytest.raises(ParseError, match="unexpected character") as e:
            parse(src)
        assert (e.value.lineno, e.value.offset) == (line, col)

    def test_non_ascii_digit_continues_an_identifier(self):
        assert parse("x\u00b2").items[0] == Ident("x\u00b2")
        assert parse("\u00e9t\u00e9").items[0] == Ident("\u00e9t\u00e9")

    def test_end_after_a_comment_is_located_at_the_hash(self):
        with pytest.raises(ParseError) as e:
            parse("f(1 # no closing paren")
        assert (e.value.lineno, e.value.offset) == (1, 5)


class TestNesting:
    @pytest.mark.parametrize("depth", [240, 480])
    def test_deep_nesting_parses_and_prints_at_the_default_recursion_limit(self, depth):
        # a fresh interpreter, so the test runner's own frames do not count;
        # a level costs the parser two frames and the printer one
        code = (
            "import sys\n"
            "from dispatchkit import parse, print_program\n"
            "assert sys.getrecursionlimit() == 1000\n"
            "def depth(e):\n"
            "    n = 0\n"
            "    while e.args:\n"
            "        e, n = e.args[0], n + 1\n"
            "    return n\n"
            f"n = {depth}\n"
            "for src in ['f(' * n + 'f()' + ')' * n, '(' * n + '()' + ',)' * n]:\n"
            "    printed = print_program(parse(src))\n"
            "    assert print_program(parse(printed)) == printed\n"
            "    print(depth(parse(src).items[0]))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, env=dict(os.environ))
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{depth}\n{depth}\n"

    def test_deep_trees_compare_at_the_default_recursion_limit(self):
        # equality keeps its own stack, and still sees a changed leaf
        code = (
            "import sys\n"
            "from dispatchkit import parse\n"
            "assert sys.getrecursionlimit() == 1000\n"
            "n = 480\n"
            "for src in ['f(' * n + 'f(1)' + ')' * n, '(' * n + '(1,)' + ',)' * n]:\n"
            "    assert parse(src) == parse(src)\n"
            "    assert parse(src) != parse(src.replace('1', '2'))\n"
            "print('compared')\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, env=dict(os.environ))
        assert done.returncode == 0, done.stderr
        assert done.stdout == "compared\n"

    def test_nodes_are_unhashable(self):
        for node in parse("f(x) = x\nf(1:2, (3,)...)").items:
            with pytest.raises(TypeError):
                hash(node)


class TestLocations:
    def test_statement_lines(self):
        p = parse("f(x) = x\n\nf(1)\n")
        assert p.items[0].loc[0] == 1
        assert p.items[1].loc[0] == 3

    def test_locations_ignored_by_equality(self):
        assert parse("f(1)\n") == parse("\n# c\nf(1)\n")

    def test_each_node_is_located_at_its_text(self):
        sources = [prelude_source(rule) for rule in RULE_NAMES]
        sources += [p.read_text() for p in sorted(DEMO_PROGRAMS.glob("*.mjl"))]
        sources += golden_sources()
        sources += [_noisy(s, random.Random(k)) for k, s in enumerate(sources)]
        checked, bad = 0, []
        for source in sources:
            try:
                items = parse(source).items
            except ParseError:
                continue
            lines = source.split("\n")
            for node in _nodes(items):
                line, col = node.loc
                at = lines[line - 1][col - 1:]
                checked += 1
                if not at.startswith(_located_text(node)):
                    bad.append((source, node, at[:20]))
        assert not bad, bad[:5]
        assert checked > 800


DEMO_PROGRAMS = Path(__file__).parent.parent / "demos" / "programs"


def _noisy(source: str, rng: random.Random) -> str:
    """The same program with tabs, CRLF line ends, trailing comments and
    argument lists continued on the next line."""
    out = []
    for piece in re.split(r"(, | = | \+ |\n)", source):
        if piece == ", ":
            piece = rng.choice([", ", ",\t", ",\n\t ", ", # more\r\n  "])
        elif piece in (" = ", " + "):
            piece = rng.choice([piece, f"\t{piece.strip()}\t", f" {piece.strip()}  "])
        elif piece == "\n":
            piece = rng.choice(["\n", "\r\n", "  # note\n", "\t#\r\n"])
        out.append(piece)
    return "".join(out)


def _nodes(items):
    stack = list(items)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, MethodDef):
            stack.append(node.body)
        elif isinstance(node, Call):
            stack.extend(node.args)
        elif isinstance(node, RangeLit):
            stack += [node.lo, node.hi]
        elif isinstance(node, Splice):
            stack.append(node.expr)


def _located_text(node) -> tuple:
    """What the source at `node.loc` starts with."""
    if isinstance(node, Ident):
        return (node.name,)
    if isinstance(node, Lit):
        return ('"',) if isinstance(node.value, str) else tuple("0123456789")
    if isinstance(node, RangeLit):
        return (":",)
    if isinstance(node, Splice):
        return ("...",)
    if isinstance(node, Call) and node.fname == "tuple":
        return ("tuple", "(")  # a call by name or a tuple literal
    return (node.fname,)  # a Call by name or `+`, or a MethodDef


class TestPrinter:
    def test_def_form(self):
        src = "f(x::Int, rest...) = tuple(x, rest...)\n"
        assert print_program(parse(src)) == src

    def test_infix_plus(self):
        assert print_expr(parse("1 + 2 + 3").items[0]) == "1 + 2 + 3"
        assert print_expr(parse("1 + (2 + 3)").items[0]) == "1 + (2 + 3)"

    def test_range_parens(self):
        assert print_expr(parse("(1:2):3").items[0]) == "(1:2):3"
        assert print_expr(parse("(1 + 2):3").items[0]) == "(1 + 2):3"

    def test_tuple_literal_prints_as_call(self):
        assert print_expr(parse("(1, 2)").items[0]) == "tuple(1, 2)"

    def test_string_escaping(self):
        assert print_expr(parse('"a\\"b"').items[0]) == '"a\\"b"'


def _round_trip_stable(source: str):
    p = parse(source)
    assert parse(print_program(p)) == p


class TestRoundTrip:
    def test_preludes(self):
        for rule in RULE_NAMES:
            _round_trip_stable(prelude_source(rule))

    def test_aligned_multiline_listing(self):
        _round_trip_stable(
            "index_shape(i::Real...) = ()\n"
            "index_shape(i, I...)    = tuple(length(i),\n"
            "                                index_shape(I...)...)\n"
        )

    @pytest.mark.parametrize("src", [
        "0.00001",
        "10000000000000000.0",
        "123456789012345678901234567890.5",
    ])
    def test_float_literal(self, src):
        # repr would print an exponent, which the lexer does not read
        _round_trip_stable(src + "\n")

    def test_long_plus_chain(self):
        # the parser's `+` loop builds a left spine 5,000 calls deep; the
        # printer walks it without recursion. Printed text is compared
        # because `==` on such a tree would itself recurse that deep.
        src = "f(x) = " + " + ".join(["x"] * 5000) + "\n" \
            + " + ".join(str(k) for k in range(5000)) + "\n"
        printed = print_program(parse(src))
        assert printed == src
        assert print_program(parse(printed)) == printed
        assert print_expr(parse(src).items[1]).startswith("0 + 1 + 2 + ")

    def test_random_programs(self):
        rng = random.Random(41002)

        def expr(depth):
            kinds = ["lit", "ident"]
            if depth > 0:
                kinds += ["call", "range", "plus", "tuple"]
            k = rng.choice(kinds)
            if k == "lit":
                return rng.choice([Lit(1), Lit(7), Lit(2.5), Lit("s")])
            if k == "ident":
                return Ident(rng.choice("abcxyz"))
            if k == "range":
                return RangeLit(expr(0), expr(0))
            if k == "plus":
                return Call("+", [expr(depth - 1), expr(depth - 1)])
            name = "tuple" if k == "tuple" else rng.choice(["f", "g", "length"])
            args = []
            for _ in range(rng.randrange(3)):
                a = expr(depth - 1)
                args.append(Splice(a) if rng.random() < 0.3 else a)
            return Call(name, args)

        from dispatchkit.minilang import Program

        for _ in range(200):
            items = []
            for _ in range(rng.randrange(1, 4)):
                if rng.random() < 0.4:
                    params = [
                        Param(n, rng.choice([None, "Int", "Real"]), False)
                        for n in ("p", "q")[: rng.randrange(3)]
                    ]
                    if params and rng.random() < 0.5:
                        params[-1] = Param(params[-1].name,
                                           params[-1].type_name, True)
                    items.append(MethodDef("f", params, expr(2)))
                else:
                    items.append(expr(2))
            _round_trip_stable(print_program(Program(items)))


# The golden file records what the parser did at the commit before the
# one-regex lexer: for each seeded source, the printed program or the
# ParseError (message, line, column), or the name of any other exception.
# Entries are compared exactly, with one exception: a non-ASCII digit that
# the old lexer took for the start of a number is now an "unexpected
# character" at lexing time, so those sources may raise earlier than they
# used to, and a source that crashed with a non-SyntaxError must now raise
# ParseError.
GOLDEN = Path(__file__).parent / "data" / "parse_golden.json"

_OPERANDS = ["x", "7", "042", "3.5", "()", "(1, 2)", "(x,)", "1:3", "f(x)",
             "g(a, b...)", '"s\\"t"', "+(1, 2)", "sum(x, y)", "tuple(a...)",
             "xé", "(", ")", "f(x) = x", "h(a::Int, b...) = a + b"]
_JOINS = [" + ", ":", "\n", " ", ", ", "\n\n", "+"]
_NOISE = ["#", '"', "\\", "\t", "\r\n", "1.", ".", "é", "²", "::", "x::Int",
          "=", "...", "# c\n", ",", "(", ")"]


def golden_sources(n=500, seed=20261018):
    """Seeded sources: half alternate operands and joins, so a fair share
    parses; the other half also draw from the noisy fragments."""
    rng = random.Random(seed)
    out = []
    for k in range(n):
        parts = []
        for j in range(rng.randint(1, 12)):
            pool = _JOINS if j % 2 else _OPERANDS
            if k % 2 == 0 and rng.random() < 0.4:
                pool = _NOISE
            parts.append(rng.choice(pool))
        out.append("".join(parts))
    return out


def parse_outcome(source: str) -> dict:
    try:
        return {"printed": print_program(parse(source))}
    except SyntaxError as err:
        return {"error": [err.msg, err.lineno, err.offset]}
    except Exception as err:  # noqa: BLE001 - recording a crash is the point
        return {"crash": type(err).__name__}


def _lexed_as_number_by_old_lexer(source: str, line: int, col: int) -> bool:
    """True when the run of digit-like characters at (line, col), as the
    old str.isdigit lexer scanned it, holds a non-ASCII digit."""
    text = source.split("\n")[line - 1][col - 1:]
    run = re.match(r"[0-9²]+(?:\.[0-9²]*)?", text)
    return run is not None and "²" in run.group()


class TestParserGolden:
    def test_sources_are_the_recorded_ones(self):
        recorded = json.loads(GOLDEN.read_text())
        assert [r["source"] for r in recorded] == golden_sources()

    def test_matches_the_recorded_parser(self):
        for r in json.loads(GOLDEN.read_text()):
            now = parse_outcome(r["source"])
            if now == r["parent"]:
                continue
            assert "error" in now, (r, now)
            if "crash" in r["parent"]:
                continue
            _, line, col = now["error"]
            assert _lexed_as_number_by_old_lexer(r["source"], line, col), (r, now)
