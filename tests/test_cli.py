"""CLI driver tests, run in-process through main()."""

from __future__ import annotations

import json
import random
import re

import pytest

import dispatchkit.cli as cli
from dispatchkit.cli import main

from test_inference import _gen_program


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestRun:
    def test_prints_trace(self, tmp_path, capsys):
        f = _write(tmp_path, "p.mjl", "index_shape(1:5, 1:3)\nsum(1, 2, 3)\n")
        assert main(["run", f]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["Shape(5, 3)", "6"]

    def test_syntax_error_exit_2(self, tmp_path, capsys):
        f = _write(tmp_path, "bad.mjl", "f(x = 1\n")
        assert main(["run", f]) == 2
        assert "syntax error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "infer"])
    def test_syntax_error_names_its_line_once(self, tmp_path, capsys, command):
        f = _write(tmp_path, "bad.mjl", "1 2\n")
        assert main([command, f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "syntax error: line 1, column 3: expected end of statement\n"

    def test_no_method_exit_1(self, tmp_path, capsys):
        f = _write(tmp_path, "nm.mjl", 'sum("a")\n')
        assert main(["run", f]) == 1
        err = capsys.readouterr().err
        assert "no method matching" in err and "line 1" in err

    def test_lang_error_exit_1(self, tmp_path, capsys):
        f = _write(tmp_path, "err.mjl", 'error("boom")\n')
        assert main(["run", f]) == 1
        assert "boom" in capsys.readouterr().err

    def test_non_ascii_digit_exit_2(self, tmp_path, capsys):
        f = _write(tmp_path, "sq.mjl", "sum(2, 3\u00b2)\n")
        assert main(["run", f]) == 2
        err = capsys.readouterr().err
        assert "error: line 1, column 9: unexpected character" in err
        assert "Traceback" not in err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.mjl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_json_lines(self, tmp_path, capsys):
        f = _write(tmp_path, "p.mjl", "1 + 2\n")
        assert main(["run", f, "--format", "json-lines"]) == 0
        rows = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
        assert rows == [{"value": "3"}]

    def test_index_rule_changes_shape_results(self, tmp_path, capsys):
        f = _write(tmp_path, "p.mjl", "index_shape(2, 1:3)\n")
        assert main(["run", f]) == 0
        trailing = capsys.readouterr().out
        assert main(["run", f, "--index-rule", "all-drop"]) == 0
        alldrop = capsys.readouterr().out
        assert trailing == "Shape(1, 3)\n"
        assert alldrop == "Shape(3)\n"

    def test_rule_independent_program_is_stable(self, tmp_path, capsys):
        f = _write(tmp_path, "p.mjl", "sum(1, 2)\nlength(4:9)\n")
        outs = []
        for rule in ("trailing-drop", "all-drop", "apl", "drop-size1"):
            assert main(["run", f, "--index-rule", rule]) == 0
            outs.append(capsys.readouterr().out)
        assert len(set(outs)) == 1

    def test_deterministic(self, tmp_path, capsys):
        f = _write(tmp_path, "p.mjl", "f(x::Int) = (x, x + 1)\nf(3)\n")
        assert main(["run", f]) == 0
        first = capsys.readouterr().out
        assert main(["run", f]) == 0
        assert capsys.readouterr().out == first


class TestInfer:
    def test_static_line(self, tmp_path, capsys):
        f = _write(tmp_path, "p.mjl", "sum(1, 2, 3)\n")
        assert main(["infer", f]) == 0
        assert capsys.readouterr().out == "1:1 STATIC sum#1 Int\n"

    def test_dynamic_site(self, tmp_path, capsys):
        f = _write(tmp_path, "p.mjl", (
            "mix(x::Int) = (2, 3)\n"
            "mix(x::Float) = (1:3, 2)\n"
            "probe(x) = index_shape(mix(x)...)\n"
            "probe(1)\n"
            "probe(1.5)\n"
        ))
        assert main(["infer", f]) == 0
        lines = capsys.readouterr().out.splitlines()
        shape_lines = [x for x in lines if x.startswith("3:")]
        assert any("DYNAMIC" in x for x in shape_lines)

    def test_empty_program(self, tmp_path, capsys):
        f = _write(tmp_path, "p.mjl", "")
        assert main(["infer", f]) == 0
        assert capsys.readouterr().out == ""

    def test_syntax_error(self, tmp_path, capsys):
        f = _write(tmp_path, "p.mjl", "f(::) = 1\n")
        assert main(["infer", f]) == 2

    def test_non_ascii_digit_exit_2(self, tmp_path, capsys):
        f = _write(tmp_path, "sq.mjl", "f(x) = x\nf(\u00b2)\n")
        assert main(["infer", f]) == 2
        err = capsys.readouterr().err
        assert "error: line 2, column 3: unexpected character" in err
        assert "Traceback" not in err

    def test_json_lines(self, tmp_path, capsys):
        f = _write(tmp_path, "p.mjl", "sum(1, 2)\n")
        assert main(["infer", f, "--format", "json-lines"]) == 0
        rows = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
        assert rows == [{
            "line": 1, "col": 1, "function": "sum", "static": True,
            "method": "sum#1", "type": "Int", "splice_elidable": True,
        }]

    def test_widen_threshold_flag(self, tmp_path, capsys):
        f = _write(tmp_path, "p.mjl", "w() = (1, 2, 3, 4)\nw()\n")
        assert main(["infer", f]) == 0
        default = capsys.readouterr().out
        assert main(["infer", f, "--widen-max-fixed", "2"]) == 0
        narrowed = capsys.readouterr().out
        assert "Int..." not in default
        assert "Int..." in narrowed


class TestMetrics:
    def test_corpus_file(self, tmp_path, capsys):
        f = _write(tmp_path, "c.tsv",
                   "f\t2\t2\t0\nf\t1\t1\t0\nf\t3\t0\t1\ng\t2\t1\t0\n")
        assert main(["metrics", f]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].split() == ["c.tsv", "2.00", "2.50", "1.00"]

    def test_self_scan_golden(self, tmp_path, capsys):
        assert main(["metrics", "--self"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].split() == ["self", "1.88", "2.20", "1.00"]

    def test_self_scan_json(self, capsys):
        assert main(["metrics", "--self", "--format", "json-lines"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row == {"corpus": "self", "functions": 8, "methods": 15,
                       "DR": "1.88", "CR": "2.20", "DoS": "1.00"}

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        f = _write(tmp_path, "c.tsv", "f\t2\t1\t0\nbroken\n")
        assert main(["metrics", f]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_empty_corpus_exit_2(self, tmp_path, capsys):
        f = _write(tmp_path, "c.tsv", "")
        assert main(["metrics", f]) == 2

    def test_no_input_exit_2(self, capsys):
        assert main(["metrics"]) == 2


class TestViewDemo:
    def test_text_output(self, capsys):
        assert main(["view-demo"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert "Contiguous" in lines[0] and "offset=20" in lines[0]
        assert "strides=[1, 4]" in lines[0]

    def test_json_rows(self, capsys):
        assert main(["view-demo", "--format", "json-lines"]) == 0
        rows = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
        assert rows[0]["kind"] == "Contiguous"
        assert rows[0]["offset"] == 20
        assert rows[0]["strides"] == [1, 4]
        assert rows[0]["crank"] == 2
        assert rows[1]["strides"] == [0, 4, 20]
        assert rows[1]["crank"] == 0
        assert all(r["matches_copy"] for r in rows)

    @pytest.mark.parametrize("rule, plane_shape", [
        ("trailing-drop", [1, 5, 6]),
        ("drop-size1", [1, 5, 6]),
        ("apl", [5, 6]),
        ("all-drop", [5, 6]),
    ])
    def test_index_rule_is_honoured(self, capsys, rule, plane_shape):
        argv = ["view-demo", "--index-rule", rule, "--format", "json-lines"]
        assert main(argv) == 0
        rows = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
        assert all(r["matches_copy"] for r in rows)
        assert [r["shape"] for r in rows if r["view"] == "A[2, :, :]"] == [plane_shape]


class TestDeepRecursion:
    """Exhausting the Python stack is a located error, not a traceback."""

    def test_runaway_recursion_exit_1(self, tmp_path, capsys):
        f = _write(tmp_path, "g.mjl", "g(r...) = g(1, r...)\n1 + 1\ng()\n")
        assert main(["run", f]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0] == \
            "error: line 3, column 1: call depth exceeded"
        assert "Traceback" not in err

    def test_deep_acyclic_chain_infer_exit_1(self, tmp_path, capsys):
        chain = "".join(f"c{i}(x) = c{i + 1}(x)\n" for i in range(198))
        f = _write(tmp_path, "chain.mjl", chain + "c198(x) = x\n1 + 1\nc0(1)\n")
        assert main(["infer", f]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 201, column 1: call depth exceeded\n"
        assert main(["run", f]) == 0
        assert capsys.readouterr().out == "2\n1\n"

    def test_long_plus_chain_infer(self, tmp_path, capsys):
        # the parser accepts a `+` chain of any length; the site walk of
        # `infer` must not exhaust the Python stack on one
        chain = " + ".join(["1"] * 1200)
        top = _write(tmp_path, "top.mjl", chain + "\n")
        assert main(["infer", top]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: line 1, column \d+: call depth exceeded\n",
                            captured.err)
        body = _write(tmp_path, "body.mjl", "f(x) = " + chain.replace("1", "x") + "\n")
        assert main(["infer", body]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        # nothing calls f: every site is reported, none was reached
        assert captured.out.splitlines()[0] == "1:10 DYNAMIC Bottom"
        assert len(captured.out.splitlines()) == 1199

    @pytest.mark.parametrize("command", ["run", "infer"])
    def test_deep_nesting_exit_2(self, tmp_path, capsys, command):
        depth = 3000
        f = _write(tmp_path, "deep.mjl",
                   "f(x) = x\n" + "f(" * depth + "1" + ")" * depth + "\n")
        assert main([command, f]) == 2
        err = capsys.readouterr().err
        first = err.splitlines()[0]
        assert first.startswith("syntax error: line 2, column ")
        assert ": expression nested too deeply" in first
        assert "Traceback" not in err


class TestFileEncoding:
    """A file that is not UTF-8 text is bad input, not a traceback."""

    @pytest.mark.parametrize("command", ["run", "infer", "metrics"])
    def test_non_utf8_file_exit_2(self, tmp_path, capsys, command):
        f = tmp_path / "latin.mjl"
        f.write_bytes(b"\xff\xfe f() = 1\n")
        assert main([command, str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: {f}: not UTF-8 text (byte 0: invalid start byte)\n"


_HUGE = "1" + "0" * 400  # an Int too large for a Float


class TestHugeNumbers:
    """A number a Float or a decimal string cannot hold is a documented
    error, not a traceback."""

    @pytest.mark.parametrize("source, loc", [
        (f"{_HUGE} + 1.5\n", "line 1, column 403"),
        (f"sum({_HUGE}, 1.5)\n", "line 1, column 1"),
        (f"f(x) = x + 1.5\nf({_HUGE})\n", "line 1, column 10"),
    ], ids=["plus", "sum", "body"])
    def test_int_too_large_for_a_float_exit_1(self, tmp_path, capsys, source, loc):
        f = _write(tmp_path, "big.mjl", source)
        assert main(["run", f]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {loc}: Int too large to convert to Float\n"

    @pytest.mark.parametrize("command", ["run", "infer"])
    def test_int_literal_past_the_digit_limit_exit_2(self, tmp_path, capsys, command):
        f = _write(tmp_path, "long.mjl", "f(x) = x\nf(" + "7" * 4301 + ")\n")
        assert main([command, f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "syntax error: line 2, column 3: integer literal of 4301 digits is too long")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["run", "infer"])
    def test_float_literal_too_large_exit_2(self, tmp_path, capsys, command):
        f = _write(tmp_path, "huge.mjl", "f(x) = x\nf(" + "1" * 400 + ".0)\n")
        assert main([command, f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "syntax error: line 2, column 3: float literal of 401 digits is too large")

    def test_range_endpoint_past_the_digit_limit_exit_1(self, tmp_path, capsys):
        n = "9" * 4300
        f = _write(tmp_path, "range.mjl", f"({n} + {n}):1\n")
        assert main(["run", f]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: line 1, column 8606: "
                                "descending range <an Int of 4301 digits>:1\n")
        assert "Exceeds the limit" not in captured.err

    @pytest.mark.parametrize("fmt", ["text", "json-lines"])
    def test_int_result_past_the_digit_limit_exit_1(self, tmp_path, capsys, fmt):
        n = "9" * 4300
        f = _write(tmp_path, "sum.mjl", f"1\n{n} + {n}\n")
        assert main(["run", f, "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: line 2, column 4302: an Int of more than "
                                "4300 digits cannot be printed\n")


class TestFlags:
    def test_unknown_flag_exit_2(self, capsys):
        assert main(["run", "x.mjl", "--bogus"]) == 2

    def test_unknown_rule_exit_2(self, tmp_path, capsys):
        f = _write(tmp_path, "p.mjl", "1 + 1\n")
        assert main(["run", f, "--index-rule", "nope"]) == 2

    @pytest.mark.parametrize("value", ["-1", "-8"])
    def test_negative_widen_threshold_exit_2(self, tmp_path, capsys, value):
        f = _write(tmp_path, "p.mjl", "f(x) = x\nf(x, r...) = f(r...)\nf(1, 2, 3)\n")
        assert main(["infer", f, "--widen-max-fixed", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err
        assert "argument --widen-max-fixed: must not be negative" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [["run", "p.mjl"], ["metrics", "--self"], ["view-demo"]])
    def test_widen_threshold_only_on_infer(self, tmp_path, capsys, argv):
        f = _write(tmp_path, "p.mjl", "1 + 1\n")
        argv = [f if a == "p.mjl" else a for a in argv]
        assert main(argv + ["--widen-max-fixed", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --widen-max-fixed" in captured.err

    def test_zero_widen_threshold_accepted(self, tmp_path, capsys):
        f = _write(tmp_path, "p.mjl", "f(x) = x\nf(x, r...) = f(r...)\nf(1, 2, 3)\n")
        assert main(["infer", f, "--widen-max-fixed", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "3:1 DYNAMIC Int"

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "run" in capsys.readouterr().out


class TestParserReuse:
    """`main` parses with one parser per process; reusing it must give
    what a fresh parser per call gives."""

    SOURCE = "f(x) = x\nf(x, r...) = f(r...)\nf(1, 2, 3)\n(1, 2.5)\n"

    def test_main_reuses_one_parser(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def sequence(self, f):
        return [
            ["infer", f, "--widen-max-fixed", "0"],
            ["infer", f],
            ["run", f, "--format", "json-lines"],
            ["run", f],
            ["run", f, "--bogus"],
            ["run", f],
            ["--help"],
            ["run", f],
            ["run", f, "--index-rule", "nope"],
            ["metrics", "--self"],
        ]

    def outcomes(self, capsys, argvs):
        out = []
        for argv in argvs:
            code = main(argv)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    def test_reused_parser_matches_a_fresh_parser_per_call(self, tmp_path, capsys,
                                                            monkeypatch):
        argvs = self.sequence(_write(tmp_path, "p.mjl", self.SOURCE))
        reused = self.outcomes(capsys, argvs)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.outcomes(capsys, argvs)
        assert reused == fresh
        codes = [code for code, _, _ in reused]
        assert codes == [0, 0, 0, 0, 2, 0, 0, 0, 2, 0]
        assert reused[0][1] != reused[1][1]  # the bound does not stick
        assert reused[2][1] != reused[3][1]  # nor does the format
        assert reused[4][2].startswith("usage: dispatchkit")
        assert "unrecognized arguments: --bogus" in reused[4][2]
        assert reused[6][1].startswith("usage: dispatchkit") and not reused[6][2]
        assert "invalid choice: 'nope'" in reused[8][2]


# ------------------------------------------------------------------ fuzz

_FUZZ_TOKEN = re.compile(r"\n|\.\.\.|::|\w+(?:\.\w+)?|\"[^\"\n]*\"|\S")


# a 400-digit Int (too large for a Float), an Int literal past the
# interpreter's 4,300-digit conversion limit, and a Float of 310 digits
_EXTREME_LITERALS = ("1" + "0" * 400, "7" * 4301, "9" * 310 + ".5")


def _mutate(rng: random.Random, source: str) -> str:
    """Drop, duplicate or truncate tokens of a program, or replace a
    number with an extreme literal."""
    tokens = _FUZZ_TOKEN.findall(source)
    for _ in range(rng.randint(1, 3)):
        if not tokens:
            break
        k = rng.randrange(len(tokens))
        move = rng.choice(["drop", "duplicate", "truncate", "extreme"])
        if move == "drop":
            del tokens[k]
        elif move == "duplicate":
            tokens.insert(k, tokens[k])
        elif move == "truncate":
            tokens = tokens[:k]
        else:
            numbers = [i for i, t in enumerate(tokens) if t[0].isdigit()]
            if numbers:
                tokens[rng.choice(numbers)] = rng.choice(_EXTREME_LITERALS)
    return " ".join(tokens)


def _fuzz_sources(seed: int, n: int):
    rng = random.Random(seed)
    for _ in range(n):
        source = _gen_program(rng)
        yield source if rng.random() < 0.3 else _mutate(rng, source)


@pytest.mark.parametrize("command", ["run", "infer"])
def test_fuzzed_programs_exit_with_a_documented_error(tmp_path, capsys, command):
    f = tmp_path / "fuzz.mjl"
    codes = set()
    for source in _fuzz_sources(31337, 150):
        f.write_text(source)
        code = main([command, str(f)])
        captured = capsys.readouterr()
        assert code in (0, 1, 2), source
        assert "Traceback" not in captured.err, source
        if code:
            last = captured.err.splitlines()[-1]
            assert last.startswith(("error:", "syntax error:")), (source, last)
        codes.add(code)
    assert codes >= ({0, 1, 2} if command == "run" else {0, 2})
