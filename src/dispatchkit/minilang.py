"""Surface syntax: method definitions, calls, splices, tuples, ranges.

The grammar is deliberately small. A program is a newline-separated
sequence of statements; each statement is either a method definition

    name(param, x::Type, rest...) = expression

or a top-level expression. Expressions are calls `f(a, b...)`, tuple
literals `()` / `(a,)` / `(a, b)`, closed ranges `lo:hi`, `a + b`
(sugar for calling the generic function named "+"), identifiers, and
int/float/string literals. `#` starts a line comment. Newlines inside
parentheses continue the statement.

Tuple literals parse to calls of the `tuple` native, so the evaluator
and the inference engine only ever see one tuple constructor. The
printer therefore renders them in call form; parse-print-parse is
still structurally stable.

`EvalError`, the located run-time error, sits beside `ParseError`, so the
evaluator and the inferencer raise it without importing each other.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from typing import Optional, Union

__all__ = [
    "ParseError",
    "EvalError",
    "Lit",
    "Ident",
    "RangeLit",
    "Splice",
    "Call",
    "Param",
    "MethodDef",
    "Program",
    "parse",
    "print_program",
    "print_expr",
]


class ParseError(SyntaxError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.lineno = line
        self.offset = col

    def __str__(self):
        # the located message alone, without SyntaxError's " (line N)"
        return self.msg


class EvalError(Exception):
    """A run-time error, located at the call or expression that raised it
    when `loc` (line, column) is given."""

    def __init__(self, message: str, loc=None):
        self.message = message
        self.loc = loc
        super().__init__(self._render())

    def _render(self) -> str:
        if self.loc:
            return f"line {self.loc[0]}, column {self.loc[1]}: {self.message}"
        return self.message


Loc = tuple


class _Node:
    """Structural equality for syntax nodes: the same class and equal
    fields, `loc` aside. The comparison keeps its own stack, so trees of
    any depth the parser accepts compare. Nodes are unhashable."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            names = _COMPARED.get(type(a))
            if names is not None:
                if type(b) is not type(a):
                    return False
                todo.extend((getattr(a, n), getattr(b, n)) for n in names)
            elif type(a) is list:
                if type(b) is not list or len(a) != len(b):
                    return False
                todo.extend(zip(a, b))
            elif a is not b and a != b:
                return False
        return True


@dataclass(slots=True, eq=False)
class Lit(_Node):
    value: Union[int, float, str]
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass(slots=True, eq=False)
class Ident(_Node):
    name: str
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass(slots=True, eq=False)
class RangeLit(_Node):
    lo: "Expr"
    hi: "Expr"
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass(slots=True, eq=False)
class Splice(_Node):
    expr: "Expr"
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass(slots=True, eq=False)
class Call(_Node):
    fname: str
    args: list
    loc: Loc = field(default=(0, 0), compare=False)


Expr = Union[Lit, Ident, RangeLit, Call]


@dataclass(slots=True, eq=False)
class Param(_Node):
    name: str
    type_name: Optional[str] = None
    variadic: bool = False


@dataclass(slots=True, eq=False)
class MethodDef(_Node):
    fname: str
    params: list
    body: Expr
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass(slots=True, eq=False)
class Program(_Node):
    items: list


# the fields `_Node.__eq__` compares, per node class
_COMPARED = {cls: tuple(f.name for f in fields(cls) if f.compare)
             for cls in (Lit, Ident, RangeLit, Splice, Call, Param, MethodDef, Program)}


# ---------------------------------------------------------------- lexer

# One scan per source: `_CHUNK.findall` yields a (blanks, token) pair per
# token, where blanks is the run of spaces, tabs and carriage returns before
# it, so no token builds a match object and blanks never match on their own.
# The alternatives are tried in order, the commonest first: one-character
# punctuation and the newline; numbers, where digits and a '.' are a
# malformed number unless a digit follows or the '.' begins '...'; names,
# whose first character [^\W\d] may also be a non-decimal digit such as '²'
# (_lex rejects those); '...', '::' and ':'; a comment up to the end of its
# line; a string, or a lone '"' that starts none; any other character; and,
# as an empty token, the end of input. A comment takes no columns: the
# NEWLINE after it, or the end of input, is located at its '#'.
_CHUNK = re.compile(r"""
    ([ \t\r]*)
    ( [(),+=\n] | [0-9]+(?:\.[0-9]+|\.(?!\.\.))? | [^\W\d]\w* | \.\.\. | ::?
    | \#[^\n]* | "(?:[^"\\\n]|\\[\\"]|\\(?![\\"]))*" | . | \Z )
""", re.VERBOSE)
_ESCAPE = re.compile(r'\\([\\"])')

_LETTERS = "_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
_DIGITS = "0123456789"
# the kind of a token by its whole text: punctuation, one-letter names,
# one-digit numbers, and the empty token that ends the input
_KIND = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", "+": "PLUS",
         "=": "EQUALS", ":": "COLON", "::": "DCOLON", "...": "ELLIPSIS",
         "\n": "NEWLINE", "": "END",
         **dict.fromkeys(_LETTERS, "IDENT"), **dict.fromkeys(_DIGITS, "INT")}
# otherwise by its first character; a first character in neither table
# starts a non-ASCII name or is an unexpected character
_LEAD = {**dict.fromkeys(_LETTERS, "IDENT"), **dict.fromkeys(_DIGITS, "NUMBER"),
         '"': "STRING", "#": "COMMENT"}

# a token is (kind, text, line, col); tok[2:] is its location
_Token = tuple


def _lex(source: str) -> tuple[list[_Token], list[str]]:
    """The tokens of `source` and, in step with them, their kinds."""
    toks: list[_Token] = []
    kinds: list[str] = []
    line, col, depth = 1, 1, 0
    for blank, text in _CHUNK.findall(source):
        if blank:
            col += len(blank)
        kind = _KIND.get(text)
        if kind is None:
            kind = _LEAD.get(text[0])
            if kind == "NUMBER":
                if text[-1] == ".":
                    raise ParseError("malformed number", line, col)
                kind = "FLOAT" if "." in text else "INT"
            elif kind == "STRING":
                if text == '"':
                    raise ParseError("unterminated string", line, col)
                toks.append((kind, _ESCAPE.sub(r"\1", text[1:-1]), line, col))
                kinds.append(kind)
                col += len(text)
                continue
            elif kind == "COMMENT":  # takes no columns
                continue
            elif kind is None:
                if not text[0].isalpha():
                    raise ParseError(f"unexpected character {text[0]!r}", line, col)
                kind = "IDENT"
        elif kind == "LPAREN":
            depth += 1
        elif kind == "RPAREN":
            if depth:
                depth -= 1
        elif kind == "NEWLINE":
            if depth == 0 and kinds and kinds[-1] != "NEWLINE":
                toks.append((kind, text, line, col))
                kinds.append(kind)
            line += 1
            col = 1
            continue
        elif kind == "END":
            break
        toks.append((kind, text, line, col))
        kinds.append(kind)
        col += len(text)
    if kinds and kinds[-1] != "NEWLINE":
        toks.append(("NEWLINE", "\n", line, col))
        kinds.append("NEWLINE")
    toks.append(("EOF", "", line, col))
    kinds.append("EOF")
    return toks, kinds


# --------------------------------------------------------------- parser


class _Parser:
    """Recursive descent over the token list; `kinds[pos]` is the lookahead
    (the EOF token is last and never consumed)."""

    def __init__(self, toks: list[_Token], kinds: list[str]):
        self.toks = toks
        self.kinds = kinds
        self.pos = 0

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.toks[self.pos]
        if t[0] != kind:
            raise ParseError(f"expected {kind}, got {t[0]} {t[1]!r}", t[2], t[3])
        self.pos += 1
        return t

    def fail(self, msg: str):
        raise ParseError(msg, *self.toks[self.pos][2:])

    def program(self) -> Program:
        items = []
        kinds = self.kinds
        while kinds[self.pos] != "EOF":
            if kinds[self.pos] == "NEWLINE":
                self.pos += 1
                continue
            items.append(self.statement())
            if kinds[self.pos] not in ("NEWLINE", "EOF"):
                self.fail("expected end of statement")
        return Program(items)

    def statement(self):
        if self._looks_like_def():
            return self.method_def()
        return self.expr()

    def _looks_like_def(self) -> bool:
        kinds = self.kinds
        if kinds[self.pos] not in ("IDENT", "PLUS") or kinds[self.pos + 1] != "LPAREN":
            return False
        # the lexer ends every statement with a NEWLINE; one without '='
        # cannot be a definition, and that test runs in C, not in the walk
        end = kinds.index("NEWLINE", self.pos)
        if "EQUALS" not in kinds[self.pos + 2:end]:
            return False
        depth = 0
        for k in range(self.pos + 1, end):
            kind = kinds[k]
            if kind == "LPAREN":
                depth += 1
            elif kind == "RPAREN":
                depth -= 1
                if depth == 0:
                    return kinds[k + 1] == "EQUALS"
        return False

    def method_def(self) -> MethodDef:
        t = self.next()
        fname = "+" if t[0] == "PLUS" else t[1]
        self.expect("LPAREN")
        params = []
        if self.kinds[self.pos] != "RPAREN":
            params.append(self.param())
            while self.kinds[self.pos] == "COMMA":
                self.pos += 1
                params.append(self.param())
        self.expect("RPAREN")
        self.expect("EQUALS")
        body = self.expr()
        for p in params[:-1]:
            if p.variadic:
                raise ParseError("only the last parameter may be variadic", t[2], t[3])
        return MethodDef(fname, params, body, t[2:])

    def param(self) -> Param:
        name = self.expect("IDENT")[1]
        type_name = None
        if self.kinds[self.pos] == "DCOLON":
            self.pos += 1
            type_name = self.expect("IDENT")[1]
        variadic = self.kinds[self.pos] == "ELLIPSIS"
        if variadic:
            self.pos += 1
        return Param(name, type_name, variadic)

    # precedence: additive < range < operand; after an operand a `+` is
    # always the infix operator, in operand position it heads a call. The
    # operands are read in this loop, not by a method of their own; `lo`
    # holds the left end of a range while its right end is read.
    def expr(self) -> Expr:
        toks, kinds = self.toks, self.kinds
        left = plus = lo = None
        while True:
            t = toks[self.pos]
            kind = t[0]
            self.pos += 1
            if kind == "INT":
                try:
                    e = Lit(int(t[1]), t[2:])
                except ValueError:  # more digits than the interpreter converts
                    raise ParseError(f"integer literal of {len(t[1])} digits is too long",
                                     *t[2:]) from None
            elif kind == "IDENT":
                if kinds[self.pos] == "LPAREN":
                    e = self.call(t[1], t)
                else:
                    e = Ident(t[1], t[2:])
            elif kind == "FLOAT":
                e = Lit(float(t[1]), t[2:])
                if e.value == math.inf:  # a literal has no sign, so is never -inf
                    raise ParseError(f"float literal of {len(t[1]) - 1} digits is too large",
                                     *t[2:])
            elif kind == "LPAREN":
                e = self.tuple_or_group(t)
            elif kind == "STRING":
                e = Lit(t[1], t[2:])
            elif kind == "PLUS" and kinds[self.pos] == "LPAREN":
                e = self.call("+", t)
            else:
                raise ParseError(f"unexpected {kind} {t[1]!r}", t[2], t[3])
            if lo is not None:
                e = RangeLit(lo, e, colon[2:])
                lo = None
            elif kinds[self.pos] == "COLON":
                lo, colon = e, self.next()
                continue
            left = e if plus is None else Call("+", [left, e], plus[2:])
            if kinds[self.pos] != "PLUS":
                return left
            plus = self.next()

    def call(self, fname: str, t: _Token) -> Call:
        self.pos += 1  # the LPAREN after the name
        kinds = self.kinds
        args = []
        if kinds[self.pos] != "RPAREN":
            while True:
                e = self.expr()
                if kinds[self.pos] == "ELLIPSIS":
                    e = Splice(e, self.next()[2:])
                args.append(e)
                if kinds[self.pos] != "COMMA":
                    break
                self.pos += 1
        self.expect("RPAREN")
        return Call(fname, args, t[2:])

    def tuple_or_group(self, t: _Token) -> Expr:
        kinds = self.kinds
        args = []
        while kinds[self.pos] != "RPAREN":
            e = self.expr()
            if kinds[self.pos] == "ELLIPSIS":
                e = Splice(e, self.next()[2:])
            elif not args and kinds[self.pos] == "RPAREN":
                self.pos += 1
                return e  # a parenthesized group
            args.append(e)
            if kinds[self.pos] != "COMMA":
                break
            self.pos += 1
        self.expect("RPAREN")
        return Call("tuple", args, t[2:])


def parse(source: str) -> Program:
    parser = _Parser(*_lex(source))
    try:
        return parser.program()
    except RecursionError:
        # nesting deep enough to exhaust the Python stack is reported at
        # the token the parser had reached
        _, _, line, col = parser.toks[parser.pos]
        raise ParseError("expression nested too deeply", line, col) from None


# -------------------------------------------------------------- printer

_ADD, _RANGE, _PRIMARY = 1, 2, 3


def _prec(e) -> int:
    if isinstance(e, Call) and e.fname == "+" and len(e.args) == 2 \
            and not any(isinstance(a, Splice) for a in e.args):
        return _ADD
    if isinstance(e, RangeLit):
        return _RANGE
    return _PRIMARY


def _pe(e, min_prec: int) -> str:
    if isinstance(e, Splice):
        return _pe(e.expr, _PRIMARY) + "..."
    p = _prec(e)
    if isinstance(e, Lit):
        if isinstance(e.value, str):
            body = e.value.replace("\\", "\\\\").replace('"', '\\"')
            s = f'"{body}"'
        else:
            s = repr(e.value)
            if "e" in s:  # the lexer reads no exponent: repr's digits, positionally
                from decimal import Decimal
                s = format(Decimal(s), "f")
                if "." not in s:
                    s += ".0"
    elif isinstance(e, Ident):
        s = e.name
    elif isinstance(e, RangeLit):
        s = f"{_pe(e.lo, _PRIMARY)}:{_pe(e.hi, _PRIMARY)}"
    elif isinstance(e, Call):
        if p == _ADD:
            # `a + b + c` parses to a left spine of any length: walk it in
            # a loop, not by recursion
            terms = []
            while _prec(e) == _ADD:
                terms.append(_pe(e.args[1], _RANGE))
                e = e.args[0]
            terms.append(_pe(e, _ADD))
            s = " + ".join(reversed(terms))
        else:
            # a loop, not a generator: one frame per level of nesting, so
            # whatever nesting the parser accepts also prints
            args = []
            for a in e.args:
                args.append(_pe(a, _ADD))
            s = e.fname + "(" + ", ".join(args) + ")"
    else:
        raise TypeError(f"not an expression: {e!r}")
    if p < min_prec:
        return "(" + s + ")"
    return s


def print_expr(e) -> str:
    return _pe(e, _ADD)


def _print_param(p: Param) -> str:
    s = p.name
    if p.type_name is not None:
        s += f"::{p.type_name}"
    if p.variadic:
        s += "..."
    return s


def print_program(p: Program) -> str:
    lines = []
    for item in p.items:
        if isinstance(item, MethodDef):
            params = ", ".join(_print_param(q) for q in item.params)
            lines.append(f"{item.fname}({params}) = {print_expr(item.body)}")
        else:
            lines.append(print_expr(item))
    return "\n".join(lines) + ("\n" if lines else "")
