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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

__all__ = [
    "ParseError",
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


Loc = tuple


@dataclass
class Lit:
    value: Union[int, float, str]
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass
class Ident:
    name: str
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass
class RangeLit:
    lo: "Expr"
    hi: "Expr"
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass
class Splice:
    expr: "Expr"
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass
class Call:
    fname: str
    args: list
    loc: Loc = field(default=(0, 0), compare=False)


Expr = Union[Lit, Ident, RangeLit, Call]


@dataclass
class Param:
    name: str
    type_name: Optional[str] = None
    variadic: bool = False


@dataclass
class MethodDef:
    fname: str
    params: list
    body: Expr
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass
class Program:
    items: list


# ---------------------------------------------------------------- lexer

# One alternation, tried in order at each position, the commonest tokens
# first; BADNUM and BADSTR only match where FLOAT/INT and STRING failed,
# and CHAR catches everything else. Identifiers start with a letter or '_'
# ([^\W\d] also admits non-decimal digits such as '²'; _lex rejects
# those). A '.' after digits starts a float only when it does not begin
# '...'. A comment takes no columns: the NEWLINE after it, or the end of
# input, is located at its '#'.
_TOKEN = re.compile(r"""
    (?P<IDENT>[^\W\d]\w*) | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,)
  | (?P<SKIP>[ \t\r]+)
  | (?P<FLOAT>[0-9]+\.[0-9]+) | (?P<BADNUM>[0-9]+\.(?!\.\.)) | (?P<INT>[0-9]+)
  | (?P<PLUS>\+) | (?P<NEWLINE>(?:\#[^\n]*)?\n) | (?P<COMMENT>\#[^\n]*)
  | (?P<ELLIPSIS>\.\.\.) | (?P<DCOLON>::) | (?P<COLON>:) | (?P<EQUALS>=)
  | (?P<STRING>"(?:[^"\\\n]|\\[\\"]|\\(?![\\"]))*") | (?P<BADSTR>")
  | (?P<CHAR>.)
""", re.VERBOSE)
_ESCAPE = re.compile(r'\\([\\"])')

# a token is (kind, text, line, col); tok[2:] is its location
_Token = tuple


def _lex(source: str) -> list[_Token]:
    toks: list[_Token] = []
    line, line_start, depth, end = 1, 0, 0, len(source)
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        pos = m.start()
        if kind == "COMMENT":  # only at end of input
            end = pos
            continue
        col = pos - line_start + 1
        if kind == "NEWLINE":
            if depth == 0 and toks and toks[-1][0] != "NEWLINE":
                toks.append(("NEWLINE", "\n", line, col))
            line += 1
            line_start = m.end()
            continue
        text = m.group()
        if kind == "IDENT":
            if not (text[0].isalpha() or text[0] == "_"):
                raise ParseError(f"unexpected character {text[0]!r}", line, col)
        elif kind == "LPAREN":
            depth += 1
        elif kind == "RPAREN":
            depth = max(0, depth - 1)
        elif kind == "STRING":
            text = _ESCAPE.sub(r"\1", text[1:-1])
        elif kind == "BADNUM":
            raise ParseError("malformed number", line, col)
        elif kind == "BADSTR":
            raise ParseError("unterminated string", line, col)
        elif kind == "CHAR":
            raise ParseError(f"unexpected character {text!r}", line, col)
        toks.append((kind, text, line, col))
    col = end - line_start + 1
    if toks and toks[-1][0] != "NEWLINE":
        toks.append(("NEWLINE", "\n", line, col))
    toks.append(("EOF", "", line, col))
    return toks


# --------------------------------------------------------------- parser


class _Parser:
    """Recursive descent over the token list; `kinds[pos]` is the lookahead
    (the EOF token is last and never consumed)."""

    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.kinds = [t[0] for t in toks]
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

    # precedence: additive < range < primary; after an operand a `+` is
    # always the infix operator, in operand position it heads a call
    def expr(self) -> Expr:
        kinds = self.kinds
        left = plus = None
        while True:
            e = self.primary()
            if kinds[self.pos] == "COLON":
                t = self.next()
                e = RangeLit(e, self.primary(), t[2:])
            left = e if plus is None else Call("+", [left, e], plus[2:])
            if kinds[self.pos] != "PLUS":
                return left
            plus = self.next()

    def primary(self) -> Expr:
        t = self.toks[self.pos]
        kind = t[0]
        if kind == "IDENT":
            self.pos += 1
            if self.kinds[self.pos] == "LPAREN":
                return self.call(t[1], t)
            return Ident(t[1], t[2:])
        if kind == "INT":
            self.pos += 1
            try:
                return Lit(int(t[1]), t[2:])
            except ValueError:  # more digits than the interpreter converts
                raise ParseError(f"integer literal of {len(t[1])} digits is too long",
                                 *t[2:]) from None
        if kind == "FLOAT":
            self.pos += 1
            return Lit(float(t[1]), t[2:])
        if kind == "STRING":
            self.pos += 1
            return Lit(t[1], t[2:])
        if kind == "PLUS" and self.kinds[self.pos + 1] == "LPAREN":
            self.pos += 1
            return self.call("+", t)
        if kind == "LPAREN":
            return self.tuple_or_group()
        self.fail(f"unexpected {kind} {t[1]!r}")

    def call(self, fname: str, t: _Token) -> Call:
        self.pos += 1  # the LPAREN both callers have seen
        args = []
        if self.kinds[self.pos] != "RPAREN":
            args.append(self.argument())
            while self.kinds[self.pos] == "COMMA":
                self.pos += 1
                args.append(self.argument())
        self.expect("RPAREN")
        return Call(fname, args, t[2:])

    def argument(self):
        e = self.expr()
        if self.kinds[self.pos] == "ELLIPSIS":
            return Splice(e, self.next()[2:])
        return e

    def tuple_or_group(self) -> Expr:
        t = self.next()
        kinds = self.kinds
        if kinds[self.pos] == "RPAREN":
            self.pos += 1
            return Call("tuple", [], t[2:])
        first = self.argument()
        if kinds[self.pos] == "RPAREN":
            self.pos += 1
            if isinstance(first, Splice):
                return Call("tuple", [first], t[2:])
            return first
        args = [first]
        while kinds[self.pos] == "COMMA":
            self.pos += 1
            if kinds[self.pos] == "RPAREN":
                break
            args.append(self.argument())
        self.expect("RPAREN")
        return Call("tuple", args, t[2:])


def parse(source: str) -> Program:
    parser = _Parser(_lex(source))
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
            s = e.fname + "(" + ", ".join(_pe(a, _ADD) for a in e.args) + ")"
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
