"""Plain-Python reference semantics for the generated minilang programs.

Nothing here calls into dispatchkit. Generators build programs as trees
of the node classes below; each tree renders to minilang source (with
the line and column of every call site) and evaluates here to its
expected value, the number of minilang calls the language's semantics
make, and the deepest nesting of active calls.

Counting rule: every evaluated call node is one call, natives included,
and a tuple literal is a call of the `tuple` native (that is how the
language parses it). A call's depth is one more than the deepest call
its method body makes; argument calls run before the call, so they
count at the caller's level.

Values are Python ints, floats and tuples. Floats in generated programs
are multiples of 1/4 with small magnitudes, so every sum is exact and
outputs compare with `==`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ShapeValue(tuple):
    """A tuple produced by index_shape; the CLI prints it as Shape(...)."""


@dataclass(frozen=True)
class RangeValue:
    lo: int
    hi: int

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1


# ------------------------------------------------------------- natives


def add(a, b):
    """`+`: Int + Int stays Int; any Float makes both operands Float."""
    if type(a) is int and type(b) is int:
        return a + b
    return float(a) + float(b)


def native_sum(xs):
    """`sum`: the Integer... method when every argument is an Int (also
    for no arguments, as it is the more specific one), else Real...."""
    if all(type(x) is int for x in xs):
        return sum(xs)
    return math.fsum(xs)


def index_length(i) -> int:
    return i.length if isinstance(i, RangeValue) else 1


def index_size(i) -> tuple:
    return (i.length,) if isinstance(i, RangeValue) else ()


def is_scalar(i) -> bool:
    return not isinstance(i, RangeValue)


# Each rule mirrors the method structure of its packaged prelude, so the
# call count and depth follow the same recursion the language performs.
# All four return (shape, calls, depth) for a list of Int/Range indexes.

def _trailing_drop(idx):
    if all(is_scalar(i) for i in idx):
        return (), 2, 2                      # index_shape(i::Real...) = ()
    shape, calls, depth = _trailing_drop(idx[1:])
    return (index_length(idx[0]),) + shape, calls + 3, 1 + max(1, depth)


def _all_drop(idx):
    if not idx:
        return (), 2, 2
    shape, calls, depth = _all_drop(idx[1:])
    if is_scalar(idx[0]):                    # index_shape(i::Real, I...)
        return shape, calls + 1, 1 + depth
    return (index_length(idx[0]),) + shape, calls + 3, 1 + max(1, depth)


def _apl(idx):
    if not idx:
        return (), 2, 2
    shape, calls, depth = _apl(idx[1:])
    return index_size(idx[0]) + shape, calls + 3, 1 + max(1, depth)


def _keep_shape(idx):
    if not idx:
        return (), 2, 2
    shape, calls, depth = _keep_shape(idx[1:])
    return (index_length(idx[0]),) + shape, calls + 3, 1 + max(1, depth)


def _drop_size1(idx):
    shape, calls, depth = _keep_shape(idx)
    k = len(shape)
    while k > 0 and shape[k - 1] == 1:
        k -= 1
    return shape[:k], calls + 2, 1 + max(depth, 1)


RULES = {
    "trailing-drop": _trailing_drop,
    "all-drop": _all_drop,
    "apl": _apl,
    "drop-size1": _drop_size1,
}


def index_shape(rule: str, idx):
    shape, calls, depth = RULES[rule](list(idx))
    return ShapeValue(shape), calls, depth


# ---------------------------------------------------------- syntax trees


class Writer:
    """Accumulates one line of source and the column of every call site."""

    def __init__(self):
        self.parts: list[str] = []
        self.col = 1
        self.sites: list[tuple[int, "Node"]] = []

    def put(self, text: str):
        self.parts.append(text)
        self.col += len(text)

    def site(self, node):
        self.sites.append((self.col, node))

    def text(self) -> str:
        return "".join(self.parts)


class Node:
    def emit(self, w: Writer):
        raise NotImplementedError

    def source(self) -> str:
        w = Writer()
        self.emit(w)
        return w.text()


@dataclass(eq=False)
class Lit(Node):
    value: object

    def emit(self, w):
        w.put(repr(self.value) if isinstance(self.value, float) else str(self.value))


@dataclass(eq=False)
class Var(Node):
    name: str

    def emit(self, w):
        w.put(self.name)


@dataclass(eq=False)
class RangeLit(Node):
    lo: int
    hi: int

    def emit(self, w):
        w.put(f"{self.lo}:{self.hi}")


@dataclass(eq=False)
class Splice(Node):
    node: Node

    def emit(self, w):
        self.node.emit(w)
        w.put("...")


@dataclass(eq=False)
class Call(Node):
    fname: str
    args: list

    def emit(self, w):
        w.site(self)
        w.put(self.fname + "(")
        for k, a in enumerate(self.args):
            if k:
                w.put(", ")
            a.emit(w)
        w.put(")")


@dataclass(eq=False)
class Plus(Node):
    """Infix `a + b`; the call site is the `+` token."""
    a: Node
    b: Node

    def emit(self, w):
        self.a.emit(w)
        w.put(" ")
        w.site(self)
        w.put("+ ")
        grouped = isinstance(self.b, Plus)  # `+` is left-associative
        if grouped:
            w.put("(")
        self.b.emit(w)
        if grouped:
            w.put(")")


@dataclass(eq=False)
class Tup(Node):
    """Tuple literal; parses to a call of `tuple` located at `(`."""
    items: list

    def emit(self, w):
        w.site(self)
        w.put("(")
        for k, a in enumerate(self.items):
            if k:
                w.put(", ")
            a.emit(w)
        if len(self.items) == 1 and not isinstance(self.items[0], Splice):
            w.put(",")
        w.put(")")


# ------------------------------------------------------------ evaluation


class MirrorError(Exception):
    """The reference semantics predict that the program raises here."""

    def __init__(self, message: str, site: Node):
        super().__init__(message)
        self.site = site


def evaluate(node: Node, env: dict, functions: dict):
    """(value, calls, depth) of a node under the reference semantics.

    `functions` maps a name to fn(args, site) -> (value, calls, depth),
    the call itself included; the natives `+`, `tuple`, `sum`, `length`
    and `index_shape` are looked up there too.
    """
    if isinstance(node, Lit):
        return node.value, 0, 0
    if isinstance(node, Var):
        return env[node.name], 0, 0
    if isinstance(node, RangeLit):
        return RangeValue(node.lo, node.hi), 0, 0
    if isinstance(node, Plus):
        fname, arg_nodes = "+", [node.a, node.b]
    elif isinstance(node, Tup):
        fname, arg_nodes = "tuple", node.items
    else:
        fname, arg_nodes = node.fname, node.args
    args: list = []
    calls = depth = 0
    for a in arg_nodes:
        inner = a.node if isinstance(a, Splice) else a
        v, c, d = evaluate(inner, env, functions)
        calls += c
        depth = max(depth, d)
        if isinstance(a, Splice):
            args.extend(v)
        else:
            args.append(v)
    v, c, d = functions[fname](args, node)
    return v, calls + c, max(depth, d)


def native_functions(rule: str) -> dict:
    return {
        "+": lambda args, site: (add(*args), 1, 1),
        "tuple": lambda args, site: (tuple(args), 1, 1),
        "sum": lambda args, site: (native_sum(args), 1, 1),
        "length": lambda args, site: (index_length(args[0]), 1, 1),
        "index_shape": lambda args, site: index_shape(rule, args),
    }


# ------------------------------------------------------------- rendering


def type_name(v) -> str:
    """The lattice type the program assigns to a mirror value."""
    if type(v) is int:
        return "Int"
    if type(v) is float:
        return "Float"
    if isinstance(v, RangeValue):
        return "Range"
    return "(" + ", ".join(type_name(x) for x in v) + ")"


def render_value(v) -> str:
    """The CLI's text form of a value."""
    if type(v) is float:
        return repr(v)
    if type(v) is int:
        return str(v)
    if isinstance(v, ShapeValue):
        return "Shape(" + ", ".join(str(e) for e in v) + ")"
    if len(v) == 1:
        return "(" + render_value(v[0]) + ",)"
    return "(" + ", ".join(render_value(x) for x in v) + ")"


def same_value(got, want) -> bool:
    """Equal values of equal kinds: an Int never matches a Float."""
    if isinstance(want, tuple):
        return (isinstance(got, tuple) and len(got) == len(want)
                and all(same_value(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want
