"""Evaluator and base environment for minilang programs.

A Runtime owns a type table and a function table filled from the frozen
base of its indexing rule: the natives (tuple, length, size, +, error,
sum, droptrail1) and the rule's prelude methods. Programs load
incrementally; their definitions extend the function table and their
top-level expressions evaluate through the dispatch engine, so every
call in a trace went through the same method selection as `select`.
Method bodies are compiled on their first call; top-level expressions
are walked, and walked and compiled calls share one dispatcher (see
Evaluator). `_compile_expr` is the one compiler from minilang syntax to
closures: the evaluator gives it call sites that dispatch, and shape
plans (see plans) give it call sites that inference has bound.

Native methods carry a transfer annotation: the result type as a
function of the (already narrowed) argument tuple type. The inference
engine consults it where a minilang body would otherwise be walked.
"""

from __future__ import annotations

import functools
import math
from operator import itemgetter
from typing import Callable, Optional

from .dispatch import DispatchError, FunctionTable, MethodSignature, dispatch_call
from .lattice import (ANY, WIDEN_MAX_FIXED, Bottom, TupleType, TypeTable, UndeclaredTypeError,
                      make_tuple)
from .minilang import Call, Ident, Lit, MethodDef, Program, RangeLit, Splice, parse
from .ndarray import NdArray, Range, Shape
from .preludes import prelude_source
from .values import FLOAT, INT, INTEGER, INT_ARRAY, RANGE, REAL, STRING

__all__ = ["EvalError", "LangError", "Evaluator", "Runtime", "base_functions",
           "promote_shape"]


class LangError(Exception):
    """Raised by the `error` native; carries only the user message."""


class EvalError(Exception):
    def __init__(self, message: str, loc=None):
        self.message = message
        self.loc = loc
        super().__init__(self._render())

    def _render(self) -> str:
        if self.loc:
            return f"line {self.loc[0]}, column {self.loc[1]}: {self.message}"
        return self.message


def promote_shape(v):
    """An index_shape result as ndarray consumes it back: a plain tuple of
    non-negative integers becomes a Shape; anything else is returned as is."""
    if type(v) is not tuple:
        return v
    for x in v:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            return v
    return tuple.__new__(Shape, v)  # the extents were just checked


def _param_slots(params) -> dict:
    """Each parameter name mapped to a getter of its value from the
    positional argument tuple: `itemgetter(k)`, or the tuple `a[k:]` for
    a variadic parameter. A later parameter of the same name wins."""
    return {p.name: itemgetter(slice(k, None) if p.variadic else k)
            for k, p in enumerate(params)}


def _call(fn, parts) -> Callable:
    """`fn` applied to the arguments of one call, as a function of the
    positional argument tuple. `parts` lists (closure, spliced) pairs in
    argument order; each closure takes the positional tuple, and a
    spliced one returns a tuple whose elements are passed in its place.
    The patterns the evaluator's and the plans' calls use most get a
    closure of their own (see ROADMAP item 2); a loop builds the rest."""
    pattern = tuple(s for _, s in parts)
    fs = [f for f, _ in parts]
    if pattern == ():
        return lambda a: fn()
    if pattern == (False,):
        f, = fs
        return lambda a: fn(f(a))
    if pattern == (True,):
        f, = fs
        return lambda a: fn(*f(a))
    if pattern == (False, False):
        f, g = fs
        return lambda a: fn(f(a), g(a))
    if pattern == (False, True):
        f, g = fs
        return lambda a: fn(f(a), *g(a))
    if pattern == (True, True):
        f, g = fs
        return lambda a: fn(*f(a), *g(a))

    def call(a):
        args = []
        for f, spliced in parts:
            if spliced:
                args.extend(f(a))
            else:
                args.append(f(a))
        return fn(*args)

    return call


def _compile_expr(e, slots: dict, site: Callable) -> Callable:
    """`e` as a function of the positional argument tuple. `slots` maps
    the parameters to their getters; `site(call, parts)` builds each call
    from its arguments' (closure, spliced) pairs."""
    kind = type(e)
    if kind is Call:
        return site(e, [(_compile_expr(x.expr, slots, site), True)
                        if type(x) is Splice
                        else (_compile_expr(x, slots, site), False)
                        for x in e.args])
    if kind is Ident and e.name in slots:
        return slots[e.name]
    if kind is Lit:
        v = e.value
        return lambda a: v
    if kind is RangeLit:
        lo = _compile_expr(e.lo, slots, site)
        hi = _compile_expr(e.hi, slots, site)
        return lambda a: _range(e, lo(a), hi(a))

    def fail(a):  # an unbound identifier or a node no body holds
        raise _unevaluable(e)

    return fail


class Evaluator:
    """Runs minilang against a function table.

    A method body is compiled on its first call into closures over the
    positional argument tuple, and the method's `fn` is replaced by the
    compiled body; `define` compiles nothing. Top-level expressions run
    once, so `run_items` walks their syntax trees instead. Both reach
    every call through a `_dispatcher`, which dispatches, converts errors
    to EvalError at the call's location and notifies the observer.
    """

    def __init__(self, functions: FunctionTable,
                 observer: Optional[Callable] = None):
        self.functions = functions
        self.observer = observer

    def signature_of(self, d: MethodDef) -> MethodSignature:
        params = []
        spec = []
        for p in d.params:
            if p.type_name is None:
                params.append(ANY)
                spec.append(False)
            else:
                try:
                    params.append(self.functions.types.named(p.type_name))
                except UndeclaredTypeError:
                    raise EvalError(f"unknown type {p.type_name}", d.loc) from None
                spec.append(True)
        variadic = bool(d.params) and d.params[-1].variadic
        return MethodSignature(tuple(params), variadic, tuple(spec))

    def define(self, d: MethodDef):
        sig = self.signature_of(d)
        m = None

        def first_call(*args):
            body = self._compile_body(d)
            m.fn = lambda *a: body(a)
            return body(args)  # here, so a first call needs no deeper stack

        m = self.functions.function(d.fname).define(sig, first_call, body=d)
        return m

    def _compile_body(self, d: MethodDef) -> Callable:
        """`d`'s body as a function of the positional argument tuple."""
        body = _compile_expr(d.body, _param_slots(d.params), self._site)
        if d.fname == "index_shape":
            return lambda a: promote_shape(body(a))
        return body

    def run_items(self, prog: Program) -> list:
        trace = []
        for item in prog.items:
            if isinstance(item, MethodDef):
                self.define(item)
            else:
                try:
                    trace.append(self.eval(item))
                except RecursionError:
                    raise EvalError("call depth exceeded", item.loc) from None
        return trace

    # --------------------------------------------------- the tree walker

    def eval(self, e):
        """The value of a top-level expression, where no name is bound."""
        kind = type(e)
        if kind is Call:
            args = []
            for x in e.args:
                if type(x) is Splice:
                    args.extend(_spliced(x, self.eval(x.expr)))
                else:
                    args.append(self.eval(x))
            return self._dispatcher(e)(*args)
        if kind is Lit:
            return e.value
        if kind is RangeLit:
            return _range(e, self.eval(e.lo), self.eval(e.hi))
        raise _unevaluable(e)

    # ------------ compiled call sites, and the dispatcher the walker shares

    def _site(self, e: Call, parts: list) -> Callable:
        """The call `e` of a compiled body, dispatched on every call."""
        parts = [((lambda a, f=f, x=x: _spliced(x, f(a))), True) if spliced
                 else (f, False)
                 for (f, spliced), x in zip(parts, e.args)]
        return _call(self._dispatcher(e), parts)

    def _dispatcher(self, e: Call) -> Callable:
        """`dispatch(*args)`: the call `e` on `args`. Its generic function
        is looked up until found, then kept."""
        functions = self.functions
        gf = functions.lookup(e.fname)

        def dispatch(*args):
            nonlocal gf
            if gf is None:
                gf = functions.lookup(e.fname)
                if gf is None:
                    raise EvalError(f"unknown function {e.fname}", e.loc)
            try:
                m = gf.method_for_args(args)
            except (TypeError, DispatchError) as err:  # TypeError: from type_of
                raise EvalError(str(err), e.loc) from None
            try:
                result = m.fn(*args)
            except (DispatchError, LangError) as err:
                raise EvalError(str(err), e.loc) from None
            if self.observer is not None:
                self.observer(e, m, args, result)
            return result

        return dispatch


def _unevaluable(e) -> EvalError:
    """The error for an expression that has no value where it stands."""
    if type(e) is Ident:
        return EvalError(f"unbound identifier {e.name}", e.loc)
    return EvalError(f"cannot evaluate {e!r}", getattr(e, "loc", None))


def _spliced(x: Splice, v) -> tuple:
    if isinstance(v, tuple):  # a Shape splices as it is
        return v
    raise EvalError("only tuples can be spliced", x.loc)


def _range(e: RangeLit, lo, hi) -> Range:
    try:
        return Range(lo, hi)
    except (TypeError, ValueError) as err:
        raise EvalError(str(err), e.loc) from None


# ------------------------------------------------------------- natives


def _real_add(a, b) -> float:
    try:
        return float(a) + float(b)
    except OverflowError:
        raise LangError("Int too large to convert to Float") from None


def _real_sum(*xs) -> float:
    """The correctly rounded sum; where `math.fsum` raises on an infinite
    or undefined result, the IEEE inf or nan that left-to-right `+` gives."""
    try:
        return math.fsum(xs)
    except (OverflowError, ValueError):
        return functools.reduce(_real_add, xs, 0.0)


def _droptrail1(t: tuple) -> tuple:
    """`t` without its trailing 1s; dispatch on `(Int...)` checked `t`."""
    k = len(t)
    while k > 0 and t[k - 1] == 1:
        k -= 1
    return tuple(t[:k])


@functools.cache
def base_functions(rule: str) -> FunctionTable:
    """The natives and `rule`'s prelude methods in one table, built once
    per process and frozen; `indexing.index_shape` dispatches on it."""
    ft = FunctionTable(TypeTable.prelude())
    sig = MethodSignature
    int_tuple = make_tuple((), INT)
    empty = make_tuple(())

    def fixed(t):
        return lambda args, ctx: t

    ft.define("tuple", sig((ANY,), True), lambda *xs: tuple(xs),
              transfer=lambda args, ctx: args)

    ft.define("length", sig((REAL,)), lambda x: 1, transfer=fixed(INT))
    ft.define("length", sig((RANGE,)), lambda r: r.length, transfer=fixed(INT))
    ft.define("length", sig((INT_ARRAY,)), lambda a: len(a.buffer),
              transfer=fixed(INT))

    ft.define("size", sig((REAL,)), lambda x: Shape(()), transfer=fixed(empty))
    ft.define("size", sig((RANGE,)), lambda r: Shape((r.length,)),
              transfer=fixed(make_tuple((INT,))))
    ft.define("size", sig((INT_ARRAY,)), NdArray.size,
              transfer=fixed(int_tuple))

    ft.define("+", sig((INT, INT)), lambda a, b: a + b, transfer=fixed(INT))
    ft.define("+", sig((REAL, REAL)), _real_add, transfer=fixed(FLOAT))

    def _error(msg):
        raise LangError(msg)

    ft.define("error", sig((STRING,)), _error, transfer=fixed(Bottom))

    ft.define("sum", sig((INTEGER,), True), lambda *xs: sum(xs),
              transfer=fixed(INT))
    ft.define("sum", sig((REAL,), True), _real_sum,
              transfer=fixed(FLOAT))

    def droptrail1_transfer(args: TupleType, ctx):
        inner = args.fixed[0] if args.fixed else int_tuple
        return empty if inner == empty else int_tuple

    ft.define("droptrail1", sig((int_tuple,)), _droptrail1,
              transfer=droptrail1_transfer)

    Evaluator(ft).run_items(parse(prelude_source(rule)))
    ft.freeze()
    ft.types.freeze()
    return ft


class Runtime:
    """One loaded program: types, functions, active indexing rule."""

    widen_max_fixed = WIDEN_MAX_FIXED  # the bound to infer this program with

    def __init__(self, index_rule: str = "trailing-drop"):
        self.types = TypeTable.prelude()
        self.functions = FunctionTable(self.types)
        self.index_rule = index_rule
        self.items: list = []
        self._evaluator = Evaluator(self.functions)
        # share natives; re-define prelude bodies to call through this table
        for base in base_functions(index_rule):
            for m in base.methods:
                if m.body is None:
                    self.functions.function(m.fname).methods.append(m)
                else:
                    self._evaluator.define(m.body)

    def load_definitions(self, source: str) -> Program:
        """Parse and define methods; top-level expressions are kept,
        not evaluated."""
        prog = parse(source)
        for item in prog.items:
            if isinstance(item, MethodDef):
                self._evaluator.define(item)
        self.items.extend(prog.items)
        return prog

    def run(self, source: str, observer=None) -> list:
        """Parse, define, and evaluate; returns the value trace.

        A top-level expression whose calls exhaust the Python stack raises
        EvalError located at that expression.

        The observer, when given, sees every call made while this source
        runs, including calls inside previously defined method bodies:
        `observer(call, method, args, result)`, with `args` a tuple.
        """
        prog = parse(source)
        self.items.extend(prog.items)
        saved = self._evaluator.observer
        if observer is not None:
            self._evaluator.observer = observer
        try:
            return self._evaluator.run_items(prog)
        finally:
            self._evaluator.observer = saved

    def call(self, name: str, *args):
        gf = self.functions.lookup(name)
        if gf is None:
            raise EvalError(f"unknown function {name}")
        try:
            return dispatch_call(gf, args)
        except RecursionError:
            raise EvalError("call depth exceeded") from None

    def expressions(self) -> list:
        return [it for it in self.items if not isinstance(it, MethodDef)]
