"""Shape plans: an indexing rule's `index_shape` chain bound ahead of time.

A plan serves one rule and one tuple of index host classes. Inference
over the rule's frozen base, on the exact argument types, must prove
every call the chain makes STATIC: exactly one method covers the call's
whole argument type. Each such call is then bound to that method. A
native is called through its host function; a prelude body is compiled
once into closures over positional arguments that call their own bound
methods, so no call in a plan dispatches, builds an environment dict or
walks a syntax tree. The result is promoted to Shape once, at the top.

A plan runs the rule's own methods, so it computes what the generic
call computes; the base is frozen, so a plan never goes stale. Any
chain with a call inference cannot bind, and any syntax a plan does not
compile, gets no plan, and `indexing.index_shape` takes the generic
call. Compiled bodies are shared by every plan of a rule.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

from .dispatch import FunctionTable, Method
from .inference import InferenceState
from .lattice import Bottom, TupleType, make_tuple, meet
from .minilang import Call, Ident, Lit, Splice
from .runtime import _param_slots, base_functions, promote_shape

__all__ = ["MAX_PLAN_INDEXES", "shape_plan"]

# inference keeps this many tuple slots exact (its default widening
# bound); a longer index list would be analysed on a widened type
MAX_PLAN_INDEXES = 8


class _Unplannable(Exception):
    """A call in the chain is not proved STATIC, or a node is not compiled."""


@functools.cache
def shape_plan(rule: str, classes: tuple) -> Optional[Callable]:
    """The plan for `index_shape(*indices)` under `rule` when the indices'
    exact classes are `classes`, or None when there is none: more than
    MAX_PLAN_INDEXES indices, a class that is not a value kind of the
    base, or a chain that inference cannot bind."""
    base = base_functions(rule)
    if len(classes) > MAX_PLAN_INDEXES or not base.kinds.keys() >= set(classes):
        return None
    compiler = _Compiler(base, _compiled_bodies(rule))
    try:
        _, top = compiler.bound(base.lookup("index_shape"),
                                make_tuple(tuple(base.kinds[c] for c in classes)))
    except _Unplannable:
        return None
    if top is None:  # a native index_shape; no packaged rule has one
        return None
    compiler.commit()

    def plan(*indices):
        return promote_shape(top(indices))

    return plan


@functools.cache
def _compiled_bodies(rule: str) -> dict:
    """(method name, ordinal, narrowed type) -> compiled body, per rule."""
    return {}


class _Compiler:
    """Binds and compiles the calls reached from one plan's top call.

    Each build has its own InferenceState, so one build's instantiations
    do not count against the next build's budget. Bodies compiled by a
    build that fails are dropped; the rest join the rule's shared map.
    """

    def __init__(self, functions: FunctionTable, shared: dict):
        self.functions = functions
        self.state = InferenceState(functions)
        self.shared = shared
        self.fresh: dict = {}

    def commit(self) -> None:
        self.shared.update(self.fresh)

    def bound(self, gf, arg_type):
        """The one method inference proves a call of `gf` on `arg_type`
        reaches, and its body compiled to a function of the positional
        argument tuple (None for a native)."""
        _, m = self.state.infer_call(gf, arg_type)
        if m is None:
            raise _Unplannable(gf.name)
        if m.body is None:
            return m, None
        return m, self._body(m, meet(arg_type, m.sig_tuple, self.functions.types))

    def _body(self, m: Method, narrowed: TupleType) -> Callable:
        key = (m.fname, m.ordinal, narrowed)
        body = self.shared.get(key) or self.fresh.get(key)
        if body is None:
            if key in self.fresh:  # a call chain that re-enters this instance
                raise _Unplannable(m.label)
            self.fresh[key] = None
            body = self.fresh[key] = self._expr(m.body.body,
                                                self.state.bind(m, narrowed),
                                                _param_slots(m.body.params))
        return body

    def _expr(self, e, env: dict, slots: dict) -> Callable:
        if type(e) is Lit:
            v = e.value
            return lambda a: v
        if type(e) is Ident:
            if e.name not in slots:
                raise _Unplannable(e.name)
            return slots[e.name]
        if type(e) is not Call:
            raise _Unplannable(type(e).__name__)
        gf = self.functions.lookup(e.fname)
        arg_type, _ = self.state.call_arg_type(e, env)
        if gf is None or arg_type is Bottom:
            raise _Unplannable(e.fname)
        m, body = self.bound(gf, arg_type)
        parts = []
        for x in e.args:
            spliced = type(x) is Splice
            if spliced:
                x = x.expr
                # a value spliced by a plan must be a tuple
                if not isinstance(self.state.infer_expr(x, env), TupleType):
                    raise _Unplannable(e.fname)
            parts.append((self._expr(x, env, slots), spliced))
        if body is None:
            return _site(m.fn, parts)
        if [s for _, s in parts] == [True]:
            f = parts[0][0]
            return lambda a: body(f(a))
        return _site(lambda *xs: body(xs), parts)


def _site(fn, parts) -> Callable:
    """`fn` applied to the arguments the parts compute from the positional
    argument tuple, splicing the parts marked so. Only the argument
    patterns the packaged preludes use are compiled."""
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
    if pattern == (False, True):
        f, g = fs
        return lambda a: fn(f(a), *g(a))
    if pattern == (True, True):
        f, g = fs
        return lambda a: fn(*f(a), *g(a))
    raise _Unplannable(f"argument pattern {pattern}")
