"""Shape plans: an indexing rule's `index_shape` chain bound ahead of time.

A plan serves one rule and one tuple of index host classes. Inference
over the rule's frozen base, on the exact argument types, must prove
every call the chain makes STATIC: exactly one method covers the call's
whole argument type. Each such call is then bound to that method. A
native is called through its host function; a prelude body is compiled
once per plan build by the evaluator's compiler, `runtime._compile_expr`,
given call sites that call their bound methods, so no call in a plan
dispatches, builds an environment dict or walks a syntax tree. The
result is promoted to Shape once, at the top.

A plan runs the rule's own methods, so it computes what the generic
call computes; the base is frozen, so a plan never goes stale. A chain
with a call inference cannot bind gets no plan, and `indexing.index_shape`
takes the generic call.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

from .dispatch import FunctionTable, Method
from .inference import InferenceState
from .lattice import WIDEN_MAX_FIXED, Bottom, TupleType, make_tuple, meet
from .minilang import Call
from .runtime import _call, _compile_expr, _param_slots, base_functions, promote_shape

__all__ = ["MAX_PLAN_INDEXES", "shape_plan"]

# a longer index list would be analysed on a widened type
MAX_PLAN_INDEXES = WIDEN_MAX_FIXED


class _Unplannable(Exception):
    """A call in the chain is not proved STATIC."""


@functools.cache
def shape_plan(rule: str, classes: tuple) -> Optional[Callable]:
    """The plan for `index_shape(*indices)` under `rule` when the indices'
    exact classes are `classes`, or None when there is none: more than
    MAX_PLAN_INDEXES indices, a class that is not a value kind of the
    base, or a chain that inference cannot bind."""
    base = base_functions(rule)
    if len(classes) > MAX_PLAN_INDEXES or not base.kinds.keys() >= set(classes):
        return None
    try:
        _, top = _Compiler(base).bound(
            base.lookup("index_shape"),
            make_tuple(tuple(base.kinds[c] for c in classes)))
    except _Unplannable:
        return None

    def plan(*indices):
        return promote_shape(top(indices))

    return plan


class _Compiler:
    """Binds and compiles the calls reached from one plan's top call.

    Each build has its own InferenceState, so one build's instantiations
    do not count against the next build's budget, and its own map of
    compiled bodies.
    """

    def __init__(self, functions: FunctionTable):
        self.functions = functions
        self.state = InferenceState(functions)
        self.bodies: dict = {}  # (method name, ordinal, narrowed type) -> body

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
        body = self.bodies.get(key)
        if body is None:
            if key in self.bodies:  # a call chain that re-enters this instance
                raise _Unplannable(m.label)
            self.bodies[key] = None
            env = self.state.bind(m, narrowed)
            body = self.bodies[key] = _compile_expr(
                m.body.body, _param_slots(m.body.params),
                lambda e, parts: self._site(e, parts, env))
        return body

    def _site(self, e: Call, parts: list, env: dict) -> Callable:
        """The call `e`, bound to the one method inference proves it
        reaches in a body whose parameters have the types in `env`."""
        gf = self.functions.lookup(e.fname)
        arg_type, unfixed = self.state.call_arg_type(e, env)
        # a value spliced by a plan must be a tuple
        if gf is None or arg_type is Bottom or not all(
                isinstance(t, TupleType) for t in unfixed):
            raise _Unplannable(e.fname)
        m, body = self.bound(gf, arg_type)
        if body is None:
            return _call(m.fn, parts)
        if len(parts) == 1 and parts[0][1]:
            f = parts[0][0]  # its tuple is the body's positional tuple
            return lambda a: body(f(a))
        return _call(lambda *xs: body(xs), parts)
