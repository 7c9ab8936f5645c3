"""Dataflow type inference over minilang programs.

Works by abstract interpretation: each method is analyzed per distinct
(narrowed) argument tuple type, and every call joins the results of the
methods that could win dispatch for some concretization of the abstract
argument tuple: the survivors of the dispatcher's own selection rule,
which `GenericFunction.screen` gives and remembers (see `dispatch`), so
inference holds no selection state of its own. It reads the dispatcher,
the lattice and the syntax, and nothing of the evaluator: `runtime`
builds on it (shape plans bind the calls inference proves STATIC), not
the other way round.

Recursion is handled with per-instance frames. A frame consumed while
still being computed contributes its provisional result (starting at
Bottom, the empty type); the root of such a cycle recomputes until its
result stops ascending. Frames finished against provisional inputs are
discarded afterwards and recomputed on demand, which keeps memoized
results honest. An instance whose body read no unfinished (active or
provisional) result is final after one run: what it read is memoized
and cannot change, so a second run would only confirm it. The one
exception keeps reports exact: if some generic function went over its
instantiation budget during that run, later calls of it answer Any, so
the instance runs again until its result stops ascending, as a cycle's
root does.

Termination is forced rather than hoped for: every tuple type built
during inference is widened to a bounded number of fixed slots, a
function that re-enters itself with a longer argument tuple has the new
arguments widened down to the active frame's arity, and each generic
function gets a hard budget of distinct instantiations before inference
gives up and answers Any.

A call site is reported static only when every instantiation of its
enclosing context resolved it to the same single method covering all
possible concrete argument types; everything else, including sites
never reached, is dynamic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .dispatch import FunctionTable, GenericFunction, Method
from .lattice import (
    ANY,
    WIDEN_MAX_FIXED,
    Bottom,
    TupleType,
    TypeExpr,
    join,
    make_tuple,
    meet,
    render_type,
    widen,
)
from .minilang import Call, EvalError, Ident, Lit, MethodDef, RangeLit, Splice
from .values import INT, RANGE, type_of

__all__ = [
    "InferenceState",
    "SiteReport",
    "InferenceReport",
    "splice_types",
    "infer_call_type",
    "infer_program",
]

_ACTIVE, _PROVISIONAL, _DONE = range(3)

_ITERATION_CAP = 100
_INSTANTIATION_BUDGET = 64  # distinct instances per generic function
_NO_LINK = 1 << 30  # lowlink of a frame that consumed no unfinished result


@dataclass
class _Frame:
    key: tuple
    state: int = _ACTIVE
    result: TypeExpr = Bottom
    index: int = 0
    lowlink: int = _NO_LINK


@dataclass
class _Verdict:
    """What every analysis of one call site saw, folded as it arrives."""
    labels: set = field(default_factory=set)   # static method label or None
    result: TypeExpr = Bottom
    splice_elidable: bool = True


@dataclass
class SiteReport:
    loc: tuple
    fname: str
    static: bool
    method_label: Optional[str]
    result: TypeExpr
    splice_elidable: bool = False

    def render(self) -> str:
        kind = "STATIC" if self.static else "DYNAMIC"
        target = f" {self.method_label}" if self.method_label else ""
        return (f"{self.loc[0]}:{self.loc[1]} {kind}{target} "
                f"{render_type(self.result)}")


@dataclass
class InferenceReport:
    sites: list
    expr_types: list
    instantiations: int
    by_node: dict = field(default_factory=dict, repr=False)

    def render_lines(self) -> list[str]:
        return [s.render() for s in self.sites]


def splice_types(t: TypeExpr):
    """Abstract argument sequence (fixed list, tail) for a spliced value.

    Splicing something not known to be a tuple degrades to an unbounded
    Any suffix, which is sound for every runtime outcome.
    """
    if isinstance(t, TupleType):
        return list(t.fixed), t.tail
    if t is Bottom:
        return [], Bottom
    return [], ANY


class InferenceState:
    def __init__(self, functions: FunctionTable, widen_max_fixed: int = WIDEN_MAX_FIXED):
        if widen_max_fixed < 0:
            raise ValueError(f"widen_max_fixed must not be negative: {widen_max_fixed}")
        self.functions = functions
        self.types = functions.types
        self.max_fixed = widen_max_fixed
        self.frames: dict[tuple, _Frame] = {}
        self.stack: list[_Frame] = []
        self.active_args: list[tuple] = []  # (gf name, arg TupleType)
        self.per_gf_instances: dict[str, int] = {}
        self.instantiations = 0
        self.budget_crossings = 0  # functions that went over the budget
        self.sites: dict[int, _Verdict] = {}    # id(node) -> its verdict
        self.provisional: list[tuple] = []      # keys of _PROVISIONAL frames

    # ---------------------------------------------------------- helpers

    def _record_site(self, node: Call, static_method, result, splice_elidable):
        v = self.sites.get(id(node))
        if v is not None:  # a call in a body outside the analyzed items
            v.labels.add(static_method.label if static_method else None)
            v.result = join(v.result, result, self.types)
            v.splice_elidable = v.splice_elidable and splice_elidable

    # ------------------------------------------------------- expressions

    def infer_expr(self, e, env: dict) -> TypeExpr:
        if isinstance(e, Lit):
            return type_of(e.value)
        if isinstance(e, Ident):
            return env.get(e.name, Bottom)
        if isinstance(e, RangeLit):
            lo = self.infer_expr(e.lo, env)
            hi = self.infer_expr(e.hi, env)
            for t in (lo, hi):
                if t is Bottom or meet(t, INT, self.types) is Bottom:
                    return Bottom
            return RANGE
        if isinstance(e, Call):
            return self._infer_call_node(e, env)
        return ANY

    def _infer_call_node(self, node: Call, env: dict) -> TypeExpr:
        arg_type, unfixed = self.call_arg_type(node, env)
        elidable = not unfixed
        gf = self.functions.lookup(node.fname)
        if gf is None or arg_type is Bottom:
            self._record_site(node, None, Bottom, elidable)
            return Bottom
        result, static_method = self.infer_call(gf, arg_type)
        self._record_site(node, static_method, result, elidable)
        return result

    def call_arg_type(self, node: Call, env: dict):
        """The widened argument tuple type of a call node, Bottom when an
        argument can produce no value, and the types of its spliced values
        that are not tuple types of fixed length: when there are none, its
        splices could be elided. Arguments after a Bottom one are not
        inferred."""
        fixed: list = []
        tail: Optional[TypeExpr] = None
        unfixed: tuple = ()
        for a in node.args:
            spliced = isinstance(a, Splice)
            t = self.infer_expr(a.expr if spliced else a, env)
            if t is Bottom:
                return Bottom, unfixed
            if spliced:
                a_fixed, a_tail = splice_types(t)
                if not isinstance(t, TupleType) or a_tail is not None:
                    unfixed += (t,)
            else:
                a_fixed, a_tail = (t,), None
            # once a tail has begun, every later element joins it
            if tail is None:
                fixed.extend(a_fixed)
                tail = a_tail
            else:
                for x in a_fixed:
                    tail = join(tail, x, self.types)
                if a_tail is not None:
                    tail = join(tail, a_tail, self.types)
        return widen(make_tuple(tuple(fixed), tail), self.max_fixed, self.types), unfixed

    # ------------------------------------------------------------- calls

    def infer_call(self, gf: GenericFunction, arg_type: TypeExpr):
        """Result type and, when provably unique, the winning method."""
        if arg_type is Bottom:
            return Bottom, None
        if not isinstance(arg_type, TupleType):
            return ANY, None
        survivors, static = gf.screen(self._accelerate(gf, arg_type))
        if survivors is None:
            return Bottom, None
        if self.per_gf_instances.get(gf.name, 0) > _INSTANTIATION_BUDGET:
            return ANY, None
        result = Bottom
        for m, nt in survivors:
            result = join(result, self._infer_instance(gf, m, nt), self.types)
        return result, static

    def _accelerate(self, gf: GenericFunction, t: TupleType) -> TupleType:
        """Self-recursion with a longer tuple gets widened down to the
        arity already being analyzed, forcing the cycle closed."""
        lengths = [len(a.fixed) for name, a in self.active_args if name == gf.name]
        if lengths and len(t.fixed) > min(lengths):
            return widen(t, min(lengths), self.types)
        return t

    def _infer_instance(self, gf: GenericFunction, m: Method,
                        narrowed: TupleType) -> TypeExpr:
        key = (m.fname, m.ordinal, narrowed)
        fr = self.frames.get(key)
        if fr is not None:
            if fr.state in (_DONE, _PROVISIONAL):
                if fr.state == _PROVISIONAL and self.stack:
                    self.stack[-1].lowlink = min(self.stack[-1].lowlink,
                                                 fr.lowlink)
                return fr.result
            # active: a cycle; consume the provisional value
            if self.stack:
                self.stack[-1].lowlink = min(self.stack[-1].lowlink, fr.index)
            return fr.result

        n = self.per_gf_instances[gf.name] = self.per_gf_instances.get(gf.name, 0) + 1
        if n == _INSTANTIATION_BUDGET + 1:
            self.budget_crossings += 1
        self.instantiations += 1
        fr = _Frame(key, _ACTIVE, Bottom, index=len(self.stack))
        self.frames[key] = fr
        self.stack.append(fr)
        crossings = self.budget_crossings
        try:
            for _ in range(_ITERATION_CAP):
                before = fr.result
                low_before = fr.lowlink
                fr.lowlink = _NO_LINK
                r = self._run_body(gf, m, narrowed)
                fr.lowlink = min(fr.lowlink, low_before)
                r = join(before, r, self.types)
                changed = r != before
                fr.result = r
                if fr.lowlink < fr.index:
                    break  # inner member; an outer root drives iteration
                if not changed:
                    break
                if fr.lowlink == _NO_LINK and self.budget_crossings == crossings:
                    # read only DONE results, and no call's answer turned
                    # to Any meanwhile: a second run would see the same
                    break
                self._reset_provisionals()
            else:
                fr.result = ANY
        finally:
            self.stack.pop()
        if fr.lowlink < fr.index:
            fr.state = _PROVISIONAL
            self.provisional.append(key)
            if self.stack:
                self.stack[-1].lowlink = min(self.stack[-1].lowlink, fr.lowlink)
        else:
            fr.state = _DONE
            self._reset_provisionals()
        return fr.result

    def _reset_provisionals(self):
        for k in self.provisional:
            del self.frames[k]
        self.provisional.clear()

    def _run_body(self, gf: GenericFunction, m: Method,
                  narrowed: TupleType) -> TypeExpr:
        if m.transfer is not None:
            return widen(m.transfer(narrowed, self), self.max_fixed, self.types)
        if m.body is None:
            return ANY
        env = self.bind(m, narrowed)
        self.active_args.append((gf.name, narrowed))
        try:
            return self.infer_expr(m.body.body, env)
        finally:
            self.active_args.pop()

    def bind(self, m: Method, narrowed: TupleType) -> dict:
        """The type of each parameter of a minilang method's body when it
        runs on arguments of the narrowed tuple type."""
        d: MethodDef = m.body
        env = {}
        sig = m.signature
        n_fixed = len(sig.params) - 1 if sig.variadic else len(sig.params)
        for k in range(n_fixed):
            env[d.params[k].name] = narrowed.fixed[k]
        if sig.variadic:
            rest = make_tuple(narrowed.fixed[n_fixed:], narrowed.tail)
            env[d.params[-1].name] = widen(rest, self.max_fixed, self.types)
        return env


def infer_call_type(functions: FunctionTable, name: str, arg_type: TypeExpr,
                    widen_max_fixed: int = WIDEN_MAX_FIXED):
    """One-off query: (result type, static method or None)."""
    gf = functions.lookup(name)
    if gf is None:
        return Bottom, None
    state = InferenceState(functions, widen_max_fixed)
    return state.infer_call(gf, arg_type)


def _walk_calls(e, out: list):
    """Append the call nodes under `e` to `out` in preorder. The walk
    keeps its own stack, so a chain of any depth is walked."""
    todo = [e]
    while todo:
        e = todo.pop()
        if isinstance(e, Call):
            out.append(e)
            todo.extend(a.expr if isinstance(a, Splice) else a
                        for a in reversed(e.args))
        elif isinstance(e, RangeLit):
            todo.append(e.hi)
            todo.append(e.lo)


def infer_program(functions: FunctionTable, items,
                  widen_max_fixed: int = WIDEN_MAX_FIXED) -> InferenceReport:
    """Annotate every call site of the given program items.

    `items` are parsed statements (definitions and expressions); the
    definitions are assumed to be already present in `functions`. A
    top-level expression whose inference exhausts the Python stack raises
    EvalError("call depth exceeded") located at that expression, as
    `Runtime.run` does.
    """
    state = InferenceState(functions, widen_max_fixed)
    nodes: list[Call] = []
    for item in items:
        body = item.body if isinstance(item, MethodDef) else item
        _walk_calls(body, nodes)
    state.sites = {id(n): _Verdict() for n in nodes}
    expr_types = []
    for item in items:
        if not isinstance(item, MethodDef):
            try:
                expr_types.append(state.infer_expr(item, {}))
            except RecursionError:
                raise EvalError("call depth exceeded", item.loc) from None
    by_node = {}
    for n in nodes:
        v = state.sites[id(n)]
        static = len(v.labels) == 1 and None not in v.labels
        label = next(iter(v.labels)) if static else None
        # a site never reached has no labels: DYNAMIC, Bottom, not elidable
        by_node[id(n)] = SiteReport(n.loc, n.fname, static, label, v.result,
                                    bool(v.labels) and v.splice_elidable)
    sites = sorted(by_node.values(), key=lambda s: s.loc)
    return InferenceReport(sites, expr_types, state.instantiations, by_node)
