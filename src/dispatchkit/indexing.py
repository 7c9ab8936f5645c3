"""Array indexing with pluggable result-shape rules.

The shape of an indexing result is not computed by host code: getindex
hands the index values to the `index_shape` generic function of the
active rule set and uses whatever shape those minilang methods produce.
Swapping rule sets swaps a handful of method definitions and nothing
else, which is the point of the design. Views ask the same
`index_shape` for their shape, and getindex copies elements with
`ndarray.gather`, the one copy loop that `views.to_array` also uses.

The methods called are those of the rule's frozen `base_functions`.
An index list of at most `plans.MAX_PLAN_INDEXES` indexes whose classes
have a shape plan runs that plan: the same methods, bound ahead of time
by inference, so the chain neither dispatches nor walks syntax trees.
Every other list, and any list whose plan raises, takes the generic
call, which raises the documented error.
"""

from __future__ import annotations

from .ndarray import BoundsError, IndexArg, NdArray, Range, RankMismatchError, Shape, gather
from .plans import MAX_PLAN_INDEXES, shape_plan
from .preludes import RULE_NAMES
from .runtime import EvalError, base_functions

__all__ = [
    "rule_names",
    "index_shape",
    "getindex",
]


def rule_names() -> tuple[str, ...]:
    return RULE_NAMES


def index_shape(rule: str, indices) -> Shape:
    """Result shape for an index list, per the rule's minilang methods;
    EvalError when the list is too long for the Python stack."""
    indices = tuple(indices)
    try:
        if len(indices) <= MAX_PLAN_INDEXES:
            plan = shape_plan(rule, tuple(map(type, indices)))
            if plan is not None:
                try:
                    return plan(*indices)
                except Exception:
                    pass  # the generic call below raises the documented error
        return base_functions(rule).lookup("index_shape")(*indices)
    except RecursionError:
        raise EvalError("call depth exceeded") from None


def _elements(idx: IndexArg, dim: int) -> list[int]:
    if isinstance(idx, bool):
        raise TypeError("booleans are not indexes")
    if isinstance(idx, int):
        return [idx]
    if isinstance(idx, Range):
        return list(idx)
    if isinstance(idx, NdArray):
        out = []
        for v in idx.buffer:
            if v != int(v):
                raise ValueError(
                    f"index array for dimension {dim} holds non-integer {v!r}"
                )
            out.append(int(v))
        return out
    raise TypeError(f"not an index: {idx!r}")


def getindex(a: NdArray, indices, rule="trailing-drop") -> NdArray:
    """Select elements of `a`; one index per dimension."""
    indices = list(indices)
    if len(indices) != a.rank:
        raise RankMismatchError(a.rank, len(indices))
    steps = []
    for dim, (idx, extent, stride) in enumerate(zip(indices, a.shape, a.strides()), start=1):
        elems = _elements(idx, dim)
        for e in elems:
            if not 1 <= e <= extent:
                raise BoundsError(dim, e, extent)
        steps.append([(e - 1) * stride for e in elems])
    shape = index_shape(rule, indices)
    return NdArray(tuple(shape), gather(a.buffer, 0, steps))
