"""Array indexing with pluggable result-shape rules.

The shape of an indexing result is not computed by host code: getindex
hands the index values to the `index_shape` generic function of the
active rule set and uses whatever shape those minilang methods produce.
Swapping rule sets swaps a handful of method definitions and nothing
else, which is the point of the design. Views ask the same
`index_shape` for their shape, and getindex copies elements with
`ndarray.gather`, the one copy loop that `views.to_array` also uses.

The methods called are those of the rule's frozen `base_functions`.
An index list whose classes have a shape plan (`runtime.shape_plan`)
runs that plan: the same methods, bound ahead of time by inference, so
the chain neither dispatches nor walks syntax trees. Every other list,
including one too long for a plan, takes the generic call, which raises
the documented error.
"""

from __future__ import annotations

from .ndarray import (
    BoundsError,
    IndexArg,
    NdArray,
    Range,
    RankMismatchError,
    Shape,
    _shown,
    gather,
    strided,
)
from .preludes import RULE_NAMES
from .runtime import EvalError, base_functions, shape_plan

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
        plan = shape_plan(rule, tuple(map(type, indices)))
        if plan is not None:
            return plan(*indices)
        return base_functions(rule).lookup("index_shape")(*indices)
    except RecursionError:
        raise EvalError("call depth exceeded") from None


def _check_index(idx, dim: int, extent: int) -> None:
    """Check an Int or Range index along one dimension: a BoundsError names
    the first bad element; a bool or any other kind is a TypeError."""
    if isinstance(idx, bool):
        raise TypeError("booleans are not indexes")
    if isinstance(idx, int):
        if not 1 <= idx <= extent:
            raise BoundsError(dim, idx, extent)
    elif isinstance(idx, Range):
        if idx.length > 0 and (idx.lo < 1 or idx.hi > extent):
            raise BoundsError(dim, idx.lo if not 1 <= idx.lo <= extent else extent + 1, extent)
    else:
        raise TypeError(f"not an index: {_shown(idx, repr)}")


def _steps(idx: IndexArg, dim: int, extent: int, stride: int):
    """Each subscript the index selects along one dimension times the
    stride, after the bounds check: a range for a Range, a list otherwise.
    Each error names the first bad element in index order."""
    if isinstance(idx, NdArray):
        values = idx.buffer
        if not all(map(float.is_integer, values)):
            bad = next(v for v in values if not v.is_integer())
            raise ValueError(f"index array for dimension {dim} holds non-integer {bad!r}")
        subs = list(map(int, values))
        if subs and (min(subs) < 1 or max(subs) > extent):
            raise BoundsError(dim, next(i for i in subs if not 1 <= i <= extent), extent)
        return subs if stride == 1 else [i * stride for i in subs]
    _check_index(idx, dim, extent)
    if isinstance(idx, Range):
        return strided(idx.lo * stride, idx.length, stride)
    return [idx * stride]


def getindex(a: NdArray, indices, rule="trailing-drop") -> NdArray:
    """Select elements of `a`; one index per dimension."""
    indices = list(indices)
    if len(indices) != a.rank:
        raise RankMismatchError(a.rank, len(indices))
    strides = a.strides()
    steps = [
        _steps(idx, dim, extent, stride)
        for dim, (idx, extent, stride) in enumerate(zip(indices, a.shape, strides), start=1)
    ]
    shape = index_shape(rule, indices)
    # subscripts are 1-based: the flat position is sum((i - 1) * stride)
    return NdArray._of_floats(shape, gather(a.buffer, -sum(strides), steps))
