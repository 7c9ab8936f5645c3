"""Non-copying array views with contiguous-rank tracking.

A view holds the base array (by identity, never copied), a 0-based
element offset, one stride per result dimension, and the contiguous
rank: the count of leading dimensions whose strides equal the running
cumulative product of the extents. A view is Contiguous exactly when
every dimension is in that leading run.

Index vocabulary: COLON keeps a whole dimension, an int picks one
position, a Range picks an interval. The result shape is not decided
here: it is what `index_shape` of the chosen rule set returns for the
indexes, each COLON passed as the whole Range, so a view has the shape
`getindex` gives the same selection under the same rule. With these
index kinds every rule drops only extent-1 dimensions; the one
subscript of a dropped dimension is 1, so it lives in the offset. Kept
scalar dimensions get stride 0 (the subscript there can only be 1).

Views of views resolve to the inner base eagerly, so reading an element
is always one multiply-add chain against one buffer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .indexing import _check_index, index_shape
from .ndarray import NdArray, Range, RankMismatchError, Shape, _flat_position, gather, strided

__all__ = [
    "COLON",
    "Colon",
    "ViewKind",
    "ArrayView",
    "contrank",
    "view",
    "view_get",
    "to_array",
    "crank_from_strides",
]


class Colon:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return ":"


COLON = Colon()


class ViewKind(enum.Enum):
    CONTIGUOUS = "Contiguous"
    STRIDED = "Strided"


@dataclass(frozen=True)
class ArrayView:
    base: NdArray
    offset: int
    shape: Shape
    strides: tuple
    kind: ViewKind
    crank: int

    @property
    def rank(self) -> int:
        return len(self.shape)


def crank_from_strides(shape, strides) -> int:
    acc = 1
    n = 0
    for extent, stride in zip(shape, strides):
        if stride != acc:
            break
        n += 1
        acc *= extent
    return n


def _layout(a):
    """(base, offset, shape, strides) for an array or a view."""
    if isinstance(a, ArrayView):
        return a.base, a.offset, tuple(a.shape), a.strides
    if isinstance(a, NdArray):
        return a, 0, a.shape, a.strides()
    raise TypeError(f"not an array or view: {a!r}")


def contrank(a, indices) -> int:
    """Leading COLON count, capped by the argument's own contiguous rank."""
    _, _, shape, _ = _layout(a)
    if len(indices) != len(shape):
        raise RankMismatchError(len(shape), len(indices))
    n = 0
    for idx in indices:
        if idx is not COLON:
            break
        n += 1
    if isinstance(a, ArrayView):
        return min(n, a.crank)
    return n


def view(a, indices, rule="trailing-drop") -> ArrayView:
    """Build a view; no elements are copied. The shape is the rule's
    `index_shape`; a bad Int or Range index raises what getindex raises."""
    base, offset, shape, strides = _layout(a)
    if len(indices) != len(shape):
        raise RankMismatchError(len(shape), len(indices))
    full = []
    for dim, (idx, extent) in enumerate(zip(indices, shape), start=1):
        if idx is COLON:
            idx = Range(1, extent)
        elif isinstance(idx, NdArray):
            raise TypeError(f"not a view index: {idx!r}")
        else:
            _check_index(idx, dim, extent)
        full.append(idx)
    out_shape = index_shape(rule, full)
    out_strides = []
    for idx, stride in zip(full, strides):
        scalar = isinstance(idx, int)
        lo, extent = (idx, 1) if scalar else (idx.lo, idx.length)
        if extent > 0:
            offset += (lo - 1) * stride
        # kept dimensions appear in order; every other one has extent 1
        k = len(out_strides)
        if k < len(out_shape) and out_shape[k] == extent:
            out_strides.append(0 if scalar else stride)
    out_strides = tuple(out_strides)
    crank = crank_from_strides(out_shape, out_strides)
    kind = ViewKind.CONTIGUOUS if crank == len(out_shape) else ViewKind.STRIDED
    return ArrayView(base, offset, out_shape, out_strides, kind, crank)


def view_get(v: ArrayView, subscript):
    return v.base.buffer[_flat_position(subscript, v.shape, v.strides, v.offset)]


def to_array(v: ArrayView) -> NdArray:
    """Copy a view into a fresh array (column-major); `view` checked the bounds."""
    steps = [strided(0, extent, stride) for extent, stride in zip(v.shape, v.strides)]
    return NdArray._of_floats(v.shape, gather(v.base.buffer, v.offset, steps))
