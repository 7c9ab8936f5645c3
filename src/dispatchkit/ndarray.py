"""Dense n-dimensional arrays with column-major layout and 1-based indexing.

NdArray is an immutable flat buffer of 64-bit floats plus a shape. The
linear position of subscript (i1, ..., in) is sum((ik - 1) * prod of the
extents before dimension k), so the first subscript varies fastest.
Extent-0 dimensions are allowed and make the buffer empty.

Range and Shape live here too: ranges are the closed integer intervals
used as indexes, and Shape is the integer-sequence value that indexing
returns. Shape subclasses tuple so it splices and compares like one.
`gather` is the one element-copy loop; getindex and view
materialization both use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

__all__ = [
    "NdArray",
    "Range",
    "Shape",
    "IndexArg",
    "BoundsError",
    "RankMismatchError",
    "iota",
    "zeros",
    "to_text",
    "from_text",
    "gather",
]


class BoundsError(IndexError):
    def __init__(self, dim: int, value, extent: int):
        super().__init__(f"index {value} out of bounds for dimension {dim} with extent {extent}")
        self.dim = dim
        self.value = value
        self.extent = extent


class RankMismatchError(ValueError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"expected {expected} indexes for rank-{expected} array, got {got}")
        self.expected = expected
        self.got = got


@dataclass(frozen=True)
class Range:
    """Closed integer interval lo..hi with length hi - lo + 1.

    hi may be lo - 1, which denotes the empty range.
    """

    lo: int
    hi: int

    def __post_init__(self):
        if not isinstance(self.lo, int) or not isinstance(self.hi, int):
            raise TypeError("range endpoints must be integers")
        if self.hi < self.lo - 1:
            raise ValueError(f"descending range {self.lo}:{self.hi}")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    def __repr__(self):
        return f"{self.lo}:{self.hi}"


class Shape(tuple):
    """An ordered sequence of non-negative extents."""

    def __new__(cls, extents: Iterable[int] = ()):
        extents = tuple(extents)
        for e in extents:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"shape extents must be non-negative integers, got {e!r}")
        return super().__new__(cls, extents)

    def __repr__(self):
        return "Shape(" + ", ".join(str(e) for e in self) + ")"


def _product(extents) -> int:
    n = 1
    for e in extents:
        n *= e
    return n


class NdArray:
    """Column-major float array, immutable after construction."""

    __slots__ = ("shape", "buffer", "_strides")

    def __init__(self, shape: Sequence[int], values: Iterable[float]):
        shape = tuple(shape)
        for e in shape:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"extents must be non-negative integers, got {e!r}")
        buffer = tuple(map(float, values))
        if len(buffer) != _product(shape):
            raise ValueError(
                f"buffer has {len(buffer)} elements but shape {shape} needs {_product(shape)}"
            )
        strides = []
        acc = 1
        for e in shape:
            strides.append(acc)
            acc *= e
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "buffer", buffer)
        object.__setattr__(self, "_strides", tuple(strides))

    def __setattr__(self, name, value):
        raise AttributeError("NdArray is immutable")

    @property
    def rank(self) -> int:
        return len(self.shape)

    def size(self) -> Shape:
        return Shape(self.shape)

    def strides(self) -> tuple[int, ...]:
        """Cumulative products of the extents: element steps per dimension."""
        return self._strides

    def linear_index(self, subscript: Sequence[int]) -> int:
        if len(subscript) != len(self.shape):
            raise RankMismatchError(len(self.shape), len(subscript))
        flat = 0
        for k, i in enumerate(subscript):
            if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= self.shape[k]:
                raise BoundsError(k + 1, i, self.shape[k])
            flat += (i - 1) * self._strides[k]
        return flat

    def get(self, subscript: Sequence[int]) -> float:
        return self.buffer[self.linear_index(subscript)]

    def __eq__(self, other):
        if not isinstance(other, NdArray):
            return NotImplemented
        return self.shape == other.shape and self.buffer == other.buffer

    def __hash__(self):
        return hash((self.shape, self.buffer))

    def __repr__(self):
        return f"NdArray(shape={self.shape})"


IndexArg = Union[int, Range, NdArray]


def gather(buffer, offset: int, steps) -> list:
    """Read buffer[offset + s1 + ... + sn] for every choice of one flat step
    sk from each dimension's list steps[k], in column-major order.

    The offsets are built one dimension at a time, last dimension first,
    so the first dimension varies fastest. No bounds are checked.
    """
    flats = [offset]
    for dim_steps in reversed(steps):
        flats = [f + s for f in flats for s in dim_steps]
    return [buffer[f] for f in flats]


def iota(shape: Sequence[int]) -> NdArray:
    """Array whose buffer is 1.0, 2.0, ... in column-major order."""
    n = _product(shape)
    return NdArray(shape, (float(k) for k in range(1, n + 1)))


def zeros(shape: Sequence[int]) -> NdArray:
    return NdArray(shape, (0.0 for _ in range(_product(shape))))


def to_text(a: NdArray) -> str:
    """Shape line, then buffer elements in column-major order."""
    head = " ".join(str(e) for e in a.shape)
    body = " ".join(repr(v) for v in a.buffer)
    return head + "\n" + body + "\n"


def from_text(text: str) -> NdArray:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty array text")
    shape = tuple(int(tok) for tok in lines[0].split())
    rest = " ".join(lines[1:])
    values = [float(tok) for tok in rest.split()]
    return NdArray(shape, values)
