"""Dense n-dimensional arrays with column-major layout and 1-based indexing.

NdArray is an immutable flat buffer of 64-bit floats plus a shape. The
linear position of subscript (i1, ..., in) is sum((ik - 1) * prod of the
extents before dimension k), so the first subscript varies fastest.
Extent-0 dimensions are allowed and make the buffer empty.

Range and Shape live here too: ranges are the closed integer intervals
used as indexes, and Shape is the integer-sequence value that indexing
returns. Shape subclasses tuple so it splices and compares like one.

`gather` is the one element-copy loop; getindex and view
materialization both use it. Each dimension's flat steps come as a
`range` when they form an arithmetic run (a Range index, or any
dimension of a view) and as a list otherwise (an NdArray index).
Extent-1 dimensions fold into the offset. Leading runs whose steps
continue one another merge into one run, and each outer offset copies
that run as one tuple slice, so a contiguous selection costs one slice
per column rather than one index operation per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
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
    "strided",
]


def _shown(v, text=str) -> str:
    """text(v), or for an Int past the interpreter's str() digit limit,
    its sign and number of digits: "-<an Int of 5001 digits>", also as
    an endpoint of a Range or an element of a tuple, Shape or list:
    "(<an Int of 5001 digits>, 2)". Any other value whose text raises
    is shown by its class name: "<a dict>"."""
    try:
        return text(v)
    except ValueError:
        if isinstance(v, Range):
            return f"{_shown(v.lo)}:{_shown(v.hi)}"
        if isinstance(v, (tuple, list)):
            parts = ", ".join(_shown(x, repr) for x in v)
            if isinstance(v, Shape):
                return f"Shape({parts})"
            if isinstance(v, list):
                return f"[{parts}]"
            return f"({parts}{',' * (len(v) == 1)})"
        if not isinstance(v, int):
            return f"<a {type(v).__name__}>"
        n = abs(v)
        digits = int(math.log10(n)) + 1  # the float log may be off by one
        digits += (n >= 10 ** digits) - (n < 10 ** (digits - 1))
        return f"{'-' * (v < 0)}<an Int of {digits} digits>"


class BoundsError(IndexError):
    def __init__(self, dim: int, value, extent: int):
        super().__init__(f"index {_shown(value)} out of bounds for dimension {dim} "
                         f"with extent {extent}")
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
        lo, hi = self.lo, self.hi
        if type(lo) is not int or type(hi) is not int:  # plain ints skip the full check
            for e in (lo, hi):
                if not isinstance(e, int) or isinstance(e, bool):
                    raise TypeError("range endpoints must be integers")
        if hi < lo - 1:
            raise ValueError(f"descending range {_shown(lo)}:{_shown(hi)}")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    def __repr__(self):
        return f"{self.lo}:{self.hi}"


def _checked_extents(extents) -> tuple:
    """`extents` as a tuple, checked to be non-negative integers unless it
    is a Shape, which was checked when it was built."""
    if type(extents) is Shape:
        return tuple(extents)
    extents = tuple(extents)
    for e in extents:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"shape extents must be non-negative integers, got {_shown(e, repr)}")
    return extents


def _flat_position(subscript, shape, strides, offset: int = 0) -> int:
    """offset + sum((i - 1) * stride) for a 1-based subscript, after the
    rank check and a BoundsError naming the first bad element."""
    if len(subscript) != len(shape):
        raise RankMismatchError(len(shape), len(subscript))
    flat = offset
    for dim, (i, extent, stride) in enumerate(zip(subscript, shape, strides), start=1):
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= extent:
            raise BoundsError(dim, i, extent)
        flat += (i - 1) * stride
    return flat


class Shape(tuple):
    """An ordered sequence of non-negative extents."""

    def __new__(cls, extents: Iterable[int] = ()):
        return super().__new__(cls, _checked_extents(extents))

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
        self._fill(shape, tuple(map(float, values)))

    @classmethod
    def _of_floats(cls, shape: Sequence[int], buffer: tuple) -> NdArray:
        """An array over `buffer`, a tuple whose elements were read from
        another array's buffer and so are floats already: checked like
        the public constructor, but not converted again."""
        a = object.__new__(cls)
        a._fill(shape, buffer)
        return a

    def _fill(self, shape, buffer: tuple):
        shape = _checked_extents(shape)
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
        return _flat_position(subscript, self.shape, self._strides)

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


def gather(buffer, offset: int, steps) -> tuple:
    """Read buffer[offset + s1 + ... + sn] for every choice of one flat step
    sk from each dimension's steps[k], in column-major order, as a tuple.

    A dimension's steps are a `range` when they form an arithmetic run
    and any other sequence otherwise. Dimensions with one step fold into
    the offset. Leading ranges merge into one run while the next one's
    step equals the run's length times its step, and the run is copied
    as one slice of `buffer` per outer offset. The outer offsets are
    built one dimension at a time, last dimension first, so the first
    dimension varies fastest. No bounds are checked: every position read
    must lie in the buffer.
    """
    dims = []
    for dim_steps in steps:
        if len(dim_steps) == 1:
            offset += dim_steps[0]
        elif not dim_steps:
            return ()
        else:
            dims.append(dim_steps)
    run, outer = range(1), dims  # a run of one step: every dimension is outer
    if dims and isinstance(dims[0], range) and dims[0].step > 0:
        run, k = dims[0], 1
        for nxt in dims[1:]:
            if not isinstance(nxt, range) or nxt.step != len(run) * run.step:
                break
            start = run.start + nxt.start
            run = range(start, start + len(run) * len(nxt) * run.step, run.step)
            k += 1
        outer = dims[k:]
    flats = [offset + run.start]
    for dim_steps in reversed(outer):
        flats = [f + s for f in flats for s in dim_steps]
    if len(run) == 1:
        return (buffer[flats[0]],) if len(flats) == 1 else itemgetter(*flats)(buffer)
    span, step = len(run) * run.step, run.step
    if len(flats) == 1:
        return tuple(buffer[flats[0]:flats[0] + span:step])
    return tuple(chain.from_iterable(buffer[f:f + span:step] for f in flats))


def strided(start: int, count: int, stride: int):
    """The `count` flat steps start, start + stride, ... as a range, or as
    a list when stride is 0, which a range cannot step by."""
    return range(start, start + count * stride, stride) if stride else [start] * count


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
