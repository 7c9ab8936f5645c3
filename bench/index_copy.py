"""index-copy: copying array indexing and materialised views.

Seeded column-major arrays of rank 1 to 4. Result sizes are stratified
on a log scale from about ten elements, where the `index_shape` call
dominates, to tens of thousands, where the per-element copy loop does.
Ops alternate between `getindex` (Int, Range and integer NdArray
indexes, cycling through the four rules) and `to_array` of a `view`
(COLON, Int and Range indexes), every other one a view of a view.

Why: the copy loops in ndarray, views and indexing do most of the work;
dispatch is touched once per getindex, through index_shape.

Expected outputs come from tests/oracles.py: getindex_oracle for copies
and a composition of getindex_oracle under trailing-drop (the rule views
follow) for views; materialize_view cross-checks each view once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from types import SimpleNamespace

from harness import RULES, Workload, describe_exc, load_oracles


@dataclass
class Op:
    kind: str            # "getindex" or "view"
    array: object
    first: list          # getindex indexes, or the (outer) view indexes
    second: list | None  # inner view indexes for a view of a view
    rule: str
    shape: tuple
    buffer: tuple
    elems: int
    cross_ok: bool = True  # materialize_view agreed with the oracle


def _split(k: int, total: int, parts: int) -> list[int]:
    """Positive lengths whose product is near `total`, in proportions
    that follow from the size class k."""
    weights = [1 + (k + d) % 3 for d in range(parts)]
    scale = math.log(max(total, 1)) / sum(weights)
    out = [max(1, round(math.exp(w * scale))) for w in weights[:-1]]
    out.append(max(1, round(total / math.prod(out))))
    return out


def _extent(rng: random.Random, length: int) -> int:
    """An extent a little larger than the selection, so the array's size
    (and memory) stays within a small factor of the result's."""
    return length + rng.randint(0, max(1, length // 4))


class IndexCopy(Workload):
    name = "index-copy"

    def __init__(self, dk, seed: int, smoke: bool = False):
        self.dk = dk
        self.oracles = load_oracles()
        rng = random.Random(seed)
        n = 4 if smoke else 100
        hi = 300 if smoke else 30000
        # Every size class k gets one copy and one view. Its rank, rule,
        # index kinds and proportions follow from k, so every seed does the
        # same kind of work and differs only in positions and values.
        self.ops = []
        for k in range(n):
            target, rank = round(10 * (hi / 10) ** (k / (n - 1))), 1 + k % 4
            self.ops.append(self._getindex_op(rng, k, target, rank, RULES[(k // 4) % 4]))
            self.ops.append(self._view_op(rng, k, target, rank, nested=(k // 2) % 2 == 1))
        for op in self.ops:
            if op.kind == "view":
                op.cross_ok = tuple(
                    self.oracles.materialize_view(self._view_of(op))) == op.buffer

    # ------------------------------------------------------- generation

    def _array(self, rng, shape):
        size = math.prod(shape)
        mult, off = rng.randint(3, 997), rng.randint(0, 1008)
        return self.dk.NdArray(shape, [float((k * mult + off) % 1009) for k in range(size)])

    def _getindex_op(self, rng, k, target, rank, rule):
        dk = self.dk
        lengths = _split(k, target, rank)
        extents, kinds = [], []
        for d, length in enumerate(lengths):
            kind = (("range", "range", "array") if length > 1
                    else ("int", "range", "array"))[(k + d) % 3]
            kinds.append(kind)
            extents.append(_extent(rng, length) if kind != "int" else rng.randint(1, 4))
        a = self._array(rng, tuple(extents))
        idx = []
        for d, (kind, length, extent) in enumerate(zip(kinds, lengths, extents)):
            if kind == "int":
                idx.append(rng.randint(1, extent))
            elif kind == "range":
                lo = rng.randint(1, extent - length + 1)
                idx.append(dk.Range(lo, lo + length - 1))
            else:
                picks = [float(rng.randint(1, extent)) for _ in range(length)]
                if length % 2 == 0 and length > 2 and (k + d) % 2 == 0:
                    idx.append(dk.NdArray((2, length // 2), picks))
                else:
                    idx.append(dk.NdArray((length,), picks))
        shape, elements = self.oracles.getindex_oracle(a, idx, rule)
        return Op("getindex", a, idx, None, rule, tuple(shape), tuple(elements),
                  len(elements))

    def _view_index(self, rng, k, shape, lengths):
        """View indexes over `shape` selecting about `lengths` per dim; at
        least one stays a COLON or Range so the view keeps a dimension."""
        dk = self.dk
        idx = []
        for d, (extent, length) in enumerate(zip(shape, lengths)):
            length = min(length, extent)
            if length == extent and (k + d) % 3 != 0:
                idx.append(dk.COLON)
            elif length == 1 and (k + d) % 3 != 2:
                idx.append(rng.randint(1, extent))
            else:
                lo = rng.randint(1, extent - length + 1)
                idx.append(dk.Range(lo, lo + length - 1))
        if all(isinstance(i, int) for i in idx):
            idx[0] = dk.COLON
        return idx

    def _full(self, idx, shape):
        return [self.dk.Range(1, e) if i is self.dk.COLON else i
                for i, e in zip(idx, shape)]

    def _view_op(self, rng, k, target, rank, nested):
        lengths = _split(k, target, rank)
        extents = tuple(_extent(rng, length) for length in lengths)
        a = self._array(rng, extents)
        outer = [min(e, n + rng.randint(0, 2)) for e, n in zip(extents, lengths)]
        first = self._view_index(rng, k, extents, outer if nested else lengths)
        shape, elements = self.oracles.getindex_oracle(
            a, self._full(first, extents), "trailing-drop")
        second = None
        if nested:
            inner = SimpleNamespace(shape=tuple(shape), buffer=tuple(elements))
            second = self._view_index(rng, k + 1, inner.shape, lengths[:len(inner.shape)])
            shape, elements = self.oracles.getindex_oracle(
                inner, self._full(second, inner.shape), "trailing-drop")
        return Op("view", a, first, second, "trailing-drop", tuple(shape),
                  tuple(elements), len(elements))

    def _view_of(self, op):
        v = self.dk.view(op.array, op.first)
        return v if op.second is None else self.dk.view(v, op.second)

    # --------------------------------------------------------------- ops

    def run(self, op: Op):
        if op.kind == "getindex":
            return self.dk.getindex(op.array, op.first, op.rule)
        return self.dk.to_array(self._view_of(op))

    def run_traced(self, op: Op, tracer):
        dk = self.dk
        if op.kind == "getindex":
            with tracer.span("indexing.getindex"):
                return dk.getindex(op.array, op.first, op.rule)
        with tracer.span("views.view"):
            v = self._view_of(op)
        with tracer.span("views.to_array"):
            return dk.to_array(v)

    def check(self, op: Op, out):
        if isinstance(out, Exception):
            return False, describe_exc(out)
        if tuple(out.shape) != op.shape or out.buffer != op.buffer:
            return False, f"{op.kind} {op.rule}: shape {tuple(out.shape)}, want {op.shape}"
        if not op.cross_ok:
            return False, "materialize_view disagrees with the oracle"
        return True, ""

    def work(self, op: Op, out) -> int:
        return op.elems

    def lend(self) -> dict:
        return {"index_ops": self.ops}

    def report(self) -> dict:
        sizes = sorted(op.elems for op in self.ops)
        return {
            "ops_per_pass": len(self.ops),
            "elems_per_pass": sum(sizes),
            "elems_min": sizes[0],
            "elems_max": sizes[-1],
        }
