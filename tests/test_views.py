"""View construction, contiguity tracking, and materialization."""

from __future__ import annotations

import random

import pytest

from dispatchkit.indexing import getindex
from dispatchkit.ndarray import BoundsError, NdArray, Range, RankMismatchError, Shape, iota
from dispatchkit.preludes import RULE_NAMES
from dispatchkit.views import (
    COLON,
    ArrayView,
    ViewKind,
    contrank,
    crank_from_strides,
    to_array,
    view,
    view_get,
)

from oracles import crank_oracle, materialize_view
from test_indexing import _BAD_KIND_IDS, _BAD_KIND_INDEXES, _HUGE_INDEXES


@pytest.fixture
def a456():
    return iota((4, 5, 6))


class TestPinnedExamples:
    def test_trailing_plane_is_contiguous(self, a456):
        v = view(a456, [COLON, COLON, 2])
        assert v.kind is ViewKind.CONTIGUOUS
        assert v.offset == 20
        assert v.strides == (1, 4)
        assert v.shape == Shape((4, 5))
        assert v.crank == 2

    def test_leading_scalar_is_strided(self, a456):
        v = view(a456, [2, COLON, COLON])
        assert v.kind is ViewKind.STRIDED
        assert v.shape == Shape((1, 5, 6))
        assert v.strides == (0, 4, 20)
        assert v.crank == 0
        assert v.offset == 1

    def test_identity_view(self, a456):
        v = view(a456, [COLON, COLON, COLON])
        assert v.kind is ViewKind.CONTIGUOUS
        assert v.offset == 0
        assert v.shape == Shape((4, 5, 6))
        assert v.strides == (1, 4, 20)


class TestContrank:
    def test_leading_colons(self, a456):
        assert contrank(a456, [COLON, COLON, 2]) == 2
        assert contrank(a456, [2, COLON, COLON]) == 0
        assert contrank(a456, [COLON, COLON, COLON]) == 3

    def test_capped_by_view_crank(self, a456):
        v = view(a456, [Range(1, 2), COLON, COLON])
        assert v.crank == 1
        assert contrank(v, [COLON, COLON, 2]) == 1

    def test_rank_checked(self, a456):
        with pytest.raises(RankMismatchError):
            contrank(a456, [COLON])


class TestVshape:
    """View shapes under the default trailing-drop rule."""

    def test_examples(self, a456):
        assert view(a456, [COLON, COLON, 2]).shape == Shape((4, 5))
        assert view(a456, [COLON, 2, COLON]).shape == Shape((4, 1, 6))
        assert view(a456, [COLON, COLON, COLON]).shape == Shape((4, 5, 6))

    def test_ranges(self, a456):
        assert view(a456, [Range(2, 3), COLON, 1]).shape == Shape((2, 5))

    def test_all_scalars(self, a456):
        assert view(a456, [1, 2, 3]).shape == Shape(())

    def test_bounds(self, a456):
        with pytest.raises(BoundsError):
            view(a456, [COLON, 6, COLON])


class TestViewGet:
    def test_identity(self, a456):
        v = view(a456, [COLON, COLON, COLON])
        assert view_get(v, (2, 3, 4)) == a456.get((2, 3, 4))

    def test_plane(self, a456):
        v = view(a456, [COLON, COLON, 2])
        for i in range(1, 5):
            for j in range(1, 6):
                assert view_get(v, (i, j)) == a456.get((i, j, 2))

    def test_kept_scalar_dim(self, a456):
        v = view(a456, [COLON, 2, COLON])
        assert view_get(v, (3, 1, 4)) == a456.get((3, 2, 4))

    def test_bounds(self, a456):
        v = view(a456, [COLON, COLON, 2])
        with pytest.raises(BoundsError):
            view_get(v, (5, 1))
        with pytest.raises(RankMismatchError):
            view_get(v, (1, 1, 1))


class TestComposition:
    def test_base_identity_preserved(self, a456):
        v1 = view(a456, [COLON, COLON, 2])
        v2 = view(v1, [Range(2, 3), COLON])
        assert v1.base is a456
        assert v2.base is a456

    def test_matches_two_step_materialization(self, a456):
        v1 = view(a456, [Range(1, 3), COLON, 2])
        v2 = view(v1, [2, Range(2, 4)])
        m1 = to_array(v1)
        want = getindex(m1, [2, Range(2, 4)], "trailing-drop")
        assert to_array(v2) == want

    def test_colon_prefix_stays_contiguous(self, a456):
        v1 = view(a456, [COLON, COLON, 2])
        assert v1.kind is ViewKind.CONTIGUOUS
        v2 = view(v1, [COLON, COLON])
        assert v2.kind is ViewKind.CONTIGUOUS
        v3 = view(v2, [COLON, 3])
        assert v3.kind is ViewKind.CONTIGUOUS
        assert v3.shape == Shape((4,))

    def test_no_copy(self, a456):
        v = view(a456, [COLON, 2, COLON])
        assert v.base.buffer is a456.buffer


class TestErrors:
    def test_scalar_out_of_bounds(self, a456):
        with pytest.raises(BoundsError) as e:
            view(a456, [COLON, 6, COLON])
        assert e.value.dim == 2

    def test_range_out_of_bounds(self, a456):
        with pytest.raises(BoundsError):
            view(a456, [Range(0, 2), COLON, COLON])

    def test_rank_mismatch(self, a456):
        with pytest.raises(RankMismatchError):
            view(a456, [COLON, COLON])

    @pytest.mark.parametrize("index, value, text", _HUGE_INDEXES, ids=["int", "negative", "range"])
    def test_index_too_long_to_print_is_a_bounds_error(self, index, value, text):
        with pytest.raises(BoundsError) as e:
            view(iota((3,)), [index])
        assert e.value.value == value
        assert str(e.value) == f"index {text} out of bounds for dimension 1 with extent 3"

    @pytest.mark.parametrize("index, text", _BAD_KIND_INDEXES, ids=_BAD_KIND_IDS)
    def test_bad_index_kind_is_a_type_error(self, index, text):
        with pytest.raises(TypeError) as e:
            view(iota((3,)), [index])
        assert str(e.value) == f"not an index: {text}"

    def test_bad_index_kind(self, a456):
        with pytest.raises(TypeError):
            view(a456, [COLON, COLON, 2.5])

    def test_empty_range_allowed(self, a456):
        v = view(a456, [Range(1, 0), COLON, 2])
        assert v.shape == Shape((0, 5))
        assert to_array(v).buffer == ()


def _random_view_indices(rng: random.Random, shape):
    out = []
    for extent in shape:
        kinds = ["colon", "range"]
        if extent > 0:
            kinds.append("scalar")
        k = rng.choice(kinds)
        if k == "colon":
            out.append(COLON)
        elif k == "scalar":
            out.append(rng.randint(1, extent))
        else:
            if extent == 0:
                out.append(Range(1, 0))
            else:
                lo = rng.randint(1, extent)
                out.append(Range(lo, rng.randint(lo - 1, extent)))
    return out


def _as_getindex_indices(indices, shape):
    return [Range(1, e) if i is COLON else i for i, e in zip(indices, shape)]


def test_fuzz_views_against_getindex_and_crank_oracle():
    rng = random.Random(31415)
    for _ in range(500):
        rank = rng.randrange(5)
        shape = tuple(rng.randrange(6) for _ in range(rank))
        n = 1
        for e in shape:
            n *= e
        a = NdArray(shape, [float(k) for k in range(1, n + 1)])
        indices = _random_view_indices(rng, shape)
        v = view(a, indices)
        assert v.base is a
        got = to_array(v)
        want = getindex(a, _as_getindex_indices(indices, shape), "trailing-drop")
        assert got == want, (shape, indices)
        assert materialize_view(v) == list(got.buffer)
        assert v.crank == crank_oracle(v.shape, v.strides)
        assert (v.kind is ViewKind.CONTIGUOUS) == (v.crank == len(v.shape))


def test_fuzz_view_composition():
    rng = random.Random(2718)
    for _ in range(200):
        rank = rng.randrange(1, 4)
        shape = tuple(rng.randrange(1, 5) for _ in range(rank))
        n = 1
        for e in shape:
            n *= e
        a = NdArray(shape, [float(k) for k in range(1, n + 1)])
        i1 = _random_view_indices(rng, shape)
        v1 = view(a, i1)
        i2 = _random_view_indices(rng, tuple(v1.shape))
        v2 = view(v1, i2)
        assert v2.base is a
        assert v2.crank == crank_oracle(v2.shape, v2.strides)
        m1 = to_array(v1)
        if 0 in m1.shape:
            continue
        want = getindex(m1, _as_getindex_indices(i2, tuple(v1.shape)),
                        "trailing-drop")
        assert to_array(v2) == want, (shape, i1, i2)


@pytest.mark.parametrize("rule", RULE_NAMES)
def test_fuzz_views_follow_the_rule(rule):
    """A view, and a view of that view, copy to what getindex returns
    under the same rule; rank 0 to 4, extent-0 dimensions, empty ranges."""
    rng = random.Random(1618 + RULE_NAMES.index(rule))
    for _ in range(150):
        shape = tuple(rng.randrange(5) for _ in range(rng.randrange(5)))
        a = iota(shape)
        v, parent = a, a
        for _ in range(rng.randint(1, 2)):
            indices = _random_view_indices(rng, parent.shape)
            v = view(v, indices, rule)
            assert v.base is a
            got = to_array(v)
            want = getindex(parent, _as_getindex_indices(indices, parent.shape), rule)
            assert got == want, (rule, shape, indices)
            assert materialize_view(v) == list(got.buffer)
            assert v.crank == crank_oracle(v.shape, v.strides)
            parent = got


def _random_any_indices(rng: random.Random, shape):
    """COLON, Int and Range indexes in and out of bounds, empty ranges
    anywhere, now and then a bool or a float, and now and then one index
    too few."""
    out = []
    for extent in shape:
        k = rng.randrange(20)
        if k < 6:
            out.append(COLON)
        elif k < 11:
            out.append(rng.randint(0, extent + 1))
        elif k < 18:
            lo = rng.randint(0, extent + 1)
            out.append(Range(lo, rng.randint(lo - 1, extent + 1)))
        elif k == 18:
            out.append(rng.random() < 0.5)
        else:
            out.append(float(rng.randint(1, max(extent, 1))))
    if out and rng.random() < 0.03:
        out.pop(rng.randrange(len(out)))
    return out


def _outcome(f):
    try:
        return f()
    except Exception as err:
        return type(err), str(err)


@pytest.mark.parametrize("rule", RULE_NAMES)
def test_views_and_getindex_agree_on_every_index_list(rule):
    """Copying a view, or a view of a view, gives what getindex gives for
    the same indexes and rule, or both raise the same error and message."""
    rng = random.Random(4242 + RULE_NAMES.index(rule))
    raised = set()
    for _ in range(300):
        shape = tuple(rng.randrange(5) for _ in range(rng.randrange(1, 5)))
        a = iota(shape)
        v, parent = a, a
        for _ in range(rng.randint(1, 2)):
            indices = _random_any_indices(rng, parent.shape)
            full = _as_getindex_indices(indices, parent.shape)
            got = _outcome(lambda: to_array(view(v, indices, rule)))
            want = _outcome(lambda: getindex(parent, full, rule))
            assert got == want, (rule, shape, indices)
            if not isinstance(got, NdArray):
                raised.add(got[0])
                break
            v, parent = view(v, indices, rule), got
    assert raised == {BoundsError, RankMismatchError, TypeError}
