"""Array container behavior: layout, bounds, ranges, shapes, text io."""

from __future__ import annotations

import itertools
import random

import pytest

from dispatchkit.ndarray import (
    BoundsError,
    NdArray,
    Range,
    RankMismatchError,
    Shape,
    from_text,
    gather,
    iota,
    strided,
    to_text,
    zeros,
)


class TestLayout:
    def test_iota_buffer(self):
        a = iota((2, 3))
        assert a.buffer == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert a.shape == (2, 3)

    def test_first_subscript_fastest(self):
        a = iota((5, 3, 3))
        assert a.get((1, 1, 1)) == 1.0
        assert a.get((2, 1, 1)) == 2.0
        assert a.get((1, 2, 1)) == 6.0
        assert a.get((1, 1, 2)) == 16.0
        assert a.get((5, 3, 3)) == 45.0

    def test_linear_index_matches_column_major_enumeration(self):
        a = zeros((2, 3, 4))
        subs = [
            (i1, i2, i3)
            for i3 in range(1, 5)
            for i2 in range(1, 4)
            for i1 in range(1, 3)
        ]
        for flat, sub in enumerate(subs):
            assert a.linear_index(sub) == flat

    def test_strides_are_cumulative_products(self):
        assert iota((4, 5, 6)).strides() == (1, 4, 20)
        assert iota(()).strides() == ()

    def test_rank_zero(self):
        a = NdArray((), [7.0])
        assert a.rank == 0
        assert a.get(()) == 7.0

    def test_extent_zero(self):
        a = NdArray((0, 3), [])
        assert a.buffer == ()
        assert a.size() == Shape((0, 3))


class TestErrors:
    def test_bounds(self):
        a = iota((2, 3))
        with pytest.raises(BoundsError) as e:
            a.get((0, 1))
        assert e.value.dim == 1
        with pytest.raises(BoundsError) as e:
            a.get((1, 4))
        assert e.value.extent == 3

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            iota((2, 3)).get((1, 1, 1))

    def test_unconverted_path_keeps_the_checks(self):
        with pytest.raises(ValueError, match="buffer has 2 elements"):
            NdArray._of_floats((3,), (1.0, 2.0))
        with pytest.raises(ValueError, match="non-negative"):
            NdArray._of_floats((-1,), ())
        assert NdArray._of_floats((2,), (1.0, 2.0)) == NdArray((2,), [1, 2])

    def test_buffer_length_checked(self):
        with pytest.raises(ValueError):
            NdArray((2, 2), [1.0, 2.0, 3.0])

    def test_negative_extent(self):
        with pytest.raises(ValueError):
            NdArray((-1,), [])

    def test_bool_subscript_rejected(self):
        with pytest.raises(BoundsError):
            iota((2,)).get((True,))

    def test_ints_too_long_to_print_are_described(self):
        huge = 10 ** 5000
        with pytest.raises(BoundsError, match=r"^index <an Int of 5001 digits> out of bounds"):
            iota((2,)).get((huge,))
        with pytest.raises(ValueError, match=r"^descending range <an Int of 5001 digits>:1$"):
            Range(huge, 1)
        with pytest.raises(ValueError, match=r"got -<an Int of 5001 digits>$"):
            NdArray((-huge,), [])
        # the limit is 4,300 digits; shorter Ints print as they are
        with pytest.raises(BoundsError, match=r"^index 9{4300} out of bounds"):
            iota((2,)).get((10 ** 4300 - 1,))

    def test_immutable(self):
        a = iota((2,))
        with pytest.raises(AttributeError):
            a.shape = (3,)


class TestRange:
    def test_length(self):
        assert Range(1, 5).length == 5
        assert Range(3, 3).length == 1

    def test_empty(self):
        assert Range(5, 4).length == 0
        assert list(Range(5, 4)) == []

    def test_descending_rejected(self):
        with pytest.raises(ValueError):
            Range(5, 3)

    def test_iteration_and_repr(self):
        assert list(Range(2, 5)) == [2, 3, 4, 5]
        assert repr(Range(1, 5)) == "1:5"

    def test_endpoints_must_be_ints(self):
        with pytest.raises(TypeError):
            Range(1.0, 5)

    @pytest.mark.parametrize("lo, hi", [(True, 2), (1, True), (False, False)])
    def test_bool_endpoints_rejected(self, lo, hi):
        with pytest.raises(TypeError, match="range endpoints must be integers"):
            Range(lo, hi)


class TestShape:
    def test_is_a_tuple(self):
        s = Shape((5, 3))
        assert s == (5, 3)
        assert tuple(s) == (5, 3)
        assert isinstance(s, tuple)

    def test_repr(self):
        assert repr(Shape((5, 3))) == "Shape(5, 3)"
        assert repr(Shape(())) == "Shape()"

    def test_validation(self):
        with pytest.raises(ValueError):
            Shape((-1,))
        with pytest.raises(ValueError):
            Shape((True,))
        with pytest.raises(ValueError):
            Shape((1.5,))


class TestTextIO:
    def test_round_trip(self):
        a = NdArray((2, 3), [0.1, 2.0, -3.5, 4.0, 5.25, 6.0])
        assert from_text(to_text(a)) == a

    def test_rank_zero_round_trip(self):
        a = NdArray((), [42.0])
        assert from_text(to_text(a)) == a

    def test_exact_floats_preserved(self):
        a = NdArray((1,), [0.1])
        assert from_text(to_text(a)).buffer == (0.1,)

    def test_known_form(self):
        assert to_text(iota((2,))) == "2\n1.0 2.0\n"

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            from_text("")


class TestEquality:
    def test_structural(self):
        assert iota((2, 3)) == iota((2, 3))
        assert iota((2, 3)) != iota((3, 2))
        assert hash(iota((2, 3))) == hash(iota((2, 3)))


def test_exhaustive_get_against_flat_enumeration():
    for shape in [(3,), (2, 4), (2, 3, 2), (1, 1, 5)]:
        a = iota(shape)
        ranges = [range(1, e + 1) for e in shape]
        seen = set()
        for sub in itertools.product(*ranges):
            v = a.get(sub)
            assert v == float(a.linear_index(sub) + 1)
            seen.add(v)
        assert len(seen) == len(a.buffer)


def gather_reference(buffer, offset, steps):
    """Per-element reference: one flat position per choice of steps,
    the first dimension fastest."""
    return [
        buffer[offset + sum(choice)]
        for choice in itertools.product(*[list(s) for s in reversed(steps)])
    ]


def _random_steps(rng: random.Random, seen: set) -> list:
    """Steps for up to four dimensions: runs that continue the previous
    run (so they merge), runs with a gap, lists and stride-0 dimensions,
    of extent 0 to 4."""
    steps, unit = [], rng.choice([1, 2])
    for _ in range(rng.randrange(5)):
        n = rng.choice([0, 1, 1, 2, 3, 4])
        kind = rng.choice(["continues", "gap", "list", "stride0"])
        step = unit if kind == "continues" else unit + rng.randint(1, 3)
        if kind == "list":
            dim = [rng.randrange(7) for _ in range(n)]
        elif kind == "stride0":
            dim = strided(rng.randrange(3), n, 0)
        else:
            dim = strided(rng.randrange(3) * step, n, step)
        unit = max(n, 1) * step if isinstance(dim, range) else rng.randint(1, 5)
        steps.append(dim)
        seen.add(kind if n > 1 else f"extent {n}")
    kept = [s for s in steps if len(s) != 1]
    if len(kept) >= 2 and all(isinstance(s, range) for s in kept[:2]):
        if kept[1].step == len(kept[0]) * kept[0].step:
            seen.add("merged")
        if any(not isinstance(s, range) for s in kept):
            seen.add("run with outer list")
    return steps


def test_gather_matches_a_per_element_loop_fuzz():
    rng = random.Random(20260)
    seen = set()
    for _ in range(3000):
        steps = _random_steps(rng, seen)
        offset = rng.randrange(6)
        size = offset + sum(max(s, default=0) for s in steps) + 1
        buffer = tuple(float(k) for k in range(size))
        got = gather(buffer, offset, steps)
        assert type(got) is tuple, steps
        assert list(got) == gather_reference(buffer, offset, steps), (offset, steps)
    assert seen == {
        "continues", "gap", "list", "stride0", "extent 0", "extent 1",
        "merged", "run with outer list",
    }


def test_strided_steps():
    assert strided(3, 4, 2) == range(3, 11, 2)
    assert list(strided(3, 0, 5)) == []
    assert strided(4, 3, 0) == [4, 4, 4]
