"""Indexing through rule-set dispatch, checked against brute-force mirrors."""

from __future__ import annotations

import collections
import itertools
import math
import random

import pytest

import dispatchkit.dispatch as dispatch
import dispatchkit.indexing as indexing
import dispatchkit.runtime as runtime
from dispatchkit.dispatch import DefinitionError, signature
from dispatchkit.indexing import getindex, index_shape, rule_names
from dispatchkit.inference import InferenceState
from dispatchkit.minilang import Call, MethodDef, parse
from dispatchkit.lattice import make_tuple
from dispatchkit.ndarray import BoundsError, NdArray, Range, RankMismatchError, Shape, iota, zeros
from dispatchkit.preludes import UnknownRuleError, prelude_source
from dispatchkit.runtime import EvalError, Runtime, shape_plan
from dispatchkit.values import INT, RANGE
from dispatchkit.views import COLON, to_array, view

from oracles import getindex_oracle, index_shape_oracle


class TestIndexShape:
    def test_trailing_rank2(self):
        assert index_shape("trailing-drop", [Range(1, 5), Range(1, 3), 2]) == Shape((5, 3))

    def test_trailing_inner_scalar_kept(self):
        got = index_shape("trailing-drop", [Range(1, 5), 2, Range(1, 3), 1])
        assert got == Shape((5, 1, 3))

    def test_all_drop(self):
        assert index_shape("all-drop", [Range(1, 5), 2, Range(1, 3)]) == Shape((5, 3))

    def test_apl_rank_sum(self):
        assert index_shape("apl", [iota((2, 2)), 7]) == Shape((2, 2))

    def test_drop_size1(self):
        got = index_shape("drop-size1", [Range(1, 5), Range(1, 1), Range(1, 3), 1])
        assert got == Shape((5, 1, 3))

    def test_empty_index_list(self):
        assert index_shape("trailing-drop", []) == Shape(())

    def test_returns_shape_kind(self):
        assert isinstance(index_shape("apl", [3]), Shape)


# an Int past the interpreter's 4,300-digit str() limit, as an index
_HUGE_INDEXES = [
    (10 ** 5000, 10 ** 5000, "<an Int of 5001 digits>"),
    (-10 ** 5000, -10 ** 5000, "-<an Int of 5001 digits>"),
    (Range(10 ** 5000 - 1, 10 ** 5000), 10 ** 5000 - 1, "<an Int of 5000 digits>"),
]

# index kinds that are no index, one holding an Int too long to print
_BAD_KIND_INDEXES = [
    ((10 ** 5000,), "(<an Int of 5001 digits>,)"),
    ((1,), "(1,)"),
    ((2, (-10 ** 5000, "s")), "(2, (-<an Int of 5001 digits>, 's'))"),
    (Shape((10 ** 5000, 3)), "Shape(<an Int of 5001 digits>, 3)"),
    ((Range(1, 10 ** 5000),), "(1:<an Int of 5001 digits>,)"),
    ([10 ** 5000, Range(1, 2)], "[<an Int of 5001 digits>, 1:2]"),
    ({10 ** 5000: 1}, "<a dict>"),
]
_BAD_KIND_IDS = ["huge", "small", "nested", "shape", "range", "list", "other"]


class TestGetindex:
    @pytest.mark.parametrize("index, value, text", _HUGE_INDEXES, ids=["int", "negative", "range"])
    def test_index_too_long_to_print_is_a_bounds_error(self, index, value, text):
        with pytest.raises(BoundsError) as e:
            getindex(iota((3,)), [index])
        assert e.value.value == value
        assert str(e.value) == f"index {text} out of bounds for dimension 1 with extent 3"

    @pytest.mark.parametrize("index, text", _BAD_KIND_INDEXES, ids=_BAD_KIND_IDS)
    def test_bad_index_kind_is_a_type_error(self, index, text):
        with pytest.raises(TypeError) as e:
            getindex(iota((3,)), [index])
        assert str(e.value) == f"not an index: {text}"

    def test_plane_copy(self):
        a = iota((4, 5, 6))
        got = getindex(a, [Range(1, 4), Range(1, 5), 2], "trailing-drop")
        want = []
        for j in range(1, 6):
            for i in range(1, 5):
                want.append(a.get((i, j, 2)))
        # column-major of the (4,5) result: first index fastest
        want_cm = [a.get((i, j, 2)) for j in range(1, 6) for i in range(1, 5)]
        assert want == want_cm
        assert got.shape == (4, 5)
        assert list(got.buffer) == want_cm

    def test_all_scalars_rank0(self):
        a = iota((4, 5, 6))
        got = getindex(a, [2, 3, 4], "trailing-drop")
        assert got.shape == ()
        assert got.buffer == (a.get((2, 3, 4)),)

    def test_bounds_error_names_dimension(self):
        a = iota((4, 5, 6))
        with pytest.raises(BoundsError) as e:
            getindex(a, [Range(1, 4), 6, 1], "trailing-drop")
        assert e.value.dim == 2
        assert e.value.value == 6

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            getindex(iota((2, 2)), [1], "trailing-drop")

    def test_int_array_index_uses_buffer_order(self):
        a = iota((5,))
        idx = NdArray((2, 2), [2.0, 4.0, 1.0, 5.0])
        got = getindex(a, [idx], "apl")
        assert got.shape == (2, 2)
        assert got.buffer == (2.0, 4.0, 1.0, 5.0)

    def test_non_integral_index_array(self):
        with pytest.raises(ValueError):
            getindex(iota((5,)), [NdArray((1,), [2.5])], "trailing-drop")

    @pytest.mark.parametrize("v, name", [(1.5, "1.5"), (math.nan, "nan"),
                                         (math.inf, "inf"), (-math.inf, "-inf")])
    def test_non_integer_index_array_message(self, v, name):
        a = iota((3, 4))
        with pytest.raises(ValueError) as e:
            getindex(a, [NdArray((1,), [v]), 1])
        assert str(e.value) == f"index array for dimension 1 holds non-integer {name}"
        with pytest.raises(ValueError) as e:
            getindex(a, [Range(1, 3), NdArray((3,), [2.0, v, 0.5])])
        assert str(e.value) == f"index array for dimension 2 holds non-integer {name}"

    # the first bad element in index order, as the parent's per-element walk named it
    @pytest.mark.parametrize("idx, bad", [
        (Range(0, 2), 0), (Range(2, 9), 4), (Range(5, 9), 5), (Range(-3, -1), -3),
        (NdArray((3,), [2.0, 5.0, 0.0]), 5), (NdArray((2,), [0.0, 4.0]), 0),
    ])
    def test_bounds_error_names_the_first_bad_element(self, idx, bad):
        with pytest.raises(BoundsError) as e:
            getindex(iota((4, 3)), [Range(1, 4), idx])
        assert str(e.value) == f"index {bad} out of bounds for dimension 2 with extent 3"
        assert (e.value.dim, e.value.value, e.value.extent) == (2, bad, 3)

    def test_empty_range_outside_the_extent_selects_nothing(self):
        got = getindex(iota((3,)), [Range(10, 9)])
        assert got.shape == (0,) and got.buffer == ()

    def test_zero_extent_source(self):
        got = getindex(zeros((0, 3)), [Range(1, 0), Range(1, 2)])
        assert got.shape == (0, 2) and got.buffer == ()

    def test_empty_range(self):
        got = getindex(iota((3, 4)), [Range(1, 0), 2], "trailing-drop")
        assert got.shape == (0,)
        assert got.buffer == ()

    def test_rank0_source(self):
        a = NdArray((), [9.0])
        got = getindex(a, [], "trailing-drop")
        assert got.shape == () and got.buffer == (9.0,)


class TestRuleSets:
    def test_known_names(self):
        assert rule_names() == ("trailing-drop", "all-drop", "apl", "drop-size1")

    def test_get_rule(self):
        assert "index_shape" in prelude_source("apl")

    def test_unknown(self):
        with pytest.raises(UnknownRuleError):
            prelude_source("nope")

    def test_swapping_rules_changes_only_index_shape_defs(self):
        for rule in rule_names():
            prog = parse(prelude_source(rule))
            for item in prog.items:
                assert isinstance(item, MethodDef)
                assert item.fname in ("index_shape", "keep_shape")
        base = Runtime("trailing-drop")
        other = Runtime("all-drop")
        shared = set(base.functions.names()) & set(other.functions.names())
        for name in shared:
            if name == "index_shape":
                continue
            a = [m.signature.render() for m in base.functions.lookup(name).methods]
            b = [m.signature.render() for m in other.functions.lookup(name).methods]
            assert a == b, name


class TestRuleBase:
    def test_runtime_definitions_stay_in_their_runtime(self):
        a = Runtime()
        a.run("index_shape(i::Range, j::Int, k::Range) = (7,)")
        assert a.run("index_shape(1:4, 2, 1:3)") == [Shape((7,))]
        assert Runtime().run("index_shape(1:4, 2, 1:3)") == [Shape((4, 1, 3))]
        indices = [Range(1, 4), 2, Range(1, 3)]
        assert index_shape("trailing-drop", indices) == Shape((4, 1, 3))

    @pytest.mark.parametrize("rule", rule_names())
    def test_base_rejects_definitions(self, rule):
        base = runtime.base_functions(rule)
        with pytest.raises(DefinitionError):
            base.define("index_shape", signature(RANGE), lambda r: Shape((9,)))
        with pytest.raises(DefinitionError):
            base.function("fresh")
        assert index_shape(rule, [Range(1, 4)]) == Shape((4,))


class TestDeepIndexLists:
    """An index list too long for the Python stack is an EvalError."""

    N = 2000

    @pytest.mark.parametrize("rule", rule_names())
    def test_index_shape(self, rule, monkeypatch):
        with pytest.raises(EvalError, match="^call depth exceeded$"):
            index_shape(rule, [Range(1, 1)] * self.N)
        assert index_shape(rule, [Range(1, 2), Range(1, 3)]) == Shape((2, 3))
        # a short list still runs its plan: the generic call is not reached
        monkeypatch.setattr(indexing, "base_functions", _no_generic_call)
        indices = [Range(1, 2), 3, Range(1, 4)]
        got = index_shape(rule, indices)
        assert got == Shape(index_shape_oracle(rule, indices)) and type(got) is Shape

    @pytest.mark.parametrize("rule", rule_names())
    def test_getindex_and_view(self, rule):
        a = zeros((1,) * self.N)
        with pytest.raises(EvalError, match="^call depth exceeded$"):
            getindex(a, [Range(1, 1)] * self.N, rule)
        with pytest.raises(EvalError, match="^call depth exceeded$"):
            view(a, [Range(1, 1)] * self.N, rule=rule)


def _random_index(rng: random.Random, extent: int):
    kind = rng.choice(["scalar", "range", "array"])
    if kind == "scalar" or extent == 0:
        if extent == 0:
            return Range(1, 0)
        return rng.randint(1, extent)
    if kind == "range":
        lo = rng.randint(1, extent)
        hi = rng.randint(lo - 1, extent)
        return Range(lo, hi)
    shape = tuple(rng.randrange(4) for _ in range(rng.randrange(3)))
    n = 1
    for e in shape:
        n *= e
    return NdArray(shape, [float(rng.randint(1, extent)) for _ in range(n)])


def test_oracle_equivalence_fuzz():
    rng = random.Random(90125)
    rules = rule_names()
    for trial in range(1000):
        rank = rng.randrange(5)
        shape = tuple(rng.randrange(6) for _ in range(rank))
        n = 1
        for e in shape:
            n *= e
        a = NdArray(shape, [float(k) for k in range(1, n + 1)])
        indices = [_random_index(rng, e) for e in shape]
        rule = rules[trial % len(rules)]
        want_shape, want_elems = getindex_oracle(a, indices, rule)
        got = getindex(a, indices, rule)
        assert got.shape == tuple(want_shape), (shape, indices, rule)
        assert list(got.buffer) == want_elems, (shape, indices, rule)
        assert index_shape(rule, indices) == Shape(want_shape)


def test_rank_laws():
    rng = random.Random(777)
    for _ in range(200):
        rank = rng.randrange(1, 5)
        shape = tuple(rng.randrange(1, 5) for _ in range(rank))
        n = 1
        for e in shape:
            n *= e
        a = NdArray(shape, [0.0] * n)
        indices = [_random_index(rng, e) for e in shape]
        trailing = len(getindex(a, indices, "trailing-drop").shape)
        run = 0
        for i in reversed(indices):
            if isinstance(i, int):
                run += 1
            else:
                break
        assert trailing == rank - run
        apl_rank = len(getindex(a, indices, "apl").shape)
        assert apl_rank == sum(
            0 if isinstance(i, int) else (1 if isinstance(i, Range) else i.rank)
            for i in indices
        )


def test_product_preserved():
    rng = random.Random(424)
    for _ in range(200):
        rank = rng.randrange(1, 4)
        shape = tuple(rng.randrange(1, 5) for _ in range(rank))
        indices = [_random_index(rng, e) for e in shape]
        lengths = 1
        for i in indices:
            lengths *= 1 if isinstance(i, int) else (
                i.length if isinstance(i, Range) else len(i.buffer)
            )
        for rule in rule_names():
            s = index_shape(rule, indices)
            p = 1
            for e in s:
                p *= e
            assert p == lengths, (rule, indices)


# ----------------------------------------------------------- shape plans


def _no_generic_call(rule):
    raise AssertionError("the generic index_shape call was reached")


def _generic_index_shape(rule, indices):
    """index_shape by dispatch through the evaluator, with no plan."""
    return runtime.base_functions(rule).lookup("index_shape")(*indices)


def _outcome(f):
    try:
        v = f()
    except Exception as err:  # compared by type and message
        return ("raise", type(err), str(err))
    return ("value", type(v), v)


def _fuzz_index(rng: random.Random):
    kind = rng.choice(["int", "float", "range", "empty", "array", "bool"])
    if kind == "int":
        return rng.randint(1, 9)
    if kind == "float":
        return rng.choice([1.0, 2.5, 3.0])
    if kind == "range":
        lo = rng.randint(1, 5)
        return Range(lo, lo + rng.randint(0, 4))
    if kind == "empty":
        lo = rng.randint(1, 5)
        return Range(lo, lo - 1)
    if kind == "bool":
        return rng.random() < 0.5
    shape = tuple(rng.randrange(4) for _ in range(rng.randrange(3)))
    n = 1
    for e in shape:
        n *= e
    return NdArray(shape, [float(rng.randint(1, 5)) for _ in range(n)])


def test_plans_match_the_generic_call_fuzz():
    rng = random.Random(60601)
    rules = rule_names()
    planned = 0
    for trial in range(2000):
        rule = rules[trial % len(rules)]
        indices = [_fuzz_index(rng) for _ in range(rng.randrange(7))]
        want = _outcome(lambda: _generic_index_shape(rule, indices))
        assert _outcome(lambda: index_shape(rule, indices)) == want, (rule, indices)
        plan = shape_plan(rule, tuple(map(type, indices)))
        if plan is not None:
            planned += 1
            assert _outcome(lambda: plan(*indices)) == want, (rule, indices)
        else:
            assert any(type(i) is bool for i in indices), (rule, indices)
    assert planned > 1000


@pytest.mark.parametrize("rule", rule_names())
def test_planned_lists_skip_the_generic_call(rule, monkeypatch):
    monkeypatch.setattr(indexing, "base_functions", _no_generic_call)
    for indices in ([], [2.5], [Range(1, 3), 2], [iota((2, 2)), Range(2, 1), 4]):
        assert index_shape(rule, indices) == Shape(index_shape_oracle(rule, indices))
    with pytest.raises(AssertionError, match="generic"):
        index_shape(rule, [True])


def test_an_unplanned_index_takes_the_generic_call():
    # a str index has no plan; the generic call raises the documented error
    with pytest.raises(EvalError, match="no method matching size"):
        index_shape("apl", ["a"])


def test_plans_compile_every_argument_pattern_and_range():
    # plain, plain, plain, spliced, plain, plain: the pattern the loop
    # builds; g is a minilang body called on two plain arguments
    rt = Runtime()
    rt.run("g(x::Int, y::Int) = x + y\n"
           "f(x::Int) = tuple(x, 1, x + 1, (x, 2)..., length(1:x), g(x, 2))")
    _, body = runtime._Compiler(rt.functions).bound(rt.functions.lookup("f"),
                                                    make_tuple((INT,)))
    assert body is not None
    assert body((3,)) == rt.call("f", 3) == (3, 1, 4, 3, 2, 3, 5)


def test_a_plan_build_infers_each_splice_once(monkeypatch):
    # trailing-drop's `index_shape(i, I...) = tuple(length(i), index_shape(I...)...)`:
    # the spliced call at 3:41 is inferred as often as `length(i)` beside it
    counts = collections.Counter()
    infer_expr = InferenceState.infer_expr

    def counting(state, e, env):
        if type(e) is Call:
            counts[e.loc] += 1
        return infer_expr(state, e, env)

    monkeypatch.setattr(InferenceState, "infer_expr", counting)
    base = runtime.base_functions("trailing-drop")
    _, body = runtime._Compiler(base).bound(base.lookup("index_shape"),
                                            make_tuple((RANGE, INT, RANGE)))
    assert body is not None
    assert counts[(3, 30)] == counts[(3, 41)] == 6


# a few values of each index class, edge cases included
_PLAN_VALUES = {
    int: (2, 0, -3),
    float: (2.5, 1.0, -0.0),
    Range: (Range(1, 3), Range(2, 1), Range(4, 4)),
    NdArray: (NdArray((3,), [1.0, 2.0, 3.0]), NdArray((0,), []), iota((2, 2))),
}


@pytest.mark.parametrize("rule", rule_names())
def test_every_small_index_signature_has_a_plan(rule):
    # no plan raises or differs from the generic call, so none needs a fallback
    for n in range(1, 5):
        for classes in itertools.product(tuple(_PLAN_VALUES), repeat=n):
            assert shape_plan(rule, classes) is not None, classes
            for j in range(3):
                indices = [_PLAN_VALUES[c][(j + k) % 3] for k, c in enumerate(classes)]
                want = _outcome(lambda: _generic_index_shape(rule, indices))
                assert _outcome(lambda: index_shape(rule, indices)) == want, (rule, indices)


@pytest.mark.parametrize("rule", rule_names())
def test_no_plan_beyond_the_cap_or_for_other_classes(rule):
    assert shape_plan(rule, (Range,) * 8) is not None
    assert shape_plan(rule, (Range,) * 9) is None
    assert shape_plan(rule, (bool,)) is None
    assert shape_plan(rule, (Range, str)) is None
    indices = [Range(1, 2)] * 9
    assert index_shape(rule, indices) == Shape(index_shape_oracle(rule, indices))


def test_the_plan_memo_is_bounded_and_long_lists_stay_out(monkeypatch):
    monkeypatch.setattr(runtime, "_PLANS", {})
    assert shape_plan("apl", (Range,) * 9) is None
    assert runtime._PLANS == {}
    for k in range(dispatch._MEMO_LIMIT + 10):
        assert shape_plan("apl", (type(f"Index{k}", (), {}),)) is None
        assert len(runtime._PLANS) <= dispatch._MEMO_LIMIT
    assert shape_plan("apl", (Range, int)) is not None


class TestShapePromotion:
    @pytest.mark.parametrize("rule", rule_names())
    def test_results_are_shapes(self, rule):
        for indices in ([], [2], [Range(1, 3), 2], [iota((2, 2)), Range(2, 1), 4]):
            assert type(index_shape(rule, indices)) is Shape
            assert type(Runtime(rule).call("index_shape", *indices)) is Shape

    def test_other_tuples_stay_plain(self):
        rt = Runtime()
        rt.run('index_shape(s::String) = (1, s)\n'
               'index_shape(a::Int, b::Int, c::Int) = (a, b + c)')
        got, = rt.run('index_shape("x")')
        assert got == (1, "x") and type(got) is tuple
        got, = rt.run("index_shape(1, 2, 3)")
        assert got == Shape((1, 5)) and type(got) is Shape
        rt.run("index_shape(a::Float) = (a, 2)")
        got, = rt.run("index_shape(1.5)")
        assert got == (1.5, 2) and type(got) is tuple


def test_copies_hold_a_tuple_of_floats():
    a = iota((4, 3, 2))
    idx = NdArray((2,), [3.0, 1.0])
    copies = [
        getindex(a, [Range(1, 4), Range(2, 3), 2]),
        getindex(a, [Range(2, 3), idx, Range(1, 2)], "apl"),
        getindex(a, [2, 3, 1]),
        getindex(a, [Range(1, 4), Range(1, 3), Range(1, 2)]),
        to_array(view(a, [COLON, COLON, COLON])),
        to_array(view(a, [Range(2, 3), 2, COLON])),
        to_array(view(view(a, [COLON, Range(1, 2), 1]), [Range(2, 4), COLON])),
    ]
    for got in copies:
        assert type(got.buffer) is tuple
        assert got.buffer and all(type(v) is float for v in got.buffer)
