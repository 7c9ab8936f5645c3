"""Generic functions: applicability, specificity, selection, caching."""

from __future__ import annotations

import random

import pytest

import dispatchkit.dispatch as dispatch
from dispatchkit.dispatch import (
    AmbiguityError,
    DefinitionError,
    DispatchError,
    FunctionTable,
    GenericFunction,
    MethodSignature,
    NoMethodError,
    more_specific,
    signature,
)
from dispatchkit.lattice import ANY, Named, TupleType, TypeTable, make_tuple, subtype
from dispatchkit.ndarray import Range, Shape, iota
from dispatchkit.inference import infer_call_type
from dispatchkit.runtime import Runtime
from dispatchkit.values import FLOAT, INT, INT_ARRAY, RANGE, STRING, type_of

from oracles import small_universe

INTEGER = Named("Integer")
REAL = Named("Real")


def naive_sum(*xs):
    return sum(xs)


def kahan_sum(*xs):
    total = 0.0
    c = 0.0
    for x in xs:
        y = float(x) - c
        t = total + y
        c = (t - total) - y
        total = t
    return total


@pytest.fixture
def table():
    return TypeTable.prelude()


@pytest.fixture
def summer(table):
    ft = FunctionTable(table)
    gf = ft.function("sum")
    gf.define(signature(INTEGER, variadic=True), naive_sum)
    gf.define(signature(REAL, variadic=True), kahan_sum)
    return gf


class TestApplicable:
    def test_all_integers_match_both(self, summer):
        ms = summer.applicable(make_tuple((INT, INT)))
        assert [m.ordinal for m in ms] == [1, 2]

    def test_mixed_matches_real_only(self, summer):
        ms = summer.applicable(make_tuple((INT, FLOAT)))
        assert [m.ordinal for m in ms] == [2]

    def test_zero_args_match_both(self, summer):
        ms = summer.applicable(make_tuple(()))
        assert len(ms) == 2

    def test_string_matches_none(self, summer):
        assert summer.applicable(make_tuple((STRING,))) == []

    def test_applicability_is_supertype(self, summer):
        t = make_tuple((INT, INT, INT))
        for m in summer.applicable(t):
            assert subtype(t, m.sig_tuple, summer.types)


class TestMoreSpecific:
    def test_integer_beats_real(self, table):
        a = signature(INTEGER, variadic=True)
        b = signature(REAL, variadic=True)
        assert more_specific(a, b, table)
        assert not more_specific(b, a, table)

    def test_real_variadic_beats_any_pair(self, table):
        a = signature(REAL, variadic=True)
        b = signature(ANY, ANY, variadic=True)
        assert more_specific(a, b, table)
        assert not more_specific(b, a, table)

    def test_irreflexive(self, table):
        a = signature(INT, FLOAT)
        assert not more_specific(a, a, table)


class TestSelect:
    def test_all_int_picks_naive(self, summer):
        assert summer.select(make_tuple((INT, INT))).ordinal == 1

    def test_mixed_picks_compensated(self, summer):
        assert summer.select(make_tuple((INT, FLOAT))).ordinal == 2

    def test_no_method(self, summer):
        with pytest.raises(NoMethodError) as e:
            summer.select(make_tuple((STRING,)))
        assert "sum(String)" in str(e.value)

    def test_tailed_argument_tuple(self, summer):
        assert summer.select(make_tuple((INT,), INT)).ordinal == 1
        assert summer.select(make_tuple((REAL,), REAL)).ordinal == 2

    def test_label(self, summer):
        assert summer.select(make_tuple((INT,))).label == "sum#1"


class TestDispatchCall:
    def test_integer_branch(self, summer):
        v = summer(1, 2, 3)
        assert v == 6
        assert isinstance(v, int)

    def test_empty_sum(self, summer):
        assert summer() == 0

    def test_real_branch(self, summer):
        v = summer(1, 2.5)
        assert v == 3.5
        assert isinstance(v, float)

    def test_bool_arguments_rejected(self, summer):
        with pytest.raises(TypeError):
            summer(True)


class TestAmbiguity:
    def test_symmetric_pair(self, table):
        gf = GenericFunction("f", table)
        gf.define(signature(INT, ANY), lambda a, b: 1)
        gf.define(signature(ANY, INT), lambda a, b: 2)
        with pytest.raises(AmbiguityError) as e:
            gf(1, 2)
        assert "f#1" in str(e.value) and "f#2" in str(e.value)

    def test_resolved_by_meet_method(self, table):
        gf = GenericFunction("f", table)
        gf.define(signature(INT, ANY), lambda a, b: 1)
        gf.define(signature(ANY, INT), lambda a, b: 2)
        gf.define(signature(INT, INT), lambda a, b: 3)
        assert gf(1, 2) == 3
        assert gf(1, "x") == 1
        assert gf("x", 2) == 2


class TestDefine:
    def test_replacement_keeps_count_and_ordinal(self, table):
        gf = GenericFunction("g", table)
        gf.define(signature(INT), lambda x: "old")
        gf.define(signature(FLOAT), lambda x: "float")
        gf.define(signature(INT), lambda x: "new")
        assert len(gf.methods) == 2
        assert gf(1) == "new"
        assert gf.select(make_tuple((INT,))).label == "g#1"

    def test_specialized_flags_do_not_affect_identity(self, table):
        gf = GenericFunction("g", table)
        gf.define(signature(ANY), lambda x: "bare")
        gf.define(MethodSignature((ANY,), False, (True,)), lambda x: "typed")
        assert len(gf.methods) == 1
        assert gf(1) == "typed"

    def test_two_sum_methods(self, summer):
        assert len(summer.methods) == 2

    def test_variadic_needs_element_type(self):
        with pytest.raises(DefinitionError):
            MethodSignature((), True)

    def test_variadic_tuple_element_rejected(self):
        with pytest.raises(DefinitionError, match="must not be a tuple type"):
            MethodSignature((make_tuple((INT,)),), True)
        assert MethodSignature((make_tuple((INT,)),)).params == (make_tuple((INT,)),)

    def test_specialized_length_checked(self):
        with pytest.raises(DefinitionError):
            MethodSignature((INT,), False, (True, False))

    def test_default_specialized_flags(self):
        assert signature(INT, ANY).specialized == (True, False)

    def test_undeclared_param_rejected(self, table):
        gf = GenericFunction("g", table)
        with pytest.raises(Exception):
            gf.define(signature(Named("Widget")), lambda x: x)

    def test_render(self):
        assert signature(INT, REAL, variadic=True).render() == "(Int, Real...)"


class TestCache:
    def test_fill_and_hit(self, summer):
        summer(1, 2)
        assert len(summer._cache) == 1
        summer(3, 4)
        assert len(summer._cache) == 1
        summer(1.0, 2)
        assert len(summer._cache) == 2

    def test_transparency(self, summer):
        warm = [summer(1, 2), summer(1.5, 2), summer()]
        summer._cache.clear()
        summer.cache_enabled = False
        cold = [summer(1, 2), summer(1.5, 2), summer()]
        assert warm == cold
        assert summer._cache == {}

    def test_invalidation_on_define(self, summer):
        assert summer(1, 2) == 3
        summer.define(signature(INT, INT), lambda a, b: 99)
        assert summer(1, 2) == 99

    def test_select_memoizes_untailed_only(self, summer):
        summer.select(make_tuple((INT,), INT))
        assert summer._cache == {}
        summer.select(make_tuple((INT, INT)))
        assert len(summer._cache) == 1

    def test_memo_is_bounded(self):
        # 13 ints or floats: 8192 distinct argument lists, of a tuple type
        # for f (keyed on concrete types) and of classes for g
        rt = Runtime()
        rt.run("f(t) = 1\ng(xs...) = 2")
        lists = [tuple(1 if k >> b & 1 else 1.0 for b in range(13))
                 for k in range(6000)]
        for name, want, call in [("f", 1, lambda xs: rt.call("f", xs)),
                                 ("g", 2, lambda xs: rt.call("g", *xs))]:
            assert all(call(xs) == want for xs in lists)
            assert 0 < len(rt.functions.lookup(name)._cache) <= dispatch._MEMO_LIMIT


class TestConcreteArguments:
    def test_a_concrete_type_meets_no_method_it_misses(self, table, monkeypatch):
        # a concrete argument type overlaps exactly the methods that cover it
        gf = GenericFunction("f0", table)
        on_ints = gf.define(signature(INT, INT), lambda x, y: "ints")
        on_floats = gf.define(signature(FLOAT, FLOAT), lambda x, y: "floats")
        met = []
        real_meet = dispatch.meet

        def counting(a, b, t):
            met.append(b)
            return real_meet(a, b, t)

        monkeypatch.setattr(dispatch, "meet", counting)
        gf.cache_enabled = False
        assert gf.select(make_tuple((FLOAT, FLOAT))) is on_floats
        assert on_ints.sig_tuple not in met
        # an abstract argument type still meets every method
        survivors, static = gf.screen(make_tuple((REAL, REAL)))
        assert [m for m, _ in survivors] == [on_ints, on_floats] and static is None
        assert met.count(on_ints.sig_tuple) == 1


class TestFunctionTable:
    def test_function_is_idempotent(self, table):
        ft = FunctionTable(table)
        assert ft.function("f") is ft.function("f")
        assert len(ft) == 1

    def test_lookup_missing(self, table):
        assert FunctionTable(table).lookup("nope") is None

    def test_freeze_blocks_definition(self, table):
        ft = FunctionTable(table)
        gf = ft.function("f")
        gf.define(signature(INT), lambda x: x)
        ft.freeze()
        with pytest.raises(DefinitionError):
            gf.define(signature(FLOAT), lambda x: x)
        with pytest.raises(DefinitionError):
            ft.function("fresh")
        assert ft.lookup("f") is gf
        assert gf(5) == 5


def _sig_of(t: TupleType) -> MethodSignature:
    if t.tail is not None:
        return signature(*t.fixed, t.tail, variadic=True)
    return signature(*t.fixed)


def test_specificity_consistent_with_subtyping(table):
    """Strict subtyping implies precedence and is never contradicted."""
    tuples = [t for t in small_universe() if isinstance(t, TupleType)]
    rng = random.Random(20817)
    for _ in range(4000):
        a, b = rng.choice(tuples), rng.choice(tuples)
        ta, tb = _sig_of(a), _sig_of(b)
        ab = subtype(a, b, table)
        ba = subtype(b, a, table)
        ms_ab = more_specific(ta, tb, table)
        ms_ba = more_specific(tb, ta, table)
        if ab and not ba:
            assert ms_ab, (a, b)
            assert not ms_ba, (a, b)
        if ab and ba:
            assert not ms_ab and not ms_ba, (a, b)
        assert not (ms_ab and ms_ba), (a, b)


class TestHostClassMemo:
    """method_for_args, with its memo keyed on host classes, against
    uncached selection on the type_of key of the same arguments."""

    VALUES = [0, 3, -1, 2.5, 0.0, "s", "", Range(1, 3), Range(2, 1),
              iota((2,)), iota((1, 2)), True, False, (), (1, 2), (2.5,),
              ("s", 1), Shape((2, 3)), Shape(()), ((1,), 2.0), ((), ((3,),)),
              (1, True), (False,), ((1, 2), 3), (Shape((2,)), 1), (Range(1, 2), 2.5),
              tuple(range(1, 9)), tuple(range(1, 10)), (2.5,) * 9]

    @pytest.fixture
    def gf(self, table):
        gf = FunctionTable(table).function("f")
        gf.define(signature(INT, ANY), lambda a, b: "int-any")
        gf.define(signature(ANY, INT), lambda a, b: "any-int")
        gf.define(signature(REAL, REAL), lambda a, b: "real-real")
        gf.define(signature(STRING), lambda s: "string")
        gf.define(signature(RANGE, INT_ARRAY), lambda r, a: "range-array")
        gf.define(signature(make_tuple((), INT)), lambda t: "int-tuple")
        gf.define(signature(INTEGER, REAL, variadic=True), lambda *xs: "integer-real...")
        gf.define(signature(ANY, ANY, ANY), lambda *xs: "any3")
        return gf

    @staticmethod
    def outcome(select):
        try:
            return select()
        except (DispatchError, TypeError) as err:
            return type(err)

    def arg_lists(self, values, seed=1407):
        rng = random.Random(seed)
        return [tuple(rng.choice(values) for _ in range(rng.randrange(4)))
                for _ in range(400)]

    def check(self, gf, extra=()):
        lists = self.arg_lists(self.VALUES + list(extra))
        for args in lists + lists:  # the second round reads a warm memo
            want = self.outcome(lambda: gf._select_uncached(
                make_tuple(tuple(type_of(a, gf.kinds) for a in args))))
            assert self.outcome(lambda: gf.method_for_args(args)) is want, args

    def test_warm(self, gf):
        self.check(gf)
        assert gf._cache

    def test_cache_disabled(self, gf):
        gf.cache_enabled = False
        self.check(gf)
        assert gf._cache == {}

    def test_define_changes_the_winner(self, gf):
        self.check(gf)
        assert self.outcome(lambda: gf.method_for_args((1, 2))) is AmbiguityError
        gf.define(signature(INT, INT), lambda a, b: "int-int")
        assert gf.method_for_args((1, 2)).fn(1, 2) == "int-int"
        self.check(gf)

    def test_tuple_keys(self, gf):
        kinds = gf.kinds
        key = dispatch._tuple_key
        assert key(((1, 2.5), "s"), kinds) == ((int, float), str)
        assert key(((),), kinds) == ((),)
        assert key((Shape((2, 3)),), kinds) == key(((2, 3),), kinds) == ((int, int),)
        assert key((tuple(range(14)),), kinds) == ((int,) * 14,)
        # nested, holding a Shape or a bool: no key
        for arg in (((1,), 2), (Shape((2,)),), (1, True)):
            assert key((arg,), kinds) is None, arg

    def test_a_key_determines_the_argument_types(self, gf):
        """No class key, tuple key or type_of key of one argument list
        equals a key of a list with other argument types."""
        seen = {}
        for args in self.arg_lists(self.VALUES, seed=3845):
            try:
                types = tuple(type_of(a, gf.kinds) for a in args)
            except TypeError:
                assert dispatch._tuple_key(args, gf.kinds) is None, args
                continue
            classes = tuple(map(type, args))
            key = (classes if gf.kinds.keys() >= set(classes)
                   else dispatch._tuple_key(args, gf.kinds))
            for k in (key, types):
                if k is not None:
                    assert seen.setdefault(k, types) == types, args

    def test_a_tuple_argument_hits_the_memo(self, gf, monkeypatch):
        args = ((1, 2, 3),)
        m = gf.method_for_args(args)
        long = gf.method_for_args((tuple(range(14)),))
        monkeypatch.setattr(dispatch, "type_of", None)  # a miss would call it
        assert gf.method_for_args(args) is m
        assert gf.method_for_args((Shape((4, 5, 6)),)) is m
        assert gf.method_for_args((tuple(range(20, 34)),)) is long

    def test_value_probe(self, gf):
        """A value kind registered after the memo is warm, and an instance
        of its subclass, which only the isinstance fallback types."""
        class Tag:
            pass

        class SubTag(Tag):
            pass

        self.check(gf, [Tag(), SubTag()])  # leave class keys in the memo
        with pytest.raises(TypeError, match="value of unknown kind"):
            gf.method_for_args((Tag(),))
        gf.kinds[Tag] = STRING
        assert gf.method_for_args((Tag(),)).fn("") == "string"
        assert gf.method_for_args((SubTag(),)).fn("") == "string"
        assert (Tag,) in gf._cache and (SubTag,) not in gf._cache
        self.check(gf, [Tag(), SubTag()])


class TestInferenceAgrees:
    """A call inference reports STATIC dispatches to the method it
    reports, and a call dispatch rejects is never reported STATIC: both
    read the one selection rule of `GenericFunction`."""

    ELEMENTS = [INT, FLOAT, INTEGER, REAL, STRING, RANGE, ANY]
    FORMALS = ELEMENTS + [make_tuple((), INT), make_tuple((INT,))]
    VALUES = [0, 7, 2.5, "s", Range(1, 3), iota((2,)), (), (1,), (4,), (1, 2),
              (2.5,), ("s", 1), ((1,), 2.0), Shape((2, 3))]

    def function(self, rng):
        ft = FunctionTable(TypeTable.prelude())
        for _ in range(rng.randint(1, 5)):
            params = [rng.choice(self.FORMALS) for _ in range(rng.randrange(4))]
            variadic = rng.random() < 0.4
            if variadic:
                params.append(rng.choice(self.ELEMENTS))
            ft.define("f", MethodSignature(tuple(params), variadic), lambda *xs: None)
        return ft

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_static_sites_dispatch_to_their_method(self, seed):
        rng = random.Random(seed)
        selected = 0
        for _ in range(300):
            ft = self.function(rng)
            gf = ft.lookup("f")
            for _ in range(30):
                args = tuple(rng.choice(self.VALUES) for _ in range(rng.randrange(4)))
                try:
                    want = gf.method_for_args(args)
                    selected += 1
                except (AmbiguityError, NoMethodError):
                    want = None
                arg_type = make_tuple(tuple(type_of(a) for a in args))
                _, static = infer_call_type(ft, "f", arg_type)
                assert static is want, (gf.methods, args)
        assert selected > 1500
