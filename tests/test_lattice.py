"""Lattice tests: ordering properties, join/meet/widen laws, table rules."""

from __future__ import annotations

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest

from dispatchkit import lattice
from dispatchkit.inference import infer_call_type
from dispatchkit.lattice import (
    ANY,
    Bottom,
    FrozenTableError,
    Named,
    TupleType,
    TypeTable,
    TypeTableError,
    UndeclaredTypeError,
    join,
    make_tuple,
    meet,
    render_type,
    signature_subtype,
    subtype,
    widen,
)
from dispatchkit.runtime import Runtime
from dispatchkit.values import type_of

from oracles import small_universe, subtype_oracle

INT = Named("Int")
FLOAT = Named("Float")
INTEGER = Named("Integer")
REAL = Named("Real")
RANGE = Named("Range")
STRING = Named("String")


@pytest.fixture(scope="module")
def table():
    return TypeTable.prelude()


@pytest.fixture(scope="module")
def universe():
    return small_universe()


class TestSubtypeBasics:
    def test_named_chain(self, table):
        assert subtype(INT, INTEGER, table)
        assert subtype(INT, REAL, table)
        assert subtype(FLOAT, REAL, table)
        assert not subtype(FLOAT, INTEGER, table)
        assert not subtype(INTEGER, INT, table)

    def test_any_top(self, table):
        assert subtype(ANY, ANY, table)
        for t in (INT, RANGE, STRING, make_tuple([INT]), make_tuple([], REAL)):
            assert subtype(t, ANY, table)

    def test_bottom_least(self, table):
        assert subtype(Bottom, INT, table)
        assert subtype(Bottom, make_tuple([]), table)
        assert not subtype(INT, Bottom, table)

    def test_fixed_matches_tail(self, table):
        assert subtype(make_tuple([INT], INT), make_tuple([], INT), table)

    def test_element_failure(self, table):
        assert not subtype(make_tuple([INT, FLOAT]), make_tuple([], INTEGER), table)

    def test_lengths(self, table):
        assert subtype(make_tuple([]), make_tuple([], INT), table)
        assert not subtype(make_tuple([], INT), make_tuple([]), table)
        assert not subtype(make_tuple([INT, INT]), make_tuple([INT]), table)

    def test_named_vs_tuple_disjoint(self, table):
        assert not subtype(REAL, make_tuple([], ANY), table)
        assert not subtype(make_tuple([INT]), REAL, table)

    def test_undeclared_name_rejected(self, table):
        with pytest.raises(UndeclaredTypeError):
            subtype(Named("Complex"), ANY, table)


class TestDescendingChain:
    def test_chain_to_depth_10(self, table):
        # (T...), (T, T...), (T, T, T...), ... is strictly descending
        chain = [make_tuple([INT] * k, INT) for k in range(11)]
        for wider, narrower in zip(chain, chain[1:]):
            assert subtype(narrower, wider, table)
            assert not subtype(wider, narrower, table)


class TestPartialOrderExhaustive:
    def test_partial_order(self, table, universe):
        n = len(universe)
        rows = []
        for a in universe:
            bits = 0
            for j, b in enumerate(universe):
                if subtype(a, b, table):
                    bits |= 1 << j
            rows.append(bits)
        for i in range(n):
            assert rows[i] >> i & 1, f"not reflexive at {universe[i]}"
        for i in range(n):
            for j in range(n):
                if i != j and rows[i] >> j & 1 and rows[j] >> i & 1:
                    raise AssertionError(
                        f"antisymmetry violated: {universe[i]} vs {universe[j]}"
                    )
        for i in range(n):
            bits = rows[i]
            j = 0
            rest = bits
            while rest:
                if rest & 1 and rows[j] & ~bits:
                    k = (rows[j] & ~bits).bit_length() - 1
                    raise AssertionError(
                        f"transitivity violated: {universe[i]} <= {universe[j]} "
                        f"<= {universe[k]} but not {universe[i]} <= {universe[k]}"
                    )
                rest >>= 1
                j += 1

    def test_against_token_model(self, table, universe):
        rng = random.Random(20140614)
        pairs = [(rng.choice(universe), rng.choice(universe)) for _ in range(4000)]
        named = [t for t in universe if isinstance(t, Named)]
        pairs += [(a, b) for a in named for b in named]
        for a, b in pairs:
            assert subtype(a, b, table) == subtype_oracle(a, b), f"{a} vs {b}"


class TestSignatureOrder:
    def test_variadic_ranking(self, table):
        real_var = make_tuple([], REAL)
        any_pair = make_tuple([ANY], ANY)
        assert signature_subtype(real_var, any_pair, table)
        assert not signature_subtype(any_pair, real_var, table)

    def test_strictness_blocks_equal_tail(self, table):
        # (Int...) must not absorb (Int, Int...), or the chain collapses
        assert not signature_subtype(make_tuple([], INT), make_tuple([INT], INT), table)

    def test_extends_subtype(self, table, universe):
        rng = random.Random(7)
        for _ in range(4000):
            a, b = rng.choice(universe), rng.choice(universe)
            if subtype(a, b, table):
                assert signature_subtype(a, b, table), f"{a} vs {b}"

    def test_never_inverts_strict_subtype(self, table, universe):
        rng = random.Random(8)
        for _ in range(4000):
            a, b = rng.choice(universe), rng.choice(universe)
            if subtype(a, b, table) and not subtype(b, a, table):
                assert not signature_subtype(b, a, table), f"{a} vs {b}"


class TestJoin:
    def test_named_lca(self, table):
        assert join(INT, FLOAT, table) == REAL
        assert join(INT, INTEGER, table) == INTEGER
        assert join(RANGE, FLOAT, table) == ANY

    def test_unequal_length_tuples(self, table):
        got = join(make_tuple([INT]), make_tuple([INT, INT]), table)
        assert got == make_tuple([INT], INT)

    def test_mixed_kind_falls_to_any(self, table):
        assert join(RANGE, make_tuple([INT]), table) == ANY

    def test_empty_against_tailed(self, table):
        assert join(make_tuple([]), make_tuple([INT, INT], INT), table) == make_tuple([], INT)

    def test_upper_bound_property(self, table, universe):
        rng = random.Random(99)
        pairs = [(rng.choice(universe), rng.choice(universe)) for _ in range(4000)]
        for a, b in pairs:
            j = join(a, b, table)
            assert subtype(a, j, table), f"join({a}, {b}) = {j} not above {a}"
            assert subtype(b, j, table), f"join({a}, {b}) = {j} not above {b}"
            assert join(b, a, table) == j

    def test_idempotent(self, table, universe):
        for t in universe:
            assert join(t, t, table) == t

    def test_equal_inputs_return_the_first(self, table, universe):
        for t in universe:
            twin = copy.deepcopy(t)
            assert twin == t
            assert join(t, twin, table) is t
            assert join(twin, t, table) is twin


class TestMeet:
    def test_named(self, table):
        assert meet(INT, INTEGER, table) == INT
        assert meet(INT, FLOAT, table) is Bottom
        assert meet(RANGE, REAL, table) is Bottom

    def test_tuples(self, table):
        got = meet(make_tuple([ANY], ANY), make_tuple([], REAL), table)
        assert got == make_tuple([REAL], REAL)
        assert meet(make_tuple([INT]), make_tuple([INT, INT]), table) is Bottom
        assert meet(make_tuple([], INT), make_tuple([], FLOAT), table) == make_tuple([])
        assert meet(make_tuple([], INT), make_tuple([INT, INT]), table) == make_tuple([INT, INT])

    def test_lower_bound_property(self, table, universe):
        rng = random.Random(4242)
        for _ in range(4000):
            a, b = rng.choice(universe), rng.choice(universe)
            m = meet(a, b, table)
            assert subtype(m, a, table)
            assert subtype(m, b, table)

    def test_emptiness_matches_token_model(self, table, universe):
        from oracles import inhabitants, value_in

        rng = random.Random(11)
        for _ in range(2000):
            a, b = rng.choice(universe), rng.choice(universe)
            # enumerate from both ends: a shared value is always reachable
            # from whichever side constrains the slot
            have_common = any(value_in(v, b) for v in inhabitants(a)) or any(
                value_in(v, a) for v in inhabitants(b)
            )
            assert (meet(a, b, table) is not Bottom) == have_common, f"{a} vs {b}"


class TestWiden:
    def test_fold_example(self, table):
        t = make_tuple([INT, FLOAT, FLOAT, FLOAT])
        folded_tail = join(FLOAT, join(FLOAT, FLOAT, table), table)
        assert folded_tail == FLOAT
        assert widen(t, 1, table) == make_tuple([INT], FLOAT)

    def test_existing_tail_folds_in(self, table):
        t = make_tuple([INT, INT, FLOAT], INT)
        assert widen(t, 1, table) == make_tuple([INT], REAL)

    def test_short_tuples_unchanged(self, table):
        t = make_tuple([INT, FLOAT])
        assert widen(t, 8, table) == t
        assert widen(INT, 0, table) == INT
        assert widen(make_tuple([], INT), 0, table) == make_tuple([], INT)

    def test_negative_bound_rejected(self, table):
        with pytest.raises(ValueError, match="must not be negative"):
            widen(make_tuple([INT, FLOAT, INT]), -1, table)
        with pytest.raises(ValueError):
            widen(INT, -1, table)

    def test_idempotent_for_every_small_bound(self, table):
        tuples = [
            make_tuple([INT, FLOAT, INT]),
            make_tuple([INT, INT, FLOAT], INT),
            make_tuple([], REAL),
            make_tuple([FLOAT, INT, INT, INT, FLOAT]),
            make_tuple(()),
        ]
        for t in tuples:
            for k in range(5):
                w = widen(t, k, table)
                assert widen(w, k, table) == w, (t, k)
                assert subtype(t, w, table)

    def test_idempotent_and_upper(self, table, universe):
        for t in universe:
            for k in (0, 1, 2, 8):
                w = widen(t, k, table)
                assert widen(w, k, table) == w
                assert subtype(t, w, table)


class TestTupleHash:
    def test_hash_is_kept_and_agrees_with_equality(self):
        t = make_tuple([INT, make_tuple([FLOAT])], REAL)
        u = TupleType((INT, make_tuple([FLOAT])), REAL)
        assert "_hash" not in vars(t)
        assert hash(t) == hash((t.fixed, t.tail))
        assert vars(t)["_hash"] == hash(t)
        assert t == u and u == t and t is not u
        assert {t: "seen"}[u] == "seen"
        assert t != make_tuple([INT, make_tuple([FLOAT])])

    def test_copies_and_pickles_leave_the_cached_hash_behind(self):
        # string hashes differ between processes, so a cached hash must
        # not travel with the value
        t = make_tuple([STRING, RANGE], INT)
        hash(t)
        for twin in (copy.copy(t), copy.deepcopy(t),
                     pickle.loads(pickle.dumps(t))):
            assert twin == t
            assert "_hash" not in vars(twin)
            assert hash(twin) == hash(t)


class TestMakeTuple:
    def test_bottom_element_collapses(self):
        assert make_tuple([INT, Bottom]) is Bottom

    def test_bottom_tail_dropped(self):
        assert make_tuple([INT], Bottom) == make_tuple([INT])

    def test_tuple_tail_rejected(self):
        with pytest.raises(ValueError):
            TupleType((INT,), make_tuple([INT]))


class TestInterning:
    def test_equal_inputs_give_one_object(self):
        t = make_tuple([INT, make_tuple([FLOAT])], REAL)
        assert make_tuple((INT, make_tuple((FLOAT,))), REAL) is t
        assert make_tuple(x for x in (INT, FLOAT)) is make_tuple([Named("Int"), FLOAT])
        # Bottom is normalized before the lookup
        assert make_tuple([INT], Bottom) is make_tuple([INT])
        assert make_tuple([INT], Bottom) is make_tuple([INT], None)
        assert make_tuple([], Bottom) is make_tuple(())
        assert make_tuple([INT, Bottom], REAL) is Bottom
        assert make_tuple([Bottom], Bottom) is Bottom
        assert type_of((1, 2.0)) is make_tuple([INT, FLOAT])
        assert type_of(((1,), 2.0)) is make_tuple([make_tuple([INT]), FLOAT])

    def test_signatures_of_two_runtimes_share_one_tuple(self):
        src = "f(x::Int, r::Real...) = x\nf(x::Float, y::Int) = y\n"
        sigs = []
        for _ in range(2):
            rt = Runtime()
            rt.load_definitions(src)
            sigs.append([m.sig_tuple for m in rt.functions.lookup("f").methods])
        assert sigs[0][0] is sigs[1][0] is make_tuple([INT], REAL)
        assert sigs[0][1] is sigs[1][1] is make_tuple([FLOAT, INT])

    def test_values_from_before_a_clear_still_compare(self, monkeypatch):
        monkeypatch.setattr(lattice, "_TUPLES_LIMIT", 3)
        monkeypatch.setattr(lattice, "_TUPLES", {})
        old = make_tuple([STRING, RANGE], INT)
        old_hash = hash(old)
        for n in range(4):  # four new types fill the table and clear it
            make_tuple([REAL] * n)
        new = make_tuple([STRING, RANGE], INT)
        assert new is not old
        assert new == old and old == new and not new != old
        assert hash(new) == old_hash == hash((new.fixed, new.tail))
        assert {old: "seen"}[new] == "seen"
        assert make_tuple([STRING, RANGE], INT) is new

    def test_table_never_exceeds_its_limit(self, monkeypatch):
        monkeypatch.setattr(lattice, "_TUPLES_LIMIT", 5)
        monkeypatch.setattr(lattice, "_TUPLES", {})
        for n in range(20):
            t = make_tuple([INT] * n, FLOAT)
            assert 0 < len(lattice._TUPLES) <= 5
            assert make_tuple([INT] * n, FLOAT) is t

    def test_a_runtime_learns_no_type_through_the_table(self):
        a, b = Runtime(), Runtime()
        a.types.declare("Foo", "Any")
        a.load_definitions("f(x::Foo, y::Int) = y\n")
        foo = Named("Foo")
        t, m = infer_call_type(a.functions, "f", make_tuple((foo, INT)),
                               a.widen_max_fixed)
        assert t == INT and m is a.functions.lookup("f").methods[0]
        with pytest.raises(UndeclaredTypeError):
            subtype(foo, ANY, b.types)
        with pytest.raises(UndeclaredTypeError):
            subtype(make_tuple((foo, INT)), make_tuple((ANY, INT)), b.types)

    def test_a_pickle_crosses_processes_with_other_hash_seeds(self, tmp_path):
        # string hashes differ between the two processes, so a cached hash
        # that travelled with the pickle would disagree with equality
        path = tmp_path / "t.pickle"
        make = ("from dispatchkit.lattice import Named, make_tuple\n"
                "t = make_tuple([Named('String'), Named('Range')], Named('Int'))\n")
        dump = make + (
            "import pickle, sys\n"
            "print(hash(t))\n"
            "open(sys.argv[1], 'wb').write(pickle.dumps(t))\n"
        )
        load = make + (
            "import pickle, sys\n"
            "print(hash(t))\n"
            "u = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "assert u == t and t == u and not u != t\n"
            "assert hash(u) == hash(t) and {t: 1}[u] == 1\n"
            "print('loaded')\n"
        )
        hashes = []
        for seed, code in (("0", dump), ("1", load)):
            done = subprocess.run([sys.executable, "-c", code, str(path)],
                                  capture_output=True, text=True, timeout=60,
                                  env=dict(os.environ, PYTHONHASHSEED=seed))
            assert done.returncode == 0, done.stderr
            hashes.append(done.stdout.split()[0])
        assert done.stdout.split()[1] == "loaded"
        assert hashes[0] != hashes[1]


class TestTypeTable:
    def test_prelude_names(self, table):
        for name in ("Any", "Real", "Integer", "Int", "Float", "Range", "IntArray", "String"):
            assert table.declared(name)
        assert not table.declared("Shape")
        assert table.is_abstract("Real")
        assert not table.is_abstract("Int")

    def test_declaration_rules(self):
        t = TypeTable()
        with pytest.raises(TypeTableError):
            t.declare("Real", None)  # root must be Any
        t.declare("Any", None, abstract=True)
        t.declare("Int", "Any")
        with pytest.raises(TypeTableError):
            t.declare("Int", "Any")  # duplicate
        with pytest.raises(UndeclaredTypeError):
            t.declare("Meter", "Quantity")  # unknown supertype
        with pytest.raises(TypeTableError):
            t.declare("Byte", "Int")  # concrete supertype

    def test_freeze(self):
        t = TypeTable.prelude()
        t.freeze()
        with pytest.raises(FrozenTableError):
            t.declare("Quantity", "Any")

    def test_lca(self, table):
        assert table.lca("Int", "Float") == "Real"
        assert table.lca("Int", "Int") == "Int"
        assert table.lca("Range", "Float") == "Any"


class TestRendering:
    def test_render(self):
        assert render_type(INT) == "Int"
        assert render_type(Bottom) == "Bottom"
        assert render_type(make_tuple([])) == "()"
        assert render_type(make_tuple([INT, FLOAT])) == "(Int, Float)"
        assert render_type(make_tuple([], INT)) == "(Int...)"
        assert render_type(make_tuple([INT], INT)) == "(Int, Int...)"
