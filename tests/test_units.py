"""Unit quantity tests, including the exhaustive mismatch sweep."""

from __future__ import annotations

import random

import pytest

from dispatchkit.units import (
    AMOUNT,
    CURRENT,
    DIMENSIONLESS,
    LENGTH,
    MASS,
    QUANTITY,
    TEMPERATURE,
    TIME,
    Dimension,
    Quantity,
    UnitMismatchError,
    install_quantities,
    qadd,
    qmul,
)


class TestDimension:
    def test_render_base(self):
        assert LENGTH.render() == "m"
        assert MASS.render() == "kg"
        assert TIME.render() == "s"

    def test_render_velocity(self):
        assert (LENGTH - TIME).render() == "m s^-1"

    def test_render_dimensionless(self):
        assert DIMENSIONLESS.render() == "1"

    def test_render_square(self):
        assert (LENGTH + LENGTH).render() == "m^2"

    def test_render_canonical_order(self):
        d = CURRENT + MASS + LENGTH
        assert d.render() == "m kg A"

    def test_add_sub_componentwise(self):
        assert (LENGTH + TIME).exponents == (1, 0, 1, 0, 0, 0, 0)
        assert (LENGTH - TIME).exponents == (1, 0, -1, 0, 0, 0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Dimension((1, 2))
        with pytest.raises(ValueError):
            Dimension((1, 0, 0, 0, 0, 0, 0.5))
        with pytest.raises(ValueError):
            Dimension((True, 0, 0, 0, 0, 0, 0))


class TestQadd:
    def test_same_dimension(self):
        got = qadd(Quantity(3, LENGTH), Quantity(4, LENGTH))
        assert got == Quantity(7.0, LENGTH)

    def test_dimensionless(self):
        assert qadd(Quantity(0), Quantity(5)).value == 5.0

    def test_mismatch_names_both(self):
        with pytest.raises(UnitMismatchError) as exc:
            qadd(Quantity(3, LENGTH), Quantity(4, TIME))
        assert exc.value.left == LENGTH
        assert exc.value.right == TIME
        msg = str(exc.value)
        assert "m" in msg and "s" in msg

    def test_commutative_associative(self):
        rng = random.Random(6021)
        for _ in range(200):
            d = Dimension(tuple(rng.randint(-2, 2) for _ in range(7)))
            a = Quantity(rng.uniform(-100, 100), d)
            b = Quantity(rng.uniform(-100, 100), d)
            c = Quantity(rng.uniform(-100, 100), d)
            assert qadd(a, b).value == pytest.approx(
                qadd(b, a).value, rel=1e-12)
            assert qadd(qadd(a, b), c).value == pytest.approx(
                qadd(a, qadd(b, c)).value, rel=1e-12)
            assert qadd(a, b).dim == d


class TestQmul:
    def test_exponent_addition(self):
        got = qmul(Quantity(3, LENGTH), Quantity(4, LENGTH))
        assert got.value == 12.0
        assert got.dim.render() == "m^2"

    def test_velocity(self):
        got = qmul(Quantity(6, LENGTH), Quantity(2, DIMENSIONLESS - TIME))
        assert got.value == 12.0
        assert got.dim.render() == "m s^-1"

    def test_dimensionless_identity(self):
        x = Quantity(4.5, TEMPERATURE)
        assert qmul(x, Quantity(1)) == x

    def test_dim_sum_exact(self):
        rng = random.Random(6022)
        for _ in range(200):
            da = Dimension(tuple(rng.randint(-3, 3) for _ in range(7)))
            db = Dimension(tuple(rng.randint(-3, 3) for _ in range(7)))
            got = qmul(Quantity(2, da), Quantity(3, db))
            assert got.dim.exponents == tuple(
                x + y for x, y in zip(da.exponents, db.exponents))


class TestExhaustivePairs:
    DIMS = [LENGTH, MASS, TIME, LENGTH - TIME, DIMENSIONLESS]

    def test_all_pairs(self):
        for da in self.DIMS:
            for db in self.DIMS:
                a, b = Quantity(3, da), Quantity(4, db)
                if da == db:
                    assert qadd(a, b) == Quantity(7.0, da)
                else:
                    with pytest.raises(UnitMismatchError) as exc:
                        qadd(a, b)
                    msg = str(exc.value)
                    assert da.render() in msg and db.render() in msg


class TestDispatchIntegration:
    def test_plus_method(self):
        from dispatchkit.runtime import Runtime
        rt = Runtime()
        install_quantities(rt)
        got = rt.call("+", Quantity(3, LENGTH), Quantity(4, LENGTH))
        assert got == Quantity(7.0, LENGTH)
        with pytest.raises(UnitMismatchError):
            rt.call("+", Quantity(3, LENGTH), Quantity(4, TIME))
        # numeric addition is untouched
        assert rt.call("+", 1, 2) == 3

    def test_type_probe(self):
        from dispatchkit.runtime import Runtime
        from dispatchkit.values import type_of
        rt = Runtime()
        install_quantities(rt)
        q = Quantity(1, LENGTH)
        assert type_of(q, rt.functions.kinds) == QUANTITY
        assert rt.types.declared("Quantity")
        with pytest.raises(TypeError, match="value of unknown kind"):
            type_of(q)

    def test_other_runtimes_do_not_see_quantities(self):
        from dispatchkit.runtime import Runtime

        def error_of(rt, v):
            with pytest.raises(Exception) as exc:
                rt.call("+", v, v)
            return type(exc.value), str(exc.value).split(":")[0]

        a = Runtime()
        install_quantities(a)
        b = Runtime()
        assert error_of(b, Quantity(1, LENGTH)) == error_of(b, object()) \
            == (TypeError, "value of unknown kind")
        assert b.call("+", 1, 2) == 3
        assert (int, int) in b.functions.lookup("+")._cache
        assert a.call("+", Quantity(1, LENGTH), Quantity(2, LENGTH)) \
            == Quantity(3, LENGTH)

    def test_inference_sees_quantity(self):
        from dispatchkit.inference import infer_call_type
        from dispatchkit.lattice import make_tuple
        from dispatchkit.runtime import Runtime
        rt = Runtime()
        install_quantities(rt)
        qt = QUANTITY
        t, m = infer_call_type(rt.functions, "+", make_tuple((qt, qt)))
        assert t == qt
        assert m is not None

    def test_install_twice_is_stable(self):
        from dispatchkit.runtime import Runtime
        rt = Runtime()
        install_quantities(rt)
        install_quantities(rt)
        assert rt.call("qmul", Quantity(2, LENGTH),
                       Quantity(3, TIME)).dim == LENGTH + TIME
