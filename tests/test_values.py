"""Concrete typing of runtime values."""

from __future__ import annotations

import pytest

from dispatchkit.lattice import TupleType, make_tuple
from dispatchkit.ndarray import NdArray, Range, Shape, iota
from dispatchkit.values import (
    FLOAT,
    HOST_KINDS,
    INT,
    INT_ARRAY,
    RANGE,
    STRING,
    render_value,
    type_of,
)


def test_scalars():
    assert type_of(3) == INT
    assert type_of(2.5) == FLOAT
    assert type_of("hi") == STRING


def test_ranges_and_arrays():
    assert type_of(Range(1, 5)) == RANGE
    assert type_of(iota((2, 2))) == INT_ARRAY


def test_tuples():
    assert type_of(()) == TupleType(())
    assert type_of((1, 2.0)) == make_tuple((INT, FLOAT))
    assert type_of(((1,), "a")) == make_tuple((make_tuple((INT,)), STRING))


def test_shape_types_as_tuple_of_its_elements():
    assert type_of(Shape((5, 3))) == make_tuple((INT, INT))
    assert type_of(Shape(())) == TupleType(())


def test_bool_rejected():
    with pytest.raises(TypeError):
        type_of(True)
    with pytest.raises(TypeError):
        type_of((1, False))


def test_unknown_kind_rejected():
    with pytest.raises(TypeError):
        type_of(object())


def test_subclasses_take_their_base_kind():
    class Count(int):
        pass

    class Label(str):
        pass

    assert type_of(Count(3)) == INT
    assert type_of((Label("a"), Count(1))) == make_tuple((STRING, INT))


def test_probe_registration():
    """A kind added to a copy of HOST_KINDS types values there only."""
    class Tagged:
        pass

    class SubTagged(Tagged):
        pass

    kinds = dict(HOST_KINDS)
    kinds[Tagged] = RANGE
    assert type_of(Tagged(), kinds) == RANGE
    assert type_of(SubTagged(), kinds) == RANGE
    assert type_of((Tagged(), 4), kinds) == make_tuple((RANGE, INT))
    assert type_of(4, kinds) == INT
    with pytest.raises(TypeError, match="booleans"):
        type_of(True, kinds)
    with pytest.raises(TypeError, match="value of unknown kind"):
        type_of(Tagged())
    with pytest.raises(TypeError):
        HOST_KINDS[Tagged] = RANGE  # the default is read-only


class TestRender:
    def test_scalars(self):
        assert render_value(3) == "3"
        assert render_value(1.5) == "1.5"
        assert render_value('say "hi"') == '"say \\"hi\\""'

    def test_tuples(self):
        assert render_value(()) == "()"
        assert render_value((1,)) == "(1,)"
        assert render_value((1, 2.0)) == "(1, 2.0)"

    def test_shape_and_range(self):
        assert render_value(Shape((5, 3))) == "Shape(5, 3)"
        assert render_value(Range(1, 5)) == "1:5"

    def test_array(self):
        assert render_value(NdArray((2,), [1.0, 2.0])) == "NdArray(shape=(2,))"
