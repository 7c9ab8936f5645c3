"""Mapping from runtime values to lattice types.

Every value the evaluator can produce has exactly one concrete type:
ints are Int, floats are Float, strings are String, ranges are Range,
arrays are IntArray. Shape values and plain tuples both map to the
tuple type of their elements; Shape stays a distinct value kind only so
the array layer can recognize index results. Host extensions (the
quantity arithmetic layer) register a probe here rather than patching
type_of.
"""

from __future__ import annotations

from typing import Callable

from .lattice import Named, TypeExpr, make_tuple
from .ndarray import NdArray, Range, Shape

__all__ = [
    "INT",
    "FLOAT",
    "INTEGER",
    "REAL",
    "STRING",
    "RANGE",
    "INT_ARRAY",
    "SHAPE",
    "type_of",
    "render_value",
    "register_value_probe",
]

INT = Named("Int")
FLOAT = Named("Float")
INTEGER = Named("Integer")
REAL = Named("Real")
STRING = Named("String")
RANGE = Named("Range")
INT_ARRAY = Named("IntArray")
SHAPE = Named("Shape")
_QUANTITY_TYPE = Named("Quantity")

# the value kinds whose type follows from their exact class alone
_HOST_TYPES = {int: INT, float: FLOAT, str: STRING, Range: RANGE, NdArray: INT_ARRAY}

_probes: list[Callable[[object], TypeExpr | None]] = []


def register_value_probe(probe: Callable[[object], TypeExpr | None]) -> None:
    """Add a classifier consulted before the built-in value kinds."""
    _probes.append(probe)


def type_of(v) -> TypeExpr:
    for probe in _probes:
        t = probe(v)
        if t is not None:
            return t
    t = _HOST_TYPES.get(type(v))
    if t is not None:
        return t
    if isinstance(v, bool):
        raise TypeError("booleans are not runtime values")
    if isinstance(v, int):
        return INT
    if isinstance(v, float):
        return FLOAT
    if isinstance(v, str):
        return STRING
    # Shape is a tuple subclass; its type is the tuple type of its elements
    if isinstance(v, tuple):
        return make_tuple(tuple(type_of(x) for x in v))
    if isinstance(v, Range):
        return RANGE
    if isinstance(v, NdArray):
        return INT_ARRAY
    raise TypeError(f"value of unknown kind: {v!r}")


def render_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, Shape):
        return repr(v)
    if isinstance(v, tuple):
        if len(v) == 1:
            return "(" + render_value(v[0]) + ",)"
        return "(" + ", ".join(render_value(x) for x in v) + ")"
    if isinstance(v, (Range, NdArray)):
        return repr(v)
    return repr(v)
