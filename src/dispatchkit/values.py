"""Mapping from runtime values to lattice types.

Every value the evaluator can produce has exactly one concrete type:
ints are Int, floats are Float, strings are String, ranges are Range,
arrays are IntArray. Shape values and plain tuples both map to the
tuple type of their elements, so there is no Shape type; Shape stays a
distinct host class only so the array layer can recognize index results.

The kinds a value may have are a map from host class to type.
HOST_KINDS is the read-only default; each FunctionTable holds its own
copy, so a host extension (the quantity layer) adds its class to one
runtime's kinds and no other runtime sees it. A class's entry must not
change once set: dispatch memos key on the class.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

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
    "HOST_KINDS",
    "type_of",
    "render_value",
]

INT = Named("Int")
FLOAT = Named("Float")
INTEGER = Named("Integer")
REAL = Named("Real")
STRING = Named("String")
RANGE = Named("Range")
INT_ARRAY = Named("IntArray")

# the value kinds whose type follows from their class; subclasses of these
# classes (but not of bool, which is no runtime value) take the same type
HOST_KINDS: Mapping[type, TypeExpr] = MappingProxyType(
    {int: INT, float: FLOAT, str: STRING, Range: RANGE, NdArray: INT_ARRAY})


def type_of(v, kinds: Mapping[type, TypeExpr] = HOST_KINDS) -> TypeExpr:
    t = kinds.get(type(v))
    if t is not None:
        return t
    if isinstance(v, bool):
        raise TypeError("booleans are not runtime values")
    # Shape is a tuple subclass; its type is the tuple type of its elements
    if isinstance(v, tuple):
        return make_tuple(tuple(type_of(x, kinds) for x in v))
    for cls, t in kinds.items():
        if isinstance(v, cls):
            return t
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
    return repr(v)
