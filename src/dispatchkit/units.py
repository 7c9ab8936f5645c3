"""Unit-tagged quantities with dimension-checked arithmetic.

A Dimension is a vector of seven integer exponents over the SI base
dimensions. Addition demands equal dimensions and fails loudly
otherwise; multiplication adds exponents. Dimension checking lives in a
guard inside the general (Quantity, Quantity) method rather than in
per-dimension method signatures, since the dispatcher has no parametric
types to encode each exponent vector as its own type.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dispatch import MethodSignature
from .lattice import Named

__all__ = [
    "BASE_SYMBOLS",
    "Dimension",
    "DIMENSIONLESS",
    "LENGTH",
    "MASS",
    "TIME",
    "CURRENT",
    "TEMPERATURE",
    "AMOUNT",
    "LUMINOSITY",
    "Quantity",
    "QUANTITY",
    "UnitMismatchError",
    "qadd",
    "qmul",
    "install_quantities",
]

# order: length, mass, time, current, temperature, amount, luminosity
BASE_SYMBOLS = ("m", "kg", "s", "A", "K", "mol", "cd")


class UnitMismatchError(Exception):
    def __init__(self, left: "Dimension", right: "Dimension"):
        self.left = left
        self.right = right
        super().__init__(f"unit mismatch: {left.render()} vs {right.render()}")


@dataclass(frozen=True)
class Dimension:
    exponents: tuple

    def __post_init__(self):
        e = tuple(self.exponents)
        if len(e) != len(BASE_SYMBOLS):
            raise ValueError(f"need {len(BASE_SYMBOLS)} exponents, got {len(e)}")
        for x in e:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"exponents must be integers, got {x!r}")
        object.__setattr__(self, "exponents", e)

    def __add__(self, other: "Dimension") -> "Dimension":
        return Dimension(tuple(a + b for a, b in
                               zip(self.exponents, other.exponents)))

    def __sub__(self, other: "Dimension") -> "Dimension":
        return Dimension(tuple(a - b for a, b in
                               zip(self.exponents, other.exponents)))

    @property
    def dimensionless(self) -> bool:
        return not any(self.exponents)

    def render(self) -> str:
        parts = []
        for sym, e in zip(BASE_SYMBOLS, self.exponents):
            if e == 0:
                continue
            parts.append(sym if e == 1 else f"{sym}^{e}")
        return " ".join(parts) if parts else "1"

    def __repr__(self):
        return f"Dimension({self.render()!r})"


def _base(i: int) -> Dimension:
    return Dimension(tuple(1 if j == i else 0 for j in range(len(BASE_SYMBOLS))))


DIMENSIONLESS = Dimension((0,) * 7)
LENGTH = _base(0)
MASS = _base(1)
TIME = _base(2)
CURRENT = _base(3)
TEMPERATURE = _base(4)
AMOUNT = _base(5)
LUMINOSITY = _base(6)


@dataclass(frozen=True)
class Quantity:
    value: float
    dim: Dimension = DIMENSIONLESS

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))

    def render(self) -> str:
        if self.dim.dimensionless:
            return f"{self.value:g}"
        return f"{self.value:g} {self.dim.render()}"

    def __repr__(self):
        return f"Quantity({self.render()!r})"


def qadd(a: Quantity, b: Quantity) -> Quantity:
    if a.dim != b.dim:
        raise UnitMismatchError(a.dim, b.dim)
    return Quantity(a.value + b.value, a.dim)


def qmul(a: Quantity, b: Quantity) -> Quantity:
    return Quantity(a.value * b.value, a.dim + b.dim)


QUANTITY = Named("Quantity")


def install_quantities(runtime) -> None:
    """Teach a runtime about Quantity values.

    Declares the Quantity type, adds Quantity to the runtime's value
    kinds (other runtimes keep rejecting Quantity values), and extends
    the `+` generic function so quantity addition dispatches like any
    other method.
    """
    if not runtime.types.declared("Quantity"):
        runtime.types.declare("Quantity", "Any")
    runtime.functions.kinds[Quantity] = QUANTITY
    sig = MethodSignature((QUANTITY, QUANTITY))
    runtime.functions.define("+", sig, qadd, transfer=lambda args, ctx: QUANTITY)
    runtime.functions.define("qmul", sig, qmul, transfer=lambda args, ctx: QUANTITY)
