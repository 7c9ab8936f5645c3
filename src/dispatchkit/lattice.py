"""Type universe and lattice operations for the dispatch engine.

A type is one of three things: a named type declared in a TypeTable (which
fixes a single-inheritance tree rooted at Any), a tuple type with fixed
element types and an optional variadic tail, or Bottom, the empty type.

Tailed tuple types describe argument lists of unbounded length, so the
lattice has infinite strictly descending chains such as

    (T...)  >  (T, T...)  >  (T, T, T...)  >  ...

``widen`` exists to cut those chains short during fixpoint computations.

Two orderings live here.  ``subtype`` is the subset order on the value
sequences a tuple type denotes; it is a genuine partial order and is what
run-time applicability uses.  ``signature_subtype`` is the ordering used to
rank method signatures: it additionally lets a variadic tail unroll against
the other side's fixed slots when the element relation is strict, which
ranks ``(Real...)`` above ``(Any, Any...)`` even though neither denotes a
subset of the other.  Only dispatch specificity should use the latter.

``make_tuple`` interns: equal normalized inputs give one ``TupleType``
object, so memo keys built from its results usually compare by identity.
The intern table is process-wide and bounded (``_TUPLES_LIMIT``; a full
table is cleared). It holds type values only, never a type table, so one
runtime learns nothing about another through it. Equality stays
structural: a ``TupleType(...)`` built directly, a copy, an unpickled
value or one made before a clear equals and hashes like its interned
twin. Dispatch builds the argument type of a memo miss directly, without
interning, since nothing keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

__all__ = [
    "Named",
    "TupleType",
    "Bottom",
    "BottomType",
    "TypeExpr",
    "ANY",
    "make_tuple",
    "TypeTable",
    "TypeTableError",
    "UndeclaredTypeError",
    "FrozenTableError",
    "subtype",
    "signature_subtype",
    "join",
    "meet",
    "widen",
    "WIDEN_MAX_FIXED",
    "render_type",
]


class TypeTableError(Exception):
    pass


class UndeclaredTypeError(TypeTableError):
    pass


class FrozenTableError(TypeTableError):
    pass


@dataclass(frozen=True)
class Named:
    """A declared nominal type, identified by name alone."""

    name: str

    def __repr__(self):
        return self.name


class BottomType:
    """The empty type. A single shared instance, ``Bottom``, represents it."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Bottom"


Bottom = BottomType()


@dataclass(frozen=True)
class TupleType:
    """A tuple type: fixed element types plus an optional variadic tail.

    The tail, when present, is the element type of an arbitrary number of
    trailing values (zero or more). A tail is never itself a tuple type;
    tuples of tuples appear as fixed elements only. Use ``make_tuple`` to
    build instances with normalization (Bottom elements collapse the whole
    type to Bottom, a Bottom tail is dropped) and interning. Equality is
    structural, so a value built here directly equals its interned twin.
    """

    fixed: tuple
    tail: Optional["TypeExpr"] = None

    def __post_init__(self):
        if not isinstance(self.fixed, tuple):
            raise TypeError("fixed element types must be a tuple")
        if isinstance(self.tail, TupleType):
            raise ValueError("tuple tail must not itself be a tuple type")
        if self.tail is Bottom or any(f is Bottom for f in self.fixed):
            raise ValueError("use make_tuple to normalize Bottom components")

    _hash = None  # not a field: set on the instance by the first __hash__

    def __eq__(self, other):
        if self is other:  # interned values: equal types are one object
            return True
        if other.__class__ is not TupleType:
            return NotImplemented
        return self.fixed == other.fixed and self.tail == other.tail

    def __hash__(self):
        # computed on first use and kept: inference hashes the same tuple
        # types over and over as memo keys
        h = self._hash
        if h is None:
            h = hash((self.fixed, self.tail))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # without the cached hash: string hashes differ between processes
        return TupleType, (self.fixed, self.tail)

    def __repr__(self):
        return render_type(self)


TypeExpr = Union[Named, TupleType, BottomType]

ANY = Named("Any")


# the most tuple types `make_tuple` keeps interned; a full table is cleared
_TUPLES_LIMIT = 16384
_TUPLES: dict = {}  # (fixed, tail) -> the one interned TupleType


def make_tuple(fixed: Iterable[TypeExpr], tail: Optional[TypeExpr] = None) -> TypeExpr:
    """Build a tuple type, normalizing Bottom components, and intern it.

    A Bottom fixed element means no value sequence can inhabit the type, so
    the result is Bottom. A Bottom tail contributes no elements and is
    dropped. A tail that is a tuple type is rejected. Equal normalized
    inputs give the same object while the bounded intern table holds it.
    """
    fixed = tuple(fixed)
    for f in fixed:
        if f is Bottom:
            return Bottom
    if tail is Bottom:
        tail = None
    key = (fixed, tail)
    t = _TUPLES.get(key)
    if t is None:
        t = TupleType(fixed, tail)
        if len(_TUPLES) >= _TUPLES_LIMIT:
            _TUPLES.clear()
        _TUPLES[key] = t
    return t


class TypeTable:
    """Declared named types arranged in a single-inheritance tree.

    The first declaration must be the root, Any. Abstract types may have
    subtypes; concrete types may not. The table freezes after setup, at
    which point declarations become errors.

    ``content_key`` is every declaration so far as (name, supertype,
    abstract) triples in order: two tables with equal keys order every
    pair of types alike, so answers computed over one hold for the other.
    """

    def __init__(self):
        self._super: dict[str, Optional[str]] = {}
        self._abstract: set[str] = set()
        self._chains: dict[str, tuple[str, ...]] = {}
        self._ancestors: dict[str, frozenset[str]] = {}
        self._frozen = False
        self.content_key: tuple = ()

    @classmethod
    def prelude(cls) -> "TypeTable":
        """The default scalar hierarchy the runtime ships with."""
        t = cls()
        t.declare("Any", None, abstract=True)
        t.declare("Real", "Any", abstract=True)
        t.declare("Integer", "Real", abstract=True)
        t.declare("Int", "Integer")
        t.declare("Float", "Real")
        t.declare("Range", "Any")
        t.declare("IntArray", "Any")
        t.declare("String", "Any")
        return t

    def declare(self, name: str, supertype: Optional[str], abstract: bool = False) -> Named:
        if self._frozen:
            raise FrozenTableError("type table is frozen; no further declarations")
        if name in self._super:
            raise TypeTableError(f"type {name} is already declared")
        if supertype is None:
            if self._super:
                raise TypeTableError("only the root type Any may omit a supertype")
            if name != "Any":
                raise TypeTableError("the root type must be named Any")
        else:
            if supertype not in self._super:
                raise UndeclaredTypeError(f"supertype {supertype} is not declared")
            if supertype not in self._abstract:
                raise TypeTableError(f"concrete type {supertype} cannot have subtypes")
        self._super[name] = supertype
        if abstract:
            self._abstract.add(name)
        chain = (name,) if supertype is None else (name,) + self._chains[supertype]
        self._chains[name] = chain
        self._ancestors[name] = frozenset(chain)
        self.content_key += ((name, supertype, abstract),)
        return Named(name)

    def freeze(self):
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def declared(self, name: str) -> bool:
        return name in self._super

    def named(self, name: str) -> Named:
        if name not in self._super:
            raise UndeclaredTypeError(f"type name {name} is not declared")
        return Named(name)

    def names(self) -> tuple[str, ...]:
        return tuple(self._super)

    def is_abstract(self, name: str) -> bool:
        self._check(name)
        return name in self._abstract

    def ancestors(self, name: str) -> frozenset[str]:
        """Names of the ancestors of ``name``, including itself."""
        got = self._ancestors.get(name)
        if got is None:
            raise UndeclaredTypeError(f"type name {name} is not declared")
        return got

    def lca(self, a: str, b: str) -> str:
        """Least common ancestor of two declared names in the tree."""
        self._check(a)
        in_a = self._ancestors[a]
        for name in self._chains[b]:
            if name in in_a:
                return name
        raise TypeTableError(f"no common ancestor of {a} and {b}")  # pragma: no cover

    def _check(self, name: str):
        if name not in self._super:
            raise UndeclaredTypeError(f"type name {name} is not declared")


def subtype(a: TypeExpr, b: TypeExpr, table: TypeTable) -> bool:
    """Subset order on types: every value of ``a`` is a value of ``b``."""
    return _le(a, b, table, unroll=False)


def signature_subtype(a: TypeExpr, b: TypeExpr, table: TypeTable) -> bool:
    """Signature ordering used for method specificity.

    Like ``subtype`` except that when ``a`` runs out of fixed elements, its
    variadic tail may also match remaining fixed slots of ``b``, provided
    the element relation is strict there. This makes ``(Real...)`` rank
    below (more specific than) ``(Any, Any...)``. It is not a subset
    relation and is not transitive in general; use it only to order method
    signatures.
    """
    return _le(a, b, table, unroll=True)


def _le(a, b, table, unroll: bool) -> bool:
    if a is Bottom:
        return True
    if b is Bottom:
        return False
    if isinstance(b, Named):
        if isinstance(a, Named):
            return b.name in table.ancestors(a.name)
        # a is a tuple type; only Any sits above it among named types
        table._check(b.name)
        return b.name == "Any"
    # b is a tuple type
    if isinstance(a, Named):
        table._check(a.name)
        return False
    return _tuple_le(a, b, table, unroll)


def _tuple_le(a: TupleType, b: TupleType, table, unroll: bool) -> bool:
    af, at = a.fixed, a.tail
    bf, bt = b.fixed, b.tail
    i = j = 0
    while True:
        if i < len(af):
            ae = af[i]
            if j < len(bf):
                if not _le(ae, bf[j], table, unroll):
                    return False
                i += 1
                j += 1
                continue
            if bt is None:
                return False
            if not _le(ae, bt, table, unroll):
                return False
            i += 1
            continue
        # a's fixed elements are exhausted
        if at is None:
            # a ends here, so b must not require more elements
            return j >= len(bf)
        if j < len(bf):
            if not unroll:
                return False
            # strict unroll: the tail element type must sit strictly below
            # the fixed slot, otherwise (T...) would absorb (T, T...)
            slot = bf[j]
            if not (_le(at, slot, table, unroll) and not _le(slot, at, table, unroll)):
                return False
            j += 1
            continue
        if bt is None:
            return False
        return _le(at, bt, table, unroll)


def join(a: TypeExpr, b: TypeExpr, table: TypeTable) -> TypeExpr:
    """An upper bound of two types, never smaller than either input.

    Named types join to their least common ancestor. Tuple types join to a
    tuple whose shared prefix is joined element-wise and whose tail is the
    join of every remaining element type; if that fold produces a tuple
    type (tails cannot nest tuples) it coarsens to Any.
    """
    if a is Bottom:
        return b
    if b is Bottom:
        return a
    if a == b:
        return a  # join is idempotent
    if isinstance(a, Named) and isinstance(b, Named):
        return table.named(table.lca(a.name, b.name))
    if isinstance(a, TupleType) and isinstance(b, TupleType):
        return _tuple_join(a, b, table)
    return ANY


def _fold_tail(parts: list, table) -> TypeExpr:
    out = parts[0]
    for p in parts[1:]:
        out = join(out, p, table)
    if isinstance(out, TupleType):
        return ANY
    return out


def _tuple_join(a: TupleType, b: TupleType, table) -> TypeExpr:
    shared = min(len(a.fixed), len(b.fixed))
    prefix = tuple(join(a.fixed[k], b.fixed[k], table) for k in range(shared))
    leftovers = list(a.fixed[shared:]) + list(b.fixed[shared:])
    leftovers += [t for t in (a.tail, b.tail) if t is not None]
    if not leftovers:
        return make_tuple(prefix, None)
    return make_tuple(prefix, _fold_tail(leftovers, table))


def meet(a: TypeExpr, b: TypeExpr, table: TypeTable) -> TypeExpr:
    """The intersection of two types.

    Exact for this type algebra: named types form a tree (incomparable
    names are disjoint), and tuple types intersect element-wise over a
    contiguous length range. Returns Bottom exactly when no value inhabits
    both types, which is what ambiguity and applicability screening need.
    """
    if subtype(a, b, table):
        return a
    if subtype(b, a, table):
        return b
    if isinstance(a, TupleType) and isinstance(b, TupleType):
        return _tuple_meet(a, b, table)
    # incomparable named types are disjoint in a tree, and non-Any named
    # types share no values with tuple types
    return Bottom


def _tuple_meet(a: TupleType, b: TupleType, table) -> TypeExpr:
    lo = max(len(a.fixed), len(b.fixed))
    hi_a = None if a.tail is not None else len(a.fixed)
    hi_b = None if b.tail is not None else len(b.fixed)
    if hi_a is not None and hi_a < lo:
        return Bottom
    if hi_b is not None and hi_b < lo:
        return Bottom

    def elem(t: TupleType, k: int) -> TypeExpr:
        return t.fixed[k] if k < len(t.fixed) else t.tail

    fixed = []
    for k in range(lo):
        m = meet(elem(a, k), elem(b, k), table)
        if m is Bottom:
            return Bottom
        fixed.append(m)
    tail = None
    if hi_a is None and hi_b is None:
        t = meet(a.tail, b.tail, table)
        tail = None if t is Bottom else t
    return make_tuple(fixed, tail)


# the default widening bound: inference keeps this many tuple slots exact,
# so shape plans, which need exact types, serve at most this many indexes
WIDEN_MAX_FIXED = 8


def widen(t: TypeExpr, max_fixed: int, table: TypeTable) -> TypeExpr:
    """Bound the number of fixed elements of a tuple type.

    If ``t`` is a tuple with more than ``max_fixed`` fixed elements, keep
    the first ``max_fixed`` and fold the rest (and any existing tail) into
    a single variadic tail equal to their join. Other types pass through.
    The result is always a supertype of ``t`` and widening is idempotent.
    A negative ``max_fixed`` raises ValueError.
    """
    if max_fixed < 0:
        raise ValueError(f"max_fixed must not be negative: {max_fixed}")
    if not isinstance(t, TupleType) or len(t.fixed) <= max_fixed:
        return t
    kept = t.fixed[:max_fixed]
    folded = list(t.fixed[max_fixed:])
    if t.tail is not None:
        folded.append(t.tail)
    return make_tuple(kept, _fold_tail(folded, table))


def render_type(t: TypeExpr) -> str:
    """Stable textual form: Int, (Int, Float), (Int...), Bottom."""
    if t is Bottom:
        return "Bottom"
    if isinstance(t, Named):
        return t.name
    parts = [render_type(f) for f in t.fixed]
    if t.tail is not None:
        parts.append(render_type(t.tail) + "...")
    return "(" + ", ".join(parts) + ")"
