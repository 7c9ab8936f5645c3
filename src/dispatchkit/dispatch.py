"""Generic functions with multiple dispatch.

A generic function owns an ordered list of methods. Calling one selects
the applicable method whose signature, read as a tuple type, is most
specific for the concrete argument types, then runs its body. Selection
is memoized in one dict per generic function. Calls go through
`GenericFunction.method_for_args`, which `dispatch_call` and the
evaluator share: it keys the memo on the host classes of the arguments
when each is one of the function's value kinds (the `kinds` map of its
FunctionTable, see `values`) or a tuple of them, the way a polymorphic
inline cache keys on the receiver's class, and otherwise on the tuple
of their concrete types, as `method_for` and `select` do. Any
(re)definition clears the memo, so a warm cache is observationally
identical to a cold one.

Specificity uses the signature order from the lattice module (see the
note there): it extends strict semantic subtyping so that variadic
signatures like (Real...) outrank (Any, Any...), and ties that survive
it raise AmbiguityError rather than falling back to definition order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional

from .lattice import (
    ANY,
    Named,
    TupleType,
    TypeExpr,
    TypeTable,
    make_tuple,
    render_type,
    signature_subtype,
    subtype,
)
from .values import HOST_KINDS, type_of

__all__ = [
    "DispatchError",
    "NoMethodError",
    "AmbiguityError",
    "DefinitionError",
    "MethodSignature",
    "signature",
    "Method",
    "GenericFunction",
    "FunctionTable",
    "more_specific",
    "outranked",
    "dispatch_call",
]

# several times the largest memo a benchmark workload builds (under 900)
_MEMO_LIMIT = 4096


class DispatchError(Exception):
    pass


class NoMethodError(DispatchError):
    def __init__(self, name: str, arg_types):
        rendered = ", ".join(render_type(t) for t in arg_types)
        super().__init__(f"no method matching {name}({rendered})")
        self.name = name
        self.arg_types = tuple(arg_types)


class AmbiguityError(DispatchError):
    def __init__(self, name: str, arg_types, candidates):
        rendered = ", ".join(render_type(t) for t in arg_types)
        labels = ", ".join(m.label for m in candidates)
        super().__init__(f"ambiguous call {name}({rendered}); candidates: {labels}")
        self.name = name
        self.arg_types = tuple(arg_types)
        self.candidates = tuple(candidates)


class DefinitionError(DispatchError):
    pass


@dataclass(frozen=True)
class MethodSignature:
    """Formal parameter types plus a flag for a trailing repeated formal.

    When variadic, the final param is the element type that matches zero
    or more trailing arguments. `specialized` records which formals were
    written with an explicit type; it does not affect matching (an
    unspecialized formal is just Any) but the metrics layer reads it.
    """

    params: tuple[TypeExpr, ...]
    variadic: bool = False
    specialized: tuple[bool, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.variadic and not self.params:
            raise DefinitionError("variadic signature needs an element type")
        if len(self.specialized) not in (0, len(self.params)):
            raise DefinitionError("specialized flags must match params")
        if not self.specialized:
            object.__setattr__(
                self, "specialized", tuple(p != ANY for p in self.params)
            )

    def as_tuple_type(self) -> TypeExpr:
        if self.variadic:
            return make_tuple(self.params[:-1], self.params[-1])
        return make_tuple(self.params)

    def render(self) -> str:
        parts = [render_type(p) for p in self.params]
        if self.variadic:
            parts[-1] += "..."
        return "(" + ", ".join(parts) + ")"


def signature(*params: TypeExpr, variadic: bool = False,
              specialized: Optional[tuple[bool, ...]] = None) -> MethodSignature:
    return MethodSignature(tuple(params), variadic, tuple(specialized or ()))


def _precedes(ta: TypeExpr, tb: TypeExpr, table: TypeTable) -> bool:
    return signature_subtype(ta, tb, table) and not signature_subtype(tb, ta, table)


def more_specific(a: MethodSignature, b: MethodSignature, table: TypeTable) -> bool:
    """True iff a strictly precedes b in the signature order."""
    return _precedes(a.as_tuple_type(), b.as_tuple_type(), table)


def outranked(m: Method, rivals, table: TypeTable) -> bool:
    """True iff some other method of `rivals` strictly precedes `m`: the
    one precedence test of dispatch (`select`) and of inference."""
    return any(o is not m and _precedes(o.sig_tuple, m.sig_tuple, table) for o in rivals)


@dataclass
class Method:
    signature: MethodSignature
    fn: Callable[..., Any]
    fname: str
    ordinal: int
    body: Any = None        # syntax tree when the body is language-defined
    transfer: Any = None    # inference rule for native bodies
    sig_tuple: TypeExpr = field(init=False, repr=False)

    def __post_init__(self):
        self.sig_tuple = self.signature.as_tuple_type()

    @property
    def label(self) -> str:
        return f"{self.fname}#{self.ordinal}"

    def __repr__(self):
        return f"<method {self.fname}{self.signature.render()}>"


class GenericFunction:
    """Named collection of methods sharing a dispatch cache."""

    def __init__(self, name: str, types: TypeTable,
                 kinds: Mapping[type, TypeExpr] = HOST_KINDS):
        self.name = name
        self.types = types
        self.kinds = kinds
        self.methods: list[Method] = []
        self.cache_enabled = True
        self.frozen = False
        self._cache: dict[tuple, Method] = {}

    def define(self, sig: MethodSignature, fn: Callable[..., Any],
               body=None, transfer=None) -> Method:
        if self.frozen:
            raise DefinitionError(f"function table is frozen; cannot extend {self.name}")
        for p in sig.params:
            self._check_declared(p)
        for k, existing in enumerate(self.methods):
            if existing.signature == sig:
                m = Method(sig, fn, self.name, existing.ordinal, body, transfer)
                self.methods[k] = m
                self._cache.clear()
                return m
        m = Method(sig, fn, self.name, len(self.methods) + 1, body, transfer)
        self.methods.append(m)
        self._cache.clear()
        return m

    def _check_declared(self, t: TypeExpr) -> None:
        if isinstance(t, Named):
            self.types.named(t.name)
        elif isinstance(t, TupleType):
            for c in t.fixed:
                self._check_declared(c)
            if t.tail is not None:
                self._check_declared(t.tail)

    def applicable(self, arg_types: TypeExpr) -> list[Method]:
        return [m for m in self.methods if subtype(arg_types, m.sig_tuple, self.types)]

    def method_for(self, key: tuple) -> Method:
        """The method for a tuple of concrete argument types, memoized per key."""
        if not self.cache_enabled:
            return self._select_uncached(make_tuple(key))
        m = self._cache.get(key)
        return m if m is not None else self._memo_miss(key, key)

    def _memo_miss(self, key: tuple, arg_types: tuple) -> Method:
        """Select for `arg_types`, memoized under `key`; a full memo is cleared first."""
        if len(self._cache) >= _MEMO_LIMIT:
            self._cache.clear()
        m = self._cache[key] = self._select_uncached(make_tuple(arg_types))
        return m

    def method_for_args(self, args) -> Method:
        """The method for a list of argument values.

        An argument list whose exact classes are all keys of `kinds` is
        memoized on those classes, so a hit builds and hashes no type
        values; one that also holds tuples of such values is memoized on
        `_tuple_key`. Class and tuple keys share the memo with the
        `type_of` keys of `method_for`, which every other argument list
        takes, and never equal one or each other.
        """
        kinds = self.kinds
        if self.cache_enabled:
            key = tuple(map(type, args))
            m = self._cache.get(key)
            if m is None and not kinds.keys() >= set(key):
                key = _tuple_key(args, kinds)  # None is no memo key
                m = self._cache.get(key)
            if m is not None:
                return m
            if key is not None:
                return self._memo_miss(key, tuple([type_of(a, kinds) for a in args]))
        return self.method_for(tuple([type_of(a, kinds) for a in args]))

    def select(self, arg_types: TupleType) -> Method:
        if arg_types.tail is None:
            return self.method_for(arg_types.fixed)
        return self._select_uncached(arg_types)

    def _select_uncached(self, arg_types: TupleType) -> Method:
        candidates = self.applicable(arg_types)
        if not candidates:
            raise NoMethodError(self.name, arg_types.fixed if arg_types.tail is None
                                else (arg_types,))
        if len(candidates) == 1:
            return candidates[0]
        winners = [m for m in candidates if not outranked(m, candidates, self.types)]
        if len(winners) == 1:
            return winners[0]
        raise AmbiguityError(self.name, arg_types.fixed if arg_types.tail is None
                             else (arg_types,), winners or candidates)

    def __call__(self, *args):
        return dispatch_call(self, args)

    def __repr__(self):
        return f"<generic {self.name} with {len(self.methods)} methods>"


def _tuple_key(args, kinds) -> Optional[tuple]:
    """The memo key of an argument list whose values are each of a value
    kind or a tuple of values of value kinds: per argument, its class or
    the tuple of its elements' classes; None for any other list. A tuple
    of classes equals no class and no type value, so such a key never
    equals a class key or a `type_of` key. A Shape and a tuple of the
    same classes share a key, as they share a type."""
    key = []
    for a in args:
        cls = type(a)
        if cls in kinds:
            key.append(cls)
        elif isinstance(a, tuple):
            classes = tuple(map(type, a))
            if not kinds.keys() >= set(classes):
                return None
            key.append(classes)
        else:
            return None
    return tuple(key)


def dispatch_call(gf: GenericFunction, args) -> Any:
    return gf.method_for_args(args).fn(*args)


class FunctionTable:
    """All generic functions of one program, plus the type table and the
    value kinds they share."""

    def __init__(self, types: TypeTable):
        self.types = types
        self.kinds = dict(HOST_KINDS)
        self._functions: dict[str, GenericFunction] = {}
        self.frozen = False

    def function(self, name: str) -> GenericFunction:
        gf = self._functions.get(name)
        if gf is None:
            if self.frozen:
                raise DefinitionError(f"function table is frozen; cannot create {name}")
            gf = GenericFunction(name, self.types, self.kinds)
            self._functions[name] = gf
        return gf

    def lookup(self, name: str) -> Optional[GenericFunction]:
        return self._functions.get(name)

    def define(self, name: str, sig: MethodSignature, fn, body=None, transfer=None) -> Method:
        return self.function(name).define(sig, fn, body, transfer)

    def freeze(self) -> None:
        self.frozen = True
        for gf in self._functions.values():
            gf.frozen = True

    def names(self) -> list[str]:
        return list(self._functions)

    def __iter__(self) -> Iterator[GenericFunction]:
        return iter(self._functions.values())

    def __len__(self):
        return len(self._functions)
