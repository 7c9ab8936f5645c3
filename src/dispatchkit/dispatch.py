"""Generic functions with multiple dispatch.

A generic function owns an ordered list of methods. Calling one selects
the applicable method whose signature, read as a tuple type, is most
specific for the concrete argument types, then runs its body.

One rule, `_screen_positions`, says which methods can win a call on an
argument tuple type: those that overlap it and that no method covering
all of it outranks. Selection takes the lone covering survivor;
inference (`GenericFunction.screen`) takes every survivor and reports
the lone survivor static when it covers, so a static site dispatches to
the method inference reports.

Selection is memoized per function on an argument key (`_cache`): host
classes where `method_for_args` can use them, as a polymorphic inline
cache keys on the receiver's class, and concrete types otherwise. A miss
computes the rule afresh, which costs less than hashing a fresh argument
type into a memo. `screen` memoizes the rule per function on the
argument type (`_screens`), and behind that in the process-wide
`_SCREENS`, which keeps answers in method positions under all the rule
reads: the signatures in order, the argument type and the type table's
`content_key`. A (re)definition clears the function's memos, so a warm
cache is observationally identical to a cold one; a type declaration
orders no two declared names anew, so it clears none. With
`cache_enabled` off, nothing is memoized.

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
    Bottom,
    Named,
    TupleType,
    TypeExpr,
    TypeTable,
    make_tuple,
    meet,
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

# (sig_tuples in order, argument type, content_key) -> `_screen_positions`'s
# answer; threads that race on one key only repeat the work
_SCREENS: dict[tuple, tuple] = {}


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
        if self.variadic and isinstance(self.params[-1], TupleType):
            raise DefinitionError("variadic element type must not be a tuple type")
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
    one precedence test of the selection rule."""
    return any(o is not m and _precedes(o.sig_tuple, m.sig_tuple, table) for o in rivals)


def _concrete(t: TypeExpr, table: TypeTable) -> bool:
    """True iff `t` is a declared concrete name or a tuple type without a
    tail whose elements are concrete. Such a type has no subtype but
    itself and Bottom, so it overlaps exactly the types that cover it."""
    if isinstance(t, Named):
        return table.declared(t.name) and not table.is_abstract(t.name)
    if not isinstance(t, TupleType) or t.tail is not None:
        return False
    for x in t.fixed:
        if not _concrete(x, table):
            return False
    return True


def _screen_positions(methods: list, arg_type: TupleType, table: TypeTable) -> tuple:
    """The selection rule, each method given by its position in `methods`:
    the methods that cover all of `arg_type`; the survivors, each method
    that overlaps `arg_type` and that no covering one outranks, with its
    narrowed type (None when no method overlaps); the covering survivors;
    and the static winner, the lone survivor when it covers. A concrete
    `arg_type` overlaps only the methods that cover it, so each method
    costs it one subtype test and no `meet`."""
    overlapping, covering = [], []
    concrete = _concrete(arg_type, table)
    for k, m in enumerate(methods):
        if concrete:
            nt = arg_type if subtype(arg_type, m.sig_tuple, table) else Bottom
        else:
            nt = meet(arg_type, m.sig_tuple, table)
        if nt is not Bottom:
            overlapping.append((k, nt))
            if nt is arg_type:  # meet returns `arg_type` itself iff it is a subtype
                covering.append(k)
    if not overlapping:
        return (), None, (), None
    if len(overlapping) > 1:  # only another covering method can outrank one
        rivals = [methods[k] for k in covering]
        overlapping = [(k, nt) for k, nt in overlapping
                       if not outranked(methods[k], rivals, table)]
    winners = tuple([k for k, _ in overlapping if k in covering])
    static = winners[0] if winners and len(overlapping) == 1 else None
    return tuple(covering), tuple(overlapping), winners, static


def _remember(memo: dict, key, value):
    """Store `value` under `key`, clearing a full memo first."""
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[key] = value
    return value


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
        self._screens: dict[TupleType, tuple] = {}  # arg type -> an entry of _SCREENS

    def define(self, sig: MethodSignature, fn: Callable[..., Any],
               body=None, transfer=None) -> Method:
        if self.frozen:
            raise DefinitionError(f"function table is frozen; cannot extend {self.name}")
        for p in sig.params:
            self._check_declared(p)
        for k, existing in enumerate(self.methods):
            if existing.signature == sig:
                m = self.methods[k] = Method(sig, fn, self.name, existing.ordinal,
                                             body, transfer)
                break
        else:
            m = Method(sig, fn, self.name, len(self.methods) + 1, body, transfer)
            self.methods.append(m)
        self._cache.clear()
        self._screens.clear()
        return m

    def _check_declared(self, t: TypeExpr) -> None:
        if isinstance(t, Named):
            self.types.named(t.name)
        elif isinstance(t, TupleType):
            for c in t.fixed:
                self._check_declared(c)
            if t.tail is not None:
                self._check_declared(t.tail)

    def applicable(self, arg_types: TupleType) -> list[Method]:
        methods = self.methods
        return [methods[k] for k in _screen_positions(methods, arg_types, self.types)[0]]

    def screen(self, arg_type: TupleType):
        """The methods that could win a call on `arg_type`, each with its
        narrowed type (None when none overlaps), and the static winner."""
        methods = self.methods
        if not self.cache_enabled:
            got = _screen_positions(methods, arg_type, self.types)
        elif (got := self._screens.get(arg_type)) is None:
            key = (tuple([m.sig_tuple for m in methods]), arg_type, self.types.content_key)
            got = _remember(self._screens, arg_type, _SCREENS.get(key) or _remember(
                _SCREENS, key, _screen_positions(methods, arg_type, self.types)))
        _, survivors, _, static = got
        if survivors is None:
            return None, None
        return ([(methods[k], nt) for k, nt in survivors],
                None if static is None else methods[static])

    def method_for(self, key: tuple) -> Method:
        """The method for a tuple of concrete argument types, memoized per key."""
        if not self.cache_enabled:
            return self._select_uncached(TupleType(key))
        m = self._cache.get(key)
        return m if m is not None else self._memo_miss(key, key)

    def _memo_miss(self, key: tuple, arg_types: tuple) -> Method:
        """Select for `arg_types`, memoized under `key`; a full memo is cleared first.
        The argument type is built without interning: nothing keeps it."""
        return _remember(self._cache, key, self._select_uncached(TupleType(arg_types)))

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
        """The one covering method the rule leaves, computed afresh."""
        methods = self.methods
        covering, _, winners, _ = _screen_positions(methods, arg_types, self.types)
        if len(winners) == 1:
            return methods[winners[0]]
        shown = arg_types.fixed if arg_types.tail is None else (arg_types,)
        if not covering:
            raise NoMethodError(self.name, shown)
        raise AmbiguityError(self.name, shown, [methods[k] for k in winners or covering])

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
