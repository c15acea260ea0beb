"""Finite-set monads with strength, additivity, and involution.

Two monad families are implemented concretely: the multiset monad of a
commutative semiring S (values are finitely supported maps into S) and the
action monad of a monoid M (values are pairs of a monoid element and a
point). Their direct formulas (unit, multiplication, double strength,
involution) are the methods of :class:`MultisetMonad` and
:class:`ActionMonad`. Everything else in this module is built generically
from a :class:`MonadInstance`'s unit/fmap/mult/strength, on purpose: the
derived operations (double strength, value addition, the scalar action,
evaluation at the one-point set) are computed as the abstract composites
and the test suites check that they agree with the direct formulas.

Multisets cost per entry, not per call: ``fmap``, ``mult``, ``bc`` and
``dst`` of an empty value return the monad's one empty multiset, each
after the same checks and with an identical result. A multiset is
canonical (see :class:`Multiset`), so ``bc``, ``bc_inv``, ``dst``,
``involution``, and ``fmap`` and ``mult`` of a one-entry value, build
their results already in order, without the merge and the sort of
:func:`ms_from_pairs`, and ``unit`` builds its one entry. :func:`tx_add`
leaves its checks to ``bc_inv``.

Set elements are encoded by the :class:`Elem` tree, which is totally
ordered, so nested values like multisets of multisets stay canonical and
usable as association keys.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable

from .algebra import (
    MonoidDescriptor,
    SemiringDescriptor,
    _describe,
)
from .errors import (
    CarrierMismatch,
    ElementOutsideCarrier,
    KeyNotMultiset,
    MonoidMismatch,
    NoInvolution,
    NotAdditive,
    NotCommutative,
    TagMismatch,
)

__all__ = [
    "Elem",
    "Atom",
    "Star",
    "STAR",
    "Pair",
    "Inl",
    "Inr",
    "ActVal",
    "FiniteCarrier",
    "carrier",
    "index_carrier",
    "CarrierMap",
    "Multiset",
    "ms_from_pairs",
    "multiplicity",
    "MonadInstance",
    "MultisetMonad",
    "ActionMonad",
    "ms_map_scalars",
    "generic_strength",
    "swapped_strength",
    "tx_add",
    "tx_zero",
    "scalar_action",
    "eval_at_one",
    "dst_strength_first",
    "dst_swapped_first",
    "render_elem",
    "render_multiset",
]


# ---------------------------------------------------------------------------
# Elements


class Elem:
    """Base of the universal element encoding.

    Subclasses are frozen dataclasses. Elements order by :meth:`key`,
    lexicographic on the constructor, then on the fields; every sort in
    the package passes it as the sort key. An element's text is
    :func:`render_elem`.
    """

    __slots__ = ()

    def key(self) -> tuple:
        raise NotImplementedError

    def __str__(self) -> str:
        return render_elem(self)


@dataclass(frozen=True)
class Atom(Elem):
    """A named (or numbered) urelement."""

    name: str | int

    def key(self) -> tuple:
        if isinstance(self.name, str):
            return ("atom", 1, self.name)
        return ("atom", 0, self.name)


@dataclass(frozen=True)
class Star(Elem):
    """The unique element of the one-point set."""

    def key(self) -> tuple:
        return ("star",)


STAR = Star()


@dataclass(frozen=True)
class Pair(Elem):
    left: Elem
    right: Elem

    def key(self) -> tuple:
        return ("pair", self.left.key(), self.right.key())


@dataclass(frozen=True)
class Inl(Elem):
    value: Elem

    def key(self) -> tuple:
        return ("suml", self.value.key())


@dataclass(frozen=True)
class Inr(Elem):
    value: Elem

    def key(self) -> tuple:
        return ("sumr", self.value.key())


@dataclass(frozen=True)
class ActVal(Elem):
    """An action-monad value (monoid element and point), usable as an Elem."""

    m: object
    elem: Elem

    def key(self) -> tuple:
        return ("actval", _scalar_key(self.m), self.elem.key())


# ---------------------------------------------------------------------------
# Carriers and maps between them


@dataclass(frozen=True)
class FiniteCarrier:
    """A finite set: strictly sorted tuple of distinct elements."""

    elems: tuple[Elem, ...]

    def __post_init__(self) -> None:
        keys = [e.key() for e in self.elems]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("carrier elements must be strictly sorted and distinct")

    def __iter__(self):
        return iter(self.elems)

    def __len__(self) -> int:
        return len(self.elems)

    def __contains__(self, e: Elem) -> bool:
        return e in self.elems


def carrier(elems: Iterable[Elem]) -> FiniteCarrier:
    """Build a carrier from any iterable of elements (sorted, must be distinct)."""
    ordered = sorted(elems, key=lambda e: e.key())
    return FiniteCarrier(tuple(ordered))


@lru_cache(maxsize=64)
def index_carrier(n: int) -> FiniteCarrier:
    """The n-element carrier {Atom(0), ..., Atom(n-1)}, built once per n
    while n stays among the 64 most recently used sizes."""
    return FiniteCarrier(tuple(Atom(i) for i in range(n)))


@dataclass(frozen=True, eq=False)
class CarrierMap:
    """A function between carriers given by an explicit table."""

    dom: FiniteCarrier
    cod: FiniteCarrier
    table: tuple[tuple[Elem, Elem], ...]

    def __post_init__(self) -> None:
        lookup = {}
        for x, y in self.table:
            if x not in self.dom:
                raise ElementOutsideCarrier(f"table key {render_elem(x)} not in the domain")
            if y not in self.cod:
                raise ElementOutsideCarrier(f"table value {render_elem(y)} not in the codomain")
            lookup[x] = y
        for x in self.dom:
            if x not in lookup:
                raise ElementOutsideCarrier(f"table misses domain element {render_elem(x)}")
        object.__setattr__(self, "_lookup", lookup)

    def __call__(self, x: Elem) -> Elem:
        try:
            return self._lookup[x]
        except KeyError:
            raise ElementOutsideCarrier(f"{render_elem(x)} is outside the map's domain") from None


def carrier_map(dom: FiniteCarrier, cod: FiniteCarrier, assign: dict) -> CarrierMap:
    """The map from ``dom`` to ``cod`` with the table ``assign``."""
    return CarrierMap(dom, cod, tuple(assign.items()))


def _built_map(dom: FiniteCarrier, cod: FiniteCarrier, lookup: dict) -> CarrierMap:
    """:func:`carrier_map` of ``lookup`` made without the checks of
    :class:`CarrierMap`: for a dict from each element of ``dom``, in order,
    to an element of ``cod``."""
    f = object.__new__(CarrierMap)
    vars(f).update(dom=dom, cod=cod, table=tuple(lookup.items()), _lookup=lookup)
    return f


# ---------------------------------------------------------------------------
# Multisets


@dataclass(frozen=True, eq=False)
class Multiset(Elem):
    """Finitely supported map from elements to nonzero semiring values.

    Entries are canonical: sorted by element key, with distinct elements,
    and never the zero scalar, so extensional equality of the maps is
    structural equality of the tuples. Every multiset the package builds
    comes from :func:`ms_from_pairs` or keeps this order by construction,
    and the monad operations rely on it: they read a run of entries as
    already sorted. A multiset is itself an element, so values of T(T(X))
    nest directly.
    """

    semiring: SemiringDescriptor
    entries: tuple[tuple[Elem, object], ...]

    @property
    def tag(self) -> str:
        return self.semiring.name

    def support(self) -> tuple[Elem, ...]:
        return tuple(x for x, _ in self.entries)

    def key(self) -> tuple:
        return ("msval", self.tag, tuple((x.key(), _scalar_key(s)) for x, s in self.entries))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multiset)
            and self.semiring.name == other.semiring.name
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        # Kept on first use: hashing the entries is Python-level down to
        # each Fraction, and memo tables hash one value many times.
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(("multiset", self.semiring.name, self.entries))
        return h

    def __str__(self) -> str:
        return render_multiset(self)


def _scalar_key(s) -> tuple:
    if hasattr(s, "key"):
        return s.key()
    return ("opaque", repr(s))


def _not_a_key(x) -> ElementOutsideCarrier:
    return ElementOutsideCarrier(f"multiset key {_describe(x)} is not an element")


def ms_from_pairs(S: SemiringDescriptor, pairs: Iterable[tuple[Elem, object]]) -> Multiset:
    """Canonicalize (element, value) pairs into a multiset: equal elements
    are merged with the semiring addition, zero entries are dropped, and
    the rest are sorted by element key.

    This is the general constructor, for pairs in any order. The monad
    operations whose pairs come out distinct and in key order skip it (see
    :func:`_canonical`), and so do :meth:`MultisetMonad.unit` and
    ``sampling.random_multiset``."""
    acc: dict[Elem, object] = {}
    for x, s in pairs:
        if not isinstance(x, Elem):
            raise _not_a_key(x)
        if x in acc:
            acc[x] = S.add(acc[x], s)
        else:
            acc[x] = s
    items = acc.items()
    if len(acc) > 1:
        items = sorted(items, key=lambda kv: kv[0].key())
    return _canonical(S, items)


def _canonical(S: SemiringDescriptor, pairs: Iterable[tuple[Elem, object]]) -> Multiset:
    """The multiset of ``pairs`` whose elements are already distinct and in
    key order: what :func:`ms_from_pairs` makes of them, by dropping the
    zero entries alone. A product or a star of nonzero scalars can be zero
    where the semiring has zero divisors, so the test stays."""
    zero = S.zero
    return Multiset(S, tuple(p for p in pairs if p[1] != zero))


def multiplicity(phi: Multiset, x: Elem):
    for k, s in phi.entries:
        if k == x:
            return s
    return phi.semiring.zero


# ---------------------------------------------------------------------------
# Monad instances


class MonadInstance(ABC):
    """A strong monad on finite sets, given by its operation table.

    The flags only claim properties; the law suites verify them.
    """

    name: str
    commutative: bool
    additive: bool
    involutive: bool
    # The descriptor of eval_at_one(self), built on its first call.
    _eval1 = None

    @abstractmethod
    def fmap(self, f: Callable[[Elem], Elem], u):
        """Apply T(f) to a value."""

    @abstractmethod
    def unit(self, x: Elem):
        ...

    @abstractmethod
    def mult(self, u):
        """Flatten a value of T(T(X)), whose elements are values of T(X)."""

    @abstractmethod
    def check_value(self, u) -> None:
        """Raise if ``u`` is not a value of this monad."""

    def validate_over(self, u, xs: FiniteCarrier) -> None:
        """Raise ElementOutsideCarrier unless ``u`` is a value over ``xs``."""
        self.check_value(u)
        for x in self.value_elements(u):
            if x not in xs:
                raise ElementOutsideCarrier(
                    f"{render_elem(x)} is not in the declared carrier"
                )

    @abstractmethod
    def value_elements(self, u) -> tuple[Elem, ...]:
        """The elements of X that the value mentions."""

    def dst(self, u, v):
        raise NotCommutative(f"{self.name} is not a commutative monad")

    def bc(self, u):
        raise NotAdditive(f"{self.name} is not an additive monad")

    def bc_inv(self, u, v):
        """The value over X + Y of u over X and v over Y. An additive monad
        checks both, as ``check_value`` does: :func:`tx_add` relies on it."""
        raise NotAdditive(f"{self.name} is not an additive monad")

    def initial_value(self):
        raise NotAdditive(f"{self.name} has no canonical value over the empty set")

    def involution(self, u):
        raise NoInvolution(f"{self.name} has no involution")


class MultisetMonad(MonadInstance):
    """The monad of finitely supported S-valued maps, for a semiring S."""

    def __init__(self, semiring: SemiringDescriptor):
        self.semiring = semiring
        self.name = f"multiset({semiring.name})"
        self.commutative = True
        self.additive = True
        self.involutive = semiring.star is not None
        # What fmap, mult, bc and dst return for an empty value: the empty
        # multiset over this monad's own semiring, not the argument's, which
        # may be a different descriptor of the same name.
        self._empty = Multiset(semiring, ())
        # Whether unit has an entry: not where one is zero.
        self._one_kept = semiring.one != semiring.zero

    def check_value(self, u) -> None:
        if not isinstance(u, Multiset) or u.semiring.name != self.semiring.name:
            over = f" over {u.tag}" if isinstance(u, Multiset) else ""
            raise TagMismatch(f"{_describe(u)}{over} is not a value of {self.name}")

    def value_elements(self, u) -> tuple[Elem, ...]:
        return u.support()

    def fmap(self, f: Callable[[Elem], Elem], u: Multiset) -> Multiset:
        self.check_value(u)
        if not u.entries:
            return self._empty
        if len(u.entries) == 1:
            # One nonzero entry: nothing to merge, sort or drop.
            ((x, s),) = u.entries
            y = f(x)
            if not isinstance(y, Elem):
                raise _not_a_key(y)
            return Multiset(self.semiring, ((y, s),))
        return ms_from_pairs(self.semiring, ((f(x), s) for x, s in u.entries))

    def unit(self, x: Elem) -> Multiset:
        """The singleton multiset with multiplicity one at x: what
        :func:`ms_from_pairs` makes of ``(x, one)``, with the same key check."""
        if not isinstance(x, Elem):
            raise _not_a_key(x)
        S = self.semiring
        return Multiset(S, ((x, S.one),) if self._one_kept else ())

    def mult(self, u: Multiset) -> Multiset:
        """Flatten a multiset of multisets: multiplicities distribute inward."""
        self.check_value(u)
        if not u.entries:
            return self._empty
        S = self.semiring
        pairs: list[tuple[Elem, object]] = []
        for k, s in u.entries:
            if not isinstance(k, Multiset):
                raise KeyNotMultiset(f"key {render_elem(k)} is not a multiset")
            if k.semiring.name != u.semiring.name:
                raise TagMismatch(
                    f"inner multiset over {k.tag} inside an outer one over {u.tag}"
                )
            pairs.extend((x, S.mul(s, t)) for x, t in k.entries)
        if len(u.entries) == 1:  # one inner value, scaled: still in key order
            return _canonical(S, pairs)
        return ms_from_pairs(S, pairs)

    def dst(self, u: Multiset, v: Multiset) -> Multiset:
        """Direct double strength: multiplicity at (x, y) is the product.
        The pairs come in key order, the lexicographic product of two
        sorted runs, and are distinct."""
        self.check_value(u)
        self.check_value(v)
        if not (u.entries and v.entries):
            return self._empty
        S = self.semiring
        mul = S.mul
        return _canonical(
            S, ((Pair(x, y), mul(s, t)) for x, s in u.entries for y, t in v.entries)
        )

    def bc(self, u: Multiset) -> tuple[Multiset, Multiset]:
        """Split a value over X + Y into its two runs, each already in key
        order: every Inl sorts before every Inr, and within a run the key
        of Inl(x) orders as the key of x."""
        self.check_value(u)
        if not u.entries:
            return self._empty, self._empty
        left, right = [], []
        for x, s in u.entries:
            if isinstance(x, Inl):
                left.append((x.value, s))
            elif isinstance(x, Inr):
                right.append((x.value, s))
            else:
                raise ElementOutsideCarrier(
                    f"{render_elem(x)} is not an element of a sum carrier"
                )
        S = self.semiring
        return Multiset(S, tuple(left)), Multiset(S, tuple(right))

    def bc_inv(self, u: Multiset, v: Multiset) -> Multiset:
        """The value over X + Y with u's run then v's, in key order because
        ``"suml" < "sumr"``."""
        self.check_value(u)
        self.check_value(v)
        pairs = [(Inl(x), s) for x, s in u.entries]
        pairs += [(Inr(y), s) for y, s in v.entries]
        return Multiset(self.semiring, tuple(pairs))

    def initial_value(self) -> Multiset:
        return self._empty

    def involution(self, u: Multiset) -> Multiset:
        """Star every multiplicity."""
        self.check_value(u)
        S = self.semiring
        if S.star is None:
            raise NoInvolution(f"semiring {S.name} has no star")
        return _canonical(S, ((x, S.star(s)) for x, s in u.entries))


class ActionMonad(MonadInstance):
    """The monad sending X to M x X, for a monoid M; the monoid element is
    a scalar multiplying on the left."""

    def __init__(self, monoid: MonoidDescriptor):
        self.monoid = monoid
        self.name = f"action({monoid.name})"
        self.commutative = monoid.commutative
        self.additive = False
        self.involutive = False

    def check_value(self, u) -> None:
        if not isinstance(u, ActVal):
            raise MonoidMismatch(f"{_describe(u)} is not a value of {self.name}")
        self.monoid.check_member(u.m)

    def value_elements(self, u: ActVal) -> tuple[Elem, ...]:
        return (u.elem,)

    def fmap(self, f: Callable[[Elem], Elem], u: ActVal) -> ActVal:
        self.check_value(u)
        return ActVal(u.m, f(u.elem))

    def unit(self, x: Elem) -> ActVal:
        return ActVal(self.monoid.unit, x)

    def mult(self, u: ActVal) -> ActVal:
        self.check_value(u)
        inner = u.elem
        if not isinstance(inner, ActVal):
            raise MonoidMismatch(
                f"{render_elem(inner)} is not a nested {self.name} value"
            )
        return ActVal(self.monoid.op(u.m, inner.m), inner.elem)

    def dst(self, u: ActVal, v: ActVal):
        if not self.commutative:
            raise NotCommutative(f"{self.name} is not a commutative monad")
        self.check_value(u)
        self.check_value(v)
        return ActVal(self.monoid.op(u.m, v.m), Pair(u.elem, v.elem))


# ---------------------------------------------------------------------------
# Monad maps between multiset monads


def ms_map_scalars(
    f: Callable, phi: Multiset, target: SemiringDescriptor
) -> Multiset:
    """The monad map induced by a semiring homomorphism f: apply f to every
    multiplicity (zero images get pruned)."""
    return ms_from_pairs(target, ((x, f(s)) for x, s in phi.entries))


# ---------------------------------------------------------------------------
# Generic constructions over any MonadInstance


def generic_strength(T: MonadInstance, u, y: Elem):
    """st(u, y): pair every element of u with y, by functoriality."""
    return T.fmap(lambda x: Pair(x, y), u)


def _swap_pair(e: Elem) -> Elem:
    if not isinstance(e, Pair):
        raise ElementOutsideCarrier(f"{render_elem(e)} is not a pair")
    return Pair(e.right, e.left)


def swapped_strength(T: MonadInstance, x: Elem, v):
    """st'(x, v): the strength on the other side, literally the composite
    of the product swap, st, and T of the swap (never a separate table)."""
    return T.fmap(_swap_pair, generic_strength(T, v, x))


def _codiagonal(e: Elem) -> Elem:
    if isinstance(e, (Inl, Inr)):
        return e.value
    raise ElementOutsideCarrier(f"{render_elem(e)} is not an element of a sum carrier")


def _never(e: Elem) -> Elem:
    raise ElementOutsideCarrier("the empty carrier has no elements")


def tx_add(T: MonadInstance, u, v):
    """Value addition for an additive monad: merge along the inverse of bc,
    then apply T of the codiagonal. ``bc_inv`` checks that u and v are
    values of T, so they are not checked here first."""
    if not T.additive:
        raise NotAdditive(f"{T.name} is not additive")
    if isinstance(u, Multiset) and isinstance(v, Multiset) and u.semiring.name != v.semiring.name:
        raise CarrierMismatch(f"cannot add values over {u.tag} and {v.tag}")
    return T.fmap(_codiagonal, T.bc_inv(u, v))


def tx_zero(T: MonadInstance):
    """The zero value, the same over every carrier: the image of the
    unique value over the empty set under T of the empty map."""
    if not T.additive:
        raise NotAdditive(f"{T.name} is not additive")
    return T.fmap(_never, T.initial_value())


def _second(e: Elem) -> Elem:
    if not isinstance(e, Pair):
        raise ElementOutsideCarrier(f"{render_elem(e)} is not a pair")
    return e.right


_POINT = carrier([STAR])


def scalar_action(T: MonadInstance, s, u):
    """The module action of T(1) on T(X): pair with the scalar by double
    strength, then project the point away."""
    if not T.commutative:
        raise NotCommutative(f"{T.name} is not commutative")
    T.validate_over(s, _POINT)
    return T.fmap(_second, T.dst(s, u))


def eval_at_one(T: MonadInstance):
    """The semiring (or, for non-additive T, the monoid) of T-values over
    the one-point set.

    Multiplication is the generic composite mult . T(snd) . st and addition
    is the generic T(codiagonal) . bc_inv; neither is special-cased to the
    instance, so comparing this descriptor against the base semiring is a
    real check of the construction.

    The descriptor is built once per monad instance, on the first call,
    and stored on the instance; every later call returns that object. Its
    addition and multiplication go through :func:`_once`: inside a law
    run, each is evaluated once per argument pair, and outside a run every
    call evaluates. The package's callers that repeat a pair (the law
    rows, and the transposes and Kleisli maps that they call) all call it
    inside a run.
    """
    if T._eval1 is None:
        T._eval1 = _build_eval_at_one(T)
    return T._eval1


_END = object()

# The memo table of the law run in progress in this context, or None
# between runs: see _once.
_RUN_TABLE: ContextVar[dict | None] = ContextVar("run_table", default=None)


def _once(op: Callable, *args):
    """``op(*args)``, evaluated once per law run for equal arguments: the
    one memo rule of the package. A run (``adjunctions._run_laws``) sets
    ``_RUN_TABLE`` to a fresh dict, where each result is kept by ``op`` and
    ``args``, and drops it when the run returns, so nothing is kept from
    one run to the next. Monads, descriptors and functions hash by
    identity, so a twin never reads another's result, and callers pass
    ``op`` by its module-level name, so a rebinding of that name gets keys
    of its own. Outside a run, or for an unhashable argument, ``op`` runs
    every time; what raises is never kept."""
    table = _RUN_TABLE.get()
    if table is None:
        return op(*args)
    key = (op, *args)
    try:
        out = table.get(key, _END)
    except TypeError:
        return op(*args)
    if out is _END:
        out = table[key] = op(*args)
    return out


def _build_eval_at_one(T: MonadInstance):
    def e_mul(a, b):
        T.check_value(b)
        paired = generic_strength(T, a, b)
        collapsed = T.fmap(_second, paired)
        return T.mult(collapsed)

    one = T.unit(STAR)
    if not T.additive:
        return MonoidDescriptor(
            name=f"eval1({T.name})",
            op=partial(_once, e_mul),
            unit=one,
            commutative=T.commutative,
        )
    return SemiringDescriptor(
        name=f"eval1({T.name})",
        add=lambda a, b: _once(tx_add, T, a, b),
        zero=tx_zero(T),
        mul=partial(_once, e_mul),
        one=one,
        star=(lambda a: T.involution(a)) if T.involutive else None,
    )


# ---------------------------------------------------------------------------
# The two double-strength composites


def dst_strength_first(T: MonadInstance, u, v):
    """The composite mult . T(st') . st applied to (u, v)."""
    T.check_value(v)
    outer = generic_strength(T, u, v)
    return T.mult(T.fmap(lambda p: swapped_strength(T, p.left, p.right), outer))


def dst_swapped_first(T: MonadInstance, u, v):
    """The composite mult . T(st) . st' applied to (u, v)."""
    T.check_value(u)
    outer = swapped_strength(T, u, v)
    return T.mult(T.fmap(lambda p: generic_strength(T, p.left, p.right), outer))


# ---------------------------------------------------------------------------
# Rendering


def render_elem(e: Elem) -> str:
    if isinstance(e, Atom):
        return str(e.name)
    if isinstance(e, Star):
        return "star"
    if isinstance(e, Pair):
        return f"({render_elem(e.left)},{render_elem(e.right)})"
    if isinstance(e, Inl):
        return f"inl {render_elem(e.value)}"
    if isinstance(e, Inr):
        return f"inr {render_elem(e.value)}"
    if isinstance(e, ActVal):
        return f"({e.m},{render_elem(e.elem)})"
    if type(e).__str__ is Elem.__str__:
        return f"an element of type {type(e).__name__}"
    return str(e)  # a subclass with its own text, such as FreeTerm


def render_multiset(phi: Multiset) -> str:
    if not phi.entries:
        return "{}"
    body = ", ".join(f"{render_elem(x)}: {s}" for x, s in phi.entries)
    return "{" + body + "}"
