"""Curated scalar pools and seeded random generators for the law suites.

Everything takes an explicit random.Random so that suites are
reproducible from a seed. Pools deliberately contain the absorbing and
neutral elements (zero, one, the tropical infinity, the imaginary unit)
because those are where law violations hide.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    MonoidDescriptor,
    Scalar,
    SemiringDescriptor,
    boolean,
    gaussian,
    nat,
    rational,
    semiring_by_name,
    tropical,
    word,
)
from .errors import UnknownSemiring
from .freetheory import FreeTerm
from .kleisli import KleisliMap, _built, _naturals
from .matcat import Aleph0Map, Matrix
from .monadcore import (
    ActionMonad,
    ActVal,
    Atom,
    CarrierMap,
    Elem,
    FiniteCarrier,
    MonadInstance,
    Multiset,
    MultisetMonad,
    _canonical,
    carrier,
    carrier_map,
    index_carrier,
    ms_from_pairs,
)

__all__ = [
    "scalar_pool",
    "monoid_pool",
    "random_scalar",
    "random_carrier",
    "random_elem",
    "random_carrier_fn",
    "random_multiset",
    "random_tvalue",
    "random_nested",
    "random_matrix",
    "random_aleph0",
    "random_kleisli",
    "random_free_term",
]

_SCALAR_POOLS: dict[str, tuple[Scalar, ...]] = {
    "nat": (nat(0), nat(1), nat(2), nat(3), nat(7)),
    "bool": (boolean(False), boolean(True)),
    "tropical": (
        tropical(None),
        tropical(0),
        tropical(1),
        tropical(4),
        tropical(-2),
        tropical(3),
    ),
    "ratnn": (
        rational(0),
        rational(1),
        rational(Fraction(1, 2)),
        rational(Fraction(3, 4)),
        rational(2),
        rational(Fraction(7, 3)),
    ),
    "gaussian": (
        gaussian(0),
        gaussian(1),
        gaussian(0, 1),
        gaussian(-1),
        gaussian(1, 2),
        gaussian(Fraction(1, 2), Fraction(-3, 4)),
    ),
}


def scalar_pool(S: SemiringDescriptor) -> tuple[Scalar, ...]:
    if S.name not in _SCALAR_POOLS:
        raise UnknownSemiring(f"no curated pool for {S.name}")
    return _SCALAR_POOLS[S.name]


def monoid_pool(M: MonoidDescriptor) -> tuple:
    if M.name == "free-words":
        return (word(""), word("a"), word("b"), word("ab"), word("cd"), word("ba"))
    if M.name.endswith("-mul") or M.name.endswith("-add"):
        return scalar_pool(semiring_by_name(M.name.rsplit("-", 1)[0]))
    raise UnknownSemiring(f"no curated pool for monoid {M.name}")


def random_scalar(rng: random.Random, S: SemiringDescriptor) -> Scalar:
    return rng.choice(scalar_pool(S))


def random_carrier(
    rng: random.Random, max_size: int = 5, letters: str = "abcde"
) -> FiniteCarrier:
    """The carrier of the first k letters, k drawn from 1 to the smaller of
    ``max_size`` and the number of letters. Each prefix's carrier is built
    once and cached (carriers are frozen); the draw is one ``randint``."""
    k = rng.randint(1, min(max_size, len(letters)))
    return _prefix_carrier(letters[:k])


@lru_cache(maxsize=64)
def _prefix_carrier(letters: str) -> FiniteCarrier:
    return carrier(Atom(c) for c in letters)


def random_elem(rng: random.Random, xs: FiniteCarrier) -> Elem:
    return rng.choice(list(xs))


def random_carrier_fn(
    rng: random.Random, dom: FiniteCarrier, cod: FiniteCarrier
) -> CarrierMap:
    targets = list(cod)
    return carrier_map(dom, cod, {x: rng.choice(targets) for x in dom})


def random_multiset(
    rng: random.Random,
    S: SemiringDescriptor,
    xs: FiniteCarrier,
    max_support: int = 4,
) -> Multiset:
    """A value over ``xs`` on at most ``max_support`` elements: k by
    ``randint``, k positions of the carrier by ``sample``, then a pool
    scalar per position. ``sample`` draws from ``range(len(xs))`` the
    positions, and leaves ``rng`` in the state, of sampling the elements.
    The carrier is in key order, so the drawn pairs in position order are
    distinct and in key order, and ``monadcore._canonical`` builds what
    :func:`ms_from_pairs` would."""
    elems = xs.elems
    k = rng.randint(0, min(max_support, len(elems)))
    if not k:
        return Multiset(S, ())
    picks = rng.sample(range(len(elems)), k)
    pool = scalar_pool(S)
    drawn = sorted(zip(picks, [rng.choice(pool) for _ in picks]))
    return _canonical(S, ((elems[i], s) for i, s in drawn))


def random_tvalue(rng: random.Random, T: MonadInstance, xs: FiniteCarrier):
    """A monad value over the carrier, of whichever shape T uses."""
    if isinstance(T, MultisetMonad):
        return random_multiset(rng, T.semiring, xs)
    if isinstance(T, ActionMonad):
        return ActVal(rng.choice(monoid_pool(T.monoid)), random_elem(rng, xs))
    raise UnknownSemiring(f"no sampler for {T.name}")


def random_nested(rng: random.Random, T: MonadInstance, xs: FiniteCarrier, depth: int):
    """A value of T applied depth times: inner values are the elements
    of the next layer out."""
    if depth <= 1:
        return random_tvalue(rng, T, xs)
    if isinstance(T, MultisetMonad):
        vals = [random_nested(rng, T, xs, depth - 1) for _ in range(rng.randint(0, 3))]
        return ms_from_pairs(
            T.semiring,
            [(v, random_scalar(rng, T.semiring)) for v in vals],
        )
    if isinstance(T, ActionMonad):
        return ActVal(
            rng.choice(monoid_pool(T.monoid)), random_nested(rng, T, xs, depth - 1)
        )
    raise UnknownSemiring(f"no sampler for {T.name}")


def random_matrix(
    rng: random.Random, S: SemiringDescriptor, rows: int, cols: int
) -> Matrix:
    pool = scalar_pool(S)
    return Matrix(S, rows, cols, tuple(rng.choice(pool) for _ in range(rows * cols)))


def random_aleph0(rng: random.Random, dom: int, cod: int) -> Aleph0Map:
    return Aleph0Map(dom, cod, tuple(rng.randrange(cod) for _ in range(dom)))


def random_kleisli(
    rng: random.Random, T: MonadInstance, dom: int, cod: int
) -> KleisliMap:
    """A map dom -> cod with a random value of T over {0..cod-1} per index;
    each is one by construction, so the map is not checked again."""
    _naturals(dom, cod)
    xs = index_carrier(cod)
    return _built(T, dom, cod, tuple(random_tvalue(rng, T, xs) for _ in range(dom)))


def random_free_term(
    rng: random.Random,
    S: SemiringDescriptor,
    xs: FiniteCarrier,
    max_arity: int = 4,
) -> FreeTerm:
    k = rng.randint(0, max_arity)
    row = random_matrix(rng, S, 1, k)
    return FreeTerm(row, tuple(random_elem(rng, xs) for _ in range(k)))
