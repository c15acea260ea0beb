"""Curated scalar pools and seeded random generators for the law suites.

Everything takes an explicit random.Random so that suites are
reproducible from a seed. Pools deliberately contain the absorbing and
neutral elements (zero, one, the tropical infinity, the imaginary unit)
because those are where law violations hide.

Every draw reads ``rng.getrandbits`` directly, by the rule of
``random.Random._randbelow``: an int below n takes ``n.bit_length()``
bits, and a value of n or more is drawn again. ``randint(a, b)`` is
``a + below(b - a + 1)``, ``choice(seq)`` is ``seq[below(len(seq))]``,
and ``sample(range(n), k)`` is, for n <= 21, a swap from a pool of the n
positions with ``below(n - i)`` for pick i. So each sampler draws the
values, and leaves ``rng`` in the state, that those methods would, on
Python 3.10 to 3.13 alike, without their Python-level wrappers.
Multisets, matrices and carrier maps are built from pool or carrier
parts without their constructors' checks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    BOOL,
    GAUSSIAN,
    NAT,
    RATNN,
    TROPICAL,
    MonoidDescriptor,
    Scalar,
    SemiringDescriptor,
    gaussian,
    nat,
    rational,
    semiring_by_name,
    tropical,
    word,
)
from .errors import DimensionMismatch, UnknownSemiring
from .freetheory import FreeTerm
from .kleisli import KleisliMap, _built, _naturals
from .matcat import Aleph0Map, Matrix, _matrix
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
    _built_map,
    carrier,
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

# Each pool starts with its semiring's zero object, which random_multiset
# recognizes by identity.
_SCALAR_POOLS: dict[str, tuple[Scalar, ...]] = {
    "nat": (NAT.zero, nat(1), nat(2), nat(3), nat(7)),
    "bool": (BOOL.zero, BOOL.one),
    "tropical": (
        TROPICAL.zero,
        tropical(0),
        tropical(1),
        tropical(4),
        tropical(-2),
        tropical(3),
    ),
    "ratnn": (
        RATNN.zero,
        rational(1),
        rational(Fraction(1, 2)),
        rational(Fraction(3, 4)),
        rational(2),
        rational(Fraction(7, 3)),
    ),
    "gaussian": (
        GAUSSIAN.zero,
        gaussian(1),
        gaussian(0, 1),
        gaussian(-1),
        gaussian(1, 2),
        gaussian(Fraction(1, 2), Fraction(-3, 4)),
    ),
}
# The payloads of each pool, in order: what a Matrix over it stores.
_PAYLOAD_POOLS = {
    name: tuple(s.payload for s in pool) for name, pool in _SCALAR_POOLS.items()
}
_FREE_WORDS_POOL = (word(""), word("a"), word("b"), word("ab"), word("cd"), word("ba"))


def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``: an int in [0, n) by the rule of the module
    docstring."""
    if n <= 0:
        raise ValueError(f"empty range [0, {n})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _choose(rng: random.Random, seq, count: int) -> list:
    """``count`` draws of ``_choice(rng, seq)``, in one call: the samplers
    that draw one pool or carrier member per entry take them all here."""
    n = len(seq)
    if count and not n:
        raise IndexError("cannot choose from an empty sequence")
    bits, w = rng.getrandbits, n.bit_length()
    out = []
    for _ in range(count):
        r = bits(w)
        while r >= n:
            r = bits(w)
        out.append(seq[r])
    return out


def _choice(rng: random.Random, seq):
    """``rng.choice(seq)``, by the rule of the module docstring."""
    if not seq:
        raise IndexError("cannot choose from an empty sequence")
    return seq[_below(rng, len(seq))]


def _sample(rng: random.Random, n: int, k: int) -> list[int]:
    """``rng.sample(range(n), k)``: for k of at most 21 positions by the
    pool swap of the module docstring, else by ``sample`` itself, whose
    method there depends on k (and which rejects a k outside [0, n])."""
    if n > 21 or not 0 <= k <= n:
        return rng.sample(range(n), k)
    bits = rng.getrandbits
    left = list(range(n))
    picks = []
    for i in range(n, n - k, -1):
        w = i.bit_length()
        j = bits(w)
        while j >= i:
            j = bits(w)
        picks.append(left[j])
        left[j] = left[i - 1]
    return picks


def scalar_pool(S: SemiringDescriptor) -> tuple[Scalar, ...]:
    return _pool(_SCALAR_POOLS, S)


def _pool(pools: dict, S: SemiringDescriptor) -> tuple:
    try:
        return pools[S.name]
    except KeyError:
        raise UnknownSemiring(f"no curated pool for {S.name}") from None


def monoid_pool(M: MonoidDescriptor) -> tuple:
    if M.name == "free-words":
        return _FREE_WORDS_POOL
    if M.name.endswith("-mul") or M.name.endswith("-add"):
        return scalar_pool(semiring_by_name(M.name.rsplit("-", 1)[0]))
    raise UnknownSemiring(f"no curated pool for monoid {M.name}")


def random_scalar(rng: random.Random, S: SemiringDescriptor) -> Scalar:
    return _choice(rng, scalar_pool(S))


def random_carrier(
    rng: random.Random, max_size: int = 5, letters: str = "abcde"
) -> FiniteCarrier:
    """The carrier of the first k letters, k drawn from 1 to the smaller of
    ``max_size`` and the number of letters. Each prefix's carrier is built
    once and cached (carriers are frozen); the draw is one ``randint``."""
    k = 1 + _below(rng, min(max_size, len(letters)))
    return _prefix_carrier(letters[:k])


@lru_cache(maxsize=64)
def _prefix_carrier(letters: str) -> FiniteCarrier:
    return carrier(Atom(c) for c in letters)


def random_elem(rng: random.Random, xs: FiniteCarrier) -> Elem:
    return _choice(rng, xs.elems)


def random_carrier_fn(
    rng: random.Random, dom: FiniteCarrier, cod: FiniteCarrier
) -> CarrierMap:
    """A ``choice`` of ``cod`` for each element of ``dom`` in order."""
    targets = _choose(rng, cod.elems, len(dom.elems))
    return _built_map(dom, cod, dict(zip(dom.elems, targets)))


def _pool_zero(pool: tuple, zero):
    """The member of ``pool`` equal to ``zero``, or None: the one scalar
    that ``monadcore._canonical`` would drop."""
    if pool[0] is zero:
        return zero
    return next((s for s in pool if s == zero), None)


def random_multiset(
    rng: random.Random,
    S: SemiringDescriptor,
    xs: FiniteCarrier,
    max_support: int = 4,
) -> Multiset:
    """A value over ``xs`` on at most ``max_support`` elements: k by
    ``randint``, k positions of the carrier by ``sample``, then a pool
    scalar per position, each drawn by the rule of the module docstring,
    which holds on Python 3.10 to 3.13. ``sample`` draws from
    ``range(len(xs))`` the positions, and leaves ``rng`` in the state, of
    sampling the elements. The carrier is in key order, so the drawn pairs
    in position order are distinct and in key order, and dropping the ones
    whose scalar is the pool's zero builds what :func:`ms_from_pairs`
    would."""
    elems = xs.elems
    k = _below(rng, min(max_support, len(elems)) + 1)
    if not k:
        return Multiset(S, ())
    picks = _sample(rng, len(elems), k)
    pool = scalar_pool(S)
    zero = _pool_zero(pool, S.zero)
    drawn = sorted(zip(picks, _choose(rng, pool, k)))
    return Multiset(S, tuple([(elems[i], s) for i, s in drawn if s is not zero]))


def random_tvalue(rng: random.Random, T: MonadInstance, xs: FiniteCarrier):
    """A monad value over the carrier, of whichever shape T uses. An action
    monad has no value over the empty carrier, so :func:`random_kleisli`
    and :func:`random_nested` have none into it either."""
    if isinstance(T, MultisetMonad):
        return random_multiset(rng, T.semiring, xs)
    if isinstance(T, ActionMonad):
        if not xs.elems:
            raise DimensionMismatch(
                f"{T.name} has no value over the empty carrier, so no map n -> 0 for n > 0"
            )
        return ActVal(_choice(rng, monoid_pool(T.monoid)), random_elem(rng, xs))
    raise UnknownSemiring(f"no sampler for {T.name}")


def random_nested(rng: random.Random, T: MonadInstance, xs: FiniteCarrier, depth: int):
    """A value of T applied depth times: inner values are the elements
    of the next layer out."""
    if depth <= 1:
        return random_tvalue(rng, T, xs)
    if isinstance(T, MultisetMonad):
        vals = [random_nested(rng, T, xs, depth - 1) for _ in range(_below(rng, 4))]
        scalars = _choose(rng, scalar_pool(T.semiring), len(vals))
        return ms_from_pairs(T.semiring, list(zip(vals, scalars)))
    if isinstance(T, ActionMonad):
        return ActVal(
            _choice(rng, monoid_pool(T.monoid)), random_nested(rng, T, xs, depth - 1)
        )
    raise UnknownSemiring(f"no sampler for {T.name}")


def random_matrix(
    rng: random.Random, S: SemiringDescriptor, rows: int, cols: int
) -> Matrix:
    """A ``choice`` of the pool per entry, in row-major order, stored as
    the payloads that ``Matrix`` would unwrap from those scalars."""
    if rows < 0 or cols < 0:
        raise DimensionMismatch("matrix dimensions must be naturals")
    return _matrix(S, rows, cols, _choose(rng, _pool(_PAYLOAD_POOLS, S), rows * cols))


def random_aleph0(rng: random.Random, dom: int, cod: int) -> Aleph0Map:
    return Aleph0Map(dom, cod, tuple(_below(rng, cod) for _ in range(dom)))


def random_kleisli(
    rng: random.Random, T: MonadInstance, dom: int, cod: int
) -> KleisliMap:
    """A map dom -> cod with a random value of T over {0..cod-1} per index;
    each is one by construction, so the map is not checked again."""
    _naturals(dom, cod)
    xs = index_carrier(cod)
    values = tuple([random_tvalue(rng, T, xs) for _ in range(dom)])
    return _built(T, dom, cod, values)


def random_free_term(
    rng: random.Random,
    S: SemiringDescriptor,
    xs: FiniteCarrier,
    max_arity: int = 4,
) -> FreeTerm:
    k = _below(rng, max_arity + 1)
    row = random_matrix(rng, S, 1, k)
    return FreeTerm(row, tuple(random_elem(rng, xs) for _ in range(k)))
