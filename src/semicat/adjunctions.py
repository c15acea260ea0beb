"""Transposes of the three hom-set bijections and the law-suite runner.

Each bijection trades an algebraic map for a structure-preserving map of
monads or theories:

* ``mon-e``: monoid maps M -> eval_at_one(T) against monad maps from the
  action monad of M to T.
* ``srng-e``: semiring maps S -> eval_at_one(T) against monad maps from
  the multiset monad of S to T.
* ``mat-h``: semiring maps S -> homset_semiring(R) against functors of
  matrix theories Mat(S) -> Mat(R).

Witnesses carry sample sets; a transpose verifies that its input
preserves structure on those samples, unless a transpose of the same
adjunction built that input and already verified it on the same samples
(``up`` of a ``down`` side), then builds the other side of the bijection
and verifies that too. That record is kept by identity, so a witness
built anywhere else, even from the fields of a verified one, is always
checked. The three triangles share these structure checks: one for
monoid maps, one for semiring maps (which the ``homset-agrees`` laws of
``matcat-laws`` and ``kleisli-iso`` also use) and one for monad maps.
Their laws share one witness builder and one roundtrip, naturality and
involution check each; a mat-h witness goes between the semirings of two
matrix theories.

What is memoized here is pure, and is kept for one of two lifetimes.
Per witness, by ``functools.cache``: each transpose evaluates its input
witness, and the function it builds, once per distinct (hashable)
argument, for the life of the returned witness. Per run, by
:func:`monadcore._once`: each run (one :func:`run_suite` or
:func:`run_roundtrip` call) evaluates the operations that the transposes
and their checks repeat once per distinct argument: the monad of a
semiring or monoid; srng-e's ``tx_add`` and ``scalar_action``; each
side's swap, strength at the point, involution and flattening in a
monad-map check; and the addition and multiplication of eval_at_one and
of mat-h's hom-set semiring. Nothing is kept across runs, and what raises
is never kept. Every equation is still evaluated by the generic
composites; only a second evaluation on equal arguments is skipped.

:func:`run_suite` drives the eight named law suites from one table: per
suite, its default subjects, the name format of a subject and the builder
of a subject's law rows, which takes only that subject. ``run_suite``
alone picks the subjects, seeds the RNG and sets the case count. Every law
row is (name, cases, holds), where cases is a sampler drawn ``--cases``
times from that RNG, a finite list of argument tuples run in order, or
None for a self-contained ``holds()``. Samplers of composable maps are all
one chain sampler. One runner checks every row in table order and keeps
the first counterexample of each law, one argument per line. An exception
in a law's check fails that law, and one that is not a
:class:`SemicatError` is marked as internal. The three adjunctions' laws
come from one record per adjunction (its transpose, and where it has them
the push of samples along nat -> S and the star of its values), from
which one row builder makes the roundtrip, naturality and involution laws
that both the ``adjunction-roundtrips`` suite and :func:`run_roundtrip`
run; the laws of one adjunction over one semiring share its transposes,
so each is computed once. The suite table is the one place where a law
is stated: the scalar structures (monoids and semirings) are the given
data, and only the tests check their axioms. Every verdict is a
(subject, law, ok, detail) entry of a :class:`SuiteReport`, sorted by
subject and law.
"""

from __future__ import annotations

import functools
import itertools
import random
import weakref
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from .algebra import (
    MONOIDS,
    NAT,
    MonoidDescriptor,
    SEMIRINGS,
    SemiringDescriptor,
    canonical_from_nat,
    monoid_by_name,
    multiplicative_monoid,
    semiring_by_name,
    word,
)
from .errors import (
    NoInvolution,
    NotAMonoidMap,
    NotASemiringMap,
    NotAdditive,
    SemicatError,
    UnknownSuite,
)
from .freetheory import (
    FreeTerm,
    law_unit_functor,
    term_normalize,
    tl_involution,
    tl_mult,
    tl_unit,
)
from .kleisli import (
    _built,
    kl_compose,
    kl_coproj,
    kl_cotuple,
    kl_dagger,
    kl_id,
    kl_proj,
    kl_tensor,
    kl_tuple,
    kl_zero,
    kleisli_homset_semiring,
    theta,
    xi,
)
from .matcat import (
    Aleph0Map,
    Matrix,
    _matrix,
    aleph0_compose,
    aleph0_embed,
    homset_semiring,
    mat_add_biproduct,
    mat_compose,
    mat_coproj1,
    mat_coproj2,
    mat_cotuple,
    mat_dagger,
    mat_identity,
    mat_proj1,
    mat_proj2,
    mat_tensor,
    mat_tuple,
)
from .monadcore import (
    ActionMonad,
    ActVal,
    Atom,
    Inl,
    Inr,
    MonadInstance,
    Multiset,
    MultisetMonad,
    Pair,
    STAR,
    _RUN_TABLE,
    _once,
    carrier,
    carrier_map,
    dst_strength_first,
    dst_swapped_first,
    eval_at_one,
    generic_strength,
    ms_from_pairs,
    ms_map_scalars,
    scalar_action,
    tx_add,
    tx_zero,
)
from .sampling import (
    _below,
    random_carrier,
    random_carrier_fn,
    random_elem,
    random_free_term,
    random_kleisli,
    random_matrix,
    random_multiset,
    random_nested,
    random_aleph0,
    random_scalar,
    random_tvalue,
    scalar_pool,
)

__all__ = [
    "ADJUNCTION_NAMES",
    "HomWitness",
    "transpose_mon",
    "transpose_srng",
    "transpose_math",
    "SuiteConfig",
    "SuiteReport",
    "SUITE_NAMES",
    "run_suite",
    "run_roundtrip",
]


@dataclass(frozen=True, eq=False)
class HomWitness:
    """One side of a bijective correspondence, with the inputs on which
    its laws were (or will be) checked.

    kind is one of MonoidMap, SemiringMap, MonadMapSample,
    TheoryFunctorSample; apply is the underlying function; samples are
    the probe inputs. Source and target are a monoid or semiring and a
    monad for mon-e and srng-e; for mat-h they are the semirings S and R
    of the matrix theories Mat(S) and Mat(R).
    """

    kind: str
    source: object
    target: object
    apply: Callable
    samples: tuple


def _eval_mul_one(T: MonadInstance):
    E = eval_at_one(T)
    if isinstance(E, MonoidDescriptor):
        return E.op, E.unit
    return E.mul, E.one


# Each witness a ``down`` transpose returned, with the adjunction whose
# transpose built it. The witness passed that adjunction's algebraic-map
# check on its own samples, so its ``up`` skips the same check.
_VERIFIED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _verified(w: HomWitness, adjunction: str) -> HomWitness:
    _VERIFIED[w] = adjunction
    return w


# ---------------------------------------------------------------------------
# The structure checks the three triangles share


def _check_monoid_map(M: MonoidDescriptor, mul, one, f, samples) -> None:
    if f(M.unit) != one:
        raise NotAMonoidMap(f"unit of {M.name} is not sent to the unit")
    for a in samples:
        for b in samples:
            if f(M.op(a, b)) != mul(f(a), f(b)):
                raise NotAMonoidMap(f"product not preserved at {a}, {b}")


def _check_semiring_map(S: SemiringDescriptor, E, f, samples) -> None:
    """Check that ``f`` preserves S's structure on ``samples``, taking each
    sample's image once, where the first row of pairs first needs it."""
    if f(S.zero) != E.zero:
        raise NotASemiringMap(f"zero of {S.name} is not sent to zero")
    if f(S.one) != E.one:
        raise NotASemiringMap(f"one of {S.name} is not sent to one")
    images = []
    for i, a in enumerate(samples):
        for j, b in enumerate(samples):
            image = f(S.add(a, b))
            if j == len(images):
                images.append(f(b))
            fa, fb = images[i], images[j]
            if image != E.add(fa, fb):
                raise NotASemiringMap(f"sum not preserved at {a}, {b}")
            if f(S.mul(a, b)) != E.mul(fa, fb):
                raise NotASemiringMap(f"product not preserved at {a}, {b}")
    if S.star is not None and E.star is not None:
        for a, fa in zip(samples, images):
            if f(S.star(a)) != E.star(fa):
                raise NotASemiringMap(f"star not preserved at {a}")


def _semiring_map_down(adjunction: str, S: SemiringDescriptor, target, E, point) -> HomWitness:
    """The srng-e or mat-h down transpose: s |-> point(s), the image of the
    endomap of 1 that s is ({*: s} or the 1 x 1 matrix (s)), as a semiring
    map into E over ``target``, checked on S's pool and marked verified."""
    f, pool = functools.cache(point), scalar_pool(S)
    _check_semiring_map(S, E, f, pool)
    return _verified(HomWitness("SemiringMap", S, target, f, pool), adjunction)


_XS = carrier([Atom("a"), Atom("b")])
_SWAP = carrier_map(_XS, _XS, {Atom("a"): Atom("b"), Atom("b"): Atom("a")})


def _swapped(T: MonadInstance, u):
    """T of the swap of a and b, applied to u."""
    return T.fmap(_SWAP, u)


def _check_monad_map(
    A: MonadInstance, T: MonadInstance, sigma, samples, nested, error, once=_once
) -> None:
    """Raise ``error`` unless sigma: A -> T acts as a map of strong monads
    on the samples: it keeps units and commutes with T of a swap, the
    strength at the point, the involution (when both monads have one) and
    the flattening of each ``nested`` value of A(A(X)). T's side is memoized
    per run (:func:`_once`), A's by ``once``: a plain call for mon-e, whose
    action monad builds each value by one constructor call."""
    for x in _XS:
        if sigma(A.unit(x)) != T.unit(x):
            raise error(f"unit law fails at {x}")
    for v in samples:
        image = sigma(v)
        if _once(_swapped, T, image) != sigma(once(_swapped, A, v)):
            raise error(f"naturality fails at {v}")
        if _once(generic_strength, T, image, STAR) != sigma(
            once(generic_strength, A, v, STAR)
        ):
            raise error(f"strength square fails at {v}")
        if A.involutive and T.involutive:
            if sigma(once(A.involution, v)) != _once(T.involution, image):
                raise error(f"involution square fails at {v}")
    for vv in nested:
        lhs = sigma(once(A.mult, vv))
        rhs = _once(T.mult, T.fmap(sigma, sigma(vv)))
        if lhs != rhs:
            raise error(f"multiplication square fails at {vv}")


# ---------------------------------------------------------------------------
# The monoid triangle


def transpose_mon(w: HomWitness) -> HomWitness:
    """The bijection between monoid maps into eval_at_one(T) and monad
    maps out of the action monad: a MonoidMap goes up, a MonadMapSample
    down."""
    if w.kind == "MonoidMap":
        M, T, f = w.source, w.target, functools.cache(w.apply)
        mul, one = _eval_mul_one(T)
        if _VERIFIED.get(w) != "mon-e":
            _check_monoid_map(M, mul, one, f, w.samples)

        @functools.cache
        def sigma(v: ActVal):
            return T.fmap(lambda p: p.right, generic_strength(T, f(v.m), v.elem))

        A = _once(ActionMonad, M)
        samples = tuple(
            ActVal(m, x) for m in w.samples for x in (Atom("a"), Atom("b"))
        )
        nested = tuple(
            ActVal(m1, ActVal(m2, Atom("a"))) for m1 in w.samples for m2 in w.samples
        )
        _check_monad_map(A, T, sigma, samples, nested, NotAMonoidMap, lambda op, *a: op(*a))
        return HomWitness("MonadMapSample", A, T, sigma, samples)
    if w.kind == "MonadMapSample":
        A, T, sigma = w.source, w.target, w.apply

        @functools.cache
        def f(m):
            return sigma(ActVal(m, STAR))

        seen = tuple(dict.fromkeys(v.m for v in w.samples))
        mul, one = _eval_mul_one(T)
        _check_monoid_map(A.monoid, mul, one, f, seen)
        return _verified(HomWitness("MonoidMap", A.monoid, T, f, seen), "mon-e")
    raise ValueError(f"expected a MonoidMap or MonadMapSample witness, got {w.kind}")


# ---------------------------------------------------------------------------
# The semiring triangle


def transpose_srng(w: HomWitness) -> HomWitness:
    """The bijection between semiring maps into eval_at_one(T) and monad
    maps out of the multiset monad: a SemiringMap goes up, a
    MonadMapSample down.

    The up side's samples are the empty multiset, {a: s} for each sample s
    of the witness and {a: s, b: t} for each s and the t after it, cycling;
    its nested values pair each two of the first four samples. A zero
    multiplicity leaves no entry, so when the witness's samples hold zero,
    as every scalar pool does first, {a: 0} is the empty multiset and
    {a: s, b: 0} is {a: s}: the samples and the nested values repeat. Each
    is checked once, where it first occurs."""
    if w.kind == "SemiringMap":
        S, T, f = w.source, w.target, functools.cache(w.apply)
        if not T.additive:
            raise NotAdditive(
                f"{T.name} has no zero map, so it cannot receive semiring maps"
            )
        if _VERIFIED.get(w) != "srng-e":
            _check_semiring_map(S, eval_at_one(T), f, w.samples)

        @functools.cache
        def sigma(phi: Multiset):
            acc = tx_zero(T)
            for x, s in phi.entries:
                acc = _once(tx_add, T, acc, _once(scalar_action, T, f(s), T.unit(x)))
            return acc

        MS = _once(MultisetMonad, S)
        a, b, xs = Atom("a"), Atom("b"), tuple(w.samples)
        samples = (
            (ms_from_pairs(S, []),)
            + tuple(ms_from_pairs(S, [(a, s)]) for s in xs)
            + tuple(
                ms_from_pairs(S, [(a, s), (b, t)]) for s, t in zip(xs, xs[1:] + xs[:1])
            )
        )
        nested = tuple(
            ms_from_pairs(S, [(p1, S.one), (p2, S.one)])
            for p1 in samples[:4]
            for p2 in samples[:4]
        )
        samples, nested = tuple(dict.fromkeys(samples)), tuple(dict.fromkeys(nested))
        _check_monad_map(MS, T, sigma, samples, nested, NotASemiringMap)
        return HomWitness("MonadMapSample", MS, T, sigma, samples)
    if w.kind == "MonadMapSample":
        MS, T, sigma = w.source, w.target, w.apply
        S = MS.semiring
        return _semiring_map_down(
            "srng-e", S, T, eval_at_one(T), lambda s: sigma(ms_from_pairs(S, [(STAR, s)]))
        )
    raise ValueError(f"expected a SemiringMap or MonadMapSample witness, got {w.kind}")


# ---------------------------------------------------------------------------
# The matrix-theory triangle


def _cycle_matrix(S: SemiringDescriptor, rows: int, cols: int, salt: int) -> Matrix:
    pool = scalar_pool(S)
    n = len(pool)
    return Matrix(
        S,
        rows,
        cols,
        tuple(pool[(salt + k) % n] for k in range(rows * cols)),
    )


def _structure_maps(S: SemiringDescriptor) -> tuple:
    """Mat(S)'s identities on 0-3 and (co)projections on objects below 3."""
    ids = [mat_identity(S, n) for n in range(4)]
    return ids, [(mat_coproj1(S, n, m), mat_proj2(S, n, m)) for n in range(3) for m in range(3)]


def _cycle_probes(S: SemiringDescriptor) -> tuple:
    """Cycle matrices a, b, c over S; ab, bc, a (x) c; a's dagger if S has a star."""
    a, b, c = _cycle_matrix(S, 2, 3, 1), _cycle_matrix(S, 3, 2, 2), _cycle_matrix(S, 2, 2, 3)
    dagger = mat_dagger(a) if S.star is not None else None
    return a, b, c, mat_compose(a, b), mat_compose(b, c), mat_tensor(a, c), dagger


def _check_theory_functor(
    S: SemiringDescriptor, R: SemiringDescriptor, F, samples
) -> None:
    # The probes on each side are computed once per run (_once).
    (ids, injections), (ids_R, injections_R) = (_once(_structure_maps, X) for X in (S, R))
    for n in range(4):
        if F(ids[n]) != ids_R[n]:
            raise NotASemiringMap(f"identity on {n} is not preserved")
    a, b, c, ab, bc, ac, dagger = _once(_cycle_probes, S)
    if F(ab) != mat_compose(F(a), F(b)):
        raise NotASemiringMap("composition is not preserved")
    if F(bc) != mat_compose(F(b), F(c)):
        raise NotASemiringMap("composition is not preserved")
    for (coproj, proj), (coproj_R, proj_R) in zip(injections, injections_R):
        if F(coproj) != coproj_R:
            raise NotASemiringMap("coprojections are not preserved")
        if F(proj) != proj_R:
            raise NotASemiringMap("projections are not preserved")
    if F(ac) != mat_tensor(F(a), F(c)):
        raise NotASemiringMap("the tensor is not preserved")
    if S.star is not None and R.star is not None:
        if F(dagger) != mat_dagger(F(a)):
            raise NotASemiringMap("the dagger is not preserved")
    for h in samples:
        F(h)


def _homset(R: SemiringDescriptor) -> SemiringDescriptor:
    """homset_semiring(R), with its addition and multiplication evaluated
    once per run for equal arguments (:func:`_once`), as eval_at_one's are."""
    H = homset_semiring(R)
    return replace(H, add=functools.partial(_once, H.add), mul=functools.partial(_once, H.mul))


def transpose_math(w: HomWitness) -> HomWitness:
    """The bijection between semiring maps S -> homset_semiring(R) and
    functors of matrix theories Mat(S) -> Mat(R), for witnesses from S to
    R: a SemiringMap goes up, a TheoryFunctorSample down."""
    if w.kind == "SemiringMap":
        S, R, f = w.source, w.target, functools.cache(w.apply)
        if _VERIFIED.get(w) != "mat-h":
            _check_semiring_map(S, _once(_homset, R), f, w.samples)

        def one_by_one(m) -> bool:
            return type(m) is Matrix and m.rows == m.cols == 1 and m.tag == R.name

        @functools.cache
        def apply_mat(h: Matrix) -> Matrix:
            out = Matrix(R, 0, h.cols, ())
            for i in range(h.rows):
                scalars = h.row(i)
                images = [m.values[0] for m in itertools.takewhile(one_by_one, map(f, scalars))]
                if len(images) == h.cols:
                    row = _matrix(R, 1, h.cols, images)
                else:
                    # takewhile stopped at the first image that is no 1x1
                    # matrix over R, so f meets the later scalars only here,
                    # in order, as the row of boxed entries goes through
                    # Matrix's checks.
                    row = Matrix(R, 1, h.cols, [x for s in scalars for x in f(s).entries])
                out = mat_cotuple(out, row)
            return out

        samples = (
            _cycle_matrix(S, 1, 1, 0),
            _cycle_matrix(S, 2, 2, 1),
            _cycle_matrix(S, 2, 3, 2),
            _cycle_matrix(S, 3, 2, 3),
            Matrix(S, 0, 2, ()),
            Matrix(S, 2, 0, ()),
        )
        _check_theory_functor(S, R, apply_mat, samples)
        return HomWitness("TheoryFunctorSample", S, R, apply_mat, samples)
    if w.kind == "TheoryFunctorSample":
        S, R, F = w.source, w.target, w.apply
        return _semiring_map_down(
            "mat-h", S, R, _once(_homset, R), lambda s: F(Matrix(S, 1, 1, (s,)))
        )
    raise ValueError(f"expected a SemiringMap or TheoryFunctorSample witness, got {w.kind}")


# ---------------------------------------------------------------------------
# Law tables and the runner
#
# A suite builder returns the law rows ``(name, cases, holds)`` of one
# subject. ``cases`` is one of three things: a sampler ``rng -> args``,
# drawn ``SuiteConfig.cases`` times; a finite list of argument tuples, run
# in order, such as ``_grid(4, 4)``; or None for a self-contained law, whose
# ``holds()`` returns ``(ok, detail)``. A law with cases fails at the first
# tuple where ``holds(*args)`` is false, with that tuple as the
# counterexample, one argument per line. Every sampled law of a suite draws
# from one RNG, in table order.


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    semiring: str | None = None
    monoid: str | None = None
    seed: int = 0
    cases: int = 100


@dataclass(frozen=True)
class SuiteReport:
    """Law verdicts, one (subject, law, ok, detail) entry per law."""

    suite: str
    entries: tuple

    @property
    def ok(self) -> bool:
        return all(e[2] for e in self.entries)

    def render(self) -> str:
        lines = []
        for subject, law, ok, detail in self.entries:
            lines.append(f"{'PASS' if ok else 'FAIL'} {subject} :: {law}")
            if detail:
                lines.extend(f"  {piece}" for piece in detail.splitlines())
        return "\n".join(lines)


# The detail of a law whose check raised an exception that is not a
# SemicatError: a bug, which the CLI reports with exit status 3.
_INTERNAL = "error: internal: "


def _error_detail(exc: Exception) -> str:
    """The detail line of a law whose check raised ``exc``."""
    if isinstance(exc, SemicatError):
        return f"error: {exc}"
    return f"{_INTERNAL}{type(exc).__name__}: {exc}"


def _first_failure(cases: Iterable[tuple], holds: Callable) -> tuple:
    """(ok, detail) of ``holds`` over the argument tuples of ``cases``: the
    first tuple it rejects is the counterexample, one argument per line,
    and an exception fails the law with its :func:`_error_detail`."""
    for args in cases:
        try:
            ok = holds(*args)
        except Exception as exc:
            return False, _error_detail(exc)
        if not ok:
            return False, "\n".join(map(str, args))
    return True, None


def _run_laws(tables, rng: random.Random | None, draws: int) -> list:
    """One (subject, law, ok, detail) entry per row of each (subject,
    builder of its rows) in ``tables``; a sampled row is drawn ``draws``
    times. An exception in a law's check fails that law alone and the run
    goes on. Each subject's rows are built just before they run, so what
    they share (an adjunction's transposes) is freed before the next
    subject's; the run's memo table for :func:`_once` goes when it returns."""
    token = _RUN_TABLE.set({})
    try:
        entries = []
        for subject, build in tables:
            for name, cases, holds in build():
                if cases is None:
                    try:
                        ok, detail = holds()
                    except Exception as exc:
                        ok, detail = False, _error_detail(exc)
                elif callable(cases):
                    ok, detail = _first_failure((cases(rng) for _ in range(draws)), holds)
                else:
                    ok, detail = _first_failure(cases, holds)
                entries.append((subject, name, ok, detail))
        return entries
    finally:
        _RUN_TABLE.reset(token)


def _grid(*sizes: int) -> list[tuple]:
    """Every tuple of naturals below ``sizes``, in lexicographic order."""
    return list(itertools.product(*map(range, sizes)))


def _chain(make: Callable, hi: int, k: int) -> Callable:
    """A sampler of k composable maps: it draws k + 1 dimensions in
    [0, hi], then ``make(rng, dom, cod)`` for each map in turn, so map i's
    codomain is map i + 1's domain."""

    def sample(rng: random.Random) -> tuple:
        dims = [_below(rng, hi + 1) for _ in range(k + 1)]
        return tuple(make(rng, dom, cod) for dom, cod in zip(dims, dims[1:]))

    return sample


def _carriers(rng: random.Random, size: int, *alphabets: str) -> list:
    """One random carrier of at most ``size`` atoms per alphabet, in order."""
    return [random_carrier(rng, size, letters) for letters in alphabets]


def _report(suite: str, entries) -> SuiteReport:
    return SuiteReport(suite, tuple(sorted(entries, key=lambda e: (e[0], e[1]))))


# ---------------------------------------------------------------------------
# Suite: monad-laws


def _monad_laws(T: MonadInstance) -> list:
    def s_u(rng):
        return (random_tvalue(rng, T, random_carrier(rng)),)

    def s_fgu(rng):
        X, Y, Z = _carriers(rng, 5, "abcde", "pqrst", "uvwxy")
        return (
            random_carrier_fn(rng, X, Y),
            random_carrier_fn(rng, Y, Z),
            random_tvalue(rng, T, X),
        )

    def s_fx(rng):
        X, Y = _carriers(rng, 5, "abcde", "pqrst")
        return (random_carrier_fn(rng, X, Y), random_elem(rng, X))

    def s_fu2(rng):
        X, Y = _carriers(rng, 5, "abcde", "pqrst")
        return (random_carrier_fn(rng, X, Y), random_nested(rng, T, X, 2))

    def s_u2y(rng):
        X, Y = _carriers(rng, 5, "abcde", "pqrst")
        return (random_nested(rng, T, X, 2), random_elem(rng, Y))

    def s_u3(rng):
        return (random_nested(rng, T, random_carrier(rng, 4), 3),)

    def s_xy(rng):
        X, Y = _carriers(rng, 5, "abcde", "pqrst")
        return (random_elem(rng, X), random_elem(rng, Y))

    return [
        ("fmap-identity", s_u, lambda u: T.fmap(lambda e: e, u) == u),
        ("fmap-compose", s_fgu,
         lambda f, g, u: T.fmap(lambda e: g(f(e)), u) == T.fmap(g, T.fmap(f, u))),
        ("unit-natural", s_fx, lambda f, x: T.fmap(f, T.unit(x)) == T.unit(f(x))),
        ("mult-natural", s_fu2,
         lambda f, u2: T.fmap(f, T.mult(u2))
         == T.mult(T.fmap(lambda e: T.fmap(f, e), u2))),
        ("mult-unit-left", s_u, lambda u: T.mult(T.unit(u)) == u),
        ("mult-unit-right", s_u, lambda u: T.mult(T.fmap(T.unit, u)) == u),
        ("mult-assoc", s_u3,
         lambda u3: T.mult(T.mult(u3)) == T.mult(T.fmap(T.mult, u3))),
        ("strength-unit", s_xy,
         lambda x, y: generic_strength(T, T.unit(x), y) == T.unit(Pair(x, y))),
        ("strength-mult", s_u2y,
         lambda u2, y: generic_strength(T, T.mult(u2), y)
         == T.mult(
             T.fmap(
                 lambda p: generic_strength(T, p.left, p.right),
                 generic_strength(T, u2, y),
             )
         )),
        ("strength-point", s_u,
         lambda u: T.fmap(lambda p: p.left, generic_strength(T, u, STAR)) == u),
    ]


# ---------------------------------------------------------------------------
# Suite: additivity (bicartesian structure, value addition and the module laws)


def _additivity_laws(S: SemiringDescriptor) -> list:
    T = MultisetMonad(S)
    TN = MultisetMonad(NAT)
    E = eval_at_one(T)
    point = carrier([STAR])

    def s_w(rng):
        X, Y = _carriers(rng, 4, "abcd", "pqrs")
        u = random_multiset(rng, S, X)
        v = random_multiset(rng, S, Y)
        return (T.bc_inv(u, v),)

    def s_uv(rng):
        X, Y = _carriers(rng, 4, "abcd", "pqrs")
        return (random_multiset(rng, S, X), random_multiset(rng, S, Y))

    def s_fgw(rng):
        X, Y, X2, Y2 = _carriers(rng, 4, "abcd", "pqrs", "efgh", "tuvw")
        return (
            random_carrier_fn(rng, X, X2),
            random_carrier_fn(rng, Y, Y2),
            T.bc_inv(random_multiset(rng, S, X), random_multiset(rng, S, Y)),
        )

    def bc_natural(f, g, w):
        u, v = T.bc(w)
        mapped = T.fmap(
            lambda e: Inl(f(e.value)) if isinstance(e, Inl) else Inr(g(e.value)),
            w,
        )
        return T.bc(mapped) == (T.fmap(f, u), T.fmap(g, v))

    def s_wnat(rng):
        X, Y = _carriers(rng, 4, "abcd", "pqrs")
        return (
            TN.bc_inv(random_multiset(rng, NAT, X), random_multiset(rng, NAT, Y)),
        )

    def bc_monad_map(w):
        sig = lambda phi: ms_map_scalars(_from_nat(S), phi, S)
        un, vn = TN.bc(w)
        return T.bc(sig(w)) == (sig(un), sig(vn))

    def s_uonly(rng):
        return (random_multiset(rng, S, random_carrier(rng, 4, "abcd")),)

    def bc_rho(u):
        w = T.fmap(Inl, u)
        return T.bc(w) == (u, T.initial_value())

    def bc_swap(w):
        u, v = T.bc(w)
        flipped = T.fmap(
            lambda e: Inr(e.value) if isinstance(e, Inl) else Inl(e.value), w
        )
        return T.bc(flipped) == (v, u)

    def s_w3(rng):
        X, Y, Z = _carriers(rng, 3, "abc", "pqr", "uvw")
        inner = T.bc_inv(random_multiset(rng, S, X), random_multiset(rng, S, Y))
        return (T.bc_inv(inner, random_multiset(rng, S, Z)),)

    def bc_assoc(w3):
        ab, c = T.bc(w3)
        a1, a2 = T.bc(ab)
        lhs = (a1, (a2, c))

        def alpha(e):
            if isinstance(e, Inl):
                inner = e.value
                if isinstance(inner, Inl):
                    return Inl(inner.value)
                return Inr(Inl(inner.value))
            return Inr(Inr(e.value))

        b1, bc_rest = T.bc(T.fmap(alpha, w3))
        b21, b22 = T.bc(bc_rest)
        return lhs == (b1, (b21, b22))

    def s_xy(rng):
        X, Y = _carriers(rng, 4, "abcd", "pqrs")
        return (random_elem(rng, X), random_elem(rng, Y))

    def bc_eta(x, y):
        return T.bc(T.unit(Inl(x))) == (T.unit(x), tx_zero(T)) and T.bc(
            T.unit(Inr(y))
        ) == (tx_zero(T), T.unit(y))

    def s_w2(rng):
        X, Y = _carriers(rng, 3, "abc", "pqr")
        both = carrier([Inl(x) for x in X] + [Inr(y) for y in Y])
        return (random_nested(rng, T, both, 2),)

    def bc_mu_left(w2):
        lhs = T.bc(T.mult(w2))
        mapped = T.fmap(lambda e: Pair(*T.bc(e)), w2)
        left = T.mult(T.fmap(lambda p: p.left, mapped))
        right = T.mult(T.fmap(lambda p: p.right, mapped))
        return lhs == (left, right)

    def s_wt(rng):
        X, Y = _carriers(rng, 3, "abc", "pqr")
        pairs = []
        for _ in range(_below(rng, 4)):
            if rng.random() < 0.5:
                key = Inl(random_multiset(rng, S, X))
            else:
                key = Inr(random_multiset(rng, S, Y))
            pairs.append((key, random_scalar(rng, S)))
        return (ms_from_pairs(S, pairs),)

    def bc_mu_right(wt):
        def tag_inside(e):
            if isinstance(e, Inl):
                return T.fmap(Inl, e.value)
            return T.fmap(Inr, e.value)

        lhs = T.bc(T.mult(T.fmap(tag_inside, wt)))
        l, r = T.bc(wt)
        return lhs == (T.mult(l), T.mult(r))

    def s_wz(rng):
        X, Y, Z = _carriers(rng, 3, "abc", "pqr", "uvw")
        w = T.bc_inv(random_multiset(rng, S, X), random_multiset(rng, S, Y))
        return (w, random_elem(rng, Z))

    def bc_strength(w, z):
        u, v = T.bc(w)
        lhs = (generic_strength(T, u, z), generic_strength(T, v, z))

        def distrib(p):
            if isinstance(p.left, Inl):
                return Inl(Pair(p.left.value, p.right))
            return Inr(Pair(p.left.value, p.right))

        rhs = T.bc(T.fmap(distrib, generic_strength(T, w, z)))
        return lhs == rhs

    def s_stu(rng):
        X = random_carrier(rng, 4, "abcd")
        return (
            random_multiset(rng, S, point, 1),
            random_multiset(rng, S, point, 1),
            random_multiset(rng, S, X),
            random_multiset(rng, S, X),
        )

    def s_uvw(rng):
        X = random_carrier(rng, 4, "abcd")
        return tuple(random_multiset(rng, S, X) for _ in range(3))

    return [
        ("bc-roundtrip-fwd", s_w, lambda w: T.bc_inv(*T.bc(w)) == w),
        ("bc-roundtrip-inv", s_uv, lambda u, v: T.bc(T.bc_inv(u, v)) == (u, v)),
        ("initial-singleton", [()],
         lambda: ms_from_pairs(S, []) == T.initial_value()
         and tx_zero(T) == T.initial_value()),
        ("bc-natural", s_fgw, bc_natural),
        ("bc-monad-map", s_wnat, bc_monad_map),
        ("bc-rho", s_uonly, bc_rho),
        ("bc-swap", s_w, bc_swap),
        ("bc-assoc", s_w3, bc_assoc),
        ("bc-eta", s_xy, bc_eta),
        ("bc-mu-left", s_w2, bc_mu_left),
        ("bc-mu-right", s_wt, bc_mu_right),
        ("bc-strength", s_wz, bc_strength),
        ("module-unit", s_stu,
         lambda s, t, u, v: scalar_action(T, T.unit(STAR), u) == u),
        ("module-assoc", s_stu,
         lambda s, t, u, v: scalar_action(T, E.mul(s, t), u)
         == scalar_action(T, s, scalar_action(T, t, u))),
        ("module-dist-value", s_stu,
         lambda s, t, u, v: scalar_action(T, s, tx_add(T, u, v))
         == tx_add(T, scalar_action(T, s, u), scalar_action(T, s, v))),
        ("module-dist-scalar", s_stu,
         lambda s, t, u, v: scalar_action(T, tx_add(T, s, t), u)
         == tx_add(T, scalar_action(T, s, u), scalar_action(T, t, u))),
        ("module-zero-scalar", s_stu,
         lambda s, t, u, v: scalar_action(T, tx_zero(T), u) == tx_zero(T)),
        ("module-zero-value", s_stu,
         lambda s, t, u, v: scalar_action(T, s, tx_zero(T)) == tx_zero(T)),
        ("value-add-commutative", s_uvw,
         lambda u, v, w: tx_add(T, u, v) == tx_add(T, v, u)),
        ("value-add-assoc", s_uvw,
         lambda u, v, w: tx_add(T, tx_add(T, u, v), w) == tx_add(T, u, tx_add(T, v, w))),
        ("value-add-unit", s_uvw,
         lambda u, v, w: tx_add(T, u, tx_zero(T)) == u == tx_add(T, tx_zero(T), u)),
    ]


# ---------------------------------------------------------------------------
# Suite: commutativity


def _commutativity_laws(T: MonadInstance) -> list:
    def s_uv(rng):
        X, Y = _carriers(rng, 4, "abcd", "pqrs")
        return (random_tvalue(rng, T, X), random_tvalue(rng, T, Y))

    if not T.commutative:
        def expected_fail():
            # the free words ab and cd do not commute, so the two composites
            # of the double strength differ on this pair
            u, v = ActVal(word("ab"), Atom("x")), ActVal(word("cd"), Atom("y"))
            left = dst_strength_first(T, u, v)
            right = dst_swapped_first(T, u, v)
            if left == right:
                return False, "no disagreeing pair found"
            return True, (
                f"u = {u}\nv = {v}\n"
                f"strength-first  = {left}\n"
                f"swapped-first   = {right}"
            )

        return [("noncommutativity-witnessed", None, expected_fail)]
    laws = [
        ("dst-composites-agree", s_uv,
         lambda u, v: dst_strength_first(T, u, v) == dst_swapped_first(T, u, v)),
    ]
    if isinstance(T, MultisetMonad):
        laws.append(
            ("dst-direct-agrees", s_uv,
             lambda u, v: T.dst(u, v) == dst_strength_first(T, u, v)),
        )
    return laws


# ---------------------------------------------------------------------------
# Suite: matcat-laws


def _naive_compose(g: Matrix, h: Matrix) -> Matrix:
    S, a, b = g.semiring, g.entries, h.entries
    out = [[None] * h.cols for _ in range(g.rows)]
    for i in range(g.rows):
        for k in range(h.cols):
            acc = S.zero
            for j in range(g.cols):
                acc = S.add(acc, S.mul(a[i * g.cols + j], b[j * h.cols + k]))
            out[i][k] = acc
    return Matrix(S, g.rows, h.cols, tuple(e for row in out for e in row))


def _coord_swap(n: int, m: int, S: SemiringDescriptor) -> Matrix:
    table = [0] * (n * m)
    for a in range(n):
        for b in range(m):
            table[a * m + b] = b * n + a
    return aleph0_embed(Aleph0Map(n * m, m * n, tuple(table)), S)


def _zeros(S: SemiringDescriptor, n: int, m: int) -> Matrix:
    return Matrix(S, n, m, (S.zero,) * (n * m))


def _matcat_laws(S: SemiringDescriptor) -> list:
    def dims(rng, lo=0, hi=4):
        return lo + _below(rng, hi - lo + 1)

    def mat(rng, n, m):
        return random_matrix(rng, S, n, m)

    def biproduct_delta(n, m):
        return (
            mat_compose(mat_coproj1(S, n, m), mat_proj1(S, n, m)) == mat_identity(S, n)
            and mat_compose(mat_coproj2(S, n, m), mat_proj2(S, n, m)) == mat_identity(S, m)
            and mat_compose(mat_coproj1(S, n, m), mat_proj2(S, n, m)) == _zeros(S, n, m)
            and mat_compose(mat_coproj2(S, n, m), mat_proj1(S, n, m)) == _zeros(S, m, n)
        )

    def s_into_sum(rng):
        k, n, m = dims(rng, 1, 3), dims(rng), dims(rng)
        return (random_matrix(rng, S, k, n + m), n, m)

    def s_from_sum(rng):
        k, n, m = dims(rng, 1, 3), dims(rng), dims(rng)
        return (random_matrix(rng, S, n + m, k), n, m)

    def s_tensor4(rng):
        m, p, p2 = dims(rng, 0, 3), dims(rng, 0, 3), dims(rng, 0, 3)
        n, q, q2 = dims(rng, 0, 3), dims(rng, 0, 3), dims(rng, 0, 3)
        return (
            random_matrix(rng, S, m, p),
            random_matrix(rng, S, n, q),
            random_matrix(rng, S, p, p2),
            random_matrix(rng, S, q, q2),
        )

    def s_tensor2(rng):
        m, p = dims(rng, 0, 3), dims(rng, 0, 3)
        n, q = dims(rng, 0, 3), dims(rng, 0, 3)
        return (random_matrix(rng, S, m, p), random_matrix(rng, S, n, q))

    def tensor_symmetry(g, h):
        left = mat_compose(mat_tensor(g, h), _coord_swap(g.cols, h.cols, S))
        right = mat_compose(_coord_swap(g.rows, h.rows, S), mat_tensor(h, g))
        return left == right

    def tensor_distributes(n, m, k):
        idn = mat_identity(S, n)
        d = mat_cotuple(
            mat_tensor(idn, mat_coproj1(S, m, k)),
            mat_tensor(idn, mat_coproj2(S, m, k)),
        )
        e = mat_tuple(
            mat_tensor(idn, mat_proj1(S, m, k)),
            mat_tensor(idn, mat_proj2(S, m, k)),
        )
        return (
            mat_compose(d, e) == mat_identity(S, n * m + n * k)
            and mat_compose(e, d) == mat_identity(S, n * (m + k))
        )

    def s_fns(rng):
        n = dims(rng, 0, 4)
        m = dims(rng, 1, 4)
        p = dims(rng, 1, 4)
        return (random_aleph0(rng, n, m), random_aleph0(rng, m, p))

    def homset_agrees():
        box = lambda s: Matrix(S, 1, 1, (s,))
        _check_semiring_map(S, homset_semiring(S), box, scalar_pool(S))
        return True

    def s_parallel(rng):
        n, m = dims(rng), dims(rng)
        return (random_matrix(rng, S, n, m), random_matrix(rng, S, n, m))

    def add_entrywise(f, g):
        expected = Matrix(
            S,
            f.rows,
            f.cols,
            tuple(S.add(a, b) for a, b in zip(f.entries, g.entries)),
        )
        return mat_add_biproduct(f, g) == expected

    return [
        ("compose-assoc", _chain(mat, 4, 3),
         lambda a, b, c: mat_compose(mat_compose(a, b), c)
         == mat_compose(a, mat_compose(b, c))),
        ("identity-neutral", _chain(mat, 4, 1),
         lambda a: mat_compose(mat_identity(S, a.rows), a) == a
         and mat_compose(a, mat_identity(S, a.cols)) == a),
        ("compose-oracle", _chain(mat, 4, 2),
         lambda a, b: mat_compose(a, b) == _naive_compose(a, b)),
        ("biproduct-delta", _grid(4, 4), biproduct_delta),
        ("tuple-recovery", s_into_sum,
         lambda f, n, m: mat_tuple(
             mat_compose(f, mat_proj1(S, n, m)), mat_compose(f, mat_proj2(S, n, m))
         )
         == f),
        ("cotuple-recovery", s_from_sum,
         lambda f, n, m: mat_cotuple(
             mat_compose(mat_coproj1(S, n, m), f),
             mat_compose(mat_coproj2(S, n, m), f),
         )
         == f),
        ("tensor-functorial", s_tensor4,
         lambda g, h, g2, h2: mat_compose(mat_tensor(g, h), mat_tensor(g2, h2))
         == mat_tensor(mat_compose(g, g2), mat_compose(h, h2))),
        ("tensor-identity", _grid(4, 4),
         lambda m, n: mat_tensor(mat_identity(S, m), mat_identity(S, n))
         == mat_identity(S, m * n)),
        ("tensor-unit", _chain(mat, 4, 1),
         lambda g: mat_tensor(g, mat_identity(S, 1)) == g
         and mat_tensor(mat_identity(S, 1), g) == g),
        ("tensor-symmetry", s_tensor2, tensor_symmetry),
        ("tensor-distributes", _grid(3, 3, 3), tensor_distributes),
        ("embed-functorial", s_fns,
         lambda f, g: aleph0_embed(aleph0_compose(f, g), S)
         == mat_compose(aleph0_embed(f, S), aleph0_embed(g, S))),
        ("homset-agrees", [()], homset_agrees),
        ("add-entrywise", s_parallel, add_entrywise),
    ]


# ---------------------------------------------------------------------------
# Suite: dagger


def _dagger_laws(S: SemiringDescriptor) -> list:
    def s_one(rng):
        return (random_matrix(rng, S, 3, 3),)

    def s_two(rng):
        return (random_matrix(rng, S, 3, 3), random_matrix(rng, S, 3, 3))

    return [
        ("dagger-involutive", s_one, lambda f: mat_dagger(mat_dagger(f)) == f),
        ("dagger-contravariant", s_two,
         lambda g, h: mat_dagger(mat_compose(g, h))
         == mat_compose(mat_dagger(h), mat_dagger(g))),
        ("dagger-tensor", s_two,
         lambda f, g: mat_dagger(mat_tensor(f, g))
         == mat_tensor(mat_dagger(f), mat_dagger(g))),
        ("dagger-structural", _grid(4, 4),
         lambda n, m: mat_coproj1(S, n, m) == mat_dagger(mat_proj1(S, n, m))
         and mat_coproj2(S, n, m) == mat_dagger(mat_proj2(S, n, m))),
    ]


# ---------------------------------------------------------------------------
# Suite: freetheory


def _freetheory_laws(S: SemiringDescriptor) -> list:
    T = MultisetMonad(S)

    def s_rel(rng):
        i = _below(rng, 5)
        m = 1 + _below(rng, 4)
        X = random_carrier(rng, 4, "abcd")
        f = random_aleph0(rng, i, m)
        g = random_matrix(rng, S, 1, i)
        v = tuple(random_elem(rng, X) for _ in range(m))
        return (f, g, v)

    def s_x(rng):
        return (random_elem(rng, random_carrier(rng, 4, "abcd")),)

    def s_outer(rng):
        X = random_carrier(rng, 4, "abcd")
        k = _below(rng, 4)
        inners = tuple(random_free_term(rng, S, X, 3) for _ in range(k))
        return (FreeTerm(random_matrix(rng, S, 1, k), inners),)

    def mult_agrees(outer):
        lhs = term_normalize(tl_mult(outer))
        layered = ms_from_pairs(
            S,
            [
                (term_normalize(t), c)
                for t, c in zip(outer.args, outer.coeffs.entries)
            ],
        )
        return lhs == T.mult(layered)

    def relation_sound(f, g, v):
        # The row pushed forward along f applied to v, against the row
        # applied to v precomposed with f: one class of the relation.
        pushed = FreeTerm(mat_compose(g, aleph0_embed(f, S)), v)
        pulled = FreeTerm(g, tuple(v[f(a)] for a in range(f.dom)))
        return term_normalize(pushed) == term_normalize(pulled)

    def s_term(rng):
        return (random_free_term(rng, S, random_carrier(rng, 4, "abcd")),)

    laws = [
        ("relation-sound", s_rel, relation_sound),
        ("unit-agrees", s_x, lambda x: term_normalize(tl_unit(x, S)) == T.unit(x)),
        ("mult-agrees", s_outer, mult_agrees),
    ]
    if S.star is not None:
        laws.append(
            ("involution-agrees", s_term,
             lambda t: term_normalize(tl_involution(t))
             == T.involution(term_normalize(t))),
        )
    return laws + [
        ("unit-functor-id", _grid(4),
         lambda n: law_unit_functor(mat_identity(S, n)) == kl_id(T, n)),
        ("unit-functor-compose",
         _chain(lambda rng, n, m: random_matrix(rng, S, n, m), 3, 2),
         lambda a, b: law_unit_functor(mat_compose(a, b))
         == kl_compose(law_unit_functor(a), law_unit_functor(b))),
        ("unit-functor-coproj", _grid(3, 3),
         lambda n, m: law_unit_functor(mat_coproj1(S, n, m)) == kl_coproj(T, 1, n, m)
         and law_unit_functor(mat_coproj2(S, n, m)) == kl_coproj(T, 2, n, m)),
    ]


# ---------------------------------------------------------------------------
# Suite: kleisli-iso


def _kleisli_iso_laws(S: SemiringDescriptor) -> list:
    T = MultisetMonad(S)
    E = eval_at_one(T)
    point = carrier([STAR])

    def kl(rng, n, m):
        return random_kleisli(rng, T, n, m)

    def s_emat(rng):
        n, m = _below(rng, 4), _below(rng, 4)
        return (
            Matrix(
                E, n, m,
                tuple(random_multiset(rng, S, point, 1) for _ in range(n * m)),
            ),
        )

    def theta_structural(n, m):
        return (
            theta(kl_coproj(T, 1, n, m)) == mat_coproj1(E, n, m)
            and theta(kl_coproj(T, 2, n, m)) == mat_coproj2(E, n, m)
            and theta(kl_proj(T, 1, n, m)) == mat_proj1(E, n, m)
            and theta(kl_proj(T, 2, n, m)) == mat_proj2(E, n, m)
            and theta(kl_zero(T, n, m)) == _zeros(E, n, m)
        )

    def s_parallel(rng):
        n, m, p = (_below(rng, 4) for _ in range(3))
        return (random_kleisli(rng, T, n, m), random_kleisli(rng, T, n, p))

    def s_coparallel(rng):
        n, m, p = (_below(rng, 4) for _ in range(3))
        return (random_kleisli(rng, T, n, p), random_kleisli(rng, T, m, p))

    def s_small2(rng):
        dims = [_below(rng, 3) for _ in range(4)]
        return (
            random_kleisli(rng, T, dims[0], dims[1]),
            random_kleisli(rng, T, dims[2], dims[3]),
        )

    def biproduct_eqs(n, m):
        return (
            kl_compose(kl_coproj(T, 1, n, m), kl_proj(T, 1, n, m)) == kl_id(T, n)
            and kl_compose(kl_coproj(T, 2, n, m), kl_proj(T, 2, n, m)) == kl_id(T, m)
            and kl_compose(kl_coproj(T, 1, n, m), kl_proj(T, 2, n, m)) == kl_zero(T, n, m)
            and kl_compose(kl_coproj(T, 2, n, m), kl_proj(T, 1, n, m)) == kl_zero(T, m, n)
        )

    def homset_agrees():
        # E with its addition looked up here at each call, as everywhere in
        # this module, so the law checks whatever tx_add this module sees
        values = replace(E, add=lambda a, b: tx_add(T, a, b))
        as_map = lambda u: _built(T, 1, 1, (T.fmap(lambda e: Atom(0), u),))
        pool = [ms_from_pairs(S, [(STAR, s)]) for s in scalar_pool(S)] + [tx_zero(T)]
        _check_semiring_map(values, kleisli_homset_semiring(T), as_map, pool)
        return True

    laws = [
        ("kl-assoc", _chain(kl, 3, 3),
         lambda f, g, h: kl_compose(kl_compose(f, g), h) == kl_compose(f, kl_compose(g, h))),
        ("kl-identity", _chain(kl, 3, 1),
         lambda f: kl_compose(kl_id(T, f.dom), f) == f
         and kl_compose(f, kl_id(T, f.cod)) == f),
        ("xi-theta-id", _chain(kl, 3, 1), lambda k: xi(T, theta(k)) == k),
        ("theta-xi-id", s_emat, lambda h: theta(xi(T, h)) == h),
        ("theta-compose", _chain(kl, 3, 2),
         lambda f, g: theta(kl_compose(f, g)) == mat_compose(theta(f), theta(g))),
        ("theta-structural", _grid(3, 3), theta_structural),
        ("theta-tuple", s_parallel,
         lambda f, g: theta(kl_tuple(f, g)) == mat_tuple(theta(f), theta(g))),
        ("theta-cotuple", s_coparallel,
         lambda f, g: theta(kl_cotuple(f, g)) == mat_cotuple(theta(f), theta(g))),
        ("theta-tensor", s_small2,
         lambda f, g: theta(kl_tensor(f, g)) == mat_tensor(theta(f), theta(g))),
    ]
    if S.star is not None:
        laws.append(
            ("theta-dagger", _chain(kl, 3, 1),
             lambda k: theta(kl_dagger(k)) == mat_dagger(theta(k)))
        )
    return laws + [
        ("biproduct-eqs", _grid(3, 3), biproduct_eqs),
        ("homset-agrees", [()], homset_agrees),
    ]


# ---------------------------------------------------------------------------
# Suite: adjunction-roundtrips


def _from_nat(S: SemiringDescriptor) -> Callable:
    """The semiring map nat -> S: n goes to the n-fold sum of S's one."""
    return lambda n: canonical_from_nat(S, n.payload)


def _witnesses(adjunction: str, S: SemiringDescriptor) -> list[HomWitness]:
    """The algebraic maps an adjunction's laws over S start from: S's own
    map, sending s to {star: s} in the multiset monad of S (mon-e, srng-e)
    or to the 1x1 matrix (s) over S (mat-h); the map through nat, sending
    n where the n-fold sum of one goes; and for srng-e, when S has a star,
    the starred map. mon-e's maps start from multiplicative monoids."""
    if adjunction == "mat-h":
        target, point = S, lambda s: Matrix(S, 1, 1, (s,))
    else:
        target, point = _once(MultisetMonad, S), lambda s: ms_from_pairs(S, [(STAR, s)])
    kind, own, nat = "SemiringMap", S, NAT
    if adjunction == "mon-e":
        kind, own, nat = "MonoidMap", multiplicative_monoid(S), MONOIDS["nat-mul"]
    from_nat = _from_nat(S)
    out = [
        HomWitness(kind, own, target, point, scalar_pool(S)),
        HomWitness(kind, nat, target, lambda n: point(from_nat(n)), scalar_pool(NAT)),
    ]
    if adjunction == "srng-e" and S.star is not None:
        starred = lambda s: point(S.star(s))
        out.append(HomWitness(kind, S, target, starred, scalar_pool(S)))
    return out


def _roundtrip_check(transpose: Callable, witnesses: list[HomWitness]):
    """Each witness, sent up and back down, is itself again on its samples,
    and so is the up side, sent down and back up. ``transpose`` keeps its
    results, so the up sides are the ones the other laws of the adjunction
    read, and the second ``up`` does not check again the down side that
    the ``down`` before it checked."""
    for idx, w in enumerate(witnesses):
        up = transpose(w)
        down = transpose(up)
        for x in w.samples:
            if down.apply(x) != w.apply(x):
                return False, f"witness {idx}: down . up differs at {x}"
        up2 = transpose(down)
        for v in up.samples:
            if up2.apply(v) != up.apply(v):
                return False, f"witness {idx}: up . down differs at {v}"
    return True, None


def _natural_check(transpose: Callable, witnesses: list[HomWitness], push: Callable):
    """The transposes are natural along nat -> S: the up side of the map
    through nat is the up side of S's own map after ``push``, which sends
    each scalar of a sample along nat -> S. Both up sides are the ones
    :func:`_roundtrip_check` reads from the same ``transpose``."""
    own, via_nat = map(transpose, witnesses[:2])
    for x in via_nat.samples:
        if via_nat.apply(x) != own.apply(push(x)):
            return False, f"naturality square differs at {x}"
    return True, None


def _involutive_check(transpose: Callable, w: HomWitness, star: Callable):
    """The up side of w commutes with ``star``, the involution of both
    sides' values, and the down side of that sends the star of S to
    ``star``. Both sides are the ones :func:`_roundtrip_check` reads from
    the same ``transpose``."""
    up = transpose(w)
    for v in up.samples:
        if up.apply(star(v)) != star(up.apply(v)):
            return False, f"involution square differs at {v}"
    down = transpose(up)
    for s in down.samples:
        if down.apply(w.source.star(s)) != star(down.apply(s)):
            return False, f"down star square differs at {s}"
    return True, None


# Each adjunction: its transpose, looked up by name at each call so that
# rebinding the module's name takes effect; over a semiring S, the push of
# its samples along nat -> S, or None when it has no naturality law; and
# the star of its values over S, or None when it has no involutive law.
# Every adjunction has a roundtrip law; the involutive ones run under
# ``--involutive`` and, in the suite, for every semiring with a star.
_ADJUNCTION_LAWS = {
    "mon-e": (lambda w: transpose_mon(w), None, None),
    "srng-e": (
        lambda w: transpose_srng(w),
        lambda S: lambda phi: ms_map_scalars(_from_nat(S), phi, S),
        lambda S: MultisetMonad(S).involution,
    ),
    "mat-h": (
        lambda w: transpose_math(w),
        lambda S: lambda h: Matrix(S, h.rows, h.cols, tuple(map(_from_nat(S), h.entries))),
        lambda S: mat_dagger,
    ),
}

ADJUNCTION_NAMES = tuple(_ADJUNCTION_LAWS)


def _adjunction_rows(adjunction: str, S: SemiringDescriptor, stars: bool) -> list:
    """The self-contained rows of one adjunction's laws over S: roundtrip,
    then natural and, when ``stars`` is set, involutive where the
    adjunction has them. The rows share the adjunction's witnesses over S
    and one result per witness of its transpose, for as long as the rows
    live. Exceptions are not kept, so a transpose that raises fails each
    law that reads it."""
    transpose, push, star = _ADJUNCTION_LAWS[adjunction]
    shared = functools.cache(transpose)
    ws = _witnesses(adjunction, S)
    rows = [(f"{adjunction}-roundtrip", None, lambda: _roundtrip_check(shared, ws))]
    if push is not None:
        rows.append(
            (f"{adjunction}-natural", None, lambda: _natural_check(shared, ws, push(S)))
        )
    if stars and star is not None:
        rows.append(
            (f"{adjunction}-involutive", None,
             lambda: _involutive_check(shared, ws[0], star(S)))
        )
    return rows


def _adjunction_laws(S: SemiringDescriptor) -> list:
    """The rows of the three adjunctions over S, with the laws that need a
    star when S has one."""
    return [
        row
        for adjunction in ADJUNCTION_NAMES
        for row in _adjunction_rows(adjunction, S, S.star is not None)
    ]


def run_roundtrip(adjunction: str, semiring_name: str, involutive: bool = False) -> SuiteReport:
    """Round-trip one adjunction's transposes over a named semiring.

    With ``involutive`` set, additionally checks that the transposes
    commute with the star structure; only srng-e and mat-h support this.
    """
    if adjunction not in _ADJUNCTION_LAWS:
        raise UnknownSuite(
            f"unknown adjunction {adjunction!r}; known: {', '.join(ADJUNCTION_NAMES)}"
        )
    S = semiring_by_name(semiring_name)
    if involutive:
        if _ADJUNCTION_LAWS[adjunction][2] is None:
            raise UnknownSuite(f"{adjunction} has no involutive refinement")
        if S.star is None:
            raise NoInvolution(f"{S.name} has no star operation")
    rows = functools.partial(_adjunction_rows, adjunction, S, involutive)
    table = [(f"adjunction({S.name})", rows)]
    return _report(f"roundtrip({adjunction})", _run_laws(table, None, 0))


# Default subjects: names of semirings and of monoids.
_SEMIRINGS = (tuple(SEMIRINGS), ())
_MONADS = (tuple(SEMIRINGS), ("nat-mul", "free-words"))

# Each suite: its default subjects; the name format of a subject; and the
# builder of a subject's law rows, which takes only the subject. A suite
# with default monoids runs over monads: the multiset monad of each semiring
# and the action monad of each monoid. The others run over semirings alone.
_SUITES = {
    "monad-laws": (_MONADS, "{}", _monad_laws),
    "additivity": (_SEMIRINGS, "multiset({})", _additivity_laws),
    "commutativity": (_MONADS, "{}", _commutativity_laws),
    "matcat-laws": (_SEMIRINGS, "mat({})", _matcat_laws),
    "dagger": ((("gaussian",), ()), "mat({})", _dagger_laws),
    "freetheory": (_SEMIRINGS, "terms({})", _freetheory_laws),
    "kleisli-iso": (_SEMIRINGS, "kl(multiset({}))", _kleisli_iso_laws),
    "adjunction-roundtrips": (_SEMIRINGS, "adjunction({})", _adjunction_laws),
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run one named suite deterministically from its seed, over the given
    semiring and monoid, or else over the suite's default subjects."""
    try:
        (semirings, monoids), subject_name, build = _SUITES[config.suite]
    except KeyError:
        raise UnknownSuite(
            f"unknown suite {config.suite!r}; known: {', '.join(SUITE_NAMES)}"
        ) from None
    if config.cases < 1:
        raise ValueError(f"cases must be positive, got {config.cases}")
    over_monads = bool(monoids)
    if config.monoid is not None and not over_monads:
        raise UnknownSuite(f"suite {config.suite!r} runs over semirings and takes no monoid")
    if config.semiring is not None or config.monoid is not None:
        semirings = () if config.semiring is None else (config.semiring,)
        monoids = () if config.monoid is None else (config.monoid,)
    subjects = [semiring_by_name(name) for name in semirings]
    if over_monads:
        subjects = [MultisetMonad(S) for S in subjects]
        subjects += [ActionMonad(monoid_by_name(name)) for name in monoids]
    tables = [(subject_name.format(x.name), functools.partial(build, x)) for x in subjects]
    return _report(config.suite, _run_laws(tables, random.Random(config.seed), config.cases))
