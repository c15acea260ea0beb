"""Hom-set transposes, witness validation, and the law-suite runner."""

import gc
import hashlib
import importlib
import pkgutil
import random
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import semicat
import semicat.adjunctions as adjunctions
from semicat.adjunctions import (
    ADJUNCTION_NAMES,
    HomWitness,
    SUITE_NAMES,
    SuiteConfig,
    SuiteReport,
    run_roundtrip,
    run_suite,
    transpose_math,
    transpose_mon,
    transpose_srng,
)
from semicat.algebra import (
    BOOL,
    MONOIDS,
    NAT,
    SEMIRINGS,
    canonical_from_nat,
    multiplicative_monoid,
    nat,
)
from semicat.errors import (
    NotAMonoidMap,
    NotASemiringMap,
    NotAdditive,
    UnknownSemiring,
    UnknownSuite,
)
from semicat.matcat import Matrix, mat_identity, matrix
from semicat.monadcore import (
    ActVal,
    ActionMonad,
    Atom,
    MultisetMonad,
    Pair,
    STAR,
    eval_at_one,
    index_carrier,
    ms_from_pairs,
)
from semicat.sampling import random_carrier, scalar_pool

MN = MultisetMonad(NAT)


def nat_point(s):
    return ms_from_pairs(NAT, [(STAR, s)])


def iso_monoid_witness():
    M = multiplicative_monoid(NAT)
    samples = (nat(0), nat(1), nat(2), nat(3))
    return HomWitness("MonoidMap", M, MN, nat_point, samples)


def test_mon_up_gives_the_scaling_map():
    up = transpose_mon(iso_monoid_witness())
    assert up.kind == "MonadMapSample"
    sigma = up.apply
    assert sigma(ActVal(nat(3), Atom("a"))) == ms_from_pairs(
        NAT, [(Atom("a"), nat(3))]
    )
    assert sigma(ActVal(nat(0), Atom("a"))) == ms_from_pairs(NAT, [])


def test_mon_roundtrip_recovers_the_monoid_map():
    up = transpose_mon(iso_monoid_witness())
    down = transpose_mon(up)
    assert down.kind == "MonoidMap"
    for m in (nat(0), nat(1), nat(4)):
        assert down.apply(m) == nat_point(m)


def test_mon_up_rejects_a_broken_map():
    M = multiplicative_monoid(NAT)

    def off_by_one(m):
        return nat_point(NAT.add(m, nat(1)))

    w = HomWitness("MonoidMap", M, MN, off_by_one, (nat(1), nat(2)))
    with pytest.raises(NotAMonoidMap):
        transpose_mon(w)




def iso_semiring_witness():
    return HomWitness("SemiringMap", NAT, MN, nat_point, scalar_pool(NAT))


def test_srng_up_sums_scaled_units():
    sigma = transpose_srng(iso_semiring_witness()).apply
    phi = ms_from_pairs(NAT, [(Atom("a"), nat(2)), (Atom("b"), nat(3))])
    assert sigma(phi) == phi
    assert sigma(ms_from_pairs(NAT, [])) == ms_from_pairs(NAT, [])


def test_srng_roundtrip_recovers_the_semiring_map():
    up = transpose_srng(iso_semiring_witness())
    down = transpose_srng(up)
    assert down.kind == "SemiringMap"
    assert down.apply(nat(5)) == nat_point(nat(5))


def test_srng_up_needs_an_additive_target():
    AW = ActionMonad(MONOIDS["nat-mul"])
    w = HomWitness("SemiringMap", NAT, AW, nat_point, scalar_pool(NAT))
    with pytest.raises(NotAdditive):
        transpose_srng(w)


def test_srng_up_rejects_a_broken_map():
    def collapse(s):
        return nat_point(nat(1))

    w = HomWitness("SemiringMap", NAT, MN, collapse, scalar_pool(NAT))
    with pytest.raises(NotASemiringMap):
        transpose_srng(w)


def bool_box(n):
    return Matrix(BOOL, 1, 1, (canonical_from_nat(BOOL, n.payload),))


def test_math_up_applies_entrywise():
    w = HomWitness("SemiringMap", NAT, BOOL, bool_box, scalar_pool(NAT))
    up = transpose_math(w)
    assert up.kind == "TheoryFunctorSample"
    F = up.apply
    assert F(matrix(NAT, [[nat(2), nat(0)]])) == matrix(
        BOOL, [[canonical_from_nat(BOOL, 2), canonical_from_nat(BOOL, 0)]]
    )
    assert F(mat_identity(NAT, 3)) == mat_identity(BOOL, 3)


def test_math_roundtrip_recovers_the_semiring_map():
    w = HomWitness("SemiringMap", NAT, BOOL, bool_box, scalar_pool(NAT))
    down = transpose_math(transpose_math(w))
    assert down.apply(nat(5)) == bool_box(nat(5))


def test_math_up_rejects_a_broken_map():
    def not_multiplicative(n):
        return Matrix(BOOL, 1, 1, (canonical_from_nat(BOOL, 1),))

    w = HomWitness(
        "SemiringMap", NAT, BOOL, not_multiplicative, scalar_pool(NAT)
    )
    with pytest.raises(NotASemiringMap):
        transpose_math(w)


# One witness of each kind, and the two kinds each transpose takes.
WITNESS_OF_KIND = {
    "MonoidMap": iso_monoid_witness,
    "SemiringMap": iso_semiring_witness,
    "MonadMapSample": lambda: transpose_srng(iso_semiring_witness()),
    "TheoryFunctorSample": lambda: transpose_math(
        HomWitness("SemiringMap", NAT, BOOL, bool_box, scalar_pool(NAT))
    ),
}
SIDES = {
    transpose_mon: ("MonoidMap", "MonadMapSample"),
    transpose_srng: ("SemiringMap", "MonadMapSample"),
    transpose_math: ("SemiringMap", "TheoryFunctorSample"),
}


@pytest.mark.parametrize(
    ("transpose", "kind"),
    [(t, kind) for t, sides in SIDES.items() for kind in WITNESS_OF_KIND if kind not in sides],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_a_transpose_rejects_a_witness_on_neither_of_its_sides(transpose, kind):
    w = WITNESS_OF_KIND[kind]()
    assert w.kind == kind
    up, down = SIDES[transpose]
    with pytest.raises(ValueError, match=f"expected a {up} or {down} witness, got {kind}"):
        transpose(w)


def test_suite_names_are_stable():
    assert SUITE_NAMES == tuple(sorted(SUITE_NAMES))
    for name in (
        "additivity",
        "adjunction-roundtrips",
        "commutativity",
        "dagger",
        "freetheory",
        "kleisli-iso",
        "matcat-laws",
        "monad-laws",
    ):
        assert name in SUITE_NAMES
    assert ADJUNCTION_NAMES == ("mon-e", "srng-e", "mat-h")


def test_run_suite_unknown_names():
    with pytest.raises(UnknownSuite):
        run_suite(SuiteConfig(suite="bogus"))
    with pytest.raises(UnknownSemiring, match="unknown monoid 'no-such'; known: "):
        run_suite(SuiteConfig(suite="monad-laws", monoid="no-such"))
    with pytest.raises(UnknownSuite):
        run_suite(SuiteConfig(suite="additivity", semiring="nat", monoid="nat-mul"))
    with pytest.raises(UnknownSemiring):
        run_suite(SuiteConfig(suite="monad-laws", semiring="no-such"))


@pytest.mark.parametrize("cases", [0, -5])
def test_run_suite_rejects_fewer_than_one_case(cases):
    # with no case drawn, every sampled law would pass vacuously
    with pytest.raises(ValueError, match="cases must be positive"):
        run_suite(SuiteConfig(suite="monad-laws", semiring="nat", cases=cases))


def test_run_suite_is_deterministic():
    cfg = SuiteConfig(suite="monad-laws", semiring="tropical", seed=7, cases=10)
    first = run_suite(cfg)
    second = run_suite(cfg)
    assert first.render() == second.render()
    assert first.ok


def test_noncommutativity_stops_at_the_first_disagreeing_pair(monkeypatch):
    draws = []
    real = adjunctions.random_tvalue

    def random_tvalue(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(adjunctions, "random_tvalue", random_tvalue)
    report = run_suite(SuiteConfig(suite="commutativity", monoid="free-words", cases=1000))
    assert draws == []
    # the verdict rests on the fixed pair: its lines and both composites
    assert report.entries == (
        (
            "action(free-words)",
            "noncommutativity-witnessed",
            True,
            "u = (ab,x)\nv = (cd,y)\n"
            "strength-first  = (abcd,(x,y))\n"
            "swapped-first   = (cdab,(x,y))",
        ),
    )


@pytest.mark.parametrize(("hi", "k"), [(0, 1), (3, 1), (3, 3), (4, 2), (4, 5)])
def test_chain_draws_every_dimension_before_its_first_map(hi, k):
    rng = random.Random(11)
    calls = []

    def make(r, dom, cod):
        assert r is rng
        calls.append((dom, cod, r.getstate()))
        return dom, cod, r.random()

    maps = adjunctions._chain(make, hi, k)(rng)
    replay = random.Random(11)
    dims = [replay.randint(0, hi) for _ in range(k + 1)]
    assert all(0 <= d <= hi for d in dims)
    # the first map is made right after the k + 1 dimensions are drawn
    assert calls[0][2] == replay.getstate()
    assert [(dom, cod) for dom, cod, _ in maps] == list(zip(dims, dims[1:]))
    assert len(maps) == k
    for (_, cod, _), (dom, _, _) in zip(maps, maps[1:]):
        assert cod == dom


@pytest.mark.parametrize(
    ("max_size", "letters"), [(5, "abcde"), (4, "abcd"), (4, "pqrs"), (3, "dcba"), (9, "xy")]
)
def test_random_carrier_is_one_object_per_prefix_and_one_draw(max_size, letters):
    for seed in range(6):
        rng, replay = random.Random(seed), random.Random(seed)
        xs = random_carrier(rng, max_size, letters)
        k = replay.randint(1, min(max_size, len(letters)))
        assert rng.getstate() == replay.getstate()
        assert xs.elems == tuple(Atom(c) for c in sorted(letters[:k]))
        assert random_carrier(random.Random(seed), max_size, letters) is xs


# The count and digest of the law cases that drawn_case_digest feeds.
DRAWN_CASES = (6483, "1c12b52e72cf502f")


def drawn_case_digest() -> tuple[int, str]:
    """The law cases the suites and roundtrips consume, by count and
    digest: every suite at seeds 0-2 with 5 cases over its default
    subjects, and for monad-laws and commutativity also over the nat-mul,
    nat-add and free-words monoids; then every roundtrip over every
    semiring and the two involutive gaussian ones. Each argument tuple
    ``_first_failure`` takes feeds sha256 ``"|".join(map(str, args))`` and
    a newline, in order. The function needs only the standard library and
    semicat and imports what it uses, so that ``test_interpreters`` runs its
    source on other interpreters."""
    import hashlib

    from semicat import adjunctions
    from semicat.adjunctions import (
        ADJUNCTION_NAMES,
        SUITE_NAMES,
        SuiteConfig,
        run_roundtrip,
        run_suite,
    )
    from semicat.algebra import SEMIRINGS

    digest, count = hashlib.sha256(), 0
    first_failure = adjunctions._first_failure

    def hashed(cases, holds):
        def fed():
            nonlocal count
            for args in cases:
                digest.update(("|".join(map(str, args)) + "\n").encode())
                count += 1
                yield args

        return first_failure(fed(), holds)

    adjunctions._first_failure = hashed
    try:
        for seed in range(3):
            for suite in SUITE_NAMES:
                run_suite(SuiteConfig(suite, seed=seed, cases=5))
                if suite in ("monad-laws", "commutativity"):
                    for monoid in ("nat-mul", "nat-add", "free-words"):
                        run_suite(SuiteConfig(suite, monoid=monoid, seed=seed, cases=5))
        for adjunction in ADJUNCTION_NAMES:
            for name in SEMIRINGS:
                run_roundtrip(adjunction, name)
        run_roundtrip("srng-e", "gaussian", involutive=True)
        run_roundtrip("mat-h", "gaussian", involutive=True)
    finally:
        adjunctions._first_failure = first_failure
    return count, digest.hexdigest()[:16]


def test_every_drawn_case_is_pinned():
    """The drawn law cases are pinned by count and digest. A change that
    draws other cases on purpose updates ``DRAWN_CASES`` and records the
    new digest in CHANGES.md."""
    assert drawn_case_digest() == DRAWN_CASES


def test_no_sampler_calls_a_python_level_random_method(monkeypatch):
    """The samplers read ``getrandbits`` alone: with ``random.Random``'s
    Python-level draws made to raise, every suite still passes at 5
    cases and the pinned cases are drawn."""

    def refused(*args, **kwargs):
        raise AssertionError("a sampler called a Python-level Random method")

    for name in ("randint", "randrange", "choice", "sample", "_randbelow"):
        monkeypatch.setattr(random.Random, name, refused)
    for suite in SUITE_NAMES:
        report = run_suite(SuiteConfig(suite, cases=5))
        assert report.ok, report.render()
    assert drawn_case_digest() == DRAWN_CASES


def test_report_rendering():
    report = SuiteReport(
        "demo",
        (
            ("a", "assoc", True, None),
            ("b", "unit", False, "x = 1\ny = 2"),
        ),
    )
    assert not report.ok
    assert report.render() == "PASS a :: assoc\nFAIL b :: unit\n  x = 1\n  y = 2"


def test_roundtrip_runner():
    for name in ADJUNCTION_NAMES:
        assert run_roundtrip(name, "nat").ok
    assert run_roundtrip("mat-h", "gaussian", involutive=True).ok
    assert run_roundtrip("srng-e", "gaussian", involutive=True).ok


def test_roundtrip_guards():
    with pytest.raises(UnknownSuite):
        run_roundtrip("bogus", "nat")
    with pytest.raises(UnknownSuite):
        run_roundtrip("mon-e", "nat", involutive=True)
    with pytest.raises(UnknownSemiring):
        run_roundtrip("srng-e", "no-such")


# ---------------------------------------------------------------------------
# Memoized witnesses: each transpose evaluates a witness once per distinct
# argument, and a broken transpose still fails its roundtrip law.


def counting(fn):
    """``fn`` plus a Counter of the arguments it was called with."""
    calls = Counter()

    def apply(x):
        calls[x] += 1
        return fn(x)

    return apply, calls


def recount(w: HomWitness):
    """A copy of ``w`` whose apply counts its calls."""
    apply, calls = counting(w.apply)
    return HomWitness(w.kind, w.source, w.target, apply, w.samples), calls


def exercise(transpose, w: HomWitness) -> None:
    """Transpose to the other side, back, and out again, then apply every
    resulting witness to its samples twice more."""
    there = transpose(w)
    home = transpose(there)
    again = transpose(home)
    for v in (there, home, again):
        for _ in range(2):
            for x in v.samples:
                v.apply(x)


ALGEBRAIC_WITNESSES = {
    "mon-e": (transpose_mon, iso_monoid_witness),
    "srng-e": (transpose_srng, iso_semiring_witness),
    "mat-h": (
        transpose_math,
        lambda: HomWitness(
            "SemiringMap", NAT, BOOL, bool_box, scalar_pool(NAT)
        ),
    ),
}


@pytest.mark.parametrize("adjunction", sorted(ALGEBRAIC_WITNESSES))
def test_transposes_evaluate_an_algebraic_witness_once_per_argument(adjunction):
    transpose, make = ALGEBRAIC_WITNESSES[adjunction]
    w, calls = recount(make())
    exercise(transpose, w)
    assert set(w.samples) <= set(calls)
    assert max(calls.values()) == 1


@pytest.mark.parametrize("adjunction", sorted(ALGEBRAIC_WITNESSES))
def test_transposes_evaluate_a_structural_witness_once_per_argument(adjunction):
    transpose, make = ALGEBRAIC_WITNESSES[adjunction]
    w, calls = recount(transpose(make()))
    exercise(transpose, w)
    assert calls
    assert max(calls.values()) == 1


def check_pairwise(S, E, f, samples):
    """The semiring-map check as a plain double loop that takes f(a) and
    f(b) again at every pair: the reference for the details it reports."""
    if f(S.zero) != E.zero:
        raise NotASemiringMap(f"zero of {S.name} is not sent to zero")
    if f(S.one) != E.one:
        raise NotASemiringMap(f"one of {S.name} is not sent to one")
    for a in samples:
        for b in samples:
            if f(S.add(a, b)) != E.add(f(a), f(b)):
                raise NotASemiringMap(f"sum not preserved at {a}, {b}")
            if f(S.mul(a, b)) != E.mul(f(a), f(b)):
                raise NotASemiringMap(f"product not preserved at {a}, {b}")
    if S.star is not None and E.star is not None:
        for a in samples:
            if f(S.star(a)) != E.star(f(a)):
                raise NotASemiringMap(f"star not preserved at {a}")


def outcome(check, S, f, samples):
    try:
        check(S, S, f, samples)
    except Exception as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize("S", SEMIRINGS.values(), ids=SEMIRINGS)
def test_a_semiring_map_check_takes_each_sample_image_once(S):
    pool = scalar_pool(S)
    calls = []

    def identity(s):
        calls.append(s)
        return s

    adjunctions._check_semiring_map(S, S, identity, pool)
    # Each sample's image comes after the image of the first sum that needs it.
    want = [S.zero, S.one]
    for i, a in enumerate(pool):
        for b in pool:
            want += [S.add(a, b), *([b] if i == 0 else []), S.mul(a, b)]
    if S.star is not None:
        want += [S.star(a) for a in pool]
    assert calls == want
    assert len(calls) == 2 + len(pool) * (1 + 2 * len(pool) + (S.star is not None))


def broken(S, moved, raising):
    """The identity of S, but for ``moved``, sent to another scalar, and
    ``raising``, whose image raises."""

    def f(s):
        if s == raising:
            raise LookupError(f"no image of {s}")
        if s == moved:
            return S.one if s == S.zero else S.zero
        return s

    return f


@pytest.mark.parametrize("S", SEMIRINGS.values(), ids=SEMIRINGS)
def test_a_broken_semiring_map_fails_with_the_pairwise_detail(S):
    """Wrong at one scalar, raising at one sample, or both: the check fails
    at the same place, with the same detail, as the double loop. The pool
    starts at its last sample, not at zero, so that the first row of pairs
    can fail before it has taken every image."""
    pool = scalar_pool(S)
    pool = pool[-1:] + pool[:-1]
    made = [S.zero, S.one, *pool]
    made += [op(a, b) for op in (S.add, S.mul) for a in pool for b in pool]
    made += [S.star(a) for a in pool] if S.star is not None else []
    made = list(dict.fromkeys(made))
    maps = [broken(S, u, None) for u in made] + [broken(S, None, v) for v in made]
    maps += [broken(S, u, v) for u in made for v in pool if u != v]
    for f in maps:
        got = outcome(adjunctions._check_semiring_map, S, f, pool)
        assert got is not None
        assert got == outcome(check_pairwise, S, f, pool)


def test_eval_at_one_is_built_once_per_monad():
    T = MultisetMonad(NAT)
    assert eval_at_one(T) is eval_at_one(T)
    assert eval_at_one(T) is not eval_at_one(MultisetMonad(NAT))
    A = ActionMonad(MONOIDS["nat-mul"])
    assert eval_at_one(A) is eval_at_one(A)
    assert index_carrier(3) is index_carrier(3)


def test_a_raising_witness_raises_on_every_call():
    def partial(s):
        if s == nat(1000):
            raise NotASemiringMap("no image for 1000")
        return nat_point(s)

    apply, calls = counting(partial)
    up = transpose_srng(HomWitness("SemiringMap", NAT, MN, apply, scalar_pool(NAT)))
    phi = ms_from_pairs(NAT, [(Atom("a"), nat(1000))])
    for _ in range(3):
        with pytest.raises(NotASemiringMap, match="no image for 1000"):
            up.apply(phi)
    assert calls[nat(1000)] == 3


# ``canonical_from_nat`` with no image for 2 breaks every via-nat witness.
# The reports are the ones the transposes gave before they kept results.
RAISING_REPORTS = {
    "mon-e": "FAIL adjunction(nat) :: mon-e-roundtrip\n  error: no image for 2",
    "srng-e": (
        "FAIL adjunction(nat) :: srng-e-natural\n  error: no image for 2\n"
        "FAIL adjunction(nat) :: srng-e-roundtrip\n  error: no image for 2"
    ),
    "mat-h": (
        "FAIL adjunction(nat) :: mat-h-natural\n  error: no image for 2\n"
        "FAIL adjunction(nat) :: mat-h-roundtrip\n  error: no image for 2"
    ),
}


@pytest.mark.parametrize("adjunction", ADJUNCTION_NAMES)
def test_roundtrip_reports_a_raising_witness(monkeypatch, adjunction):
    real = adjunctions.canonical_from_nat

    def partial(S, n):
        if n == 2:
            raise NotASemiringMap("no image for 2")
        return real(S, n)

    monkeypatch.setattr(adjunctions, "canonical_from_nat", partial)
    assert run_roundtrip(adjunction, "nat").render() == RAISING_REPORTS[adjunction]


def _mon_mutant(monkeypatch):
    # generic_strength forgets the monoid element: sigma(m, x) = unit(x)
    monkeypatch.setattr(
        adjunctions, "generic_strength", lambda T, u, y: T.unit(Pair(STAR, y))
    )


def _srng_mutant(monkeypatch):
    # scalar_action ignores its scalar
    monkeypatch.setattr(adjunctions, "scalar_action", lambda T, s, u: u)


def _math_mutant(monkeypatch):
    # mat_cotuple stacks its blocks in the wrong order, reversing rows
    real = adjunctions.mat_cotuple
    monkeypatch.setattr(adjunctions, "mat_cotuple", lambda f, g: real(g, f))


MUTANTS = {"mon-e": _mon_mutant, "srng-e": _srng_mutant, "mat-h": _math_mutant}


@pytest.mark.parametrize("semiring", ["nat", "gaussian"])
@pytest.mark.parametrize("adjunction", ADJUNCTION_NAMES)
def test_a_broken_up_transpose_fails_its_roundtrip(monkeypatch, adjunction, semiring):
    assert run_roundtrip(adjunction, semiring).ok
    MUTANTS[adjunction](monkeypatch)
    report = run_roundtrip(adjunction, semiring)
    assert not report.ok
    lines = report.render().splitlines()
    assert f"FAIL adjunction({semiring}) :: {adjunction}-roundtrip" in lines


# ---------------------------------------------------------------------------
# Shared transposes: the laws of one adjunction over one semiring transpose
# each witness once, and ``up`` does not check again a down
# side that a transpose built and checked.

COUNTED = (
    "transpose_mon", "transpose_srng", "transpose_math", "_check_monoid_map",
    "_check_semiring_map", "_check_monad_map", "_check_theory_functor",
)


def count_calls(monkeypatch) -> Counter:
    """A Counter of the calls to each ``COUNTED`` name of the module."""
    calls = Counter()
    for name in COUNTED:
        real = getattr(adjunctions, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(adjunctions, name, counted)
    return calls


ROUNDTRIP_WORK = {
    ("mat-h", True): {
        "transpose_math": 6, "_check_semiring_map": 4, "_check_theory_functor": 4,
    },
    ("mon-e", False): {"transpose_mon": 6, "_check_monoid_map": 4, "_check_monad_map": 4},
    ("srng-e", True): {
        "transpose_srng": 9, "_check_semiring_map": 6, "_check_monad_map": 6,
    },
}


@pytest.mark.parametrize(("adjunction", "involutive"), sorted(ROUNDTRIP_WORK))
def test_a_roundtrip_transposes_and_checks_each_witness_once(
    monkeypatch, adjunction, involutive
):
    calls = count_calls(monkeypatch)
    assert run_roundtrip(adjunction, "nat", involutive).ok
    assert dict(calls) == ROUNDTRIP_WORK[(adjunction, involutive)]


def test_no_memo_outlives_its_run(monkeypatch):
    """A run's memo tables go when it returns: a second run reads the
    module's names afresh, and nothing the first run computed is kept."""
    assert run_roundtrip("srng-e", "nat").ok
    assert adjunctions._RUN_TABLE.get() is None
    images = []

    def unscaled(T, s, u):
        # the mutant row's action, which leaves u unscaled
        images.append(weakref.ref(u))
        return u

    monkeypatch.setattr(adjunctions, "scalar_action", unscaled)
    verdicts = {e[1]: e[2] for e in run_roundtrip("srng-e", "nat").entries}
    assert verdicts["srng-e-roundtrip"] is False
    assert adjunctions._RUN_TABLE.get() is None
    gc.collect()
    assert images and all(ref() is None for ref in images)


ALGEBRAIC_CHECKS = {
    "mon-e": ("_check_monoid_map", NotAMonoidMap),
    "mat-h": ("_check_semiring_map", NotASemiringMap),
    "srng-e": ("_check_semiring_map", NotASemiringMap),
}


@pytest.mark.parametrize("adjunction", sorted(ALGEBRAIC_WITNESSES))
def test_up_skips_the_check_of_a_transposes_own_output_only(monkeypatch, adjunction):
    transpose, make = ALGEBRAIC_WITNESSES[adjunction]
    check, error = ALGEBRAIC_CHECKS[adjunction]
    down = transpose(transpose(make()))
    # a constant map sends the unit where some sample goes, so it is no
    # homomorphism, yet it has every other field of ``down``
    unit = down.source.unit if adjunction == "mon-e" else down.source.one
    junk = next(
        down.apply(x) for x in down.samples if down.apply(x) != down.apply(unit)
    )
    fake = HomWitness(down.kind, down.source, down.target, lambda x: junk, down.samples)
    with pytest.raises(error):
        transpose(fake)
    calls = count_calls(monkeypatch)
    transpose(down)
    assert calls[check] == 0
    transpose(HomWitness(down.kind, down.source, down.target, down.apply, down.samples))
    assert calls[check] == 1


# ---------------------------------------------------------------------------
# The triangles agree: on a singleton, the monoid triangle's transpose of the
# iso m -> {star: m} is the semiring triangle's transpose of the same map.


def singleton_disagreements(S):
    T = MultisetMonad(S)
    pool = scalar_pool(S)

    def iso(m):
        return ms_from_pairs(S, [(STAR, m)])

    M = multiplicative_monoid(S)
    sigma_mon = transpose_mon(HomWitness("MonoidMap", M, T, iso, pool)).apply
    sigma_srng = transpose_srng(HomWitness("SemiringMap", S, T, iso, pool)).apply
    return [
        (m, x)
        for m in pool
        for x in (Atom("a"), Atom("b"))
        if sigma_mon(ActVal(m, x)) != sigma_srng(ms_from_pairs(S, [(x, m)]))
    ]


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_the_triangles_agree_on_singletons(name):
    assert singleton_disagreements(SEMIRINGS[name]) == []


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_a_strength_without_the_monoid_element_splits_the_triangles(monkeypatch, name):
    _mon_mutant(monkeypatch)
    assert singleton_disagreements(SEMIRINGS[name])


# ---------------------------------------------------------------------------
# Every exported name exists in its own module, and only there.


def test_every_exported_name_resolves():
    submodules = {info.name for info in pkgutil.iter_modules(semicat.__path__)}
    for sub in submodules:
        module = importlib.import_module(f"semicat.{sub}")
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    public = {name for name in vars(semicat) if not name.startswith("_")}
    assert public <= submodules


def test_importing_matcat_loads_only_what_it_imports():
    src = str(Path(semicat.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import semicat.matcat; "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'semicat'))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == [
        "semicat", "semicat.algebra", "semicat.errors", "semicat.matcat"
    ]
