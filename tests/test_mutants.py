"""The law suites can fail: a table of mutants of the law layer.

Each row replaces one name in the ``semicat.adjunctions`` namespace (a
function the suites call, or a monad class they instantiate) with a broken
version, runs one suite at the golden seed and case count, and checks that
the named laws report FAIL for the named subject while a law the mutant
cannot touch still passes everywhere, so a mutant cannot pass by crashing
the suite.

``UNKILLED`` lists the laws that no row kills yet. A test keeps it equal
to every law of the goldens minus the killed ones, so the gap is visible
and can only shrink.
"""

from dataclasses import replace
from pathlib import Path

import pytest

import semicat.adjunctions as adjunctions
from semicat.adjunctions import SUITE_NAMES, SuiteConfig, run_suite
from semicat.kleisli import KleisliMap
from semicat.matcat import Matrix
from semicat.monadcore import (
    STAR,
    Multiset,
    MultisetMonad,
    Pair,
    dst_strength_first,
    ms_from_pairs,
)

GOLDENS = Path(__file__).parent / "fixtures" / "goldens"
SEED, CASES = 0, 5


def transposed(h: Matrix) -> Matrix:
    return Matrix(
        h.semiring, h.cols, h.rows,
        tuple(h.entries[i * h.cols + j] for j in range(h.cols) for i in range(h.rows)),
    )


def rows_reversed(h: Matrix) -> Matrix:
    rows = [h.entries[i * h.cols : (i + 1) * h.cols] for i in range(h.rows)]
    return Matrix(h.semiring, h.rows, h.cols, tuple(e for r in reversed(rows) for e in r))


def tensor_row_loops_swapped(real):
    """The tensor with its two row loops in the wrong order."""

    def tensor(g, h):
        t = real(g, h)
        rows = [t.entries[r * t.cols : (r + 1) * t.cols] for r in range(t.rows)]
        order = [i * h.rows + k for k in range(h.rows) for i in range(g.rows)]
        return Matrix(t.semiring, t.rows, t.cols, tuple(e for r in order for e in rows[r]))

    return tensor


def kronecker_sum(g: Matrix, h: Matrix) -> Matrix:
    """The tensor's Kronecker layout with S.add in place of S.mul."""
    S = g.semiring
    return Matrix(
        S, g.rows * h.rows, g.cols * h.cols,
        tuple(
            S.add(g.entries[i * g.cols + j], h.entries[k * h.cols + l])
            for i in range(g.rows) for k in range(h.rows)
            for j in range(g.cols) for l in range(h.cols)
        ),
    )


class OuterCoefficientDropped(MultisetMonad):
    """mult that treats every outer multiplicity as one."""

    def mult(self, u):
        self.check_value(u)
        one = self.semiring.one
        return super().mult(Multiset(u.semiring, tuple((k, one) for k, _ in u.entries)))


class UnitDoubled(MultisetMonad):
    """unit with multiplicity one + one."""

    def unit(self, x):
        S = self.semiring
        return ms_from_pairs(S, [(x, S.add(S.one, S.one))])


class LastEntryDropped(MultisetMonad):
    """fmap that drops the last entry of a result with two or more."""

    def fmap(self, f, u):
        out = super().fmap(f, u)
        return Multiset(out.semiring, out.entries[:-1] or out.entries)


class InvolutionLastEntryDropped(MultisetMonad):
    """involution that drops the last entry of a result with two or more."""

    def involution(self, u):
        out = super().involution(u)
        return Multiset(out.semiring, out.entries[:-1] or out.entries)


class BcHalvesSwapped(MultisetMonad):
    """bc that returns the right half first."""

    def bc(self, u):
        left, right = super().bc(u)
        return right, left


class UnitRelabelSkipped(MultisetMonad):
    """fmap that returns a value of one entry with multiplicity one unchanged."""

    def fmap(self, f, u):
        self.check_value(u)
        if len(u.entries) == 1 and u.entries[0][1] == self.semiring.one:
            return u
        return super().fmap(f, u)


def components_reversed(real):
    """``real``, with the components of the Kleisli map it returns reversed."""

    def reversed_components(*args):
        k = real(*args)
        return KleisliMap(k.monad, k.dom, k.cod, k.components[::-1])

    return reversed_components


def first_multiplicities_one(real):
    """``real`` on a first map whose every multiplicity is reset to one."""

    def compose(f, g):
        comps = tuple(
            Multiset(c.semiring, tuple((k, c.semiring.one) for k, _ in c.entries))
            for c in f.components
        )
        return real(KleisliMap(f.monad, f.dom, f.cod, comps), g)

    return compose


def homset_without_one(real):
    def homset(S):
        H = real(S)
        return replace(H, one=H.zero)

    return homset


# (suite, name patched, mutant of the real function, subject, laws that must
# FAIL for that subject, a law that must still PASS for every subject)
MUTANTS = [
    ("monad-laws", "generic_strength",
     lambda real: lambda T, u, y: real(T, u, STAR),
     "multiset(nat)", ("strength-unit",), "fmap-identity"),
    ("monad-laws", "MultisetMonad",
     lambda real: OuterCoefficientDropped,
     "multiset(nat)", ("mult-unit-right",), "mult-unit-left"),
    ("monad-laws", "MultisetMonad",
     lambda real: UnitDoubled,
     "multiset(nat)", ("mult-unit-left",), "unit-natural"),
    ("monad-laws", "MultisetMonad",
     lambda real: LastEntryDropped,
     "multiset(nat)",
     ("fmap-compose", "fmap-identity", "mult-assoc", "mult-natural", "strength-mult",
      "strength-point"),
     "mult-unit-left"),
    ("monad-laws", "MultisetMonad",
     lambda real: UnitRelabelSkipped,
     "multiset(nat)", ("unit-natural", "strength-unit", "mult-natural", "mult-assoc"),
     "mult-unit-left"),
    ("additivity", "scalar_action",
     lambda real: lambda T, s, u: u,
     "multiset(nat)", ("module-dist-scalar", "module-zero-scalar"), "module-dist-value"),
    ("additivity", "tx_zero",
     lambda real: lambda T: T.unit(STAR),
     "multiset(nat)", ("initial-singleton", "bc-eta", "module-zero-value"),
     "bc-roundtrip-fwd"),
    ("additivity", "MultisetMonad",
     lambda real: BcHalvesSwapped,
     "multiset(nat)",
     ("bc-assoc", "bc-eta", "bc-natural", "bc-rho", "bc-roundtrip-fwd",
      "bc-roundtrip-inv"),
     "module-unit"),
    ("additivity", "tx_add",
     lambda real: lambda T, u, v: u,
     "multiset(nat)", ("value-add-commutative", "value-add-unit"), "bc-roundtrip-fwd"),
    ("additivity", "tx_add",
     lambda real: lambda T, u, v: real(T, real(T, u, v), v),
     "multiset(nat)", ("value-add-assoc",), "bc-roundtrip-fwd"),
    ("commutativity", "dst_swapped_first",
     lambda real: dst_strength_first,
     "action(free-words)", ("noncommutativity-witnessed",), "dst-composites-agree"),
    ("commutativity", "dst_strength_first",
     lambda real: lambda T, u, v: real(T, v, u),
     "multiset(nat)", ("dst-composites-agree", "dst-direct-agrees"),
     "noncommutativity-witnessed"),
    ("matcat-laws", "mat_compose",
     lambda real: lambda a, b: transposed(real(a, b)),
     "mat(nat)",
     ("compose-oracle", "compose-assoc", "identity-neutral", "biproduct-delta",
      "tuple-recovery", "cotuple-recovery", "embed-functorial"),
     "tensor-identity"),
    ("matcat-laws", "mat_tensor", tensor_row_loops_swapped,
     "mat(nat)", ("tensor-functorial", "tensor-identity", "tensor-symmetry"),
     "tensor-unit"),
    ("matcat-laws", "mat_tensor",
     lambda real: kronecker_sum,
     "mat(nat)", ("tensor-unit",), "compose-assoc"),
    ("matcat-laws", "mat_tuple",
     lambda real: lambda f, g: real(g, f),
     "mat(nat)", ("tensor-distributes",), "cotuple-recovery"),
    ("matcat-laws", "homset_semiring", homset_without_one,
     "mat(nat)", ("homset-agrees",), "compose-oracle"),
    ("matcat-laws", "mat_add_biproduct",
     lambda real: lambda f, g: f,
     "mat(nat)", ("add-entrywise",), "compose-oracle"),
    ("dagger", "mat_dagger",
     lambda real: lambda f: real(transposed(f)),
     "mat(gaussian)", ("dagger-contravariant", "dagger-structural"), "dagger-involutive"),
    ("dagger", "mat_dagger",
     lambda real: lambda f: rows_reversed(real(f)),
     "mat(gaussian)", ("dagger-involutive",), "dagger-tensor"),
    ("dagger", "mat_tensor", tensor_row_loops_swapped,
     "mat(gaussian)", ("dagger-tensor",), "dagger-involutive"),
    ("freetheory", "term_normalize",
     lambda real: lambda t: Multiset(real(t).semiring, real(t).entries[1:]),
     "terms(nat)", ("unit-agrees", "mult-agrees"), "relation-sound"),
    ("freetheory", "kl_coproj",
     lambda real: lambda T, side, n, m: real(T, 3 - side, m, n),
     "terms(nat)", ("unit-functor-coproj",), "unit-functor-id"),
    ("freetheory", "law_unit_functor", components_reversed,
     "terms(nat)", ("unit-functor-id", "unit-functor-coproj"), "relation-sound"),
    ("freetheory", "MultisetMonad",
     lambda real: InvolutionLastEntryDropped,
     "terms(nat)", ("involution-agrees",), "relation-sound"),
    ("freetheory", "kl_compose", first_multiplicities_one,
     "terms(gaussian)", ("unit-functor-compose",), "unit-agrees"),
    ("kleisli-iso", "theta",
     lambda real: lambda k: transposed(real(k)),
     "kl(multiset(nat))",
     ("xi-theta-id", "theta-xi-id", "theta-compose", "theta-structural",
      "theta-tuple", "theta-cotuple"),
     "kl-assoc"),
    ("kleisli-iso", "tx_add",
     lambda real: lambda T, u, v: u,
     "kl(multiset(nat))", ("homset-agrees",), "kl-identity"),
    ("kleisli-iso", "kl_compose", components_reversed,
     "kl(multiset(gaussian))", ("kl-assoc", "kl-identity", "biproduct-eqs"),
     "theta-tuple"),
    ("kleisli-iso", "kl_tensor",
     lambda real: lambda f, g: real(g, f),
     "kl(multiset(gaussian))", ("theta-tensor",), "theta-tuple"),
    ("kleisli-iso", "mat_dagger",
     lambda real: lambda f: real(transposed(f)),
     "kl(multiset(gaussian))", ("theta-dagger",), "theta-compose"),
    ("adjunction-roundtrips", "generic_strength",
     lambda real: lambda T, u, y: T.unit(Pair(STAR, y)),
     "adjunction(nat)", ("mon-e-roundtrip",), "mat-h-roundtrip"),
    ("adjunction-roundtrips", "scalar_action",
     lambda real: lambda T, s, u: u,
     "adjunction(nat)", ("srng-e-roundtrip", "srng-e-natural", "srng-e-involutive"),
     "mon-e-roundtrip"),
    ("adjunction-roundtrips", "mat_cotuple",
     lambda real: lambda f, g: real(g, f),
     "adjunction(nat)", ("mat-h-roundtrip", "mat-h-natural", "mat-h-involutive"),
     "srng-e-roundtrip"),
]

# Laws of the goldens that no row above kills yet, per suite.
UNKILLED = {
    "additivity": (
        "bc-monad-map", "bc-mu-left", "bc-mu-right", "bc-strength", "bc-swap",
        "module-assoc", "module-dist-value", "module-unit",
    ),
    "adjunction-roundtrips": (),
    "commutativity": (),
    "dagger": (),
    "freetheory": (
        "relation-sound",
    ),
    "kleisli-iso": (),
    "matcat-laws": (),
    "monad-laws": (),
}


def _row_id(row):
    return f"{row[0]}-{row[1]}-{'+'.join(row[4])}"


@pytest.mark.parametrize("row", MUTANTS, ids=_row_id)
def test_mutant_is_killed(monkeypatch, row):
    suite, name, mutant, subject, fails, keeps = row
    monkeypatch.setattr(adjunctions, name, mutant(getattr(adjunctions, name)))
    report = run_suite(SuiteConfig(suite=suite, seed=SEED, cases=CASES))
    verdicts = {(e[0], e[1]): e[2] for e in report.entries}
    for law in fails:
        assert verdicts[(subject, law)] is False, law
    kept = [ok for (_, law), ok in verdicts.items() if law == keeps]
    assert kept and all(kept)


def _golden_laws() -> dict:
    laws = {}
    for suite in SUITE_NAMES:
        text = (GOLDENS / f"laws-{suite}.out").read_text()
        laws[suite] = {
            line.split(" :: ")[1] for line in text.splitlines() if " :: " in line
        }
    return laws


def test_unkilled_list_is_every_law_minus_the_killed_ones():
    laws = _golden_laws()
    assert sum(len(v) for v in laws.values()) == 78
    assert len(set().union(*laws.values())) == 77
    killed = {(row[0], law) for row in MUTANTS for law in row[4]}
    for suite in SUITE_NAMES:
        expected = laws[suite] - {law for s, law in killed if s == suite}
        assert sorted(UNKILLED[suite]) == sorted(expected), suite


def test_an_enumerated_law_fails_at_its_first_failing_case(monkeypatch):
    real = adjunctions.mat_compose
    monkeypatch.setattr(adjunctions, "mat_compose", lambda a, b: transposed(real(a, b)))
    report = run_suite(SuiteConfig(suite="matcat-laws", seed=SEED, cases=CASES))
    details = {(e[0], e[1]): e[3] for e in report.entries}
    assert details[("mat(nat)", "biproduct-delta")] == "0\n1"
    assert details[("mat(nat)", "compose-oracle")] == (
        "[[7,1],[2,0],[0,2],[3,7]]\n[[0,2,3,2],[7,1,7,3]]"
    )
