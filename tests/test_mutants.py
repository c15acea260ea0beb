"""The law suites can fail: a table of mutants of the law layer.

Each row replaces one name with a broken version, runs one suite at the
golden seed and case count, and checks that the named laws report FAIL for
the named subject while a law the mutant cannot touch still passes
everywhere, so a mutant cannot pass by crashing the suite. A bare name is
one in the ``semicat.adjunctions`` namespace (a function the suites call, or
a monad class they instantiate); a dotted name such as ``matcat._direct`` or
``algebra.Scalar.__eq__`` is an attribute reached from that module of
``semicat``, so a row can break a kernel or a scalar operation that the
suites reach only through other modules.

Every (suite, law) pair of the goldens is killed by some row, and a test
keeps it so: a new law needs a mutant that fails it.
"""

import importlib
from dataclasses import replace
from pathlib import Path

import pytest

import semicat.adjunctions as adjunctions
from semicat.adjunctions import SUITE_NAMES, SuiteConfig, run_suite
from semicat.algebra import Scalar
from semicat.kleisli import KleisliMap
from semicat.matcat import Aleph0Map, Matrix
from semicat.monadcore import (
    STAR,
    Inr,
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


def last_entry_dropped(real):
    """``real``, dropping the last entry of a result with two or more."""

    def mutant(*args):
        out = real(*args)
        return Multiset(out.semiring, out.entries[:-1] or out.entries)

    return mutant


class LastEntryDropped(MultisetMonad):
    """fmap that drops the last entry of a result with two or more."""

    fmap = last_entry_dropped(MultisetMonad.fmap)


class InvolutionLastEntryDropped(MultisetMonad):
    """involution that drops the last entry of a result with two or more."""

    involution = last_entry_dropped(MultisetMonad.involution)


class BcHalvesSwapped(MultisetMonad):
    """bc that returns the right half first."""

    def bc(self, u):
        left, right = super().bc(u)
        return right, left


class RightHalfStarred(MultisetMonad):
    """bc that stars every multiplicity of the right half, over a semiring
    with a star."""

    def bc(self, u):
        left, right = super().bc(u)
        S = self.semiring
        if S.star is None:
            return left, right
        return left, ms_from_pairs(S, [(x, S.star(s)) for x, s in right.entries])


def first_entry_only(real):
    """The action ``real`` on the first entry of a value, the rest left
    unscaled."""

    def action(T, s, u):
        head = real(T, s, Multiset(u.semiring, u.entries[:1]))
        return ms_from_pairs(u.semiring, [*head.entries, *u.entries[1:]])

    return action


def right_factor_ignored(real):
    """eval_at_one with a multiplication that returns its left factor."""

    def evaluation(T):
        return replace(real(T), mul=lambda s, t: s)

    return evaluation


def keyed_on_first_argument(real):
    """``real``, a builder of a semiring or monoid of values (eval_at_one,
    or mat-h's remembered hom-set semiring), whose addition and
    multiplication remember each result by their first argument alone."""

    def evaluation(T):
        E = real(T)

        def first_only(op):
            results = {}
            return lambda a, b: results[a] if a in results else results.setdefault(a, op(a, b))

        return replace(E, add=first_only(E.add), mul=first_only(E.mul))

    return evaluation


def keyed_on_first_summand(real):
    """tx_add that remembers each sum by the monad and its first summand
    alone."""
    results = {}

    def add(T, u, v):
        if (T, u) not in results:
            results[T, u] = real(T, u, v)
        return results[T, u]

    return add


class OneOuterEntryUnscaled(MultisetMonad):
    """mult that returns the inner value of a one-entry value unscaled."""

    def mult(self, u):
        self.check_value(u)
        if len(u.entries) == 1:
            return u.entries[0][0]
        return super().mult(u)


def inr_pairs_dropped(real):
    """The strength ``real``, dropping each pair whose left element is an Inr."""

    def strength(T, u, y):
        out = real(T, u, y)
        kept = tuple((p, s) for p, s in out.entries if not isinstance(p.left, Inr))
        return Multiset(out.semiring, kept)

    return strength


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


def targets_shifted(real):
    """``real`` on the function that sends each argument one target further
    along, cyclically."""

    def embed(f, S):
        return real(Aleph0Map(f.dom, f.cod, tuple((x + 1) % f.cod for x in f.table)), S)

    return embed


def homset_without_one(real):
    def homset(S):
        H = real(S)
        return replace(H, one=H.zero)

    return homset


def last_product_dropped(real):
    """The direct compose with the last product of each entry left out: the
    left factor's last column is replaced by zero, which each product with
    it absorbs."""

    def direct(k, a, b, n, m, p):
        return real(k, [k.zero if i % m == m - 1 else x for i, x in enumerate(a)], b, n, m, p)

    return direct


def real_part_only(real):
    """Scalar equality that compares only the real parts of two gaussians,
    so that i equals zero and an entry of multiplicity i is dropped."""

    def eq(self, other):
        if isinstance(other, Scalar) and self.tag == other.tag == "gaussian":
            return self.payload[0] == other.payload[0]
        return real(self, other)

    return eq


def zero_entries_kept(real):
    """The multiset sampler that keeps the entries whose scalar is zero."""

    def sample(rng, S, xs, max_support=4):
        never = replace(S, zero=object())
        return Multiset(S, real(rng, never, xs, max_support).entries)

    return sample


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
     lambda real: OneOuterEntryUnscaled,
     "multiset(nat)", ("mult-unit-right", "mult-assoc"), "mult-unit-left"),
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
    ("additivity", "MultisetMonad",
     lambda real: RightHalfStarred,
     "multiset(gaussian)", ("bc-mu-left", "bc-mu-right", "bc-swap"), "bc-natural"),
    ("additivity", "scalar_action", last_entry_dropped,
     "multiset(nat)", ("module-unit",), "module-zero-value"),
    ("additivity", "generic_strength", inr_pairs_dropped,
     "multiset(nat)", ("bc-strength",), "bc-natural"),
    ("additivity", "scalar_action", first_entry_only,
     "multiset(nat)", ("module-dist-value", "module-dist-scalar"), "module-unit"),
    ("additivity", "eval_at_one", right_factor_ignored,
     "multiset(gaussian)", ("module-assoc",), "module-unit"),
    ("additivity", "ms_map_scalars", last_entry_dropped,
     "multiset(gaussian)", ("bc-monad-map",), "bc-natural"),
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
    ("freetheory", "aleph0_embed", targets_shifted,
     "terms(gaussian)", ("relation-sound",), "unit-agrees"),
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
    ("adjunction-roundtrips", "eval_at_one", keyed_on_first_argument,
     "adjunction(nat)", ("srng-e-roundtrip", "srng-e-natural", "mon-e-roundtrip"),
     "mat-h-roundtrip"),
    ("adjunction-roundtrips", "_homset", keyed_on_first_argument,
     "adjunction(nat)", ("mat-h-roundtrip", "mat-h-natural", "mat-h-involutive"),
     "srng-e-roundtrip"),
    ("adjunction-roundtrips", "tx_add", keyed_on_first_summand,
     "adjunction(nat)", ("srng-e-roundtrip", "srng-e-natural", "srng-e-involutive"),
     "mat-h-roundtrip"),
    ("adjunction-roundtrips", "mat_cotuple",
     lambda real: lambda f, g: real(g, f),
     "adjunction(nat)", ("mat-h-roundtrip", "mat-h-natural", "mat-h-involutive"),
     "srng-e-roundtrip"),
    ("matcat-laws", "matcat._direct", last_product_dropped,
     "mat(nat)",
     ("compose-oracle", "identity-neutral", "biproduct-delta", "homset-agrees",
      "embed-functorial", "tensor-distributes"),
     "tensor-symmetry"),
    ("adjunction-roundtrips", "algebra.Scalar.__eq__", real_part_only,
     "adjunction(gaussian)",
     ("srng-e-roundtrip", "srng-e-natural", "srng-e-involutive", "mon-e-roundtrip"),
     "mat-h-roundtrip"),
    ("additivity", "random_multiset", zero_entries_kept,
     "multiset(nat)", ("bc-assoc", "bc-rho", "value-add-unit"), "bc-roundtrip-fwd"),
]

def _row_id(row):
    return f"{row[0]}-{row[1]}-{'+'.join(row[4])}"


def _owner(name: str) -> tuple:
    """The object that holds the patched name, and the attribute's name."""
    path = name.split(".") if "." in name else ["adjunctions", name]
    owner = importlib.import_module(f"semicat.{path[0]}")
    for part in path[1:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


@pytest.mark.parametrize("row", MUTANTS, ids=_row_id)
def test_mutant_is_killed(monkeypatch, row):
    suite, name, mutant, subject, fails, keeps = row
    owner, attr = _owner(name)
    monkeypatch.setattr(owner, attr, mutant(getattr(owner, attr)))
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


def test_every_golden_law_is_killed_by_some_row():
    laws = _golden_laws()
    assert sum(len(v) for v in laws.values()) == 78
    assert len(set().union(*laws.values())) == 77
    killed = {(row[0], law) for row in MUTANTS for law in row[4]}
    for suite in SUITE_NAMES:
        unkilled = laws[suite] - {law for s, law in killed if s == suite}
        assert not unkilled, (suite, sorted(unkilled))


def test_an_enumerated_law_fails_at_its_first_failing_case(monkeypatch):
    real = adjunctions.mat_compose
    monkeypatch.setattr(adjunctions, "mat_compose", lambda a, b: transposed(real(a, b)))
    report = run_suite(SuiteConfig(suite="matcat-laws", seed=SEED, cases=CASES))
    details = {(e[0], e[1]): e[3] for e in report.entries}
    assert details[("mat(nat)", "biproduct-delta")] == "0\n1"
    assert details[("mat(nat)", "compose-oracle")] == (
        "[[7,1],[2,0],[0,2],[3,7]]\n[[0,2,3,2],[7,1,7,3]]"
    )
