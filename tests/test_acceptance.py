"""Full-scale checks of every advertised guarantee.

Each test here drives a law suite at its published sampling scale or
recomputes a result against an oracle written from scratch in this file.
The whole module is expected to stay well under a minute.
"""

import random
from pathlib import Path

from semicat.adjunctions import ADJUNCTION_NAMES, SuiteConfig, run_roundtrip, run_suite
from semicat.algebra import SEMIRINGS, canonical_from_nat, tropical
from semicat.cli import bounded_paths, graph_matrix, main, parse_graph_text
from semicat.matcat import Matrix, homset_semiring, mat_compose, matrix
from semicat.monadcore import (
    MultisetMonad,
    STAR,
    eval_at_one,
    generic_strength,
    ms_from_pairs,
    multiplicity,
)
from semicat.sampling import scalar_pool

FIXTURES = Path(__file__).parent / "fixtures"

MONAD_SUBJECTS = {
    "multiset(nat)",
    "multiset(bool)",
    "multiset(tropical)",
    "multiset(ratnn)",
    "multiset(gaussian)",
    "action(nat-mul)",
    "action(free-words)",
}


def entry_index(report):
    idx = {}
    for subject, law, ok, detail in report.entries:
        idx[(subject, law)] = (ok, detail)
    return idx


def laws_of(report):
    return {law for _, law, _, _ in report.entries}


def subjects_of(report):
    return {subject for subject, _, _, _ in report.entries}


def test_c01_monad_laws_at_scale():
    report = run_suite(SuiteConfig(suite="monad-laws", seed=11, cases=200))
    assert report.ok, report.render()
    assert subjects_of(report) == MONAD_SUBJECTS
    assert laws_of(report) == {
        "fmap-identity",
        "fmap-compose",
        "unit-natural",
        "mult-natural",
        "mult-unit-left",
        "mult-unit-right",
        "mult-assoc",
        "strength-unit",
        "strength-mult",
        "strength-point",
    }
    assert len(report.entries) == 70


def test_c02_additivity_at_scale():
    report = run_suite(SuiteConfig(suite="additivity", seed=12, cases=200))
    assert report.ok, report.render()
    assert {
        "bc-roundtrip-fwd",
        "bc-roundtrip-inv",
        "initial-singleton",
        "bc-natural",
        "bc-monad-map",
        "bc-rho",
        "bc-swap",
        "bc-assoc",
        "bc-eta",
        "bc-mu-left",
        "bc-mu-right",
        "bc-strength",
    } <= laws_of(report)
    assert {f"multiset({name})" for name in SEMIRINGS} <= subjects_of(report)


def test_c03_commutativity_and_the_counterexample():
    report = run_suite(SuiteConfig(suite="commutativity", seed=13, cases=200))
    assert report.ok, report.render()
    idx = entry_index(report)
    for name in SEMIRINGS:
        assert idx[(f"multiset({name})", "dst-composites-agree")][0]
        assert idx[(f"multiset({name})", "dst-direct-agrees")][0]
    assert idx[("action(nat-mul)", "dst-composites-agree")][0]
    ok, detail = idx[("action(free-words)", "noncommutativity-witnessed")]
    assert ok
    assert "strength-first" in detail


def test_c04_scalar_extraction_is_an_isomorphism():
    for S in SEMIRINGS.values():
        T = MultisetMonad(S)
        E = eval_at_one(T)
        pool = scalar_pool(S)

        def to_e(s, S=S):
            return ms_from_pairs(S, [(STAR, s)])

        def from_e(phi):
            return multiplicity(phi, STAR)

        def generic_mul(u, v, T=T):
            paired = generic_strength(T, u, v)
            return T.mult(T.fmap(lambda p: p.right, paired))

        def generic_add(u, v, T=T):
            return T.fmap(lambda e: e.value, T.bc_inv(u, v))

        assert from_e(E.zero) == S.zero
        assert from_e(E.one) == S.one
        for a in pool:
            assert from_e(to_e(a)) == a
            for b in pool:
                got_mul = E.mul(to_e(a), to_e(b))
                assert got_mul == generic_mul(to_e(a), to_e(b))
                assert from_e(got_mul) == S.mul(a, b)
                got_add = E.add(to_e(a), to_e(b))
                assert got_add == generic_add(to_e(a), to_e(b))
                assert from_e(got_add) == S.add(a, b)
            if S.star is not None:
                assert from_e(E.star(to_e(a))) == S.star(a)


def test_c05_module_laws_at_scale():
    report = run_suite(SuiteConfig(suite="additivity", seed=15, cases=200))
    idx = entry_index(report)
    module_laws = (
        "module-unit",
        "module-assoc",
        "module-dist-value",
        "module-dist-scalar",
        "module-zero-scalar",
        "module-zero-value",
    )
    for name in SEMIRINGS:
        for law in module_laws:
            ok, detail = idx[(f"multiset({name})", law)]
            assert ok, f"{name} {law}: {detail}"


def test_c06_matrix_category_and_the_naive_compose_oracle():
    report = run_suite(SuiteConfig(suite="matcat-laws", seed=16, cases=100))
    assert report.ok, report.render()
    assert {
        "compose-assoc",
        "identity-neutral",
        "compose-oracle",
        "biproduct-delta",
        "tuple-recovery",
        "cotuple-recovery",
        "tensor-functorial",
        "tensor-identity",
        "tensor-unit",
        "tensor-symmetry",
        "tensor-distributes",
        "embed-functorial",
        "homset-agrees",
        "add-entrywise",
    } <= laws_of(report)

    rng = random.Random(1606)
    for S in SEMIRINGS.values():
        pool = scalar_pool(S)
        for _ in range(100):
            n, k, m = (rng.randint(0, 4) for _ in range(3))
            g = Matrix(S, n, k, tuple(rng.choice(pool) for _ in range(n * k)))
            h = Matrix(S, k, m, tuple(rng.choice(pool) for _ in range(k * m)))
            slow = []
            for i in range(n):
                for j in range(m):
                    acc = S.zero
                    for t in range(k):
                        acc = S.add(acc, S.mul(g.entry(i, t), h.entry(t, j)))
                    slow.append(acc)
            assert mat_compose(g, h) == Matrix(S, n, m, tuple(slow))


def test_c07_dagger_laws_at_scale():
    report = run_suite(SuiteConfig(suite="dagger", seed=17, cases=100))
    assert report.ok, report.render()
    assert laws_of(report) == {
        "dagger-involutive",
        "dagger-contravariant",
        "dagger-tensor",
        "dagger-structural",
    }
    assert subjects_of(report) == {"mat(gaussian)"}


def test_c08_matrix_presentation_is_an_isomorphism():
    report = run_suite(SuiteConfig(suite="kleisli-iso", seed=18, cases=100))
    assert report.ok, report.render()
    assert {
        "xi-theta-id",
        "theta-xi-id",
        "theta-compose",
        "theta-structural",
        "theta-tuple",
        "theta-cotuple",
        "theta-tensor",
        "theta-dagger",
        "biproduct-eqs",
        "homset-agrees",
    } <= laws_of(report)


def test_c09_free_theory_at_scale():
    report = run_suite(SuiteConfig(suite="freetheory", seed=19, cases=200))
    assert report.ok, report.render()
    assert {
        "relation-sound",
        "unit-agrees",
        "mult-agrees",
        "involution-agrees",
        "unit-functor-id",
        "unit-functor-compose",
        "unit-functor-coproj",
    } <= laws_of(report)


def test_c10_adjunction_roundtrips():
    report = run_suite(SuiteConfig(suite="adjunction-roundtrips", seed=20, cases=100))
    assert report.ok, report.render()
    for adjunction in ADJUNCTION_NAMES:
        for name in SEMIRINGS:
            sub = run_roundtrip(adjunction, name)
            assert sub.ok, sub.render()
    involutive = run_roundtrip("srng-e", "gaussian", involutive=True)
    assert involutive.ok, involutive.render()
    assert "srng-e-involutive" in laws_of(involutive)
    involutive = run_roundtrip("mat-h", "gaussian", involutive=True)
    assert involutive.ok, involutive.render()
    assert "mat-h-involutive" in laws_of(involutive)


def brute_force_distances(spec, hops):
    adjacency = {}
    for src, dst, w in spec.edges:
        adjacency.setdefault(src, []).append((dst, w.payload))
    best = {}

    def explore(start, node, cost, remaining):
        key = (start, node)
        if key not in best or cost < best[key]:
            best[key] = cost
        if remaining == 0:
            return
        for nxt, w in adjacency.get(node, ()):
            explore(start, nxt, cost + w, remaining - 1)

    for start in range(spec.nodes):
        explore(start, start, 0, hops)
    return best


def test_c11_bounded_paths_match_exhaustive_enumeration():
    rng = random.Random(1101)
    for _ in range(20):
        n = rng.randint(1, 5)
        hops = rng.randint(0, 4)
        lines = [str(n)]
        for _ in range(rng.randint(0, 2 * n)):
            lines.append(
                f"{rng.randrange(n)} {rng.randrange(n)} {rng.randint(-3, 9)}"
            )
        spec = parse_graph_text("\n".join(lines) + "\n")
        got = bounded_paths(graph_matrix(spec), hops)
        best = brute_force_distances(spec, hops)
        for i in range(n):
            for j in range(n):
                expected = best.get((i, j))
                want = tropical(None) if expected is None else tropical(expected)
                assert got.entry(i, j) == want, (lines, hops, i, j)


def test_c11_golden_outputs_are_stable(capsys):
    cases = (
        ("cycle3.graph", "2", "cycle3_k2.out"),
        ("line4.graph", "3", "line4_k3.out"),
    )
    for graph, hops, out in cases:
        code = main(
            ["shortest-path", "--graph", str(FIXTURES / graph), "--max-hops", hops]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == (FIXTURES / out).read_text()
        assert captured.err == ""


def test_c12_single_entry_homset_is_the_scalar_semiring():
    for S in SEMIRINGS.values():
        H = homset_semiring(S)
        pool = scalar_pool(S)

        def box(s, S=S):
            return Matrix(S, 1, 1, (s,))

        def unbox(f):
            return f.entry(0, 0)

        delta = matrix(S, [[S.one, S.one]])
        nabla = matrix(S, [[S.one], [S.one]])
        assert unbox(H.zero) == S.zero
        assert unbox(H.one) == S.one
        for a in pool:
            assert unbox(box(a)) == a
            if S.star is not None:
                assert H.star(box(a)) == box(S.star(a))
            for b in pool:
                block = matrix(S, [[a, S.zero], [S.zero, b]])
                composite = mat_compose(mat_compose(delta, block), nabla)
                got = H.add(box(a), box(b))
                assert got == composite
                assert unbox(got) == S.add(a, b)
                assert unbox(H.mul(box(a), box(b))) == S.mul(a, b)
