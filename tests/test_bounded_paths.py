"""Bounded-hop path sums against oracles written independently of the
matrix kernels, plus a count of compositions that guards the doubling."""

import math
import random
from fractions import Fraction

import pytest

import semicat.cli as cli
from semicat.algebra import NAT, RATNN, nat, rational, tropical
from semicat.cli import GraphSpec, bounded_paths, graph_matrix
from semicat.matcat import Matrix


def min_plus_oracle(weights, hops):
    """Cheapest walks of at most ``hops`` edges, by the plain hop loop
    D <- I + D W over lists of ints, with ``None`` for no path. It stops
    once a hop leaves D unchanged: D then stays fixed for every later hop."""
    n = len(weights)
    dist = [[0 if i == j else None for j in range(n)] for i in range(n)]
    for _ in range(hops):
        nxt = []
        for i in range(n):
            row = []
            for j in range(n):
                best = 0 if i == j else None
                for k in range(n):
                    if dist[i][k] is None or weights[k][j] is None:
                        continue
                    cost = dist[i][k] + weights[k][j]
                    if best is None or cost < best:
                        best = cost
                row.append(best)
            nxt.append(row)
        if nxt == dist:
            break
        dist = nxt
    return dist


def tropical_matrix(weights):
    edges = tuple(
        (i, j, tropical(w))
        for i, row in enumerate(weights)
        for j, w in enumerate(row)
        if w is not None
    )
    return graph_matrix(GraphSpec(len(weights), edges))


def payloads(m):
    return [[m.entry(i, j).payload for j in range(m.cols)] for i in range(m.rows)]


def random_weights(rng, n, density):
    return [
        [rng.randint(-4, 9) if rng.random() < density else None for _ in range(n)]
        for _ in range(n)
    ]


def test_tropical_sums_match_the_hop_loop():
    rng = random.Random(2024)
    for _ in range(250):
        n = rng.randint(1, 6)
        hops = rng.randint(0, 70)
        weights = random_weights(rng, n, rng.random())
        got = payloads(bounded_paths(tropical_matrix(weights), hops))
        assert got == min_plus_oracle(weights, hops), (weights, hops)


@pytest.mark.parametrize("n", range(1, 7))
def test_negative_cycles_and_hops_far_beyond_n(n):
    # A ring 0 -> 1 -> ... -> n-1 -> 0 of total weight -1, plus a chord
    # when there is room: every walk gets cheaper by going round once more.
    weights = [[None] * n for _ in range(n)]
    for i in range(n):
        weights[i][(i + 1) % n] = -n if i == n - 1 else 1
    if n > 2:
        weights[0][n // 2] = 2
    for hops in (0, 1, n, n + 1, 2 * n + 3, 37, 64, 70):
        got = payloads(bounded_paths(tropical_matrix(weights), hops))
        assert got == min_plus_oracle(weights, hops), (n, hops)


def power_sum_oracle(values, hops, zero, one):
    """a^0 + a^1 + ... + a^hops by triple-loop products over plain numbers."""
    n = len(values)
    power = [[one if i == j else zero for j in range(n)] for i in range(n)]
    total = [row[:] for row in power]
    for _ in range(hops):
        power = [
            [sum((power[i][k] * values[k][j] for k in range(n)), zero) for j in range(n)]
            for i in range(n)
        ]
        total = [[total[i][j] + power[i][j] for j in range(n)] for i in range(n)]
    return total


@pytest.mark.parametrize(
    "S, make, draw, zero, one",
    [
        (NAT, nat, lambda rng: rng.randint(0, 3), 0, 1),
        (
            RATNN,
            rational,
            lambda rng: Fraction(rng.randint(0, 3), rng.randint(1, 4)),
            Fraction(0),
            Fraction(1),
        ),
    ],
    ids=["nat", "ratnn"],
)
def test_generic_semiring_sums_match_the_power_sum(S, make, draw, zero, one):
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        hops = rng.randint(0, 12)
        values = [[draw(rng) for _ in range(n)] for _ in range(n)]
        a = Matrix(S, n, n, tuple(make(v) for row in values for v in row))
        got = payloads(bounded_paths(a, hops))
        assert got == power_sum_oracle(values, hops, zero, one), (values, hops)


def count_composes(monkeypatch):
    calls = []
    original = cli.mat_compose

    def counted(g, h):
        calls.append(None)
        return original(g, h)

    monkeypatch.setattr(cli, "mat_compose", counted)
    return calls


def test_negative_cycle_costs_logarithmic_compositions(monkeypatch):
    weights = [[None, 2, None], [None, None, -1], [-3, None, 4]]
    hops = 200_000
    calls = count_composes(monkeypatch)
    far = bounded_paths(tropical_matrix(weights), hops)
    assert len(calls) <= 4 * math.ceil(math.log2(hops + 2))
    # Each round of the 3-edge cycle costs -2, so the cheapest walk from 0
    # back to 0 goes round as often as the hop budget allows.
    assert far.entry(0, 0) == tropical(-2 * (hops // 3))
    near = payloads(bounded_paths(tropical_matrix(weights), 5000))
    assert near == min_plus_oracle(weights, 5000)


def test_nonnegative_graph_stops_at_its_fixpoint(monkeypatch):
    weights = [[None, 4, 9], [None, 1, 2], [3, None, None]]
    calls = count_composes(monkeypatch)
    got = payloads(bounded_paths(tropical_matrix(weights), 200_000))
    assert len(calls) <= 8
    # The oracle stops at the same fixpoint, so 5000 hops are as many as
    # 200000 for it.
    assert got == min_plus_oracle(weights, 5000)
