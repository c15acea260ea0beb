"""Bounded-hop path sums against two kinds of oracle: hop loops written
independently of the matrix kernels, and Mohri's doubling over matrices,
a reference for any semiring. Counts guard the work: payload products in
the squaring of I + A and pivots in its closure. A semiring whose
addition is not idempotent is rejected, so its sums are checked on the
doubling alone."""

import math
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semicat.cli as cli
from semicat.algebra import (
    BOOL,
    GAUSSIAN,
    NAT,
    RATNN,
    SemiringDescriptor,
    boolean,
    gaussian,
    nat,
    rational,
    tropical,
)
from semicat.cli import GraphSpec, bounded_paths, graph_matrix
from semicat.errors import DimensionMismatch, NotIdempotent
from semicat.matcat import _KERNELS, Matrix, mat_add, mat_compose, mat_identity


def _doubling_paths(a: Matrix, hops: int) -> Matrix:
    """S_h for any semiring, doubling over the bits of ``hops + 1`` as in
    Mohri's generic semiring shortest-distance framework: each bit after
    the first doubles the sum, S_(2k+1) = S_k + a^(k+1) S_k, and a 1 bit
    then appends the next power, S_(k+1) = S_k + a^(k+1). Before each level
    it stops when I + a S_k = S_k: the left side is S_(k+1), so by
    distributivity every later sum repeats, in any semiring. At most four
    compositions per bit, so the cost is O(n^3 log hops).
    """
    eye = mat_identity(a.semiring, a.rows)
    acc, power = eye, a  # acc = S_k, power = a^(k+1), starting at k = 0
    for bit in bin(hops + 1)[3:]:
        if mat_add(eye, mat_compose(a, acc)) == acc:
            break
        acc = mat_add(acc, mat_compose(power, acc))
        power = mat_compose(power, power)
        if bit == "1":
            acc = mat_add(acc, power)
            power = mat_compose(power, a)
    return acc


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
        got = payloads(_doubling_paths(a, hops))
        assert got == power_sum_oracle(values, hops, zero, one), (values, hops)


@pytest.mark.parametrize(
    "a",
    [
        Matrix(NAT, 2, 2, tuple(nat(v) for v in (0, 1, 2, 0))),
        Matrix(RATNN, 1, 1, (rational(Fraction(1, 2)),)),
        Matrix(GAUSSIAN, 1, 1, (gaussian(1, 1),)),
    ],
    ids=["nat", "ratnn", "gaussian"],
)
@pytest.mark.parametrize("hops", [0, 1, 5])
def test_a_semiring_without_idempotent_addition_is_rejected(a, hops):
    with pytest.raises(NotIdempotent, match=a.semiring.name):
        bounded_paths(a, hops)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(cli, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(cli, name, counted)
    return calls


def count_composes(monkeypatch):
    return count_calls(monkeypatch, "mat_compose")


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


# ---------------------------------------------------------------------------
# Idempotent semirings: S_h = (I + A)^h by repeated squaring


def test_idempotent_squaring_composes_at_most_twice_per_bit(monkeypatch):
    weights = [[None, 2, None], [None, None, -1], [-3, None, 4]]
    hops = 200_000
    composes = count_composes(monkeypatch)
    adds = count_calls(monkeypatch, "mat_add")
    far = bounded_paths(tropical_matrix(weights), hops)
    assert len(composes) <= 2 * (hops.bit_length() - 1)
    assert len(adds) == 1  # B = I + A, once
    assert far.entry(0, 0) == tropical(-2 * (hops // 3))


def test_idempotent_squaring_stops_when_a_square_repeats(monkeypatch):
    weights = [[None, 4, 9], [None, 1, 2], [3, None, None]]
    calls = count_composes(monkeypatch)
    got = payloads(bounded_paths(tropical_matrix(weights), 200_000))
    assert len(calls) <= 3
    assert got == min_plus_oracle(weights, 5000)


def test_payload_squaring_multiplies_at_most_twice_per_bit(monkeypatch):
    weights = [[None, 2, None], [None, None, -1], [-3, None, 4]]
    hops = 200_000
    products = count_calls(monkeypatch, "_product")
    pivots = count_calls(monkeypatch, "_pivot")
    adds = count_calls(monkeypatch, "mat_add")
    far = bounded_paths(tropical_matrix(weights), hops)
    assert len(products) <= 2 * (hops.bit_length() - 1)
    assert len(adds) == 1  # B = I + A, once
    assert len(pivots) == 3  # the cycle shows at the last pivot's diagonal
    assert far.entry(0, 0) == tropical(-2 * (hops // 3))


def test_closure_takes_at_most_n_pivots_and_no_products(monkeypatch):
    weights = [[None, 4, 9], [None, 1, 2], [3, None, None]]
    products = count_calls(monkeypatch, "_product")
    pivots = count_calls(monkeypatch, "_pivot")
    got = payloads(bounded_paths(tropical_matrix(weights), 200_000))
    assert len(pivots) <= 3
    assert products == []
    assert got == min_plus_oracle(weights, 5000)


@pytest.mark.parametrize("hops", [-1, -3])
def test_a_negative_hop_bound_is_rejected(hops):
    weights = [[None, 2, None], [None, None, -1], [-3, None, 4]]
    with pytest.raises(ValueError):
        bounded_paths(tropical_matrix(weights), hops)
    with pytest.raises(ValueError):
        bounded_paths(Matrix(NAT, 1, 1, (nat(2),)), hops)


# Hop counts at and around powers of two, where the bits of hops change
# length or are all ones, plus any count up to a few hundred.
HOPS = st.one_of(
    st.sampled_from([0, 1] + [2**k + d for k in range(1, 9) for d in (-1, 0)]),
    st.integers(0, 300),
)


@st.composite
def parallel_edge_graphs(draw):
    """A graph spec whose edge list may repeat a (src, dst) pair with
    different weights, and the collapsed weights: the cheapest of each."""
    n = draw(st.integers(1, 6))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-6, 12)),
            max_size=3 * n * n,
        )
    )
    weights = [[None] * n for _ in range(n)]
    for src, dst, w in edges:
        if weights[src][dst] is None or w < weights[src][dst]:
            weights[src][dst] = w
    spec = GraphSpec(n, tuple((src, dst, tropical(w)) for src, dst, w in edges))
    return spec, weights


@st.composite
def long_path_graphs(draw):
    """A complete graph on n nodes whose edge i -> i+1 costs 1 and whose
    other edges cost at least twice their span |j - i|: the cheapest path
    from 0 to n - 1 is the chain, with n - 1 hops."""
    n = draw(st.integers(2, 9))
    extra = draw(st.lists(st.integers(0, 5), min_size=n * n, max_size=n * n))
    weights = [
        [
            1 if j == i + 1 else 2 * abs(j - i) + extra[i * n + j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return weights


def check_against_oracles(a, weights, hops):
    got = bounded_paths(a, hops)
    assert payloads(got) == min_plus_oracle(weights, hops)
    assert got == _doubling_paths(a, hops)
    return payloads(got)


@settings(max_examples=150, deadline=None)
@given(parallel_edge_graphs(), HOPS)
def test_squaring_matches_the_hop_loop_and_the_doubling(graph, hops):
    # Weights down to -6 give many graphs a negative cycle.
    spec, weights = graph
    check_against_oracles(graph_matrix(spec), weights, hops)


@settings(max_examples=40, deadline=None)
@given(long_path_graphs(), HOPS)
def test_squaring_on_dense_graphs_with_long_shortest_paths(weights, hops):
    n = len(weights)
    got = check_against_oracles(tropical_matrix(weights), weights, hops)
    if hops >= n - 1:
        assert got[0][n - 1] == n - 1


def reachable_oracle(adjacent, hops):
    """Whether j is reachable from i in at most ``hops`` edges, by a
    breadth-first search from each node that stops at depth ``hops``."""
    n = len(adjacent)
    table = []
    for src in range(n):
        depth = {src: 0}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            if depth[node] == hops:
                continue
            for nxt in range(n):
                if adjacent[node][nxt] and nxt not in depth:
                    depth[nxt] = depth[node] + 1
                    queue.append(nxt)
        table.append([j in depth for j in range(n)])
    return table


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    HOPS,
)
def test_bool_sums_are_reachability_within_the_hop_bound(adjacent, hops):
    n = len(adjacent)
    a = Matrix(BOOL, n, n, tuple(boolean(v) for row in adjacent for v in row))
    got = bounded_paths(a, hops)
    assert payloads(got) == reachable_oracle(adjacent, hops)
    assert got == _doubling_paths(a, hops)


# ---------------------------------------------------------------------------
# The choice between the closure (hops >= n - 1, no failed pivot) and the
# squaring, each case against the hop loop and the doubling


def steps(run):
    """The (pivots, payload products) that ``run()`` takes."""
    with pytest.MonkeyPatch.context() as mp:
        products = count_calls(mp, "_product")
        pivots = count_calls(mp, "_pivot")
        run()
    return len(pivots), len(products)


def tropical_steps(weights, hops):
    a = tropical_matrix(weights)
    return steps(lambda: check_against_oracles(a, weights, hops))


def test_a_zero_weight_cycle_takes_the_closure():
    # 0 -> 1 -> 2 -> 3 -> 0 weighs 0, and the cheapest path from 0 to 3 is
    # the chain of n - 1 hops, so hops = n - 2 falls short of it.
    weights = [
        [None, 1, None, 5],
        [None, None, 2, None],
        [None, None, None, -1],
        [-2, None, None, None],
    ]
    n = len(weights)
    assert tropical_steps(weights, n - 2)[0] == 0
    for hops in (n - 1, n, 1000):
        assert tropical_steps(weights, hops) == (n, 0), hops


def test_a_late_negative_cycle_falls_back_to_squaring():
    # Only the last two nodes form a negative cycle, which shows at the
    # last pivot, after n - 1 pivots have changed the rows.
    n = 5
    weights = [[None] * n for _ in range(n)]
    for i in range(n - 1):
        weights[i][i + 1] = 3
    weights[n - 1][n - 2] = -4
    weights[n - 1][0] = 1
    for hops in (n - 1, n, 37, 1000):
        pivots, products = tropical_steps(weights, hops)
        assert pivots == n and products > 0, hops


def test_a_negative_self_loop_fails_the_first_pivot():
    weights = [[-1, 2, None], [None, None, 3], [4, None, None]]
    for hops in (2, 3, 64):
        pivots, products = tropical_steps(weights, hops)
        assert pivots == 1 and products > 0, hops


@pytest.mark.parametrize("weights", [[], [[None]], [[2]], [[-2]]], ids=str)
@pytest.mark.parametrize("hops", [0, 1, 5])
def test_graphs_of_no_node_and_one_node(weights, hops):
    check_against_oracles(tropical_matrix(weights), weights, hops)


@pytest.mark.parametrize("hops", [1, 5])
def test_a_non_square_matrix_is_rejected(hops):
    a = Matrix(BOOL, 2, 3, tuple(boolean(v) for v in (1, 0, 1, 0, 1, 0)))
    with pytest.raises(DimensionMismatch):
        bounded_paths(a, hops)


# Widest paths: add = max and mul = min on 0..K. The descriptor is not a
# built-in, so the closure and the squaring run on the generic kernel.
K = 9
BOTTLENECK = SemiringDescriptor("bottleneck", max, 0, min, K)


def widest_oracle(widths, hops):
    """The widest walk of at most ``hops`` edges, by the plain hop loop."""
    n = len(widths)
    eye = [[K if i == j else 0 for j in range(n)] for i in range(n)]
    best = eye
    for _ in range(hops):
        best = [
            [
                max([eye[i][j]] + [min(best[i][k], widths[k][j]) for k in range(n)])
                for j in range(n)
            ]
            for i in range(n)
        ]
    return best


def test_widest_paths_take_the_generic_closure():
    assert BOTTLENECK not in _KERNELS
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 6)
        widths = [
            [rng.choice([0, rng.randint(1, K)]) for _ in range(n)] for _ in range(n)
        ]
        a = Matrix(BOTTLENECK, n, n, tuple(w for row in widths for w in row))

        def check(hops):
            got = bounded_paths(a, hops)
            assert [list(got.row(i)) for i in range(n)] == widest_oracle(widths, hops)
            assert got == _doubling_paths(a, hops)

        assert steps(lambda: check(n - 2))[0] == 0
        for hops in (n - 1, n + 3):
            assert steps(lambda: check(hops)) == (n, 0), (widths, hops)
