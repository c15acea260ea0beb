"""Bounded-hop path sums against two kinds of oracle: hop loops written
independently of the matrix kernels, and Mohri's doubling over matrices,
a reference for any semiring. Counts guard the work and show which
branch runs: relaxations over tropical, ``mat_compose`` calls in the
squaring of I + A and pivots in its closures. A semiring whose addition is
not idempotent is rejected, so its sums are checked on the doubling
alone."""

import math
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semicat.matcat as matcat
from semicat.algebra import (
    BOOL,
    GAUSSIAN,
    NAT,
    RATNN,
    SemiringDescriptor,
    TROPICAL,
    boolean,
    gaussian,
    nat,
    rational,
    tropical,
)
from semicat.cli import parse_graph_text
from semicat.errors import DimensionMismatch, NotIdempotent
from semicat.matcat import (
    _KERNELS,
    Matrix,
    bounded_paths,
    mat_add,
    mat_compose,
    mat_identity,
)
from test_kernels import LAYOUTS, record_layouts


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
    n = len(weights)
    return Matrix(TROPICAL, n, n, (tropical(w) for row in weights for w in row))


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
    original = getattr(matcat, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(matcat, name, counted)
    return calls


def count_pivots(mp):
    """Count the closure pivots ``bounded_paths`` takes, in either closure
    and over any semiring: the packed pivot and every pivot that
    ``_pivot_of`` builds are wrapped."""
    calls = []

    def counted(pivot):
        def step(rows, k):
            calls.append(k)
            return pivot(rows, k)

        return step

    pivot_of = matcat._pivot_of
    mp.setattr(matcat._PackedRows, "pivot", counted(matcat._PackedRows.pivot))
    mp.setattr(matcat, "_pivot_of", lambda *ops: counted(pivot_of(*ops)))
    return calls


def count_composes(monkeypatch):
    # The squaring's products, as bounded_paths calls them in matcat.
    return count_calls(monkeypatch, "mat_compose")


def force_closures(mp):
    """Route every tropical input of a node or more past relaxation, as the
    cost estimate routes a dense graph, so that the closures and the
    squaring can be pinned on graphs small enough to check by hand."""
    mp.setattr(matcat, "_RELAX_RATIO", -1)


@pytest.fixture
def closures_only(monkeypatch):
    force_closures(monkeypatch)


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


def bool_graph(n, edges):
    adjacent = [[(i, j) in edges for j in range(n)] for i in range(n)]
    return adjacent, Matrix(BOOL, n, n, tuple(boolean(v) for row in adjacent for v in row))


def test_nonnegative_graph_stops_at_its_fixpoint(monkeypatch):
    # Over tropical the squaring runs only after a negative cycle or a
    # failed hop bound, where B^k keeps changing; over bool it runs for
    # hops < n - 1. The chain 0 -> 1 -> 2 -> 3 among 10 nodes is all
    # reached in 3 hops: at 7 hops B^3 = B^2 B, then B^6 = B^3 stops the
    # squaring after 3 composes, where all the bits would take 4.
    adjacent, a = bool_graph(10, {(0, 1), (1, 2), (2, 3)})
    powerings = count_calls(monkeypatch, "_powering")
    calls = count_composes(monkeypatch)
    got = bounded_paths(a, 7)
    assert (len(powerings), len(calls)) == (1, 3)
    assert payloads(got) == reachable_oracle(adjacent, 7)


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
    # A 3-cycle among 40 nodes at 37 hops (0b100101): B^4 = B^2, so the
    # squaring stops after 2 composes, where all the bits would take 7.
    adjacent, a = bool_graph(40, {(0, 1), (1, 2), (2, 0)})
    powerings = count_calls(monkeypatch, "_powering")
    calls = count_composes(monkeypatch)
    got = bounded_paths(a, 37)
    assert (len(powerings), len(calls)) == (1, 2)
    assert payloads(got) == reachable_oracle(adjacent, 37)


def test_payload_squaring_multiplies_at_most_twice_per_bit(monkeypatch, closures_only):
    weights = [[None, 2, None], [None, None, -1], [-3, None, 4]]
    hops = 200_000
    products = count_calls(monkeypatch, "mat_compose")
    pivots = count_pivots(monkeypatch)
    adds = count_calls(monkeypatch, "mat_add")
    far = bounded_paths(tropical_matrix(weights), hops)
    assert len(products) <= 2 * (hops.bit_length() - 1)
    assert len(adds) == 1  # B = I + A, once
    assert len(pivots) == 3  # the cycle shows at the last pivot's diagonal
    assert far.entry(0, 0) == tropical(-2 * (hops // 3))


def test_relaxation_sees_the_negative_cycle_and_squares_with_no_pivot(monkeypatch):
    weights = [[None, 2, None], [None, None, -1], [-3, None, 4]]
    hops = 200_000
    relaxations = count_calls(monkeypatch, "_relaxation")
    products = count_calls(monkeypatch, "mat_compose")
    pivots = count_pivots(monkeypatch)
    adds = count_calls(monkeypatch, "mat_add")
    far = bounded_paths(tropical_matrix(weights), hops)
    assert len(relaxations) == 1
    assert 0 < len(products) <= 2 * (hops.bit_length() - 1)
    assert len(adds) == 1  # B = I + A, once, after the relaxation gave up
    assert pivots == []  # round n lowered a distance: no closure can pass
    assert far.entry(0, 0) == tropical(-2 * (hops // 3))


def test_closure_takes_at_most_n_pivots_and_no_products(monkeypatch, closures_only):
    weights = [[None, 4, 9], [None, 1, 2], [3, None, None]]
    products = count_calls(monkeypatch, "mat_compose")
    pivots = count_pivots(monkeypatch)
    got = payloads(bounded_paths(tropical_matrix(weights), 200_000))
    assert len(pivots) <= 3
    assert products == []
    assert got == min_plus_oracle(weights, 5000)


def test_relaxation_takes_no_pivot_and_no_product(monkeypatch):
    weights = [[None, 4, 9], [None, 1, 2], [3, None, None]]
    relaxations = count_calls(monkeypatch, "_relaxation")
    products = count_calls(monkeypatch, "mat_compose")
    adds = count_calls(monkeypatch, "mat_add")
    pivots = count_pivots(monkeypatch)
    got = payloads(bounded_paths(tropical_matrix(weights), 200_000))
    assert (len(relaxations), len(pivots), len(products), len(adds)) == (1, 0, 0, 0)
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
    """The text of a graph file whose edge lines may repeat a (src, dst)
    pair with different weights, and the collapsed weights: the cheapest
    of each."""
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
    text = "".join(f"{src} {dst} {w}\n" for src, dst, w in edges)
    return f"{n}\n{text}", weights


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
    text, weights = graph
    check_against_oracles(parse_graph_text(text), weights, hops)


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
# squaring, each case against the hop loop and the doubling. The cost
# estimate gives graphs this small to relaxation, so the tropical cases
# force the closures; the relaxation section below pins what it picks.


def steps(run):
    """The (pivots, matrix products) that ``run()`` takes in
    :func:`bounded_paths`."""
    with pytest.MonkeyPatch.context() as mp:
        products = count_calls(mp, "mat_compose")
        pivots = count_pivots(mp)
        run()
    return len(pivots), len(products)


def tropical_steps(weights, hops):
    a = tropical_matrix(weights)
    return steps(lambda: check_against_oracles(a, weights, hops))


def test_a_zero_weight_cycle_takes_the_closure(closures_only):
    # 0 -> 1 -> 2 -> 3 -> 0 weighs 0, and the cheapest path from 0 to 3 is
    # the chain of n - 1 hops, so hops = n - 2 falls short of it.
    weights = [
        [None, 1, None, 5],
        [None, None, 2, None],
        [None, None, None, -1],
        [-2, None, None, None],
    ]
    n = len(weights)
    a = tropical_matrix(weights)
    (closures, pivots, products), _ = route_steps(a, n - 2)
    assert (closures, pivots) == (1, n) and products > 0
    check_against_oracles(a, weights, n - 2)
    for hops in (n - 1, n, 1000):
        assert tropical_steps(weights, hops) == (n, 0), hops


def test_a_late_negative_cycle_falls_back_to_squaring(closures_only):
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


def test_a_negative_self_loop_fails_the_first_pivot(closures_only):
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


# ---------------------------------------------------------------------------
# Below n - 1 over tropical and past the estimate: the closure on (distance,
# hops) codes, with the squaring as its fallback when the hop bound binds or
# a cycle is negative. The closures are forced, as above.


def route_steps(a, hops):
    """(hop closures, pivots, matrix products) that ``bounded_paths(a,
    hops)`` takes, and its result. With no hop closure, every pivot is the
    plain closure's."""
    with pytest.MonkeyPatch.context() as mp:
        closures = count_calls(mp, "_hop_closure")
        pivots = count_pivots(mp)
        products = count_calls(mp, "mat_compose")
        got = bounded_paths(a, hops)
    return (len(closures), len(pivots), len(products)), got


def closure_rows(a):
    """The rows of B = I + a, as ``bounded_paths`` hands them to a closure."""
    n = a.rows
    base = mat_add(mat_identity(a.semiring, n), a).values
    return [list(base[i * n : (i + 1) * n]) for i in range(n)]


def fewest_hops_oracle(weights):
    """For each pair, (distance, fewest edges among the cheapest walks), or
    None when unreachable: the hop loop over pairs compared as tuples, run
    for n - 1 hops. Right only for a graph with no negative cycle, whose
    lexicographically least walks are simple."""
    n = len(weights)
    best = [[(0, 0) if i == j else None for j in range(n)] for i in range(n)]
    for _ in range(n - 1):
        best = [
            [
                min(
                    [best[i][j]]
                    + [
                        (best[i][k][0] + weights[k][j], best[i][k][1] + 1)
                        for k in range(n)
                        if best[i][k] is not None and weights[k][j] is not None
                    ],
                    key=lambda p: (p is None, p),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
    return best


def max_fewest_hops(weights):
    return max((p[1] for row in fewest_hops_oracle(weights) for p in row if p), default=0)


def chain_weights(n):
    """A complete graph whose edge i -> i+1 costs 1 and whose other edges
    cost 2n: the cheapest path from 0 to n - 1 is the chain, n - 1 hops."""
    return [[1 if j == i + 1 else 2 * n for j in range(n)] for i in range(n)]


def test_below_n_minus_1_one_hop_closure_and_no_squaring(closures_only):
    # Every edge costs 1, so every cheapest walk is one edge.
    n = 7
    weights = [[1] * n for _ in range(n)]
    for hops in range(1, n - 1):
        (closures, pivots, products), got = route_steps(tropical_matrix(weights), hops)
        assert (closures, pivots, products) == (1, n, 0), hops
        assert payloads(got) == min_plus_oracle(weights, hops)


def test_a_zero_weight_cycle_and_a_tie_take_the_hop_closure(closures_only):
    # 0 <-> 1 weighs 0 both ways, and 0 -> 3 costs 2 both directly and
    # through 2: the shorter walk wins each tie, so 1 -> 0 -> 3 is the
    # longest, and hops = 2 = n - 2 does not bind.
    weights = [
        [None, 0, 1, 2],
        [0, None, None, None],
        [None, None, None, 1],
        [None, None, None, None],
    ]
    assert max_fewest_hops(weights) == 2
    (closures, pivots, products), got = route_steps(tropical_matrix(weights), 2)
    assert (closures, pivots, products) == (1, len(weights), 0)
    assert payloads(got) == min_plus_oracle(weights, 2)


@pytest.mark.parametrize("n", [4, 6, 9])
def test_a_chain_of_n_minus_1_hops_is_the_encoding_boundary(closures_only, n):
    weights = chain_weights(n)
    a = tropical_matrix(weights)
    assert max_fewest_hops(weights) == n - 1
    # At n - 2 the bound binds: the hop closure runs and the squaring answers.
    (closures, pivots, products), _ = route_steps(a, n - 2)
    assert (closures, pivots) == (1, n)
    assert 0 < products <= 2 * ((n - 2).bit_length() - 1)
    check_against_oracles(a, weights, n - 2)
    # At n - 1 the plain closure runs instead, through the kernel's pivot.
    assert route_steps(a, n - 1)[0] == (0, n, 0)
    assert check_against_oracles(a, weights, n - 1)[0][n - 1] == n - 1
    rows = closure_rows(a)
    assert matcat._hop_closure(rows, n - 2) is None
    assert matcat._hop_closure(rows, n - 1) == [
        x for row in min_plus_oracle(weights, n - 1) for x in row
    ]


def test_a_negative_cycle_below_n_minus_1_falls_back_to_squaring(closures_only):
    n = 6
    weights = [[None] * n for _ in range(n)]
    for i in range(n):
        weights[i][(i + 1) % n] = 2
    weights[2][1] = -3  # 1 -> 2 -> 1 weighs -1
    for hops in (1, 2, 3, n - 2):
        (closures, pivots, products), _ = route_steps(tropical_matrix(weights), hops)
        # The hop closure alone pivots: the cycle shows at pivot 2.
        assert (closures, pivots) == (1, 3), hops
        assert products <= 2 * (hops.bit_length() - 1)
        check_against_oracles(tropical_matrix(weights), weights, hops)


@pytest.mark.parametrize("hops", range(0, 9))
def test_bool_and_bottleneck_never_take_the_hop_closure(monkeypatch, hops):
    closures = count_calls(monkeypatch, "_hop_closure")
    relaxations = count_calls(monkeypatch, "_relaxation")
    n = 7
    chain = [j == i + 1 for i in range(n) for j in range(n)]
    bools = Matrix(BOOL, n, n, tuple(boolean(e) for e in chain))
    widths = Matrix(BOTTLENECK, n, n, tuple(K if e else 0 for e in chain))
    assert bounded_paths(bools, hops) == _doubling_paths(bools, hops)
    assert bounded_paths(widths, hops) == _doubling_paths(widths, hops)
    assert closures == []
    assert relaxations == []


# Hop bounds spread around n - 1, the switch between the two closures.
NEAR_N = st.one_of(st.integers(-3, 2), st.integers(-3, 40))


@st.composite
def potential_graphs(draw):
    """A graph with no negative cycle but possibly negative edges: edge
    (i, j) costs c + p_i - p_j with c >= 0, so every cycle costs the sum of
    its c's, and c = 0 is common, which makes zero-weight cycles and ties."""
    n = draw(st.integers(0, 7))
    p = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    cells = draw(
        st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=n * n, max_size=n * n)
    )
    rows = [cells[i * n : (i + 1) * n] for i in range(n)]
    return [
        [None if c is None else c + p[i] - p[j] for j, c in enumerate(row)]
        for i, row in enumerate(rows)
    ]


@settings(max_examples=200, deadline=None)
@given(potential_graphs(), NEAR_N)
def test_no_negative_cycle_around_n_minus_1(weights, offset):
    n = len(weights)
    hops = max(0, n - 1 + offset)
    a = tropical_matrix(weights)
    # At most 7 nodes: relaxation answers, and with no negative cycle alone.
    steps_taken, got = relax_steps(a, hops)
    assert steps_taken == (int(hops > 0), 0, 0, 0)
    assert payloads(got) == min_plus_oracle(weights, hops)
    with pytest.MonkeyPatch.context() as mp:
        force_closures(mp)
        (closures, _, products), _ = route_steps(a, hops)
        check_against_oracles(a, weights, hops)
    if 0 < hops < n - 1:
        assert closures == 1
        rows = closure_rows(a)
        closed = matcat._hop_closure(rows, hops)
        if max_fewest_hops(weights) <= hops:
            assert products == 0
            assert closed == [p and p[0] for row in fewest_hops_oracle(weights) for p in row]
        else:
            assert closed is None
    else:
        assert closures == 0


@settings(max_examples=150, deadline=None)
@given(parallel_edge_graphs(), NEAR_N)
def test_negative_cycles_and_self_loops_around_n_minus_1(graph, offset):
    # Weights down to -6 give many graphs a negative cycle or self-loop.
    text, weights = graph
    n = len(weights)
    hops = max(0, n - 1 + offset)
    a = parse_graph_text(text)
    # At most 6 nodes: relaxation answers, and squares only for a negative
    # cycle past n hops.
    squares = hops > n and has_negative_cycle(weights)
    (relaxations, closures, pivots, products), _ = relax_steps(a, hops)
    assert (relaxations, closures, pivots) == (int(hops > 0), 0, 0)
    assert (products > 0) == squares
    assert products <= 2 * max(hops.bit_length() - 1, 0)
    check_against_oracles(a, weights, hops)
    with pytest.MonkeyPatch.context() as mp:
        force_closures(mp)
        (closures, pivots, products), _ = route_steps(a, hops)
        assert closures == (1 if 0 < hops < n - 1 else 0)
        assert pivots <= n
        assert products <= 2 * max(hops.bit_length() - 1, 0)
        check_against_oracles(a, weights, hops)


@pytest.mark.parametrize(
    "weights",
    [[], [[None]], [[0]], [[3]], [[-1]], [[None, 2], [-5, None]], [[None, 2], [1, -1]],
     [[0, 0], [0, 0]], [[None, -3], [4, None]]],
    ids=str,
)
@pytest.mark.parametrize("hops", [0, 1, 2, 3])
def test_graphs_of_at_most_two_nodes(weights, hops):
    check_against_oracles(tropical_matrix(weights), weights, hops)


# ---------------------------------------------------------------------------
# Hop-limited relaxation over tropical: what the cost estimate picks, just
# below and just above its threshold, and the relaxation against the hop
# loop and the doubling


def relax_steps(a, hops):
    """(relaxations, hop closures, pivots, matrix products) that
    ``bounded_paths(a, hops)`` takes, and its result."""
    with pytest.MonkeyPatch.context() as mp:
        relaxations = count_calls(mp, "_relaxation")
        closures = count_calls(mp, "_hop_closure")
        pivots = count_pivots(mp)
        products = count_calls(mp, "mat_compose")
        got = bounded_paths(a, hops)
    return (len(relaxations), len(closures), len(pivots), len(products)), got


def has_negative_cycle(weights):
    """Whether some cycle weighs below 0: then a simple one does, of at most
    n edges, and the hop loop finds it on the diagonal."""
    n = len(weights)
    return any(row[i] < 0 for i, row in enumerate(min_plus_oracle(weights, n)))


def edges_at(rng, n, m, weight):
    """An n-node table with exactly m finite entries, drawn by ``weight``."""
    cells = set(rng.sample(range(n * n), m))
    return [[weight() if i * n + j in cells else None for j in range(n)] for i in range(n)]


def test_the_estimate_is_m_min_h_n_against_eight_n_squared():
    assert matcat._RELAX_RATIO == 8
    relaxes = matcat._relaxes
    assert relaxes(10, 80, 10) and not relaxes(10, 81, 10)
    # Past n hops the estimate stops growing: relaxation caps at n rounds.
    assert relaxes(10, 80, 10**6) and not relaxes(10, 81, 10**6)
    assert relaxes(12, 144, 8) and not relaxes(12, 144, 9)
    assert relaxes(300, 1200, 300) and relaxes(0, 0, 7)
    assert not relaxes(150, 150 * 149, 50) and relaxes(150, 150 * 149, 5)


def test_a_sparse_graph_whose_bound_binds_takes_relaxation():
    rng = random.Random(30)
    n, hops = 30, 3
    weights = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in rng.sample(range(n), 3):
            weights[i][j] = rng.randint(1, 99)
    assert max_fewest_hops(weights) > hops  # the bound binds
    a = tropical_matrix(weights)
    steps_taken, got = relax_steps(a, hops)
    assert steps_taken == (1, 0, 0, 0)
    assert payloads(got) == min_plus_oracle(weights, hops)
    assert got == _doubling_paths(a, hops)


def test_a_dense_graph_keeps_the_closures():
    n = 12
    chain = chain_weights(n)  # complete: m = n^2, so the estimate is 8 n^2 at 8 hops
    a = tropical_matrix(chain)
    # At n - 1 hops the plain closure answers; at n - 2 the hop closure
    # fails on the chain's n - 1 hops and the squaring answers.
    assert relax_steps(a, n - 1)[0] == (0, 0, n, 0)
    (relaxations, closures, pivots, products), _ = relax_steps(a, n - 2)
    assert (relaxations, closures, pivots) == (0, 1, n) and products > 0
    check_against_oracles(a, chain, n - 2)
    check_against_oracles(a, chain, n - 1)
    # Every edge costs 1: the hop closure passes from 9 hops, above the
    # threshold, and relaxation answers at 8, on it.
    ones = [[1] * n for _ in range(n)]
    for hops, want in ((8, (1, 0, 0, 0)), (9, (0, 1, n, 0)), (10, (0, 1, n, 0))):
        steps_taken, got = relax_steps(tropical_matrix(ones), hops)
        assert steps_taken == want, hops
        assert payloads(got) == min_plus_oracle(ones, hops)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m, relaxes", [(80, True), (81, False)], ids=["at", "above"])
def test_just_below_and_just_above_the_threshold(seed, m, relaxes):
    # n = 10 at 10 hops: the estimate is m * 10 against 8 * 100.
    rng = random.Random(seed)
    n, hops = 10, 10
    weights = edges_at(rng, n, m, lambda: rng.randint(0, 20))
    a = tropical_matrix(weights)
    steps_taken, got = relax_steps(a, hops)
    # Weights >= 0: no cycle is negative, so the plain closure passes.
    assert steps_taken == ((1, 0, 0, 0) if relaxes else (0, 0, n, 0))
    assert payloads(got) == min_plus_oracle(weights, hops)
    assert got == _doubling_paths(a, hops)


def test_a_negative_cycle_within_n_hops_needs_no_squaring():
    # 1 -> 2 -> 1 weighs -1. Up to n hops the rounds are S_h exactly, so a
    # negative cycle costs nothing extra; past n, round n gives it away.
    n = 6
    weights = [[None] * n for _ in range(n)]
    for i in range(n):
        weights[i][(i + 1) % n] = 2
    weights[2][1] = -3
    a = tropical_matrix(weights)
    for hops in (1, 2, n - 2, n - 1, n):
        steps_taken, got = relax_steps(a, hops)
        assert steps_taken == (1, 0, 0, 0), hops
        assert payloads(got) == min_plus_oracle(weights, hops)
    assert matcat._relaxation(a.values, n, n + 1) is None
    for hops in (n + 1, 37, 1000):
        (relaxations, closures, pivots, products), got = relax_steps(a, hops)
        assert (relaxations, closures, pivots) == (1, 0, 0) and products > 0, hops
        check_against_oracles(a, weights, hops)


def chain(n, weight, ring=False):
    """The chain 0 -> 1 -> ... -> n-1, closed into a ring when ``ring``,
    every edge of the one ``weight``."""
    weights = [[None] * n for _ in range(n)]
    for i in range(n if ring else n - 1):
        weights[i][(i + 1) % n] = weight
    return weights


@pytest.mark.parametrize(
    "weights, hops, pair",
    [
        (chain(5, 7), 4, (0, 4)),
        (chain(5, -7), 4, (0, 4)),
        (chain(4, -3, ring=True), 4, (0, 0)),
        (chain(4, 0), 3, (0, 3)),
        ([[None, -5, None], [None] * 3, [None] * 3], 1, (0, 1)),
    ],
    ids=["chain", "negative-chain", "negative-ring", "zero-weights", "one-negative-edge"],
)
def test_the_infinity_stand_in_sits_just_past_the_extreme_walk(weights, hops, pair):
    # Relaxation stands rounds * max|w| + 1 in for infinity, rounds =
    # min(hops, n): the cheapest walk at `pair` weighs exactly +-rounds *
    # max|w| (all-zero weights: 0, against a stand-in of 1), and must stay
    # finite, while every pair with no walk must read inf.
    n = len(weights)
    top = max((abs(w) for row in weights for w in row if w is not None), default=0)
    want = min_plus_oracle(weights, hops)
    assert abs(want[pair[0]][pair[1]]) == min(hops, n) * top
    steps_taken, got = relax_steps(tropical_matrix(weights), hops)
    assert steps_taken == (1, 0, 0, 0)
    table = payloads(got)
    assert table == want
    assert table[pair[0]][pair[1]] is not None
    unreachable = [(i, j) for i in range(n) for j in range(n) if want[i][j] is None]
    assert all(table[i][j] is None for i, j in unreachable)


# Hop bounds around n - 1 and far above it.
AROUND_AND_FAR = st.one_of(
    st.integers(-3, 3).map(lambda d: ("near", d)),
    st.sampled_from([("times", 3), ("fixed", 50), ("fixed", 1000)]),
)


def hops_for(n, spec):
    kind, d = spec
    return max(0, n - 1 + d) if kind == "near" else d * n if kind == "times" else d


@settings(max_examples=200, deadline=None)
@given(parallel_edge_graphs(), AROUND_AND_FAR)
def test_relaxation_matches_the_hop_loop_and_the_doubling(graph, spec):
    # Weights -6..12 with repeated pairs: negative edges and cycles,
    # self-loops and parallel edges, all read through the graph reader.
    text, weights = graph
    n = len(weights)
    hops = hops_for(n, spec)
    a = parse_graph_text(text)
    relaxed = matcat._relaxation(a.values, n, hops)
    if hops > n and has_negative_cycle(weights):
        assert relaxed is None
    else:
        assert relaxed == [x for row in min_plus_oracle(weights, hops) for x in row]
    (relaxations, _, pivots, _), _ = relax_steps(a, hops)
    assert (relaxations, pivots) == (int(hops > 0), 0)
    check_against_oracles(a, weights, hops)


# ---------------------------------------------------------------------------
# The packed closures: at every size the pivots run on rows packed into
# ints, in the narrowest slot width that holds them (matcat._PackedRows),
# and on lists, one add and one mul per entry, where 8 bytes do not.


def packed_pivots(mp):
    """Whether each closure pivot ran on packed rows, in order."""
    packed = []

    def recorded(pivot, is_packed):
        def step(rows, k):
            packed.append(is_packed)
            return pivot(rows, k)

        return step

    pivot_of = matcat._pivot_of
    mp.setattr(matcat._PackedRows, "pivot", recorded(matcat._PackedRows.pivot, True))
    mp.setattr(matcat, "_pivot_of", lambda *ops: recorded(pivot_of(*ops), False))
    return packed


@pytest.mark.parametrize(
    "width, sign",
    [(1, "nonnegative")] + [(w, s) for w in (2, 4, 8) for s in ("nonnegative", "negative")],
)
@pytest.mark.parametrize("peak", ["fits", "overflows"])
def test_packed_closure_in_each_slot_width(closures_only, monkeypatch, width, sign, peak):
    # On n = 9 nodes with weights in [-L, U] the packed rows need slots for
    # (n + 2) n L + 2 n U + 1: finite entries in [-n L, n U], an offset of
    # 2 n L, and room for n pivots to lower an infinity by n L each. The
    # bound is the largest L (with U = 2 L) or U (with L = 0) that a w-byte
    # slot holds below its guard bit, or the next one. One edge weighs -L
    # and every other at least L, so no cycle is negative.
    n = 9
    per = 2 * n if sign == "nonnegative" else (n + 2) * n + 4 * n
    bound = (2 ** (8 * width - 1) - 2) // per + (peak == "overflows")
    low, high = (0, bound) if sign == "nonnegative" else (bound, 2 * bound)
    rng = random.Random(width)
    weights = [
        [None if i == j or rng.random() < 0.2 else rng.randint(low, high) for j in range(n)]
        for i in range(n)
    ]
    weights[0][1], weights[1][2] = -low, high
    layouts = record_layouts(monkeypatch)
    packed = packed_pivots(monkeypatch)
    got = bounded_paths(tropical_matrix(weights), n - 1)
    monkeypatch.undo()
    at = [1, 2, 4, 8].index(width) + (peak == "overflows")
    assert layouts == [LAYOUTS[at]]
    assert packed == [LAYOUTS[at] is not None] * n
    assert payloads(got) == min_plus_oracle(weights, n - 1)


def potential_weights(rng, n):
    """n nodes, most pairs joined, and no negative cycle: edge (i, j) costs
    c + p_i - p_j with c >= 0."""
    p = [rng.randint(-4, 4) for _ in range(n)]
    return [
        [None if rng.random() < 0.3 else rng.randint(0, 9) + p[i] - p[j] for j in range(n)]
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "weights",
    [[[2]], [[None, 3], [-1, None]], [[None, 4, 9], [None, 1, 2], [3, None, None]]]
    + [potential_weights(random.Random(8), 8)],
    ids=lambda w: f"{len(w)}-nodes",
)
def test_closures_below_9_nodes_pivot_packed(weights):
    n = len(weights)
    for hops in sorted({1, n - 2, n - 1, n, 64} - {0, -1}):
        with pytest.MonkeyPatch.context() as mp:
            force_closures(mp)
            packed = packed_pivots(mp)
            check_against_oracles(tropical_matrix(weights), weights, hops)
        assert packed == [True] * n, hops


def test_a_3_node_negative_cycle_fails_a_packed_pivot_and_squares(closures_only, monkeypatch):
    weights = [[None, 2, None], [None, None, -1], [-3, None, 4]]
    packed = packed_pivots(monkeypatch)
    products = count_calls(monkeypatch, "mat_compose")
    got = bounded_paths(tropical_matrix(weights), 64)
    assert packed == [True] * 3  # the cycle shows at the last pivot's diagonal
    assert products
    monkeypatch.undo()
    assert payloads(got) == min_plus_oracle(weights, 64)


@pytest.mark.parametrize("shape", ["one-edge", "chain"])
def test_a_hop_closure_too_wide_to_pack_takes_the_list_pivots(closures_only, shape):
    # Weights near 2**58 fit the plain closure's 8-byte slots, but their
    # (distance, hops) codes, weight * 2n + hops, do not. Every cheapest
    # walk of the first graph is one edge, so the hop closure answers; the
    # chain's binds at n - 1 hops, so the squaring does.
    n, rng = 9, random.Random(58)
    if shape == "one-edge":
        weights = [[2**58 + rng.randint(0, 99) for _ in range(n)] for _ in range(n)]
    else:
        weights = [[x * 2**54 for x in row] for row in chain_weights(n)]
    a = tropical_matrix(weights)
    assert matcat._PackedRows.of(closure_rows(a)) is not None
    for hops in (2, 3, n - 2):
        with pytest.MonkeyPatch.context() as mp:
            packed = packed_pivots(mp)
            (closures, pivots, products), got = route_steps(a, hops)
        assert (closures, pivots) == (1, n) and packed == [False] * n, hops
        assert (products > 0) == (shape == "chain"), hops
        assert payloads(got) == min_plus_oracle(weights, hops)


@st.composite
def dense_graphs(draw):
    """9 to 12 nodes, most pairs joined. Edge (i, j) costs (c + p_i - p_j)
    times a scale, with c >= 0, so no cycle is negative, and c = 0 makes
    zero-weight cycles and ties; up to two edges then dip below zero, which
    may close a negative cycle."""
    n = draw(st.integers(9, 12))
    scale = draw(st.sampled_from([1, 1000, 2**40]))
    p = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    cells = draw(
        st.lists(
            # The second integer branch joins about two pairs in three.
            st.one_of(st.none(), st.integers(0, 3), st.integers(0, 3)),
            min_size=n * n,
            max_size=n * n,
        )
    )
    weights = [
        [None if c is None else (c + p[i] - p[j]) * scale for j, c in enumerate(row)]
        for i, row in enumerate(cells[i * n : (i + 1) * n] for i in range(n))
    ]
    dips = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-20, -1))
    for i, j, w in draw(st.lists(dips, max_size=2)):
        weights[i][j] = w * scale
    return weights


@settings(max_examples=60, deadline=None)
@given(dense_graphs(), st.data())
def test_packed_closures_match_the_hop_loop(weights, data):
    n = len(weights)
    hops = data.draw(
        st.one_of(st.integers(1, n - 2), st.sampled_from([n - 1, n, 2 * n, 64])), label="hops"
    )
    a = tropical_matrix(weights)
    with pytest.MonkeyPatch.context() as mp:
        force_closures(mp)
        closures = count_calls(mp, "_hop_closure")
        packed = packed_pivots(mp)
        check_against_oracles(a, weights, hops)
    assert len(closures) == (hops < n - 1)
    # Every pivot runs packed, until one meets a negative cycle.
    assert packed and all(packed)
