"""The three benchmark workloads: CLI calls generated from a seed.

Sizes are fixed grids that cover each workload's range densely, so that
every op's latency distribution is continuous around its median and the
median does not depend on the seed. The seed draws the content: law
seeds, matrix entries and graph edges.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

SEMIRINGS = ("nat", "bool", "tropical", "ratnn", "gaussian")


@dataclass
class Op:
    """One ``main(argv)`` call and the oracle that judges its output."""

    kind: str
    argv: list
    check: Callable[[object, str], str | None]


@dataclass
class Corpus:
    ops: list
    warmups: list
    props: dict


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random, Path], Corpus]
    corrupt: Callable[[str], str]
    # A run makes whole passes over an odd number of ops, so the median is
    # the middle of one op's repeated calls, not the edge between two ops.
    # The tail percentile is fixed per workload so that it compares across
    # commits, and its rank also falls mid-way through one op's calls; a run
    # takes at least min_samples calls, which leaves ten or more beyond it.
    tail_percentile: int
    min_samples: int


# ---------------------------------------------------------------------------
# laws-sweep

SAMPLED_SUITES = (
    "additivity",
    "commutativity",
    "dagger",
    "freetheory",
    "kleisli-iso",
    "matcat-laws",
    "monad-laws",
)
LAW_REPEATS = 5
LAW_CASES = (4, 20)
ADJUNCTIONS = ("mon-e", "srng-e", "mat-h")


def _laws_sweep(rng: random.Random, workdir: Path) -> Corpus:
    ops = []
    lo, hi = LAW_CASES
    slots = LAW_REPEATS * len(SAMPLED_SUITES)
    for r in range(LAW_REPEATS):
        for s, suite in enumerate(SAMPLED_SUITES):
            cases = lo + ((r * len(SAMPLED_SUITES) + s) * (hi - lo)) // (slots - 1)
            argv = ["laws", "--suite", suite, "--seed", str(rng.randrange(2**31)),
                    "--cases", str(cases)]
            ops.append(Op("laws", argv, oracles.check_report))
    # adjunction-roundtrips draws no samples, so its seed and cases change
    # nothing: one run per pass.
    argv = ["laws", "--suite", "adjunction-roundtrips", "--seed", str(rng.randrange(2**31)),
            "--cases", str(lo)]
    ops.append(Op("laws", argv, oracles.check_report))
    roundtrips = {}
    for adj in ADJUNCTIONS:
        for name in SEMIRINGS:
            for flags in ([],) if adj == "mon-e" else ([], ["--involutive"]):
                argv = ["roundtrip", "--adjunction", adj, "--semiring", name, *flags]
                ops.append(Op("roundtrip", argv, oracles.check_report))
                roundtrips[adj] = roundtrips.get(adj, 0) + 1
    cases = [int(op.argv[-1]) for op in ops if op.kind == "laws"]
    warmups = [
        ["laws", "--suite", "commutativity", "--seed", "0", "--cases", "1"],
        ["roundtrip", "--adjunction", "mon-e", "--semiring", "bool"],
    ]
    props = {
        "law_runs": len(cases),
        "law_runs_per_sampled_suite": LAW_REPEATS,
        "cases_range": [min(cases), max(cases)],
        "cases_total": sum(cases),
        "roundtrips": roundtrips,
        "involutive_roundtrips": sum("--involutive" in op.argv for op in ops),
    }
    return Corpus(ops, warmups, props)


def _corrupt_report(out: str) -> str:
    return out.replace("PASS ", "FAIL ", 1)


# ---------------------------------------------------------------------------
# matmul-dense

# Each n in 16..32 is a compose size of exactly one of the cheap semirings.
COMPOSE_SIZES = {
    "nat": (16, 19, 22, 25, 28, 31),
    "bool": (17, 20, 23, 26, 29, 32),
    "tropical": (18, 21, 24, 27, 30),
    "ratnn": (16, 20, 24, 28, 32),
    "gaussian": (18, 24, 29),
}
# Square factors whose tensor is as large as a compose input.
TENSOR_FACTORS = {
    "nat": (4, 4), "bool": (4, 5), "tropical": (5, 5), "ratnn": (4, 7), "gaussian": (5, 6),
}
DAGGER_SIZES = {"nat": 30, "bool": 18, "tropical": 22, "ratnn": 26, "gaussian": 32}


def _fraction(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_scalar(rng: random.Random, name: str):
    if name == "nat":
        return rng.randint(0, 20)
    if name == "bool":
        return rng.random() < 0.5
    if name == "tropical":
        return None if rng.random() < 0.2 else rng.randint(-5, 30)
    if name == "ratnn":
        return _fraction(rng, 0, 12, 6)
    return (_fraction(rng, -6, 6, 4), _fraction(rng, -6, 6, 4))


def _random_matrix(rng: random.Random, name: str, n: int) -> list:
    return [[random_scalar(rng, name) for _ in range(n)] for _ in range(n)]


def _matmul_dense(rng: random.Random, workdir: Path) -> Corpus:
    ops = []
    cells = 0
    entries_out = 0
    mix: dict = {}

    def write(rows, name, tag):
        path = workdir / f"{len(ops)}{tag}.mat"
        path.write_text(oracles.render_mat(name, rows))
        return str(path)

    def add_op(kind, name, a, b, out_side):
        nonlocal entries_out
        argv = ["matmul", "--op", kind, "-A", write(a, name, "a")]
        if b is not None:
            argv += ["-B", write(b, name, "b")]

        def check(rc, out, kind=kind, name=name, a=a, b=b):
            return oracles.check_matmul(kind, name, a, b, rc, out)

        ops.append(Op(kind, argv, check))
        mix[f"{kind}/{name}"] = mix.get(f"{kind}/{name}", 0) + 1
        entries_out += out_side * out_side

    for name in SEMIRINGS:
        for n in COMPOSE_SIZES[name]:
            add_op("compose", name, _random_matrix(rng, name, n), _random_matrix(rng, name, n), n)
            cells += n**3
        k, m = TENSOR_FACTORS[name]
        add_op("tensor", name, _random_matrix(rng, name, k), _random_matrix(rng, name, m), k * m)
        add_op("dagger", name, _random_matrix(rng, name, DAGGER_SIZES[name]), None,
            DAGGER_SIZES[name])
    small = [[1, 2, 0], [0, 3, 1], [4, 0, 5]]
    a, b = write(small, "nat", "wa"), write(small, "nat", "wb")
    warmups = [
        ["matmul", "--op", "compose", "-A", a, "-B", b],
        ["matmul", "--op", "tensor", "-A", a, "-B", b],
        ["matmul", "--op", "dagger", "-A", a],
    ]
    sizes = [n for s in COMPOSE_SIZES.values() for n in s]
    props = {
        "mix": mix,
        "compose_n_range": [min(sizes), max(sizes)],
        "compose_cells": cells,
        "output_entries": entries_out,
    }
    return Corpus(ops, warmups, props)


def _corrupt_first_entry(out: str) -> str:
    """Replace the first entry of the first matrix row by another valid
    literal of every semiring."""
    lines = out.split("\n")
    row = 1 if lines[0].startswith("semiring ") else 0
    fields = lines[row].split(" ")
    fields[0] = "1" if fields[0] == "0" else "0"
    lines[row] = " ".join(fields)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# shortest-path

# Short-hop queries: n in 8..12 with hops spread over 1..n. Long-hop
# queries: n in 3..5 with hops spread over 100..300, far beyond n.
SHORT_NODES = range(8, 13)
LONG_QUERIES = 9
LONG_HOPS = (100, 300)
EDGE_WEIGHTS = (0, 20)


def _shortest_path(rng: random.Random, workdir: Path) -> Corpus:
    queries = [
        (n, hops)
        for n in SHORT_NODES
        for hops in sorted({math.ceil(n / 4), n // 2, math.ceil(3 * n / 4), n})
    ]
    lo, hi = LONG_HOPS
    queries += [
        (3 + j % 3, lo + round((hi - lo) * (j + 0.5) / LONG_QUERIES))
        for j in range(LONG_QUERIES)
    ]
    ops = []
    for idx, (n, hops) in enumerate(queries):
        edges = [
            (rng.randrange(n), rng.randrange(n), rng.randint(*EDGE_WEIGHTS))
            for _ in range(2 * n)
        ]
        path = workdir / f"{idx}.graph"
        path.write_text(f"{n}\n" + "".join(f"{u} {v} {w}\n" for u, v, w in edges))

        def check(rc, out, n=n, edges=edges, hops=hops):
            return oracles.check_paths(n, edges, hops, rc, out)

        argv = ["shortest-path", "--graph", str(path), "--max-hops", str(hops)]
        ops.append(Op("shortest-path", argv, check))
    warm = workdir / "warm.graph"
    warm.write_text("3\n0 1 2\n1 2 3\n")
    long_hop = sum(hops > n for n, hops in queries)
    props = {
        "queries": len(queries),
        "n_range": [min(n for n, _ in queries), max(n for n, _ in queries)],
        "total_hops": sum(hops for _, hops in queries),
        "long_hop_queries": long_hop,
        "long_hop_share": long_hop / len(queries),
        "power_compose_cells": sum(hops * n**3 for n, hops in queries),
    }
    warmups = [["shortest-path", "--graph", str(warm), "--max-hops", "2"]]
    return Corpus(ops, warmups, props)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("laws-sweep", _laws_sweep, _corrupt_report, 81, 60),
        Workload("matmul-dense", _matmul_dense, _corrupt_first_entry, 93, 150),
        Workload("shortest-path", _shortest_path, _corrupt_first_entry, 88, 85),
    )
}
