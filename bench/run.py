"""semicat benchmark: a closed-loop, single-threaded load generator with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark imports ``semicat`` from
``src/`` and calls ``semicat.cli.main(argv)`` in-process with stdout
captured, on inputs that ``workloads.py`` generates from the seed. It
sends the next call only when the previous one has returned. Every output
is judged by an oracle from ``oracles.py`` that shares no code with
semicat.

Set-up, reported as ``setup_s``, is the median of five repeats of:
interpreter start plus ``import semicat.cli`` in a fresh process, input
generation, and one warm-up call of each op kind. None of it counts as
latency.

Latencies are scaled to a fixed machine speed, because the speed of a
shared 2-core box drifts by tens of percent within a minute. Before each
call the benchmark times ``reference()``, a fixed pure-Python loop, and
multiplies the call's latency by ``REFERENCE_MS`` over the median of the
seven reference times nearest to the call; each set-up repeat is scaled
the same way. ``REFERENCE_MS`` is the loop's typical time on a 2.1 GHz
Xeon. The unscaled figures are printed as well.

With ``--trace 0`` the benchmark runs whole passes over the generated calls,
in a seeded order, until ``--seconds`` have passed and the workload's
minimum sample count is reached, and reports the end-to-end metrics.
With ``--trace 1`` it makes one untraced pass, then installs the wrappers
of ``tracer.py`` and makes one traced pass, and reports per-layer metrics;
the spans go to ``bench/out/spans-<workload>.tsv.gz``.

Every run also feeds its oracle one deliberately corrupted output and
shows that the call would count as failed. Human-readable lines and a
``details`` line (input properties, stdout digest, source line count)
come first; the last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
REFERENCE_MS = 0.75
IMPORT_CHECK = "import sys; sys.path.insert(0, sys.argv[1]); import semicat.cli"


def import_semicat():
    if not (SRC / "semicat" / "cli.py").is_file():
        sys.exit(f"error: no semicat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import semicat
    import semicat.cli

    if Path(semicat.__file__).resolve().parent != SRC / "semicat":
        sys.exit(f"error: imported semicat from {semicat.__file__}, not from {SRC}")
    return semicat


def call(main, argv):
    """One ``main(argv)`` call: (exit code or exception text, stdout, seconds)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # the call fails; the run goes on
            rc = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
    return rc, out.getvalue(), t1 - t0


def set_up(workload, seed, workdir, main):
    times = []
    for _ in range(SETUP_REPEATS):
        speed = statistics.median(time_reference() for _ in range(3))
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CHECK, str(SRC)], check=True)
        corpus = workload.build(random.Random(seed), workdir)
        for argv in corpus.warmups:
            rc, _, _ = call(main, argv)
            if rc != 0:
                raise RuntimeError(f"warm-up call {argv} ended with {rc}")
        times.append((perf_counter() - t0) * REFERENCE_MS / 1e3 / speed)
    return statistics.median(times), corpus


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


def reference():
    """Fixed work of the same kind as semicat's: small objects, tuples,
    dict updates and integer arithmetic."""
    table = {}
    for i in range(1500):
        cell = _Cell((i * 7919) % 1009)
        key = (cell.v % 61, i & 7)
        table[key] = table.get(key, 0) + cell.v
    return min(table.items())


def time_reference() -> float:
    gc.disable()
    try:
        t0 = perf_counter()
        reference()
        return perf_counter() - t0
    finally:
        gc.enable()


class Pass:
    """Calls made over the corpus, checked against the first output of each op."""

    def __init__(self, ops, first=None):
        self.first = first if first is not None else [None] * len(ops)
        self.latencies = []
        self.references = []
        # (op index, output equal to the op's first output) per call
        self.calls = []

    def run(self, main, ops, order, on_call=None):
        for i in order:
            if on_call is not None:
                on_call(i)
            self.references.append(time_reference())
            rc, out, seconds = call(main, ops[i].argv)
            self.latencies.append(seconds)
            if self.first[i] is None:
                self.first[i] = (rc, out)
            self.calls.append((i, self.first[i] == (rc, out)))

    def scaled(self) -> list:
        """Latencies at the speed where ``reference()`` takes REFERENCE_MS."""
        refs = self.references
        return [
            seconds * REFERENCE_MS / 1e3 / statistics.median(refs[max(k - 3, 0) : k + 4])
            for k, seconds in enumerate(self.latencies)
        ]


def judge(ops, first):
    """Oracle verdict per op: None when right, otherwise the reason."""
    return [op.check(rc, out) for op, (rc, out) in zip(ops, first)]


def self_check(workload, ops, first, verdicts, attempted, failed):
    """Feed the oracle one corrupted output and show that it counts as failed."""
    rc, out = first[0]
    reason = ops[0].check(rc, workload.corrupt(out))
    rejected = reason is not None and verdicts[0] is None
    after = (failed + 1) / attempted if rejected else failed / attempted
    return {"corrupted_op": f"{ops[0].kind} #0", "rejected": rejected, "reason": reason,
            "error_ratio_before": failed / attempted, "error_ratio_after": after}


def stdout_digest(first) -> str:
    h = hashlib.sha256()
    for _, out in first:
        h.update(out.encode())
    return h.hexdigest()


def src_lines() -> int:
    return sum(p.read_text().count("\n") for p in sorted((SRC / "semicat").glob("*.py")))


def nearest_rank(sorted_values, percentile):
    return sorted_values[max(math.ceil(percentile / 100 * len(sorted_values)) - 1, 0)]


def end_to_end(workload, calls: Pass, setup_s):
    scaled = sorted(calls.scaled())
    raw = sorted(calls.latencies)
    p = workload.tail_percentile
    tail = nearest_rank(scaled, p)
    info = {"percentile": p, "samples": len(scaled), "beyond": sum(v > tail for v in scaled),
            "raw_op_p50_ms": statistics.median(raw) * 1e3,
            "raw_op_tail_ms": nearest_rank(raw, p) * 1e3,
            "raw_calls_per_s": len(raw) / sum(raw),
            "reference_ms": statistics.median(calls.references) * 1e3}
    metrics = {
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, info


def per_layer(t: Tracer, traced_s: float, overhead_ratio: float):
    def share(name):
        return (t.self_s(name) / traced_s, "ratio")

    def count(*names):
        return (t.calls(*names), "count")

    adds = t.calls("matcat.mat_add")
    pairs_in = t.counts["pairs_in"]
    transposes = ("adjunctions.transpose_mon", "adjunctions.transpose_srng",
                  "adjunctions.transpose_math")
    sampling = [n for n in t.stats if n.startswith("sampling.")]
    return {
        "algebra.add.calls": count("algebra.add"),
        "algebra.mul.calls": count("algebra.mul"),
        "algebra.star.calls": count("algebra.star"),
        "algebra.fraction_new.calls": count("algebra.fraction_new"),
        "algebra.parse_scalar.calls": count("algebra.parse_scalar"),
        "algebra.render_scalar.calls": count("algebra.render_scalar"),
        "algebra.self_share": share("algebra"),
        "matcat.compose.calls": count("matcat.mat_compose"),
        "matcat.compose.cells": (t.counts["compose_cells"], "count"),
        "matcat.compose.self_share": share("matcat.mat_compose"),
        "matcat.add.calls": count("matcat.mat_add"),
        "matcat.add.self_share": share("matcat.mat_add"),
        "matcat.add.noop_ratio": (t.counts["add_noop"] / adds if adds else 0.0, "ratio"),
        "matcat.tensor.calls": count("matcat.mat_tensor"),
        "matcat.dagger.calls": count("matcat.mat_dagger"),
        "matcat.parse.self_share": share("matcat.parse_mat_text"),
        "matcat.render.self_share": share("matcat.render_mat_text"),
        "matcat.self_share": share("matcat"),
        "monadcore.ms_from_pairs.calls": count("monadcore.ms_from_pairs"),
        "monadcore.ms_from_pairs.self_share": share("monadcore.ms_from_pairs"),
        "monadcore.ms_from_pairs.pairs_in": (pairs_in, "count"),
        "monadcore.ms_from_pairs.keep_ratio": (
            t.counts["pairs_kept"] / pairs_in if pairs_in else 0.0, "ratio"),
        "monadcore.fmap.calls": count("monadcore.fmap"),
        "monadcore.mult.calls": count("monadcore.mult"),
        "monadcore.eval_at_one.calls": count("monadcore.eval_at_one"),
        "monadcore.self_share": share("monadcore"),
        "kleisli.kl_compose.calls": count("kleisli.kl_compose"),
        "kleisli.theta.calls": count("kleisli.theta"),
        "kleisli.xi.calls": count("kleisli.xi"),
        "kleisli.self_share": share("kleisli"),
        "freetheory.term_normalize.calls": count("freetheory.term_normalize"),
        "freetheory.self_share": share("freetheory"),
        "adjunctions.run_suite.calls": count("adjunctions.run_suite"),
        "adjunctions.run_roundtrip.calls": count("adjunctions.run_roundtrip"),
        "adjunctions.transpose.calls": count(*transposes),
        "adjunctions.self_share": share("adjunctions"),
        "sampling.calls": count(*sampling),
        "sampling.self_share": share("sampling"),
        "cli.parse_graph_text.self_share": share("cli.parse_graph_text"),
        "cli.bounded_paths.calls": count("cli.bounded_paths"),
        "cli.bounded_paths.hops": (t.counts["hops"], "count"),
        "cli.bounded_paths.self_share": share("cli.bounded_paths"),
        "cli.main.self_share": share("cli.main"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }


def measure(args, workload, semicat, workdir):
    main = semicat.cli.main
    setup_s, corpus = set_up(workload, args.seed, workdir, main)
    ops = corpus.ops
    order = list(range(len(ops)))
    random.Random(args.seed).shuffle(order)
    details = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "inputs": corpus.props, "src_lines": src_lines()}

    calls = Pass(ops)
    t0 = perf_counter()
    passes = 0
    while True:
        calls.run(main, ops, order)
        passes += 1
        wall = perf_counter() - t0
        if args.trace or (wall >= args.seconds and len(calls.latencies) >= workload.min_samples):
            break
    details["passes"] = passes
    details["wall_s"] = wall

    if args.trace:
        tracer = Tracer()
        tracer.install(semicat)
        traced = Pass(ops, calls.first)
        try:
            traced.run(semicat.cli.main, ops, order,
                       on_call=lambda i: setattr(tracer, "op_id", i))
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, sum(traced.latencies),
                            sum(traced.scaled()) / sum(calls.scaled()))
        spans_path = OUT / f"spans-{workload.name}.tsv.gz"
        details["spans"] = {"file": str(spans_path.relative_to(ROOT)),
                            "count": tracer.write_spans(spans_path)}
        details["traced_calls_s"] = sum(traced.latencies)
        details["self_s"] = {layer: tracer.self_s(layer) for layer in LAYERS}
        if "total_hops" in corpus.props:
            details["add_calls_equal_total_hops"] = (
                tracer.calls("matcat.mat_add") == corpus.props["total_hops"])
        made = calls.calls + traced.calls
    else:
        metrics, details["op_tail"] = end_to_end(workload, calls, setup_s)
        made = calls.calls

    verdicts = judge(ops, calls.first)
    attempted = len(made)
    failed = sum(not same or verdicts[i] is not None for i, same in made)
    details["stdout_sha256"] = stdout_digest(calls.first)
    details["error_ratio"] = failed / attempted
    details["failures"] = [
        {"argv": op.argv, "reason": v} for op, v in zip(ops, verdicts) if v is not None
    ][:5]
    details["self_check"] = self_check(workload, ops, calls.first, verdicts, attempted, failed)
    return metrics, details, attempted, failed


def report(args, metrics, details, attempted, failed):
    correct = failed == 0 and details["self_check"]["rejected"]
    print(f"semicat benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {details['passes']} pass(es) in {details['wall_s']:.2f} s")
    print(f"inputs: {json.dumps(details['inputs'], sort_keys=True)}")
    print(f"stdout_sha256: {details['stdout_sha256']}")
    print(f"error_ratio: {details['error_ratio']:.6g} ({failed} failed of {attempted})")
    check = details["self_check"]
    print(f"oracle self-check: corrupted output {'rejected' if check['rejected'] else 'ACCEPTED'}"
          f" ({check['reason']}); error_ratio {check['error_ratio_before']:.6g}"
          f" -> {check['error_ratio_after']:.6g}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_ms":
            tail = details["op_tail"]
            note = (f"  (p{tail['percentile']} of {tail['samples']} samples,"
                    f" {tail['beyond']} beyond)")
        print(f"  {name:<38} {value:>14.6g} {unit}{note}")
    if "op_tail" in details:
        tail = details["op_tail"]
        print(f"unscaled: op_p50_ms {tail['raw_op_p50_ms']:.6g}, op_tail_ms"
              f" {tail['raw_op_tail_ms']:.6g}, ops_per_s {tail['raw_calls_per_s']:.6g};"
              f" reference() {tail['reference_ms']:.6g} ms against {REFERENCE_MS} ms")
    if "spans" in details:
        print(f"spans: {details['spans']['count']} written to {details['spans']['file']}")
    if "add_calls_equal_total_hops" in details:
        print("matcat.add.calls equals the total hops run:",
              details["add_calls_equal_total_hops"])
    print("details: " + json.dumps(details, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    semicat = import_semicat()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        metrics, details, attempted, failed = measure(
            args, WORKLOADS[args.workload], semicat, workdir)
    finally:
        shutil.rmtree(workdir)
    report(args, metrics, details, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
