"""Command-line front end.

Four subcommands: ``laws`` runs a named law suite, ``matmul`` is a small
matrix calculator over the built-in semirings, ``shortest-path`` computes
the bounded-hop distance table of a graph as the power (I + A)^h of its
tropical weight matrix A, by Lehmann's closure when h >= n - 1 and no
cycle is negative (n^3 steps), else by repeated squaring (O(n^3 log h)),
and ``roundtrip`` drives the adjunction transposes there and back.

Exit codes: 0 all checks passed, 1 a law was violated, 2 usage or parse
error, or an input whose dense table would exceed ``MAX_TABLE_ENTRIES``,
3 an internal error: any other exception, reported as one ``internal
error:`` line. An internal error inside a law's check fails that law and
the run goes on; the report is printed, then the ``internal error:`` line.
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from .adjunctions import (
    ADJUNCTION_NAMES,
    SUITE_NAMES,
    SuiteConfig,
    SuiteReport,
    _INTERNAL,
    run_roundtrip,
    run_suite,
)
from .algebra import _GRAMMARS, _NAT_RE, TROPICAL, Scalar, _quote, _render_rows
from .errors import FormatError, NotIdempotent, SemicatError, SizeLimitExceeded
from .matcat import (
    Matrix,
    _close,
    _open,
    mat_add,
    mat_compose,
    mat_dagger,
    mat_identity,
    mat_tensor,
    parse_mat_text,
    render_mat_text,
)

__all__ = [
    "MAX_TABLE_ENTRIES",
    "GraphSpec",
    "parse_graph_text",
    "graph_matrix",
    "bounded_paths",
    "main",
]

# The most entries a dense table built by a command may have: the n x n
# distance table of ``shortest-path``, or the result of ``matmul``. Larger
# inputs exit 2 before any table is allocated. An empty dimension counts as
# one, as a 0 x n or n x 0 table still costs n column lists or n lines.
MAX_TABLE_ENTRIES = 1_000_000


def _check_table_size(what: str, rows: int, cols: int) -> None:
    size = max(rows, 1) * max(cols, 1)
    if size > MAX_TABLE_ENTRIES:
        raise SizeLimitExceeded(
            f"{what} would have {rows}x{cols} = {size} entries"
            f"{'' if rows and cols else ' (an empty dimension counts as 1)'},"
            f" above the cap of {MAX_TABLE_ENTRIES}"
        )


@dataclass(frozen=True)
class GraphSpec:
    """A weighted directed graph: node count plus (src, dst, weight) edges."""

    nodes: int
    edges: tuple


def parse_graph_text(text: str) -> GraphSpec:
    """Parse the line-oriented graph format: a node count line, then one
    ``src dst weight`` line per edge. Blank lines are ignored. Node counts
    and indices are ``nat`` literals (ASCII digits), weights ``tropical``
    literals; each distinct weight text is parsed once per call."""
    index, weight_of = _GRAMMARS["nat"], _GRAMMARS["tropical"]
    parts: dict = {}  # neither grammar has rational parts to keep here
    count = None
    edges = []
    weights: dict[str, Scalar] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if count is None:
            if len(fields) != 1:
                raise FormatError(f"line {ln}: expected the node count alone")
            try:
                count = index(fields[0], parts)
            except FormatError as exc:
                raise FormatError(f"line {ln}: bad node count: {exc}") from None
            continue
        if len(fields) != 3:
            raise FormatError(f"line {ln}: expected 'src dst weight'")
        try:
            src, dst = index(fields[0], parts), index(fields[1], parts)
        except FormatError as exc:
            raise FormatError(f"line {ln}: bad node index: {exc}") from None
        if not 0 <= src < count or not 0 <= dst < count:
            raise FormatError(f"line {ln}: node index out of range (n = {count})")
        text = fields[2]
        weight = weights.get(text)
        if weight is None:
            try:
                weight = weights[text] = Scalar("tropical", weight_of(text, parts))
            except FormatError as exc:
                raise FormatError(f"line {ln}: {exc}") from None
        edges.append((src, dst, weight))
    if count is None:
        raise FormatError("empty graph file: expected a node count")
    return GraphSpec(count, tuple(edges))


def graph_matrix(spec: GraphSpec) -> Matrix:
    """One-hop weight matrix over the tropical semiring. Parallel edges
    collapse to their minimum; absent edges are the tropical zero."""
    n = spec.nodes
    entries = [TROPICAL.zero] * (n * n)
    for src, dst, weight in spec.edges:
        entries[src * n + dst] = TROPICAL.add(entries[src * n + dst], weight)
    return Matrix(TROPICAL, n, n, tuple(entries))


def bounded_paths(a: Matrix, hops: int) -> Matrix:
    """The sum S_h = a^0 + a^1 + ... + a^hops. Over the tropical semiring
    this is the table of cheapest paths with at most ``hops`` edges;
    negative weights and negative cycles are allowed. ``hops < 0`` raises
    ``ValueError``.

    When addition is idempotent (1 + 1 = 1: tropical, bool), S_h = B^h for
    B = I + a, computed on payloads and boxed once. If hops >= n - 1, it
    first tries Lehmann's closure of B, n^3 steps: pivot k adds d_ik times
    row k to each row i != k, provided d_kk = 1, so that d_kk* = 1* = 1.
    If every pivot passes, the result is the sum over all walks, which is
    S_(n-1) = S_h: each simple cycle c was in some pivot's diagonal, so
    1 + c = 1, and a walk through c adds nothing to the walk without it.
    Over tropical a failed pivot is a negative cycle; over bool none fails
    (Warshall). Otherwise binary powering takes at most two products per
    bit of ``hops`` after the first, O(n^3 log h), and stops when a square
    repeats, B^(2k) = B^k: in the natural order B^k <= B^m <= B^(2k) for
    k <= m <= 2k, so every later power is B^k. Any other semiring raises
    :class:`NotIdempotent`.
    """
    if hops < 0:
        raise ValueError(f"hops must be a natural number, got {hops}")
    S = a.semiring
    if S.add(S.one, S.one) != S.one:
        raise NotIdempotent(f"{S.name} has no idempotent addition (1 + 1 != 1)")
    n = a.rows
    eye = mat_identity(S, n)
    if hops == 0:
        return eye
    b = mat_add(eye, a)
    ops, base, (zero, one) = _open(S, b, Matrix(S, 1, 2, (S.zero, S.one)))
    rows = [base[i * n : (i + 1) * n] for i in range(n)]
    if hops >= n - 1 and all(_pivot(ops, rows, k, zero, one) for k in range(n)):
        return _close(S, n, n, [x for row in rows for x in row])
    acc = base = list(base)  # B^k, k the bits of hops read so far
    for bit in bin(hops)[3:]:
        square = _product(ops, n, acc, acc)
        if square == acc:
            break
        acc = _product(ops, n, square, base) if bit == "1" else square
    return _close(S, n, n, acc)


def _product(ops, n: int, f: list, g: list) -> list:
    """The row-major payloads of "f then g", both n x n payload lists."""
    rows = [f[i * n : (i + 1) * n] for i in range(n)]
    return ops.products(rows, [g[k::n] for k in range(n)])


def _pivot(ops, rows: list, k: int, zero, one) -> bool:
    """Pivot k of the closure of ``rows``, in place; False, changing
    nothing, when d_kk is not one."""
    pivot = rows[k]
    if pivot[k] != one:
        return False
    add, mul = ops.add, ops.mul
    for i, row in enumerate(rows):
        d = row[k]
        if i != k and d != zero:
            rows[i] = list(map(add, row, [mul(d, x) for x in pivot]))
    return True


def _read_input(path: str) -> str:
    """The text of an input file, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
        ) from None


def _cmd_laws(args) -> int:
    config = SuiteConfig(
        suite=args.suite,
        semiring=args.semiring,
        monoid=args.monoid,
        seed=args.seed,
        cases=args.cases,
    )
    return _print_report(run_suite(config))


def _cmd_matmul(args) -> int:
    a = parse_mat_text(_read_input(args.a))
    if args.op == "dagger":
        if args.b is not None:
            raise FormatError("dagger takes a single matrix; drop -B")
        _check_table_size("the dagger", a.cols, a.rows)
        result = mat_dagger(a)
    else:
        if args.b is None:
            raise FormatError(f"{args.op} needs a second matrix via -B")
        b = parse_mat_text(_read_input(args.b))
        if args.op == "compose":
            _check_table_size("the composite", a.rows, b.cols)
            result = mat_compose(a, b)
        else:
            _check_table_size("the tensor", a.rows * b.rows, a.cols * b.cols)
            result = mat_tensor(a, b)
    sys.stdout.write(render_mat_text(result))
    return 0


def _cmd_shortest_path(args) -> int:
    spec = parse_graph_text(_read_input(args.graph))
    _check_table_size("the distance table", spec.nodes, spec.nodes)
    table = bounded_paths(graph_matrix(spec), args.max_hops)
    rows = _render_rows(table.tag, table.entries, table.rows, table.cols)
    sys.stdout.write("".join(row + "\n" for row in rows))
    return 0


def _cmd_roundtrip(args) -> int:
    return _print_report(run_roundtrip(args.adjunction, args.semiring, args.involutive))


def _print_report(report: SuiteReport) -> int:
    """Print the report; the exit code is 3 when a law's check raised an
    internal error, reported on stderr by the first such law, else 1 when a
    law failed."""
    print(report.render())
    internal = [e for e in report.entries if e[3] and e[3].startswith(_INTERNAL)]
    if internal:
        subject, law, _, detail = internal[0]
        more = f" (and {len(internal) - 1} more)" if len(internal) > 1 else ""
        print(
            f"internal error: {subject} :: {law}: {detail[len(_INTERNAL):]}{more}",
            file=sys.stderr,
        )
        return 3
    return 0 if report.ok else 1


def _nonneg_int(text: str) -> int:
    """An option value in the ``nat`` grammar: ASCII digits only."""
    if not _NAT_RE.match(text):
        raise argparse.ArgumentTypeError(f"{_quote(text)} is not a natural number")
    return int(text)


def _positive_int(text: str) -> int:
    value = _nonneg_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{_quote(text)} is not positive")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later :func:`main` call in the process."""
    parser = argparse.ArgumentParser(
        prog="semicat",
        description="law checking and matrix algebra over finite semiring instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    laws = sub.add_parser("laws", help="run a named law suite")
    laws.add_argument("--suite", required=True, choices=SUITE_NAMES)
    laws.add_argument("--semiring", default=None)
    laws.add_argument("--monoid", default=None)
    laws.add_argument("--seed", type=_nonneg_int, default=0)
    laws.add_argument("--cases", type=_positive_int, default=100)
    laws.set_defaults(func=_cmd_laws)

    matmul = sub.add_parser("matmul", help="compose, tensor, or dagger .mat files")
    matmul.add_argument("--op", required=True, choices=("compose", "tensor", "dagger"))
    matmul.add_argument("-A", dest="a", required=True, metavar="FILE")
    matmul.add_argument("-B", dest="b", default=None, metavar="FILE")
    matmul.set_defaults(func=_cmd_matmul)

    sp = sub.add_parser(
        "shortest-path", help="bounded-hop distance table of a weighted graph"
    )
    sp.add_argument("--graph", required=True, metavar="FILE")
    sp.add_argument("--max-hops", type=_nonneg_int, required=True)
    sp.set_defaults(func=_cmd_shortest_path)

    rt = sub.add_parser("roundtrip", help="round-trip one adjunction's transposes")
    rt.add_argument("--adjunction", required=True, choices=ADJUNCTION_NAMES)
    rt.add_argument("--semiring", required=True)
    rt.add_argument("--involutive", action="store_true")
    rt.set_defaults(func=_cmd_roundtrip)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except SemicatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
