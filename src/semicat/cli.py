"""Command-line front end.

Four subcommands: ``laws`` runs a named law suite, ``matmul`` is a small
matrix calculator over the built-in semirings, ``shortest-path`` reads a
graph file straight into its tropical weight matrix A and prints the
bounded-hop distance table that :func:`semicat.matcat.bounded_paths`
computes, and ``roundtrip`` drives the adjunction transposes there and
back. This module parses arguments and input files, prints results and
maps errors to exit codes; the computing happens in the layers it calls.
:func:`main` parses an argv that starts with a subcommand's name with
that subcommand's parser alone, and any other argv, or one with words left
over, with the whole parser of :func:`build_parser`.
A ``.mat`` or graph file is read a line at a time by :func:`_input_lines`,
through the standard library's text reader, which splits lines at LF, CR
and CRLF: the first error in file order is reported, and a bad line stops
the read.
``matmul`` reads the header of each of its files before any row, so a
result above the table cap stops it before either file is parsed.

Exit codes: 0 all checks passed, 1 a law was violated, 2 usage or parse
error, an input whose dense table would exceed ``MAX_TABLE_ENTRIES``, or
``laws --cases`` above ``MAX_CASES``, 3 an internal error: any other
exception, reported as one ``internal error:`` line. An internal error
inside a law's check fails that law and the run goes on; the report is
printed, then the ``internal error:`` line. Results go to stdout,
diagnostics to stderr; a diagnostic that cannot be written is dropped and
changes no exit status.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack, closing
from functools import cache
from typing import Iterable, Iterator

from .adjunctions import (
    ADJUNCTION_NAMES,
    SUITE_NAMES,
    SuiteConfig,
    SuiteReport,
    _INTERNAL,
    run_roundtrip,
    run_suite,
)
from .algebra import _GRAMMARS, TROPICAL, _decimal, _quote, _render_rows
from .errors import FormatError, SemicatError, SizeLimitExceeded
from .matcat import (
    Matrix,
    _Literals,
    _mat_header,
    _matrix,
    bounded_paths,
    mat_compose,
    mat_dagger,
    mat_tensor,
    parse_mat_text,
    render_mat_text,
)

__all__ = [
    "MAX_CASES",
    "MAX_TABLE_ENTRIES",
    "parse_graph_text",
    "main",
]

# The most entries a dense table built by a command may have: the n x n
# distance table of ``shortest-path``, or the result of ``matmul``. Larger
# inputs exit 2 before any table is allocated. An empty dimension counts as
# one, as a 0 x n or n x 0 table still costs n column lists or n lines.
MAX_TABLE_ENTRIES = 1_000_000

# The most cases ``laws --cases`` accepts. The longest accepted run, 4000
# cases of additivity, the slowest suite, took 14.9 to 20.1 s in 3 fresh
# processes (seeds 0 to 2) on a shared 2-core Xeon: 15 to 16 s scaled to
# the speed of the benchmark's reference loop (bench/run.py).
MAX_CASES = 4000


def _check_table_size(what: str, rows: int, cols: int) -> None:
    size = max(rows, 1) * max(cols, 1)
    if size > MAX_TABLE_ENTRIES:
        raise SizeLimitExceeded(
            f"{what} would have {rows}x{cols} = {size} entries"
            f"{'' if rows and cols else ' (an empty dimension counts as 1)'},"
            f" above the cap of {MAX_TABLE_ENTRIES}"
        )


def parse_graph_text(text: str | Iterable[str]) -> Matrix:
    """The one-hop weight table of a graph in the line-oriented format: a
    node count line, then one ``src dst weight`` line per edge. ``text`` is
    the graph's text, or its lines as ``str.splitlines`` splits it, which
    are read one at a time. Each line is split once, at the whitespace that
    ``str.split`` drops, and blank lines are ignored. Node counts and
    indices are ``nat`` literals (ASCII digits), weights ``tropical``
    literals, each distinct text parsed once per call, and an index text
    is kept only once it is known to be in range. The table is checked
    against ``MAX_TABLE_ENTRIES`` at the count line, before any edge line
    is read. Each edge is one step: a parallel edge keeps the minimum, and
    an ``inf`` edge stores nothing; absent edges are the tropical zero."""
    index, weight_of = _GRAMMARS["nat"], _GRAMMARS["tropical"]
    parts: dict = {}  # neither grammar has rational parts to keep here
    n = values = None
    weights: dict = {}  # tested with `in`: inf parses to None
    nodes: dict = {}  # index text -> index, each in range
    lines = text.splitlines() if isinstance(text, str) else text
    for ln, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if n is None:
            if len(fields) != 1:
                raise FormatError(f"line {ln}: expected the node count alone")
            try:
                n = index(fields[0], parts)
            except FormatError as exc:
                raise FormatError(f"line {ln}: bad node count: {exc}") from None
            _check_table_size("the distance table", n, n)
            values = [None] * (n * n)
            continue
        if len(fields) != 3:
            raise FormatError(f"line {ln}: expected 'src dst weight'")
        src_text, dst_text, literal = fields
        src, dst = nodes.get(src_text), nodes.get(dst_text)
        if src is None or dst is None:
            try:
                if src is None:
                    src = index(src_text, parts)
                if dst is None:
                    dst = src if dst_text == src_text else index(dst_text, parts)
            except FormatError as exc:
                raise FormatError(f"line {ln}: bad node index: {exc}") from None
            if not 0 <= src < n or not 0 <= dst < n:
                raise FormatError(f"line {ln}: node index out of range (n = {n})")
            nodes[src_text], nodes[dst_text] = src, dst
        if literal not in weights:
            try:
                weights[literal] = weight_of(literal, parts)
            except FormatError as exc:
                raise FormatError(f"line {ln}: {exc}") from None
        w = weights[literal]
        if w is not None:
            k = src * n + dst
            old = values[k]
            if old is None or w < old:
                values[k] = w
    if n is None:
        raise FormatError("empty graph file: expected a node count")
    return _matrix(TROPICAL, n, n, values)


# The characters that _input_lines reads at a time before it finishes the
# line they end in.
_READ_HINT = 1 << 16


def _input_lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 input file as ``str.splitlines`` splits its
    text, read in batches of ``_READ_HINT`` characters and the rest of the
    line the batch ends in, so memory stays within a batch and the longest
    line, and a caller that stops early reads no further. The file is
    opened with ``newline=""``, so ``readline`` ends that line at its LF,
    CR or CRLF, never between a CR and its LF. A byte that is not UTF-8
    decodes to a lone surrogate (``surrogateescape``), which the batch's
    encoding meets: it is reported, with its offset in the file, after
    every line before its own."""
    offset = 0  # the bytes of the batches before this one
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as f:
        more = True  # a text read returns fewer characters only at the end
        while more:
            text = f.read(_READ_HINT)
            if more := len(text) == _READ_HINT:
                text += f.readline()
            try:
                offset += len(text.encode("utf-8"))
            except UnicodeEncodeError as exc:
                head = text[: exc.start]
                yield from head[: max(head.rfind("\n"), head.rfind("\r")) + 1].splitlines()
                raise FormatError(
                    f"{path}: not UTF-8 text (byte 0x{ord(text[exc.start]) - 0xDC00:02x}"
                    f" at offset {offset + len(head.encode('utf-8'))})"
                ) from None
            yield from text.splitlines()


def _cmd_laws(args) -> int:
    if args.cases > MAX_CASES:
        raise SizeLimitExceeded(f"--cases {args.cases} is above the cap of {MAX_CASES}")
    config = SuiteConfig(
        suite=args.suite,
        semiring=args.semiring,
        monoid=args.monoid,
        seed=args.seed,
        cases=args.cases,
    )
    return _print_report(run_suite(config))


def _cmd_matmul(args) -> int:
    if args.op == "dagger" and args.b is not None:
        raise FormatError("dagger takes a single matrix; drop -B")
    if args.op != "dagger" and args.b is None:
        raise FormatError(f"{args.op} needs a second matrix via -B")
    # Payloads from file to stdout: no Scalar, each tag checked by its header.
    paths = [args.a] if args.op == "dagger" else [args.a, args.b]
    with ExitStack() as files:
        lines = [files.enter_context(closing(_input_lines(path))) for path in paths]
        heads = [_mat_header(each) for each in lines]
        (_, n, m), (_, p, q) = heads[0], heads[-1]
        if args.op == "dagger":
            _check_table_size("the dagger", m, n)
            kernel = mat_dagger
        elif args.op == "compose":
            _check_table_size("the composite", n, q)
            kernel = mat_compose
        else:
            _check_table_size("the tensor", n * p, m * q)
            kernel = mat_tensor
        # One literal table per semiring named, shared by the files over it.
        tables = {name: _Literals(name) for name, _, _ in heads}
        mats = [parse_mat_text(each, head, tables[head[0]]) for each, head in zip(lines, heads)]
    sys.stdout.write(render_mat_text(kernel(*mats)))
    return 0


def _cmd_shortest_path(args) -> int:
    with closing(_input_lines(args.graph)) as lines:
        weights = parse_graph_text(lines)
    table = bounded_paths(weights, args.max_hops)
    rows = _render_rows(table.tag, table.values, table.rows, table.cols)
    sys.stdout.write("".join(row + "\n" for row in rows))
    return 0


def _cmd_roundtrip(args) -> int:
    return _print_report(run_roundtrip(args.adjunction, args.semiring, args.involutive))


def _diagnose(line: str) -> None:
    """Write one diagnostic line to stderr. A write that fails, say to a
    closed pipe, is dropped, so it never changes the exit status."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _print_report(report: SuiteReport) -> int:
    """Print the report; the exit code is 3 when a law's check raised an
    internal error, reported on stderr by the first such law, else 1 when a
    law failed."""
    print(report.render())
    internal = [e for e in report.entries if e[3] and e[3].startswith(_INTERNAL)]
    if internal:
        subject, law, _, detail = internal[0]
        more = f" (and {len(internal) - 1} more)" if len(internal) > 1 else ""
        _diagnose(f"internal error: {subject} :: {law}: {detail[len(_INTERNAL):]}{more}")
        return 3
    return 0 if report.ok else 1


def _nonneg_int(text: str) -> int:
    """An option value in the ``nat`` grammar: ASCII digits only, and no
    more of them than Python converts."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"{_quote(text)} is not a natural number")
    try:
        return _decimal(text)
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, without the top-level pass
    where it only picks the subparser: the subcommand that ``argv[0]``
    names parses the words after it, as that pass would hand them on. An
    argv that names no subcommand, or has words the subcommand leaves
    over, goes to the top-level parser, which prints every usage message
    and help text."""
    parser = build_parser()
    # The subcommands' parsers by name: the choices of the subparsers
    # action, the last action that build_parser adds.
    command = parser._actions[-1].choices.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (SemicatError, OSError) as exc:
        _diagnose(f"error: {exc}")
        return 2
    except Exception as exc:
        _diagnose(f"internal error: {type(exc).__name__}: {exc}")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
