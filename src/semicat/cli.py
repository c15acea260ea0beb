"""Command-line front end.

Four subcommands: ``laws`` runs a named law suite, ``matmul`` is a small
matrix calculator over the built-in semirings, ``shortest-path`` reads a
graph file straight into its tropical weight matrix A and prints the
bounded-hop distance table that :func:`semicat.matcat.bounded_paths`
computes, and ``roundtrip`` drives the adjunction transposes there and
back. This module parses arguments and input files, prints results and
maps errors to exit codes; the computing happens in the layers it calls.
A ``.mat`` or graph file is read a line at a time by :func:`_input_lines`:
the first error in file order is reported, and a bad line stops the read.
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
from functools import cache, partial
from typing import Callable, Iterable, Iterator

from .adjunctions import (
    ADJUNCTION_NAMES,
    SUITE_NAMES,
    SuiteConfig,
    SuiteReport,
    _INTERNAL,
    run_roundtrip,
    run_suite,
)
from .algebra import _GRAMMARS, _NAT_RE, TROPICAL, _decimal, _quote, _render_rows
from .errors import FormatError, SemicatError, SizeLimitExceeded
from .matcat import (
    Matrix,
    _kernel,
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

# The most cases ``laws --cases`` accepts. additivity, the slowest suite,
# took 3.4 to 4.0 ms a case at the speed of the benchmark's reference loop
# (bench/run.py, a 2.1 GHz Xeon), so the longest accepted run takes 14 to
# 16 s.
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
    are read one at a time. Blank lines are ignored. Node counts and
    indices are ``nat`` literals (ASCII digits), weights ``tropical``
    literals, each distinct text parsed once per call, and an index text
    is kept only once it is known to be in range. The table is checked
    against ``MAX_TABLE_ENTRIES`` at the count line, before any edge line
    is read. Parallel edges collapse to their minimum; absent edges are the
    tropical zero."""
    index, weight_of = _GRAMMARS["nat"], _GRAMMARS["tropical"]
    parts: dict = {}  # neither grammar has rational parts to keep here
    add = _kernel(TROPICAL).add
    n = values = None
    weights: dict = {}  # tested with `in`: inf parses to None
    nodes: dict = {}  # index text -> index, each in range
    lines = text.splitlines() if isinstance(text, str) else text
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
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
        src, dst = nodes.get(fields[0]), nodes.get(fields[1])
        if src is None or dst is None:
            try:
                if src is None:
                    src = index(fields[0], parts)
                if dst is None:
                    dst = src if fields[1] == fields[0] else index(fields[1], parts)
            except FormatError as exc:
                raise FormatError(f"line {ln}: bad node index: {exc}") from None
            if not 0 <= src < n or not 0 <= dst < n:
                raise FormatError(f"line {ln}: node index out of range (n = {n})")
            nodes[fields[0]], nodes[fields[1]] = src, dst
        literal = fields[2]
        if literal not in weights:
            try:
                weights[literal] = weight_of(literal, parts)
            except FormatError as exc:
                raise FormatError(f"line {ln}: {exc}") from None
        k = src * n + dst
        values[k] = add(values[k], weights[literal])
    if n is None:
        raise FormatError("empty graph file: expected a node count")
    return _matrix(TROPICAL, n, n, values)


def _not_utf8(path: str, exc: UnicodeDecodeError, offset: int) -> FormatError:
    """The error for a byte of ``path`` that is not UTF-8, ``offset`` being
    where the bytes that ``exc`` decoded start in the file."""
    return FormatError(
        f"{path}: not UTF-8 text"
        f" (byte 0x{exc.object[exc.start]:02x} at offset {offset + exc.start})"
    )


# The bytes that _input_lines reads at a time.
_READ_BLOCK = 1 << 16


def _input_lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 input file as ``str.splitlines`` splits its
    text, read ``_READ_BLOCK`` bytes at a time, so memory stays within a
    block and the longest line, and a caller that stops early reads no
    further. Each block is decoded up to its last LF or CR; the rest waits
    for the next block, and so does a CR that ends a block, which may be
    the first half of a CRLF. A byte that is not UTF-8 is reported after
    every line before its own."""
    offset = 0  # where the bytes not yet decoded start in the file

    def lines_of(raw: bytes) -> Iterator[str]:
        nonlocal offset
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            good = max(raw.rfind(b"\n", 0, exc.start), raw.rfind(b"\r", 0, exc.start)) + 1
            yield from raw[:good].decode("utf-8").splitlines()
            raise _not_utf8(path, exc, offset) from None
        offset += len(raw)
        yield from text.splitlines()

    head: list[bytes] = []  # the bytes after the last line break decoded
    with open(path, "rb") as f:
        for block in iter(partial(f.read, _READ_BLOCK), b""):
            if head and head[-1].endswith(b"\r") and not block.startswith(b"\n"):
                yield from lines_of(b"".join(head))
                head = []
            end = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)) + 1
            if end:
                yield from lines_of(b"".join([*head, block[:end]]))
                head = []
            head.append(block[end:])
    yield from lines_of(b"".join(head))


def _parse_file(path: str, parse: Callable[[Iterator[str]], Matrix]) -> Matrix:
    """``parse`` applied to the lines of the input file ``path``; the file
    is closed as soon as ``parse`` returns or raises."""
    with closing(_input_lines(path)) as lines:
        return parse(lines)


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
        mats = [parse_mat_text(each, head) for each, head in zip(lines, heads)]
    sys.stdout.write(render_mat_text(kernel(*mats)))
    return 0


def _cmd_shortest_path(args) -> int:
    table = bounded_paths(_parse_file(args.graph, parse_graph_text), args.max_hops)
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
    if not _NAT_RE.match(text):
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
