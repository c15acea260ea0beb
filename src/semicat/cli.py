"""Command-line front end.

Four subcommands: ``laws`` runs a named law suite, ``matmul`` is a small
matrix calculator over the built-in semirings, ``shortest-path`` reads a
graph file straight into its tropical weight matrix A and prints the
bounded-hop distance table that :func:`semicat.matcat.bounded_paths`
computes, and ``roundtrip`` drives the adjunction transposes there and
back. This module parses arguments and input files, prints results and
maps errors to exit codes; the computing happens in the layers it calls.
:func:`main` parses the words after a subcommand's name by a table of
that subcommand's options when each is an exact option word, given once
and followed by a value it takes, and every other argv by the whole
parser of :func:`build_parser`, which prints every usage, help and error
text.
A ``.mat`` or graph file is read a line at a time by :func:`_input_lines`,
which reads it in binary batches cut at a line break and decodes each as
UTF-8: lines end where ``str.splitlines`` ends them, the first error in
file order is reported, and a bad line stops the read.
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
from functools import cache, lru_cache
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
# cases of additivity, the slowest suite, took 10.5 to 10.8 s in 3 fresh
# processes (seeds 0 to 2) on a shared 2-core Xeon: 12.6 to 13.1 s scaled
# to the speed of the benchmark's reference loop (bench/run.py).
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


# The bytes that _input_lines reads at a time.
_READ_HINT = 1 << 16


def _input_lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 input file as ``str.splitlines`` splits its
    text. The file is read in binary, ``_READ_HINT`` bytes at a time, and
    each batch is cut after its last LF, or after its last CR when that CR
    is not the batch's final byte (an LF may follow it), so no cut falls
    between a CR and its LF or inside a character; the bytes after the cut
    carry into the next batch. Each cut decodes strictly as UTF-8, so
    memory stays within a batch and the longest line, and a caller that
    stops early reads no further. At a byte that is not UTF-8 the lines of
    the cut before that byte's own are yielded, then it is reported with
    its offset in the file."""
    offset = 0  # the bytes of the cuts before this one
    held = bytearray()  # the bytes after the last cut: no LF, a CR only last
    with open(path, "rb", buffering=0) as f:
        more = True
        while more:
            start = max(len(held) - 1, 0)  # where the next cut's break can be
            data = f.read(_READ_HINT)
            held += data
            if more := bool(data):
                cut = max(held.rfind(b"\n", start), held.rfind(b"\r", start, -1)) + 1
            else:
                cut = len(held)
            try:
                text = held[:cut].decode()
            except UnicodeDecodeError as exc:
                head = held[: exc.start]
                head = head[: max(head.rfind(b"\n"), head.rfind(b"\r")) + 1]
                yield from head.decode().splitlines()
                raise FormatError(
                    f"{path}: not UTF-8 text (byte 0x{held[exc.start]:02x}"
                    f" at offset {offset + exc.start})"
                ) from None
            del held[:cut]
            offset += cut
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


@lru_cache(maxsize=1)
def _option_tables(parser: argparse.ArgumentParser) -> dict:
    """For each subcommand of ``parser``, by name: the table from each
    option word of its store and ``store_true`` actions to the action, the
    values of an empty parse (the actions' defaults, and the
    ``set_defaults`` of other dests), and the dests it requires. Built once
    for each parser that :func:`build_parser` returns."""
    tables = {}
    # The subparsers action is the last action that build_parser adds.
    for name, command in parser._actions[-1].choices.items():
        stored = [
            a for a in command._actions
            if isinstance(a, (argparse._StoreAction, argparse._StoreTrueAction))
        ]
        table = {word: a for a in stored for word in a.option_strings}
        empty = {**command._defaults, **{a.dest: a.default for a in stored}}
        required = [a.dest for a in command._actions if a.required]
        tables[name] = table, empty, required
    return tables


def _by_table(words, table: dict, empty: dict, required: list):
    """The namespace that the subcommand's parser returns for ``words``,
    or None if the table does not take them. It takes only exact option
    words, each given once and, but for a ``store_true`` flag, followed by
    a value that does not start with ``-`` and that the action's ``type``
    and ``choices`` accept; and it needs every required option."""
    values = {}
    words = iter(words)
    for word in words:
        action = table.get(word)
        if action is None or action.dest in values:
            return None
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        text = next(words, "-")
        if text.startswith("-"):
            return None
        try:
            value = action.type(text) if action.type else text
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    for dest in required:
        if dest not in values:
            return None
    return argparse.Namespace(**{**empty, **values})


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``. The words after a subcommand's
    name are parsed by that subcommand's table (:func:`_by_table`) when it
    takes them; every other argv goes to the top-level parser. So every
    usage message, help text and error comes from argparse."""
    parser = build_parser()
    table = _option_tables(parser).get(argv[0]) if argv else None
    if table is not None:
        args = _by_table(argv[1:], *table)
        if args is not None:
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
