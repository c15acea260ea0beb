"""Command-line behavior: graph parsing, bounded path search, matrix
operations, law suites, and exit codes."""

import argparse
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semicat.adjunctions as adjunctions
import semicat.algebra as algebra
import semicat.cli as cli
import semicat.matcat as matcat
from semicat.adjunctions import ADJUNCTION_NAMES, SUITE_NAMES, SuiteReport
from semicat.algebra import SEMIRINGS, TROPICAL, Scalar, tropical
from semicat.cli import bounded_paths, main, parse_graph_text
from semicat.errors import FormatError, SemicatError, SizeLimitExceeded
from semicat.matcat import (
    mat_compose,
    mat_dagger,
    mat_identity,
    mat_tensor,
    matrix,
    parse_mat_text,
    render_mat_text,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def golden(name: str) -> str:
    return (FIXTURES / name).read_text()


def test_parse_graph_text():
    # The one-hop table on payloads, with None for the absent edges.
    a = parse_graph_text("3\n\n0 1 4\n1 2 -2\n")
    assert (a.semiring, a.rows, a.cols) == (TROPICAL, 3, 3)
    assert a.values == (None, 4, None, None, None, -2, None, None, None)
    # Repeated weight texts, and two spellings of one weight.
    a = parse_graph_text("3\n0 1 -2\n1 2 -2\n2 0 inf\n0 2 07\n2 1 7\n1 0 inf\n")
    assert a.values == (None, -2, 7, None, None, -2, None, 7, None)


def test_parse_graph_errors():
    with pytest.raises(FormatError, match="empty graph"):
        parse_graph_text("")
    with pytest.raises(FormatError, match="line 1"):
        parse_graph_text("two\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_graph_text("2\n0 1\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_graph_text("2\n0 1 1\n0 2 1\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_graph_text("2\n0 1 x\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty graph file: expected a node count"),
        ("\n  \n", "empty graph file: expected a node count"),
        ("2 3\n", "line 1: expected the node count alone"),
        ("two\n", "line 1: bad node count: bad natural literal 'two'"),
        ("\n-2\n", "line 2: bad node count: bad natural literal '-2'"),
        ("2\n0 1\n", "line 2: expected 'src dst weight'"),
        ("2\n0 1 1 1\n", "line 2: expected 'src dst weight'"),
        ("2\n0 x 1\n", "line 2: bad node index: bad natural literal 'x'"),
        ("2\nx y 1\n", "line 2: bad node index: bad natural literal 'x'"),
        ("2\n+1 0 1\n", "line 2: bad node index: bad natural literal '+1'"),
        ("2\n0 1 1\n0 2 1\n", "line 3: node index out of range (n = 2)"),
        ("2\n2 x 1\n", "line 2: bad node index: bad natural literal 'x'"),
        ("2\n2 0 x\n", "line 2: node index out of range (n = 2)"),
        ("2\n0 1 x\n", "line 2: bad tropical literal 'x'"),
        ("2\n0 1 -3\n1 0 -3\n1 1 --3\n", "line 4: bad tropical literal '--3'"),
        ("2\n0 1 inf\n1 0 Inf\n", "line 3: bad tropical literal 'Inf'"),
    ],
)
def test_graph_errors_are_pinned(text, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_graph_text(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("2\n0 1 1\n1 2 1\n", "line 3: node index out of range (n = 2)"),
        ("2\n0 1 1\n0 x 1\n", "line 3: bad node index: bad natural literal 'x'"),
        ("2\n0 1 1\n2 0 1\n", "line 3: node index out of range (n = 2)"),
        ("2\n0 2 1\n0 1 1\n", "line 2: node index out of range (n = 2)"),
        ("2\n1 1 1\n2 2 1\n", "line 3: node index out of range (n = 2)"),
        ("2\n0 1 1\n1 0 1\n1 01 x\n", "line 4: bad tropical literal 'x'"),
    ],
)
def test_graph_errors_after_an_index_text_is_kept(text, message):
    # Texts seen on earlier lines are kept, the others parsed and checked
    # as on a first line, and a text out of range is never kept.
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_graph_text(text)


def test_each_index_text_is_parsed_once(monkeypatch):
    parsed = []
    nat = algebra._GRAMMARS["nat"]
    monkeypatch.setitem(
        algebra._GRAMMARS, "nat", lambda text, parts: parsed.append(text) or nat(text, parts)
    )
    lines = [f"{i % 7} {(3 * i) % 7} {i % 5}" for i in range(200)] + ["4 4 1", "04 4 2"]
    a = parse_graph_text("7\n" + "\n".join(lines) + "\n")
    assert sorted(parsed) == sorted(["7", "04", *map(str, range(7))])
    assert a.entry(4, 4) == tropical(1)  # "04" is node 4: the two edges collapse


def test_the_graph_cap_is_on_the_node_count():
    # 1000 nodes fill the cap exactly; 1001 fail before any edge is read.
    a = parse_graph_text("1000\n999 0 -1\n")
    assert (a.rows, a.cols, a.values[-1000]) == (1000, 1000, -1)
    assert a.values.count(None) == 999_999
    with pytest.raises(SizeLimitExceeded, match="^the distance table would have 1001x1001 "):
        parse_graph_text("1001\n0 1 x\n")


def test_graph_matrix_merges_parallel_edges():
    a = parse_graph_text("2\n0 1 5\n0 1 2\n")
    assert a.entry(0, 1) == tropical(2)
    assert a.entry(1, 0) == TROPICAL.zero
    assert a.entry(0, 0) == TROPICAL.zero
    # The cheapest edge wins in either order, and inf adds nothing.
    assert parse_graph_text("2\n0 1 2\n0 1 5\n0 1 inf\n").entry(0, 1) == tropical(2)


def reference_graph_values(text: str) -> tuple:
    """The one-hop table by the README's graph grammar, read apart from the
    reader: whitespace-separated fields, blank lines skipped, a node count,
    then ``src dst weight`` edges, each pair's least weight kept. An
    ``inf`` weight adds no edge."""
    rows = [fields for line in text.splitlines() if (fields := line.strip().split())]
    n = int(rows[0][0])
    found: dict = {}
    for src, dst, weight in rows[1:]:
        if weight != "inf":
            found.setdefault((int(src), int(dst)), []).append(int(weight))
    return tuple(min(found[i, j]) if (i, j) in found else None for i in range(n) for j in range(n))


INLINE_SPACES = st.sampled_from([" ", "  ", "\t", " \t ", "\u00a0", "\u3000"])
EDGE_SPACES = st.sampled_from(["", " ", "\t", "\u3000 "])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def graph_texts(draw):
    """Graph texts over n <= 4 nodes: parallel edges and self-loops come
    from the few pairs, inf edges land before and after finite ones, and
    the lines carry blank lines, tabs and other in-line whitespace, and
    numerals with leading zeros."""
    n = draw(st.integers(1, 4))
    zeros = st.integers(0, 2).map(lambda k: "0" * k)

    def nat(i):
        return draw(zeros) + str(i)

    def weight(w):
        if w is None:
            return "inf"
        return ("-" if w < 0 or (w == 0 and draw(st.booleans())) else "") + nat(abs(w))

    node = st.integers(0, n - 1)
    edges = draw(
        st.lists(st.tuples(node, node, st.one_of(st.none(), st.integers(-30, 30))), max_size=14)
    )
    lines = [[nat(n)]] + [[nat(s), nat(d), weight(w)] for s, d, w in edges]
    out = []
    for fields in lines:
        for _ in range(draw(st.integers(0, 1))):
            out.append(draw(EDGE_SPACES) + draw(LINE_ENDS))
        line = fields[0]
        for field in fields[1:]:
            line += draw(INLINE_SPACES) + field
        out.append(draw(EDGE_SPACES) + line + draw(EDGE_SPACES) + draw(LINE_ENDS))
    return "".join(out)


@settings(max_examples=300, deadline=None)
@given(graph_texts())
@example("2\n0 1 5\n0 1 2\n1 0 2\n1 0 5\n")  # parallel edges in either order
@example("2\n0 1 inf\n0 1 3\n1 0 3\n1 0 inf\n")  # inf before and after a finite edge
@example("\n \t\n3\r\n02\t1 -0\n1 1\u3000-07 \n\n2 002 0\r")
def test_the_graph_reader_matches_the_grammar(text):
    want = reference_graph_values(text)
    assert parse_graph_text(text).values == want
    assert parse_graph_text(text.splitlines()).values == want


def test_bounded_paths_zero_hops_is_identity():
    a = parse_graph_text("3\n0 1 1\n")
    assert bounded_paths(a, 0) == mat_identity(TROPICAL, 3)


def test_bounded_paths_cycle_oracle():
    a = parse_graph_text("3\n0 1 1\n1 2 1\n2 0 1\n")
    t = tropical
    assert bounded_paths(a, 2) == matrix(
        TROPICAL,
        [
            [t(0), t(1), t(2)],
            [t(2), t(0), t(1)],
            [t(1), t(2), t(0)],
        ],
    )


def test_matmul_compose_golden(capsys):
    code = main(["matmul", "--op", "compose", "-A", fx("compose_a.mat"), "-B", fx("compose_b.mat")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == golden("compose_ab.out")


@pytest.mark.parametrize(
    "pair", ["compose_wide", "compose_gauss", "compose_trop", "compose_ratnn", "compose_bool"]
)
def test_matmul_packed_compose_golden(capsys, pair):
    """A nat 12 x 12 and a gaussian 10 x 10 product, large enough for the
    packed integer sums, a tropical 24 x 24 one with infinities and
    negative weights, large enough for the packed min-plus rows, a ratnn
    12 x 10 by 10 x 11 one with numerators and denominators past 2**64,
    whose dots reduce to 0, to integers and to big fractions, and a bool
    20 x 300 by 300 x 24 one with all-false rows and columns and an entry
    of 270 true products, past what a byte that counted them would hold,
    against output recorded from one sum, min or any per entry and one
    ``Fraction(n, d)`` per rational."""
    code = main(["matmul", "--op", "compose", "-A", fx(f"{pair}_a.mat"), "-B", fx(f"{pair}_b.mat")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == golden(f"{pair}_ab.out")


def test_matmul_dagger_golden(capsys):
    code = main(["matmul", "--op", "dagger", "-A", fx("dagger_in.mat")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == golden("dagger.out")


def test_matmul_usage_errors(capsys):
    assert main(["matmul", "--op", "compose", "-A", fx("compose_a.mat")]) == 2
    assert main(["matmul", "--op", "dagger", "-A", fx("dagger_in.mat"), "-B", fx("compose_a.mat")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize(
    "argv,line",
    [
        (["--op", "dagger", "-B", fx("compose_b.mat")], "dagger takes a single matrix; drop -B"),
        (["--op", "compose"], "compose needs a second matrix via -B"),
    ],
    ids=["dagger-with-B", "compose-without-B"],
)
def test_matmul_usage_is_checked_before_a_file_is_read(capsys, argv, line):
    assert main(["matmul", "-A", fx("missing.mat"), *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")


def test_matmul_mismatches(capsys):
    assert main(["matmul", "--op", "compose", "-A", fx("compose_b.mat"), "-B", fx("compose_a.mat")]) == 2
    assert main(["matmul", "--op", "compose", "-A", fx("compose_a.mat"), "-B", fx("dagger_in.mat")]) == 2
    assert main(["matmul", "--op", "compose", "-A", fx("missing.mat"), "-B", fx("compose_a.mat")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "op,a,b,line",
    [
        ("compose", "compose_b.mat", "compose_a.mat", "error: cannot compose 2x1 with 2x2"),
        ("compose", "compose_a.mat", "dagger_in.mat",
         "error: matrices over nat and gaussian cannot be combined"),
        ("tensor", "compose_a.mat", "dagger_in.mat",
         "error: matrices over nat and gaussian cannot be combined"),
    ],
)
def test_matmul_mismatch_lines_are_pinned(capsys, op, a, b, line):
    assert main(["matmul", "--op", op, "-A", fx(a), "-B", fx(b)]) == 2
    assert capsys.readouterr() == ("", line + "\n")


def test_a_mixed_tensor_over_the_cap_reports_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_TABLE_ENTRIES", 15)
    argv = ["matmul", "--op", "tensor", "-A", fx("compose_a.mat"), "-B", fx("dagger_in.mat")]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: the tensor would have 4x4 = 16 entries, above the cap of 15\n"
    )


# Literals in the README grammar; gaussian ones share their rational parts.
_PARTS = st.sampled_from(["0", "1/2", "2/4", "-3", "7/3"])
MAT_LITERALS = {
    "nat": st.text("0127", min_size=1, max_size=3),
    "bool": st.sampled_from(["0", "1"]),
    "tropical": st.one_of(st.just("inf"), st.integers(-9, 9).map(str)),
    "ratnn": st.sampled_from(["0", "1", "1/2", "2/4", "7/3", "12"]),
    "gaussian": st.one_of(
        _PARTS,
        _PARTS.map(lambda q: f"{q}i"),
        st.builds("{}+{}i".format, _PARTS, _PARTS.filter(lambda q: q[0] != "-")),
    ),
}
MAT_APIS = {"compose": mat_compose, "tensor": mat_tensor, "dagger": mat_dagger}


@st.composite
def matmul_cases(draw):
    """(op, texts): the .mat files of one matmul call over one semiring,
    shaped to compose when op is compose; any dimension may be 0."""
    op = draw(st.sampled_from(sorted(MAT_APIS)))
    name = draw(st.sampled_from(sorted(MAT_LITERALS)))
    pool = draw(st.lists(MAT_LITERALS[name], min_size=1, max_size=4))
    n, m, p, q = (draw(st.integers(0, 3)) for _ in range(4))
    shapes = {"compose": [(n, m), (m, p)], "tensor": [(n, m), (p, q)], "dagger": [(n, m)]}
    texts = []
    for rows, cols in shapes[op]:
        grid = [" ".join(draw(st.sampled_from(pool)) for _ in range(cols)) for _ in range(rows)]
        texts.append("\n".join([f"semiring {name} {rows} {cols}", *grid]) + "\n")
    return op, texts


@settings(max_examples=150, deadline=None)
@given(matmul_cases())
@example(("compose", ["semiring tropical 2 2\ninf 1\n-3 inf\n", "semiring tropical 2 0\n\n\n"]))
@example(("tensor", ["semiring gaussian 1 2\n1/2+1/2i 1/2i\n", "semiring gaussian 0 3\n"]))
@example(("dagger", ["semiring tropical 0 2\n"]))
def test_matmul_prints_what_the_matrix_api_renders(case):
    op, texts = case
    want = render_mat_text(MAT_APIS[op](*map(parse_mat_text, texts)))
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["matmul", "--op", op]
        for flag, text in zip(["-A", "-B"], texts):
            Path(tmp, flag).write_text(text)
            argv += [flag, str(Path(tmp, flag))]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert (code, out.getvalue(), err.getvalue()) == (0, want, "")


@pytest.mark.parametrize(
    "argv,out",
    [
        (["--op", "compose", "-A", fx("compose_a.mat"), "-B", fx("compose_b.mat")],
         golden("compose_ab.out")),
        (["--op", "tensor", "-A", fx("compose_a.mat"), "-B", fx("compose_b.mat")],
         "semiring nat 4 2\n3 6\n4 8\n0 3\n0 4\n"),
        (["--op", "dagger", "-A", fx("dagger_in.mat")], golden("dagger.out")),
        (["--op", "tensor", "-A", fx("tensor_gauss_a.mat"), "-B", fx("tensor_gauss_b.mat")],
         golden("tensor_gauss_ab.out")),
        (["--op", "dagger", "-A", fx("dagger_gauss_in.mat")], golden("dagger_gauss.out")),
    ],
    ids=["compose", "tensor", "dagger", "gaussian-tensor", "gaussian-dagger"],
)
def test_matmul_boxes_no_entry(capsys, monkeypatch, argv, out):
    """From the files to stdout, matmul builds no Scalar, unwraps no scalar
    with _payloads and boxes no Matrix entry."""
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    for module in (algebra, matcat):
        counting(module, "_payloads")
    counting(matcat.Matrix, "_box")
    counting(Scalar, "__init__")
    assert main(["matmul", *argv]) == 0
    assert calls == []
    assert capsys.readouterr().out == out


def test_shortest_path_goldens(capsys):
    assert main(["shortest-path", "--graph", fx("cycle3.graph"), "--max-hops", "2"]) == 0
    first = capsys.readouterr().out
    assert first == golden("cycle3_k2.out")
    assert main(["shortest-path", "--graph", fx("cycle3.graph"), "--max-hops", "2"]) == 0
    assert capsys.readouterr().out == first
    assert main(["shortest-path", "--graph", fx("line4.graph"), "--max-hops", "3"]) == 0
    assert capsys.readouterr().out == golden("line4_k3.out")


@pytest.mark.parametrize(
    "graph, hops",
    [
        ("cycle3.graph", "2"),
        ("line4.graph", "3"),
        ("sparse12.graph", "3"),
        ("negcycle7.graph", "3"),
        ("dense18.graph", "17"),
        ("dense18.graph", "9"),
    ],
)
def test_shortest_path_builds_no_scalar(capsys, monkeypatch, graph, hops):
    """The table is read, computed and written on payloads: no _payloads
    call and no Scalar, not even for the weights of the file. The sparse12
    and negcycle7 tables were recorded when the squaring answered them (3
    hops fall short of sparse12's 10-hop paths, and negcycle7 has a negative
    cycle); relaxation answers them now. The dense18 tables, recorded from
    the closures on lists, come from the packed closure at 17 hops and the
    packed hop closure at 9."""
    unwraps, boxed = [], []
    for module in (algebra, matcat, cli):
        if hasattr(module, "_payloads"):
            original = module._payloads
            monkeypatch.setattr(
                module, "_payloads", lambda *a, f=original: unwraps.append(a) or f(*a)
            )
    scalar_init = Scalar.__init__
    monkeypatch.setattr(
        Scalar, "__init__", lambda self, *a: boxed.append(a) or scalar_init(self, *a)
    )
    assert main(["shortest-path", "--graph", fx(graph), "--max-hops", hops]) == 0
    assert unwraps == []
    assert boxed == []
    assert capsys.readouterr().out == golden(f"{graph.split('.')[0]}_k{hops}.out")


def test_shortest_path_on_the_empty_graph_writes_no_rows(capsys, tmp_path):
    empty = tmp_path / "empty.graph"
    empty.write_text("0\n")
    assert main(["shortest-path", "--graph", str(empty), "--max-hops", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ""


def test_shortest_path_bad_inputs(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("3\n0 7 1\n")
    assert main(["shortest-path", "--graph", str(bad), "--max-hops", "2"]) == 2
    assert "line 2" in capsys.readouterr().err
    assert main(["shortest-path", "--graph", fx("cycle3.graph"), "--max-hops", "-1"]) == 2


def test_shortest_path_size_cap(capsys, tmp_path):
    huge = tmp_path / "huge.graph"
    huge.write_text("100000000\n")
    assert main(["shortest-path", "--graph", str(huge), "--max-hops", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the distance table would have")
    assert f"cap of {cli.MAX_TABLE_ENTRIES}" in captured.err


def test_shortest_path_size_cap_is_checked_at_the_count_line(capsys, tmp_path):
    # The bad weight on line 2 is never read: the count alone is over the cap.
    over = tmp_path / "over.graph"
    over.write_text("1001\n0 1 x\n")
    assert main(["shortest-path", "--graph", str(over), "--max-hops", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the distance table would have 1001x1001 = 1002001 entries,"
        " above the cap of 1000000\n"
    )


def test_an_over_cap_count_line_exits_before_a_later_byte_is_decoded(capsys, tmp_path):
    # The file is read a line at a time, so the 0xff after the count line
    # is never decoded: the cap, not the UTF-8 error, is reported.
    over = tmp_path / "over.graph"
    over.write_bytes(b"1001\n\xff\n")
    assert main(["shortest-path", "--graph", str(over), "--max-hops", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the distance table would have 1001x1001 = 1002001 entries,"
        " above the cap of 1000000\n"
    )


LINE_TEXTS = st.lists(
    st.sampled_from(["\n", "\r", "\r\n", "\r\r\n", "0 1 5", "\u00e9", "\x0b", "\u2028", " "]),
    max_size=30,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(LINE_TEXTS, st.integers(1, 9))
@example("3\r\n0 1 5\r\n", 2)  # a batch of 2 ends in the CR after "3"; the next starts with its LF
@example("ab\r\r\ncd", 3)  # a batch ends in a lone CR, and the next starts with a CRLF
@example("\u00e9\r\u00e9", 1)  # a batch of 1 is half a two-byte character
def test_input_lines_are_the_texts_splitlines(text, hint):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "g.graph")
        path.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_READ_HINT", hint)
            assert list(cli._input_lines(str(path))) == text.splitlines()


# Pieces of UTF-8 and not: line breaks, ASCII, two- to four-byte
# characters, line separators that only str.splitlines knows, a lone
# continuation byte, bytes never in UTF-8, and truncated sequences.
BYTE_PIECES = [
    b"\n", b"\r", b"\r\n", b"0 1 5", b" ", b"\x0b",
    *(c.encode() for c in "\u00e9\u20ac\U0001f600\u2028\x85"),
    b"\x80", b"\xff", b"\xc0\xaf", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(BYTE_PIECES), max_size=24).map(b"".join), st.integers(1, 9))
@example(b"ab\r\ncd", 3)  # a batch ends in a CR, and the next starts with its LF
@example(b"ab\rcd\r", 3)  # a batch ends in a lone CR
@example("a\u00e9\r\n".encode(), 2)  # a two-byte character across two batches
@example("\u20ac\r\n\U0001f600".encode() + b"\xff", 4)  # four-byte, then a bad byte
@example(b"ab\r\n\xe2\x82cd", 5)  # a truncated character across a batch end
def test_input_lines_yield_and_raise_as_the_bytes_decode(data, hint):
    # test_interpreters imports this module, so its oracle is imported here.
    from test_interpreters import expected_read, read_every_input

    assert read_every_input([data.hex()], [hint]) == [expected_read(data)]


@pytest.mark.parametrize("hint", [7, 8, 9, 64])
def test_a_line_that_ends_a_read_hint_batch_in_cr_is_parsed_before_the_next_is_decoded(
    capsys, monkeypatch, tmp_path, hint
):
    # Each batch is _READ_HINT bytes, cut after its last line break. At 7
    # and 8 the 0xff comes in a later batch than line 2 (at 8 the first
    # batch ends in the CR after "x", which waits for the next byte); from 9
    # up it is in the first batch, and at 64 that batch's decoding fails at
    # it after yielding the lines before. At every hint line 2 is parsed,
    # and fails, before the 0xff on line 3 is reported.
    monkeypatch.setattr(cli, "_READ_HINT", hint)
    path = tmp_path / "g.graph"
    path.write_bytes(b"3\r0 1 x\r\xff\r")
    assert main(["shortest-path", "--graph", str(path), "--max-hops", "1"]) == 2
    assert capsys.readouterr().err == "error: line 2: bad tropical literal 'x'\n"


def test_the_ci_fixtures_of_a_cr_only_and_a_non_utf8_graph(capsys, monkeypatch):
    # The installed command's CI step diffs these two runs against the same
    # fixtures, from the repository root.
    monkeypatch.chdir(FIXTURES.parent.parent)
    cr = FIXTURES / "cycle3_cr.graph"
    assert b"\n" not in cr.read_bytes()
    assert cr.read_bytes().replace(b"\r", b"\n") == (FIXTURES / "cycle3.graph").read_bytes()
    assert main(["shortest-path", "--graph", "tests/fixtures/cycle3_cr.graph", "--max-hops", "2"]) == 0
    assert capsys.readouterr() == (golden("cycle3_k2.out"), "")
    argv = ["shortest-path", "--graph", "tests/fixtures/latin1.graph", "--max-hops", "2"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", golden("latin1_k2.err"))


def test_a_cr_only_over_cap_graph_exits_2_within_a_block_of_memory(tmp_path):
    # Every line ends in a lone CR, so the whole 16 MB is one LF-free run of
    # bytes. The count line is over the cap: the child exits 2 after one
    # read, and its peak memory does not grow with the file.
    resource = pytest.importorskip("resource")
    graph = tmp_path / "cr.graph"
    edge = b"0 1 5\r"
    graph.write_bytes(b"1001\r" + edge * (16 * 2**20 // len(edge)))
    peaks = tmp_path / "peaks"
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = (
        f"import resource, sys; sys.path.insert(0, {src!r}); "
        "from semicat.cli import main; "
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
        "before = peak(); code = main(sys.argv[2:]); "
        "open(sys.argv[1], 'w').write(f'{before} {peak()}'); raise SystemExit(code)"
    )
    argv = ["shortest-path", "--graph", str(graph), "--max-hops", "1"]
    run = subprocess.run(
        [sys.executable, "-c", code, str(peaks), *argv], capture_output=True, text=True, timeout=120
    )
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == (
        "error: the distance table would have 1001x1001 = 1002001 entries,"
        " above the cap of 1000000\n"
    )
    before, after = map(int, peaks.read_text().split())
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in KiB on Linux
    assert (after - before) * unit < 4 * 2**20, (before, after)


@pytest.mark.parametrize(
    "text, error_line",
    [
        ("3\n0 1 4\n1 2 -2\n", None),
        ("3\r\n0 1 4\r\n1 2 -2\r\n", None),
        ("3\r0 1 4\r1 2 -2\r", None),
        ("\n\n3\n\n0 1 4\n\n\n1 2 -2\n\n", None),
        ("3\n0\t1\t4\n\t1 2\t-2\t\n", None),
        ("3\n0 1 4\n1 2 -2", None),
        ("3\n0 1 4\f1 2 -2\n", None),
        ("3\n0 1 4\u20281 2 -2\n", None),
        ("3\n0 1\f4\n", 2),
        ("3\r\n0 1 4\r\n1 2\u2028-2\r\n", 3),
        ("3\r0 1 4\r0 7 1\r", 3),
        ("3\n0 1 4\r\n\r\n\t\n0 1 x", 5),
    ],
    ids=[
        "lf", "crlf", "cr", "blank-lines", "tabs", "no-final-newline", "form-feed",
        "u2028", "form-feed-in-an-edge", "u2028-in-an-edge", "cr-error", "mixed-error",
    ],
)
def test_a_graph_file_and_its_text_read_alike(capsys, tmp_path, text, error_line):
    path = tmp_path / "g.graph"
    path.write_bytes(text.encode("utf-8"))
    code = main(["shortest-path", "--graph", str(path), "--max-hops", "2"])
    captured = capsys.readouterr()
    try:
        table = bounded_paths(parse_graph_text(text), 2)
    except FormatError as exc:
        assert str(exc).startswith(f"line {error_line}: ")
        assert (code, captured.out, captured.err) == (2, "", f"error: {exc}\n")
    else:
        assert error_line is None
        rows = algebra._render_rows(table.tag, table.values, table.rows, table.cols)
        assert (code, captured.out, captured.err) == (0, "".join(r + "\n" for r in rows), "")


def test_matmul_size_cap(capsys, tmp_path):
    # 1xk tensor 1xk is 1 x k^2, just over the cap; the inputs stay small.
    k = math.isqrt(cli.MAX_TABLE_ENTRIES) + 1
    row = tmp_path / "row.mat"
    row.write_text(f"semiring nat 1 {k}\n" + " ".join(["1"] * k) + "\n")
    col = tmp_path / "col.mat"
    col.write_text(f"semiring nat {k} 1\n" + "1\n" * k)
    assert main(["matmul", "--op", "tensor", "-A", str(row), "-B", str(row)]) == 2
    assert main(["matmul", "--op", "compose", "-A", str(col), "-B", str(row)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(f"above the cap of {cli.MAX_TABLE_ENTRIES}") == 2
    assert "error: the tensor would have" in captured.err
    assert "error: the composite would have" in captured.err


@pytest.mark.parametrize(
    "op,a,b,what",
    [
        ("dagger", "wide", None, "dagger"),
        ("compose", "empty", "wide", "composite"),
        ("tensor", "wide", "one", "tensor"),
    ],
)
def test_matmul_empty_dimension_counts_toward_the_cap(capsys, tmp_path, op, a, b, what):
    # A 0 x (cap + 1) file holds no entries, but its dagger is cap + 1 empty
    # lines and a compose with it builds cap + 1 empty columns.
    files = {
        "wide": f"semiring nat 0 {cli.MAX_TABLE_ENTRIES + 1}\n",
        "empty": "semiring nat 0 0\n",
        "one": "semiring nat 1 1\n1\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = ["matmul", "--op", op, "-A", str(tmp_path / a)]
    if b is not None:
        argv += ["-B", str(tmp_path / b)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: the {what} would have ")
    assert line.endswith(
        "(an empty dimension counts as 1), above the cap of"
        f" {cli.MAX_TABLE_ENTRIES}"
    )


def test_matmul_empty_dimension_at_the_cap_still_runs(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MAX_TABLE_ENTRIES", 10)
    wide = tmp_path / "wide.mat"
    wide.write_text("semiring nat 0 10\n")
    assert main(["matmul", "--op", "dagger", "-A", str(wide)]) == 0
    assert capsys.readouterr().out == "semiring nat 10 0\n" + "\n" * 10
    wide.write_text("semiring nat 0 11\n")
    assert main(["matmul", "--op", "dagger", "-A", str(wide)]) == 2


def test_laws_pass(capsys):
    code = main(["laws", "--suite", "dagger", "--cases", "5"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines
    assert all(line.startswith("PASS ") for line in lines)


def test_laws_prints_the_noncommutativity_witness(capsys):
    code = main(["laws", "--suite", "commutativity", "--monoid", "free-words", "--seed", "1", "--cases", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS action(free-words) :: noncommutativity-witnessed")
    assert "  strength-first  = (abcd,(x,y))" in out
    assert "  swapped-first   = (cdab,(x,y))" in out


def test_laws_deterministic_output(capsys):
    argv = ["laws", "--suite", "commutativity", "--seed", "3", "--cases", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_laws_usage_errors(capsys):
    assert main(["laws", "--suite", "bogus"]) == 2
    assert main(["laws"]) == 2
    assert main(["laws", "--suite", "monad-laws", "--semiring", "nope"]) == 2
    assert main([]) == 2
    assert main(["no-such-command"]) == 2


def test_laws_cases_above_the_cap_exit_2(capsys):
    argv = ["laws", "--suite", "additivity", "--cases", str(cli.MAX_CASES + 1)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --cases {cli.MAX_CASES + 1} is above the cap of {cli.MAX_CASES}\n"


def test_laws_cases_at_the_cap_run(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_CASES", 3)
    assert main(["laws", "--suite", "dagger", "--cases", "3"]) == 0
    assert capsys.readouterr().out.startswith("PASS ")
    assert main(["laws", "--suite", "dagger", "--cases", "4"]) == 2
    assert capsys.readouterr().out == ""


def test_the_default_cases_are_under_the_cap():
    args = cli.build_parser().parse_args(["laws", "--suite", "dagger"])
    assert args.cases == 100 <= cli.MAX_CASES


@pytest.mark.parametrize("monoid", ["nat-mul", "nosuch"])
@pytest.mark.parametrize(
    "suite", [s for s in SUITE_NAMES if s not in ("monad-laws", "commutativity")]
)
def test_a_semiring_suite_rejects_a_monoid(capsys, suite, monoid):
    assert main(["laws", "--suite", suite, "--monoid", monoid, "--cases", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_laws_reports_violations(capsys, monkeypatch):
    broken = SuiteReport("demo", (("s", "assoc", False, "x = 1"),))
    monkeypatch.setattr(cli, "run_suite", lambda config: broken)
    assert main(["laws", "--suite", "dagger"]) == 1
    out = capsys.readouterr().out
    assert "FAIL s :: assoc" in out
    assert "  x = 1" in out


def test_roundtrip_cli(capsys):
    assert main(["roundtrip", "--adjunction", "mat-h", "--semiring", "gaussian", "--involutive"]) == 0
    out = capsys.readouterr().out
    assert all(line.startswith("PASS ") for line in out.splitlines())
    assert main(["roundtrip", "--adjunction", "mon-e", "--semiring", "nat", "--involutive"]) == 2
    assert "error:" in capsys.readouterr().err


def test_roundtrip_reports_violations(capsys, monkeypatch):
    broken = SuiteReport("demo", (("s", "unit", False, None),))
    monkeypatch.setattr(cli, "run_roundtrip", lambda *a, **kw: broken)
    assert main(["roundtrip", "--adjunction", "srng-e", "--semiring", "nat"]) == 1
    assert "FAIL s :: unit" in capsys.readouterr().out


def test_an_unexpected_exception_exits_3(capsys, monkeypatch):
    def broken_builder(subject):
        raise RuntimeError("builder bug")

    subjects, subject_name, _ = adjunctions._SUITES["dagger"]
    monkeypatch.setitem(adjunctions._SUITES, "dagger", (subjects, subject_name, broken_builder))
    assert main(["laws", "--suite", "dagger"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: builder bug\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["laws", "--suite", "dagger", "--cases", "2"],
        ["matmul", "--op", "compose", "-A", fx("compose_wide_a.mat"),
         "-B", fx("compose_wide_b.mat")],
    ],
    ids=["laws", "matmul"],
)
def test_closed_output_pipes_exit_2(argv):
    # Both read ends are closed before the child writes: the result cannot
    # be written (exit 2), and the diagnostic that says so cannot either,
    # which must not change the exit status.
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "from semicat.cli import main; raise SystemExit(main())"
    )
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    os.close(out_r)
    os.close(err_r)
    try:
        child = subprocess.Popen(
            [sys.executable, "-c", code, *argv], stdout=out_w, stderr=err_w
        )
    finally:
        os.close(out_w)
        os.close(err_w)
    assert child.wait(timeout=120) == 2


def zero_division(*args):
    raise ZeroDivisionError("no inverse")


def test_an_exception_inside_a_law_fails_that_law_and_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(adjunctions, "_naive_compose", zero_division)
    argv = ["laws", "--suite", "matcat-laws", "--semiring", "nat", "--cases", "3"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    fails = [line for line in captured.out.splitlines() if not line.startswith("PASS ")]
    assert fails == [
        "FAIL mat(nat) :: compose-oracle",
        "  error: internal: ZeroDivisionError: no inverse",
    ]
    assert captured.err == (
        "internal error: mat(nat) :: compose-oracle: ZeroDivisionError: no inverse\n"
    )


def test_a_raising_shared_transpose_fails_every_law_that_reads_it(capsys, monkeypatch):
    # mat_dagger is the star of mat-h-involutive and is checked by the up
    # transpose, which all three mat-h laws share
    monkeypatch.setattr(adjunctions, "mat_dagger", zero_division)
    argv = ["roundtrip", "--adjunction", "mat-h", "--semiring", "gaussian", "--involutive"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        line
        for law in ("involutive", "natural", "roundtrip")
        for line in (
            f"FAIL adjunction(gaussian) :: mat-h-{law}",
            "  error: internal: ZeroDivisionError: no inverse",
        )
    ]
    assert captured.err == (
        "internal error: adjunction(gaussian) :: mat-h-involutive:"
        " ZeroDivisionError: no inverse (and 2 more)\n"
    )


@pytest.mark.parametrize(
    "text",
    [
        "semiring nat 1 1\n٣\n",
        "semiring ratnn 1 1\n١/٢\n",
        "semiring tropical 1 1\n-٣\n",
        "semiring nat +1 1_0\n" + " ".join(["1"] * 10) + "\n",
        "semiring nat ٣ 1\n1\n1\n1\n",
    ],
    ids=["nat-entry", "ratnn-entry", "tropical-entry", "signed-underscored-header", "header"],
)
def test_matmul_accepts_ascii_numerals_only(capsys, tmp_path, text):
    path = tmp_path / "m.mat"
    path.write_text(text, encoding="utf-8")
    assert main(["matmul", "--op", "dagger", "-A", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line ")


@pytest.mark.parametrize(
    "text",
    ["٣\n", "+3\n", "1_0\n", "3\n0 ١ 1\n", "3\n0 1 ٢\n"],
    ids=["count", "signed-count", "underscored-count", "index", "weight"],
)
def test_shortest_path_accepts_ascii_numerals_only(capsys, tmp_path, text):
    path = tmp_path / "g.graph"
    path.write_text(text, encoding="utf-8")
    assert main(["shortest-path", "--graph", str(path), "--max-hops", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line ")


@pytest.mark.parametrize("value", ["٣", "+3", "1_0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["shortest-path", "--graph", fx("cycle3.graph"), "--max-hops"],
        ["laws", "--suite", "dagger", "--seed"],
        ["laws", "--suite", "dagger", "--cases"],
    ],
    ids=["max-hops", "seed", "cases"],
)
def test_numeric_options_take_ascii_naturals_only(capsys, argv, value):
    assert main(argv + [value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {argv[-1]}: {value!r}" in captured.err


# Every text of at most 3 characters over these: ASCII digits, signs and
# separators, and "²" and "٣", for which str.isdigit() holds although
# neither is an ASCII digit.
NUMERAL_TEXTS = [
    "".join(chars) for k in range(4) for chars in itertools.product("09-+_ \t²٣a", repeat=k)
]


def test_the_ascii_numeral_grammar_is_pinned():
    def outcome(read, text, error):
        try:
            value = read(text)
        except error as exc:
            return str(exc)
        return type(value), value

    def nat(text):
        return algebra._GRAMMARS["nat"](text, {})

    def trop(text):
        return algebra._GRAMMARS["tropical"](text, {})

    accepted = {"nat": 0, "tropical": 0}
    for text in NUMERAL_TEXTS:
        if re.fullmatch("[0-9]+", text):
            accepted["nat"] += 1
            assert outcome(nat, text, FormatError) == (int, int(text))
            assert outcome(cli._nonneg_int, text, argparse.ArgumentTypeError) == (int, int(text))
        else:
            assert outcome(nat, text, FormatError) == f"bad natural literal {text!r}"
            assert outcome(cli._nonneg_int, text, argparse.ArgumentTypeError) == (
                f"{text!r} is not a natural number"
            )
        if re.fullmatch("-?[0-9]+", text):
            accepted["tropical"] += 1
            assert outcome(trop, text, FormatError) == (int, int(text))
        else:
            assert outcome(trop, text, FormatError) == f"bad tropical literal {text!r}"
    # 0 and 9 in 1, 2 and 3 places; then a minus sign before 1 or 2 of them.
    assert accepted == {"nat": 2 + 4 + 8, "tropical": 14 + 2 + 4}


@pytest.mark.parametrize(
    "argv",
    [
        ["matmul", "--op", "compose", "-A", "{bad}", "-B", fx("compose_b.mat")],
        ["matmul", "--op", "compose", "-A", fx("compose_a.mat"), "-B", "{bad}"],
        ["shortest-path", "--graph", "{bad}", "--max-hops", "1"],
    ],
    ids=["A", "B", "graph"],
)
def test_non_utf8_input_exits_2(capsys, tmp_path, argv):
    bad = tmp_path / "latin1.txt"
    # A graph is decoded a line at a time: CRLF endings and a three-byte
    # U+2028 before the bad byte check that its offset counts from the start.
    graph = "3\r\n0 1 2\u2028\r\n\r\n1 2 ".encode("utf-8") + b"\xff\n"
    bad.write_bytes(b"semiring nat 1 1\n\xff\n" if argv[0] == "matmul" else graph)
    assert main([str(bad) if arg == "{bad}" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    offset = bad.read_bytes().index(b"\xff")
    assert captured.err == f"error: {bad}: not UTF-8 text (byte 0xff at offset {offset})\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["matmul", "--op", "compose", "-A", "{bad}", "-B", fx("compose_b.mat")],
        ["matmul", "--op", "compose", "-A", fx("compose_a.mat"), "-B", "{bad}"],
    ],
    ids=["A", "B"],
)
def test_a_mat_file_reports_its_first_error_in_file_order(capsys, tmp_path, argv):
    # The bad literal on line 2 stops the read: the 0xff on line 4 is never reported.
    bad = tmp_path / "bad.mat"
    bad.write_bytes(b"semiring nat 3 1\nx\n1\n\xff\n")
    assert main([str(bad) if arg == "{bad}" else arg for arg in argv]) == 2
    assert capsys.readouterr() == ("", "error: line 2, column 1: bad natural literal 'x'\n")


def test_matmul_parses_each_literal_once_per_call(capsys, tmp_path, monkeypatch):
    """Two files over one semiring share one literal table: a literal in
    both is parsed once. A file over another semiring gets its own table,
    and the product still fails on the mismatch."""
    parsed = []
    for name in ("nat", "tropical"):
        grammar = algebra._GRAMMARS[name]
        monkeypatch.setitem(
            algebra._GRAMMARS,
            name,
            lambda text, parts, grammar=grammar, name=name: (
                parsed.append((name, text)) or grammar(text, parts)
            ),
        )
    a, b, t = tmp_path / "a.mat", tmp_path / "b.mat", tmp_path / "t.mat"
    a.write_text("semiring nat 2 2\n1 2\n2 3\n")
    b.write_text("semiring nat 2 2\n3 2\n4 1\n")
    t.write_text("semiring tropical 2 2\n1 inf\n2 3\n")
    assert main(["matmul", "--op", "compose", "-A", str(a), "-B", str(b)]) == 0
    assert capsys.readouterr() == ("semiring nat 2 2\n11 4\n18 7\n", "")
    assert sorted(parsed) == [("nat", text) for text in "1234"]
    parsed.clear()
    assert main(["matmul", "--op", "compose", "-A", str(a), "-B", str(t)]) == 2
    assert capsys.readouterr() == (
        "", "error: matrices over nat and tropical cannot be combined\n"
    )
    assert sorted(parsed) == [
        *[("nat", text) for text in "123"], *[("tropical", text) for text in ("1", "2", "3", "inf")]
    ]


@pytest.mark.parametrize(
    "b, line",
    [
        ("semiring nat 1 3\n2 1 x\n", "error: line 2, column 5: bad natural literal 'x'\n"),
        ("semiring nat 1 3\n1 x 2\n", "error: line 2, column 3: bad natural literal 'x'\n"),
        ("semiring nat 1 3\n2 1 2 x\n", "error: line 2, column 7: expected 3 entries, got 4\n"),
    ],
)
def test_a_bad_literal_in_b_keeps_its_column_when_a_shares_the_table(capsys, tmp_path, b, line):
    a, bad = tmp_path / "a.mat", tmp_path / "b.mat"
    a.write_text("semiring nat 1 1\n1\n")
    bad.write_text(b)
    assert main(["matmul", "--op", "compose", "-A", str(a), "-B", str(bad)]) == 2
    assert capsys.readouterr() == ("", line)


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "semicat":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    compose = ["matmul", "--op", "compose", "-A", fx("compose_a.mat"), "-B", fx("compose_b.mat")]
    shortest = ["shortest-path", "--graph", fx("cycle3.graph"), "--max-hops", "2"]
    tables = cli._option_tables.cache_info().misses
    cli.build_parser.cache_clear()
    try:
        assert main(compose) == 0
        assert capsys.readouterr().out == golden("compose_ab.out")
        assert main(["laws", "--suite", "bogus"]) == 2
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: semicat")
        assert main(compose) == 0
        assert capsys.readouterr().out == golden("compose_ab.out")
        assert main(["matmul", "--op", "dagger", "-A", fx("dagger_in.mat")]) == 0
        assert capsys.readouterr().out == golden("dagger.out")
        assert main(shortest) == 0
        assert capsys.readouterr().out == golden("cycle3_k2.out")
        # One option table per parser, built at the first call that names
        # a subcommand, and built again for the parser built after a clear.
        assert (len(built), cli._option_tables.cache_info().misses) == (1, tables + 1)
        cli.build_parser.cache_clear()
        assert main(shortest) == 0
        assert main(shortest) == 0
        assert capsys.readouterr().out == golden("cycle3_k2.out") * 2
        assert (len(built), cli._option_tables.cache_info().misses) == (2, tables + 2)
        command = built[1]._actions[-1].choices["shortest-path"]
        table = cli._option_tables(built[1])["shortest-path"][0]
        assert table["--max-hops"] is command._option_string_actions["--max-hops"]
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 2


def _main_by_the_full_parser(argv) -> int:
    """``main`` as it was when the top-level parser parsed every argv:
    ``build_parser().parse_args``, then the subcommand, with ``main``'s
    mapping of exceptions to exit codes."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (SemicatError, OSError) as exc:
        cli._diagnose(f"error: {exc}")
        return 2
    except Exception as exc:
        cli._diagnose(f"internal error: {type(exc).__name__}: {exc}")
        return 3


SP = ["shortest-path", "--graph", fx("cycle3.graph")]
DISPATCH_RT = ["roundtrip", "--adjunction", "srng-e", "--semiring", "nat"]
DISPATCH_CORPUS = {
    "laws": ["laws", "--suite", "kleisli-iso", "--seed", "0", "--cases", "5"],
    "matmul": ["matmul", "--op", "compose", "-A", fx("compose_a.mat"), "-B", fx("compose_b.mat")],
    "shortest-path": [*SP, "--max-hops", "2"],
    "roundtrip": ["roundtrip", "--adjunction", "srng-e", "--semiring", "gaussian", "--involutive"],
    "empty": [],
    "-h": ["-h"],
    "--help": ["--help"],
    **{f"{name} -h": [name, "-h"] for name in ("laws", "matmul", "shortest-path", "roundtrip")},
    "unknown-subcommand": ["bogus", "--max-hops", "2"],
    "missing-required": SP,
    "plus-sign-value": [*SP, "--max-hops", "+3"],
    "arabic-indic-digit": [*SP, "--max-hops", "\u0663"],
    "abbreviation": [*SP, "--max-h", "2"],
    "equals-form": ["shortest-path", f"--graph={fx('cycle3.graph')}", "--max-hops", "2"],
    "repeated-option": [*SP, "--max-hops", "1", "--max-hops", "2"],
    "trailing-word": [*SP, "--max-hops", "2", "extra"],
    "double-dash": [*SP, "--", "--max-hops", "2"],
    "unknown-option": [*SP, "--max-hops", "2", "--bogus"],
    "help-after-a-word": [*SP, "extra", "-h"],
    "option-before-subcommand": ["--max-hops", "2", *SP],
    "minus-sign-value": [*SP, "--max-hops", "-1"],
    "dash-value": ["shortest-path", "--graph", "-", "--max-hops", "2"],
    "empty-value": [*SP, "--max-hops", ""],
    "missing-value": [*SP, "--max-hops"],
    "option-as-value": ["matmul", "--op", "dagger", "-A", "--op", fx("dagger_in.mat")],
    "attached-short-value": ["matmul", "--op", "dagger", f"-A{fx('dagger_in.mat')}"],
    "bad-choice": ["matmul", "--op", "bogus", "-A", fx("dagger_in.mat")],
    "flag-with-a-value": [*DISPATCH_RT, "--involutive", "yes"],
    "repeated-flag": [*DISPATCH_RT, "--involutive", "--involutive"],
    "another-subcommands-option": [*SP, "--max-hops", "2", "--suite", "dagger"],
}
# The corpus argvs that the option table parses; argparse parses the rest.
TABLE_PARSED = {"laws", "matmul", "shortest-path", "roundtrip"}


@pytest.mark.parametrize("argv", DISPATCH_CORPUS.values(), ids=DISPATCH_CORPUS.keys())
def test_main_parses_as_the_full_parser_does(capsys, argv):
    """Parsing by the option table changes no exit code and no byte of
    stdout or stderr on any usage, help or error path."""
    want = _main_by_the_full_parser(list(argv)), *capsys.readouterr()
    assert (main(list(argv)), *capsys.readouterr()) == want


def _patch_parses(monkeypatch, wrap):
    """Patch ``parse_known_args`` on ``ArgumentParser`` itself, as ``wrap(parser,
    parse, args, namespace)`` with ``parse`` the parser's real method. A patch
    on a cached parser would be undone by setting the bound method back on
    it, where it would hide every later class patch from that parser."""
    real = argparse.ArgumentParser.parse_known_args

    def parse_known_args(self, args=None, namespace=None):
        return wrap(self, real.__get__(self), args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", parse_known_args)


def _cached_parsers() -> tuple:
    top = cli.build_parser()
    return (top, *top._actions[-1].choices.values())


def _assert_the_cached_parsers_are_unpatched(monkeypatch):
    monkeypatch.undo()
    assert all("parse_known_args" not in vars(parser) for parser in _cached_parsers())


def test_a_named_subcommand_skips_the_top_level_pass(capsys, monkeypatch):
    """A valid call never reaches the top-level parser's parse; a call with
    a word left over is still rejected by it."""
    calls = []
    top = cli.build_parser()

    def refuse(parser, parse, args, namespace):
        if parser is not top:
            return parse(args, namespace)
        calls.append(list(args))
        raise SystemExit(2)

    _patch_parses(monkeypatch, refuse)
    assert main(DISPATCH_CORPUS["shortest-path"]) == 0
    assert capsys.readouterr() == (golden("cycle3_k2.out"), "")
    assert calls == []
    assert main(DISPATCH_CORPUS["trailing-word"]) == 2
    assert calls == [DISPATCH_CORPUS["trailing-word"]]
    _assert_the_cached_parsers_are_unpatched(monkeypatch)


@pytest.mark.parametrize("name", DISPATCH_CORPUS)
def test_the_option_table_parses_only_well_formed_argvs(capsys, monkeypatch, name):
    """The argvs of ``TABLE_PARSED`` reach no argparse parse at all; every
    other corpus argv is parsed by argparse."""
    parses = []
    parsers = _cached_parsers()

    def recording(parser, parse, args, namespace):
        if parser in parsers:
            parses.append(args)
        return parse(args, namespace)

    _patch_parses(monkeypatch, recording)
    main(list(DISPATCH_CORPUS[name]))
    capsys.readouterr()
    assert (parses == []) == (name in TABLE_PARSED)
    _assert_the_cached_parsers_are_unpatched(monkeypatch)


# The option words of every subcommand (the help words too), and values:
# the ones each option takes, and ones that start with "-" or "+", are
# empty, are not ASCII digits or name nothing.
SUBCOMMANDS = cli.build_parser()._actions[-1].choices
OPTION_WORDS = sorted(
    {word for command in SUBCOMMANDS.values() for word in command._option_string_actions}
)
ODD_VALUES = ["-", "-1", "+3", "", "\u0663", "--", "bogus"]
VALUES = {
    "--suite": ["commutativity", "dagger"],
    "--semiring": ["nat", "gaussian"],
    "--monoid": ["free-words"],
    "--seed": ["0", "7"],
    "--cases": ["1", "2"],
    "--op": ["compose", "tensor", "dagger"],
    "-A": [fx("compose_a.mat"), fx("dagger_in.mat")],
    "-B": [fx("compose_b.mat")],
    "--graph": [fx("cycle3.graph"), fx("line4.graph")],
    "--max-hops": ["0", "2", "3"],
    "--adjunction": ["srng-e", "mat-h"],
}
ANY_VALUE = st.sampled_from(sorted({v for vs in VALUES.values() for v in vs}) + ODD_VALUES)


@st.composite
def argvs(draw):
    """A subcommand's name and a well-formed argv of it (each of its
    options given at most once, each with a value it takes), in any order;
    then up to three changes: a value swapped for any value, a pair
    repeated, a word abbreviated or joined to its value by ``=``, or a
    word, value or ``=`` form of any subcommand inserted."""
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    table, _, required = cli._option_tables(cli.build_parser())[name]
    pairs = []
    for word, action in table.items():
        if action.dest in required or draw(st.booleans()):
            pairs.append([word] if action.nargs == 0 else [word, draw(st.sampled_from(VALUES[word]))])
    pairs = draw(st.permutations(pairs))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        i = draw(st.integers(0, len(pairs)))
        word = draw(st.sampled_from(OPTION_WORDS))
        value = draw(ANY_VALUE)
        change = draw(st.sampled_from(["value", "repeat", "abbreviate", "join", "insert"]))
        if change == "insert":
            pairs.insert(i, draw(st.sampled_from([[word], [value], [f"{word}={value}"]])))
        elif i < len(pairs):
            pair = list(pairs[i])
            if change == "value" and len(pair) == 2:
                pair[1] = value
            elif change == "repeat":
                pairs.insert(i, pair)
            elif change == "abbreviate" and pair[0].startswith("--") and len(pair[0]) > 3:
                pair[0] = pair[0][: draw(st.integers(3, len(pair[0]) - 1))]
            elif change == "join" and len(pair) == 2:
                pair = [f"{pair[0]}={pair[1]}"]
            pairs[i] = pair
    return [name, *(word for pair in pairs for word in pair)]


def _captured(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None)
@given(argvs())
@example(["shortest-path", "--graph", fx("cycle3.graph"), "--max-hops", "2"])
@example(["matmul", "--op", "tensor", "-A", fx("compose_a.mat"), "-B", fx("compose_b.mat")])
@example(["roundtrip", "--involutive", "--semiring", "gaussian", "--adjunction", "mat-h"])
@example(["laws", "--cases", "1", "--suite", "dagger", "--seed", "7", "--semiring", "nat"])
@example(["laws", "--suite", "commutativity", "--monoid", "", "--cases", "2"])
def test_main_parses_any_argv_as_the_full_parser_does(argv):
    """The same exit code, stdout and stderr as the full parser; and where
    the option table takes the words after the name, the namespace that
    the subcommand's parser returns for them."""
    assert _captured(main, argv) == _captured(_main_by_the_full_parser, argv)
    table = cli._option_tables(cli.build_parser())[argv[0]]
    args = cli._by_table(argv[1:], *table)
    if args is not None:
        assert args == SUBCOMMANDS[argv[0]].parse_known_args(argv[1:])[0]


# ---------------------------------------------------------------------------
# Decimal literals and results past Python's integer string-conversion limit


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this Python converts integers of any length"
)


@needs_digit_limit
@pytest.mark.parametrize(
    "text",
    [
        "semiring nat 1 1\n{d}\n",
        "semiring tropical 1 1\n-{d}\n",
        "semiring ratnn 1 1\n1/{d}\n",
        "semiring gaussian 1 1\n1+{d}i\n",
        "semiring nat {d} 1\n1\n",
        "semiring nat 1 {d}\n1\n",
    ],
    ids=["nat-entry", "tropical-entry", "ratnn-entry", "gaussian-entry", "rows", "cols"],
)
def test_matmul_long_literal_exits_2(capsys, tmp_path, text):
    path = tmp_path / "long.mat"
    path.write_text(text.format(d="7" * (DIGIT_LIMIT + 1)))
    assert main(["matmul", "--op", "dagger", "-A", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: line ")
    assert line.endswith(f"above the limit of {DIGIT_LIMIT} digits for a decimal integer")


@needs_digit_limit
def test_shortest_path_long_weight_exits_2(capsys, tmp_path):
    path = tmp_path / "long.graph"
    path.write_text(f"2\n0 1 {'5' * (DIGIT_LIMIT + 1)}\n")
    assert main(["shortest-path", "--graph", str(path), "--max-hops", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: line 2: {DIGIT_LIMIT + 1}-digit literal 555")
    assert line.endswith(f"above the limit of {DIGIT_LIMIT} digits for a decimal integer")


@pytest.mark.parametrize(
    "text",
    [
        "{d}\n",
        "2\n{d} 1 1\n",
        "2\n0 {d} 1\n",
        "{x}\n",
        "2\n{x} 1 1\n",
        "2\n0 1 {x}\n",
    ],
    ids=["long-count", "long-src", "long-dst", "text-count", "text-index", "text-weight"],
)
def test_shortest_path_long_field_gives_one_short_error(capsys, tmp_path, text):
    path = tmp_path / "long.graph"
    path.write_text(text.format(d="7" * 5000, x="x" * 5000))
    assert main(["shortest-path", "--graph", str(path), "--max-hops", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: line ")
    assert len(line.encode()) < 200


@needs_digit_limit
def test_shortest_path_long_count_names_the_limit(capsys, tmp_path):
    path = tmp_path / "long.graph"
    path.write_text("7" * (DIGIT_LIMIT + 1) + "\n")
    assert main(["shortest-path", "--graph", str(path), "--max-hops", "1"]) == 2
    assert capsys.readouterr().err == (
        f"error: line 1: bad node count: {DIGIT_LIMIT + 1}-digit literal 777777777777..."
        f" is above the limit of {DIGIT_LIMIT} digits for a decimal integer\n"
    )


def test_long_literals_are_quoted_by_a_prefix(capsys, tmp_path):
    path = tmp_path / "long.mat"
    path.write_text(f"semiring {'s' * 5000} 1 1\n1\n")
    assert main(["matmul", "--op", "dagger", "-A", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 1, column 10: unknown semiring 'ssssssssssss'... (5000 characters)\n"
    )
    assert main(["laws", "--suite", "dagger", "--seed", "x" * 5000]) == 2
    (line,) = capsys.readouterr().err.splitlines()[-1:]
    assert line.endswith("'xxxxxxxxxxxx'... (5000 characters) is not a natural number")


@pytest.mark.parametrize(
    "option, argv",
    [
        ("--semiring", ["laws", "--suite", "monad-laws", "--semiring"]),
        ("--monoid", ["laws", "--suite", "monad-laws", "--monoid"]),
        ("--semiring", ["roundtrip", "--adjunction", "srng-e", "--semiring"]),
    ],
    ids=["laws-semiring", "laws-monoid", "roundtrip-semiring"],
)
def test_long_names_are_quoted_by_a_prefix(capsys, option, argv):
    assert main([*argv, "x" * 5000]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    quoted = "'xxxxxxxxxxxx'... (5000 characters)"
    assert line.startswith(f"error: unknown {option.lstrip('-')} {quoted}; known: ")


@needs_digit_limit
@pytest.mark.parametrize(
    "argv",
    [
        ["laws", "--suite", "dagger", "--seed"],
        ["laws", "--suite", "dagger", "--cases"],
        ["shortest-path", "--graph", "-", "--max-hops"],
    ],
    ids=["seed", "cases", "max-hops"],
)
def test_long_option_value_names_the_limit(capsys, argv):
    assert main([*argv, "1" * 5000]) == 2
    line = capsys.readouterr().err.splitlines()[-1]
    assert len(line.encode()) < 200
    assert line.endswith(f"above the limit of {DIGIT_LIMIT} digits for a decimal integer")


@needs_digit_limit
def test_matmul_oversized_result_exits_2(capsys, tmp_path):
    half = tmp_path / "half.mat"
    half.write_text(f"semiring nat 1 1\n{'9' * (DIGIT_LIMIT // 2 + 1)}\n")
    assert main(["matmul", "--op", "compose", "-A", str(half), "-B", str(half)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: a nat value has more than {DIGIT_LIMIT} digits,"
        " the limit for writing a decimal integer\n"
    )


@needs_digit_limit
@pytest.mark.parametrize("op", ["compose", "tensor"])
def test_matmul_oversized_gaussian_result_exits_2(capsys, tmp_path, op):
    # Parts of 2,200 digits: the product's parts are past the limit of 4300.
    digits = "7" * (DIGIT_LIMIT // 2 + 50)
    half = tmp_path / "half.mat"
    half.write_text(f"semiring gaussian 1 1\n{digits}+{digits}/3i\n")
    assert main(["matmul", "--op", op, "-A", str(half), "-B", str(half)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: a gaussian value has more than {DIGIT_LIMIT} digits,"
        " the limit for writing a decimal integer\n"
    )


@needs_digit_limit
def test_literal_at_the_digit_limit_still_works(capsys, tmp_path):
    big = tmp_path / "big.mat"
    big.write_text(f"semiring nat 1 1\n{'9' * DIGIT_LIMIT}\n")
    one = tmp_path / "one.mat"
    one.write_text("semiring nat 1 1\n1\n")
    assert main(["matmul", "--op", "compose", "-A", str(big), "-B", str(one)]) == 0
    assert capsys.readouterr().out == big.read_text()


# ---------------------------------------------------------------------------
# Byte-identity goldens for every law suite and every roundtrip, recorded
# with `semicat laws --suite S --seed 0 --cases 5` and
# `semicat roundtrip --adjunction A --semiring R [--involutive]`.

LAW_GOLDENS = FIXTURES / "goldens"


def _law_golden_runs():
    runs = {}
    for suite in SUITE_NAMES:
        runs[f"laws-{suite}"] = ["laws", "--suite", suite, "--seed", "0", "--cases", "5"]
    for adj in ADJUNCTION_NAMES:
        for name in SEMIRINGS:
            argv = ["roundtrip", "--adjunction", adj, "--semiring", name]
            runs[f"roundtrip-{adj}-{name}"] = argv
            if adj != "mon-e":
                runs[f"roundtrip-{adj}-{name}-involutive"] = [*argv, "--involutive"]
    return runs


LAW_GOLDEN_RUNS = _law_golden_runs()


def test_law_goldens_cover_every_run():
    recorded = {p.stem for p in LAW_GOLDENS.glob("*.out")}
    assert recorded == set(LAW_GOLDEN_RUNS)
    assert len(recorded) == 33


@pytest.mark.parametrize("name", sorted(LAW_GOLDEN_RUNS))
def test_law_output_matches_its_golden(capsys, name):
    assert main(LAW_GOLDEN_RUNS[name]) == 0
    assert capsys.readouterr().out == (LAW_GOLDENS / f"{name}.out").read_text()


# ---------------------------------------------------------------------------
# A fuzz net over input files: whatever the bytes of -A, -B or --graph, the
# run exits 0 with nothing on stderr, or 2 with one `error:` line.

# Numerals are small, one past the size cap (a dimension of a matrix with no
# entries included), or above the digit limit.
WORDS = st.sampled_from(
    ["semiring", "nat", "bool", "tropical", "ratnn", "gaussian", "octonions",
     "0", "1", "2", "3", "-1", "inf", "i", "-2i", "1/2", "1/0", "3+i", "+",
     "x", "٣", "1_0", str(cli.MAX_TABLE_ENTRIES + 1),
     *(["9" * (DIGIT_LIMIT + 1)] if DIGIT_LIMIT else [])]
)
FIXTURE_TEXTS = [
    (FIXTURES / name).read_text()
    for name in ("compose_a.mat", "compose_b.mat", "dagger_in.mat", "cycle3.graph", "line4.graph")
]


@st.composite
def token_soups(draw):
    """Lines of grammar words, often under a .mat header or a node count."""
    first = draw(
        st.one_of(
            st.tuples(WORDS, WORDS, WORDS, WORDS).map(" ".join),
            st.tuples(st.just("semiring"), WORDS, WORDS, WORDS).map(" ".join),
            WORDS,
        )
    )
    body = draw(st.lists(st.lists(WORDS, max_size=4).map(" ".join), max_size=5))
    return "\n".join([first, *body]).encode()


@st.composite
def edited_fixtures(draw):
    """A fixture file with up to two of its words replaced."""
    lines = [line.split(" ") for line in draw(st.sampled_from(FIXTURE_TEXTS)).split("\n")]
    for _ in range(draw(st.integers(0, 2))):
        words = draw(st.sampled_from(lines))
        words[draw(st.integers(0, len(words) - 1))] = draw(WORDS)
    return "\n".join(" ".join(words) for words in lines).encode()


input_files = st.one_of(st.binary(max_size=64), token_soups(), edited_fixtures())


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["compose", "tensor", "dagger", "shortest-path"]),
    input_files,
    st.one_of(st.none(), input_files),
    st.integers(0, 3),
)
def test_any_input_file_exits_0_or_2_with_at_most_one_error_line(command, a, b, hops):
    """``b=None`` passes the -A file as -B too."""
    with tempfile.TemporaryDirectory() as tmp:
        path_a, path_b = Path(tmp, "a"), Path(tmp, "b")
        path_a.write_bytes(a)
        path_b.write_bytes(a if b is None else b)
        if command == "shortest-path":
            argv = ["shortest-path", "--graph", str(path_a), "--max-hops", str(hops)]
        elif command == "dagger":
            argv = ["matmul", "--op", "dagger", "-A", str(path_a)]
        else:
            argv = ["matmul", "--op", command, "-A", str(path_a), "-B", str(path_b)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ")


@pytest.mark.parametrize("op", ["compose", "tensor", "dagger"])
def test_matmul_checks_the_cap_on_the_headers_before_any_row(capsys, tmp_path, op):
    # One entry over the cap, from headers whose rows would not parse: the
    # cap error comes first, so no row of either file was read.
    cap = cli.MAX_TABLE_ENTRIES
    wide = f"semiring nat {cap + 1} 1" if op == "dagger" else f"semiring nat 1 {cap + 1}"
    files = {"-A": "semiring nat 1 1"} if op != "dagger" else {}
    files[f"-{'AB'[len(files)]}"] = wide
    argv = ["matmul", "--op", op]
    for flag, head in files.items():
        (tmp_path / flag).write_text(head + "\nnot a row\n")
        argv += [flag, str(tmp_path / flag)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: the ")
    assert line.endswith(f"= {cap + 1} entries, above the cap of {cap}")
    # At the cap, the rows are read, and the first bad one is reported.
    (tmp_path / flag).write_text(wide.replace(str(cap + 1), str(cap)) + "\nnot a row\n")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: line 2, column 5: expected 1 entries, got 3\n")
