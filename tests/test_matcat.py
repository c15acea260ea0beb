"""Matrices over a semiring: composition, biproduct structure, tensor,
dagger, and the text format."""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import semicat.algebra as algebra
from semicat.algebra import (
    GAUSSIAN,
    NAT,
    RATNN,
    SEMIRINGS,
    TROPICAL,
    boolean,
    gaussian,
    nat,
    parse_scalar,
    rational,
    tropical,
)
from semicat.errors import (
    DimensionMismatch,
    FormatError,
    IndexOutOfRange,
    TagMismatch,
)
from semicat.matcat import (
    Aleph0Map,
    Matrix,
    aleph0_compose,
    aleph0_embed,
    coord_join,
    coord_split,
    homset_semiring,
    mat_add,
    mat_add_biproduct,
    mat_compose,
    mat_coproj1,
    mat_cotuple,
    mat_dagger,
    mat_identity,
    mat_tensor,
    mat_tuple,
    matrix,
    parse_mat_text,
    render_mat_text,
)


def nats(*values):
    return [[nat(v) for v in row] for row in values]


def test_identity_matrices():
    assert mat_identity(NAT, 2) == matrix(NAT, nats((1, 0), (0, 1)))
    assert mat_identity(TROPICAL, 2) == matrix(
        TROPICAL, [[tropical(0), tropical(None)], [tropical(None), tropical(0)]]
    )
    empty = mat_identity(NAT, 0)
    assert empty.rows == 0 and empty.cols == 0


def test_compose_oracle():
    g = matrix(NAT, nats((1, 2), (0, 1)))
    h = matrix(NAT, nats((3,), (4,)))
    assert mat_compose(g, h) == matrix(NAT, nats((11,), (4,)))


def test_compose_tropical_oracle():
    g = matrix(TROPICAL, [[tropical(1), tropical(3)]])
    h = matrix(TROPICAL, [[tropical(2)], [tropical(0)]])
    assert mat_compose(g, h) == matrix(TROPICAL, [[tropical(3)]])


def test_compose_identity_neutral():
    g = matrix(NAT, nats((1, 2, 3), (4, 5, 6)))
    assert mat_compose(mat_identity(NAT, 2), g) == g
    assert mat_compose(g, mat_identity(NAT, 3)) == g


def test_compose_guards():
    g = matrix(NAT, nats((1, 2),))
    with pytest.raises(DimensionMismatch):
        mat_compose(g, g)
    with pytest.raises(TagMismatch):
        mat_compose(g, matrix(TROPICAL, [[tropical(0)], [tropical(1)]]))


def test_structural_oracles():
    assert mat_coproj1(NAT, 2, 1) == matrix(NAT, nats((1, 0, 0), (0, 1, 0)))
    two = matrix(NAT, nats((2,)))
    three = matrix(NAT, nats((3,)))
    assert mat_cotuple(two, three) == matrix(NAT, nats((2,), (3,)))
    assert mat_tuple(two, three) == matrix(NAT, nats((2, 3)))


def test_cotuple_needs_matching_cols():
    with pytest.raises(DimensionMismatch):
        mat_cotuple(matrix(NAT, nats((1, 2))), matrix(NAT, nats((1,))))
    with pytest.raises(DimensionMismatch):
        mat_tuple(matrix(NAT, nats((1,), (2,))), matrix(NAT, nats((1,))))


def test_add_is_entrywise_via_structure():
    f = matrix(NAT, nats((1, 2), (3, 4)))
    g = matrix(NAT, nats((10, 20), (30, 40)))
    assert mat_add_biproduct(f, g) == matrix(NAT, nats((11, 22), (33, 44)))


def test_zero_through_the_empty_object():
    z = mat_compose(Matrix(NAT, 1, 0, ()), Matrix(NAT, 0, 1, ()))
    assert z == matrix(NAT, nats((0,)))


def test_coord_roundtrip():
    assert coord_split(3, 4, 7) == (1, 3)
    assert coord_join(3, 4, 1, 3) == 7
    for c in range(12):
        assert coord_join(3, 4, *coord_split(3, 4, c)) == c
    with pytest.raises(IndexOutOfRange):
        coord_split(3, 4, 12)
    with pytest.raises(IndexOutOfRange):
        coord_split(3, 4, -1)
    with pytest.raises(IndexOutOfRange):
        coord_join(3, 4, 3, 0)
    with pytest.raises(IndexOutOfRange):
        coord_join(3, 4, 0, 4)


def test_tensor_oracle():
    g = matrix(NAT, nats((1, 2), (3, 4)))
    h = matrix(NAT, nats((0, 1)))
    expected = matrix(NAT, nats((0, 1, 0, 2), (0, 3, 0, 4)))
    assert mat_tensor(g, h) == expected


def test_tensor_with_empty_factor():
    g = matrix(NAT, nats((1, 2)))
    z = Matrix(NAT, 0, 2, ())
    t = mat_tensor(g, z)
    assert t.rows == 0 and t.cols == 4


def test_dagger_oracle():
    f = matrix(
        GAUSSIAN,
        [[gaussian(0, 1), gaussian(0, 0)], [gaussian(1, 0), gaussian(0, 2)]],
    )
    expected = matrix(
        GAUSSIAN,
        [[gaussian(0, -1), gaussian(1, 0)], [gaussian(0, 0), gaussian(0, -2)]],
    )
    assert mat_dagger(f) == expected
    assert mat_dagger(mat_dagger(f)) == f


def test_aleph0_embed_one_hot():
    f = Aleph0Map(2, 3, (2, 0))
    assert aleph0_embed(f, NAT) == matrix(NAT, nats((0, 0, 1), (1, 0, 0)))


def test_aleph0_functorial():
    f = Aleph0Map(2, 3, (2, 0))
    g = Aleph0Map(3, 2, (1, 1, 0))
    assert aleph0_compose(f, g) == Aleph0Map(2, 2, (0, 1))
    assert aleph0_embed(aleph0_compose(f, g), NAT) == mat_compose(
        aleph0_embed(f, NAT), aleph0_embed(g, NAT)
    )


def test_aleph0_table_validation():
    with pytest.raises(IndexOutOfRange):
        Aleph0Map(2, 2, (0, 5))
    with pytest.raises(DimensionMismatch):
        Aleph0Map(2, 2, (0,))


def test_homset_semiring_is_the_scalar_semiring_in_a_box():
    H = homset_semiring(NAT)
    box = lambda v: matrix(NAT, nats((v,)))
    assert H.add(box(2), box(3)) == box(5)
    assert H.mul(box(2), box(3)) == box(6)
    assert H.zero == box(0)
    assert H.one == box(1)


def test_matrix_factory_guards():
    with pytest.raises(DimensionMismatch):
        matrix(NAT, nats((1, 2), (3,)))
    with pytest.raises(TagMismatch):
        matrix(NAT, [[tropical(1)]])


def test_entry_bounds():
    g = matrix(NAT, nats((1, 2)))
    assert g.entry(0, 1) == nat(2)
    with pytest.raises(IndexOutOfRange):
        g.entry(1, 0)


# ---------------------------------------------------------------------------
# Text format


def test_parse_render_roundtrip_fixture():
    text = "semiring tropical 2 2\n1 inf\n-2 0\n"
    m = parse_mat_text(text)
    assert m.entry(0, 1) == tropical(None)
    assert render_mat_text(m) == text


def test_parse_errors_carry_positions():
    with pytest.raises(FormatError, match="line 1"):
        parse_mat_text("semiring nat 2\n")
    with pytest.raises(FormatError, match="unknown semiring"):
        parse_mat_text("semiring octonions 1 1\n1\n")
    with pytest.raises(FormatError, match="line 2, column 3"):
        parse_mat_text("semiring nat 1 2\n1 x\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_mat_text("semiring nat 2 1\n1\n")
    with pytest.raises(FormatError, match="expected 2 entries"):
        parse_mat_text("semiring nat 1 2\n1\n")
    with pytest.raises(FormatError, match="trailing"):
        parse_mat_text("semiring nat 1 1\n1\nextra\n")


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this Python converts integers of any length"
)


@pytest.mark.parametrize(
    "text,message",
    [
        ("semiring nat 2 2\n1 1\n1 x\n", "line 3, column 3: bad natural literal 'x'"),
        ("semiring nat 1 4\n1 x 1 x\n", "line 2, column 3: bad natural literal 'x'"),
        ("semiring nat 2 3\n1 1 1\n1  1 x\n", "line 3, column 6: bad natural literal 'x'"),
        ("semiring nat 2 2\nx 1\ny y\n", "line 2, column 1: bad natural literal 'x'"),
        ("semiring nat 1 2\n1  2   3\n", "line 2, column 8: expected 2 entries, got 3"),
        ("semiring nat 1 3\n\t1 1\n", "line 2, column 4: expected 3 entries, got 2"),
        # A bad rational part shared by two gaussian literals: the first
        # literal is named, whole, at its own position.
        ("semiring gaussian 2 1\n1/0+i\n2+1/0i\n", "line 2, column 1: bad rational literal '1/0+i'"),
        ("semiring gaussian 1 3\n1 2+1/0i 1/0+i\n", "line 2, column 3: bad rational literal '2+1/0i'"),
        # Good parts converted by earlier literals, then a literal whose
        # other part is bad.
        ("semiring gaussian 1 3\n1/2+3i 1/2+3/0i 5\n", "line 2, column 8: bad rational literal '1/2+3/0i'"),
        ("semiring gaussian 2 2\n1/2 -3i\n-3 1/2-3/i\n", "line 3, column 4: bad rational literal '1/2-3/i'"),
        # Header dimensions go through the nat grammar, each at its own column.
        ("semiring nat 2 x\n", "line 1, column 16: bad natural literal 'x'"),
        ("semiring nat x 2\n", "line 1, column 14: bad natural literal 'x'"),
        pytest.param(
            f"semiring nat 1 {'7' * (DIGIT_LIMIT + 1)}\n",
            f"line 1, column 16: {DIGIT_LIMIT + 1}-digit literal 777777777777... is above"
            f" the limit of {DIGIT_LIMIT} digits for a decimal integer",
            id="long-cols",
            marks=needs_digit_limit,
        ),
    ],
)
def test_parse_errors_point_at_the_first_bad_token(text, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_mat_text(text)


def test_a_bad_row_stops_the_read():
    def lines():
        yield "semiring nat 3 1"
        yield "1"
        yield "x"
        raise AssertionError("a line after the bad row was asked for")

    with pytest.raises(FormatError, match="^line 3, column 1: bad natural literal 'x'$"):
        parse_mat_text(lines())


def test_each_distinct_literal_is_parsed_once(monkeypatch):
    calls = []
    grammar = algebra._GRAMMARS["nat"]

    def counting(text, parts):
        calls.append(text)
        return grammar(text, parts)

    monkeypatch.setitem(algebra._GRAMMARS, "nat", counting)
    rows = (" ".join(str((32 * i + j) % 10) for j in range(32)) for i in range(32))
    m = parse_mat_text("semiring nat 32 32\n" + "\n".join(rows) + "\n")
    assert 1 <= len(calls) <= 10
    assert m.entries == tuple(nat(k % 10) for k in range(32 * 32))


@pytest.mark.parametrize(
    "name,rows",
    [
        ("nat", ["1 2 1", "2 2 007", "007 1 2"]),
        ("tropical", ["inf inf 3", "inf -3 inf", "3 inf inf"]),
        ("gaussian", ["1/2+i 1/2 i", "i i 1/2+i", "0 1/2 0"]),
    ],
)
def test_each_distinct_literal_goes_through_the_grammar_exactly_once(monkeypatch, name, rows):
    calls = []
    grammar = algebra._GRAMMARS[name]

    def counting(text, parts):
        calls.append(text)
        return grammar(text, parts)

    monkeypatch.setitem(algebra._GRAMMARS, name, counting)
    m = parse_mat_text(f"semiring {name} 3 3\n" + "\n".join(rows) + "\n")
    tokens = [tok for row in rows for tok in row.split()]
    assert sorted(calls) == sorted(set(tokens))
    assert m.entries == tuple(parse_scalar(name, tok) for tok in tokens)


def test_a_repeated_bad_literal_is_reported_at_its_first_copy_in_its_row():
    text = "semiring nat 2 4\n1 2 3 4\n4 3 x  x\n"
    with pytest.raises(FormatError, match="^line 3, column 5: bad natural literal 'x'$"):
        parse_mat_text(text)


def _python_calls(fn) -> list:
    """The names of the Python functions that ``fn()`` enters."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize(
    "name,literals",
    [
        ("nat", ["3", "0", "12", "7"]),
        ("bool", ["1", "0"]),
        ("tropical", ["inf", "-3", "7", "0"]),
        ("ratnn", ["1/2", "3", "0", "7/3"]),
        ("gaussian", ["1/2+i", "-i", "3", "2-7/3i"]),
    ],
)
def test_a_file_of_repeated_literals_makes_no_python_call_per_entry(name, literals):
    """A 30 x 30 file takes exactly the Python calls of a one-row file that
    holds each of its literals once: a repeated literal, and a row of them,
    costs none."""
    k = len(literals)
    rows = (" ".join(literals[(30 * i + j) % k] for j in range(30)) for i in range(30))
    grid = f"semiring {name} 30 30\n" + "\n".join(rows) + "\n"
    once = f"semiring {name} 1 {k}\n" + " ".join(literals) + "\n"
    big = []
    calls = _python_calls(lambda: big.append(parse_mat_text(grid)))
    assert calls == _python_calls(lambda: parse_mat_text(once))
    assert big[0].entries == tuple(
        parse_scalar(name, literals[n % k]) for n in range(900)
    )


def test_a_bad_literal_after_new_good_ones_is_reported_at_its_own_column():
    text = "semiring nat 2 5\n1 2 3 4 5\n1  6 8 x 9\n"
    with pytest.raises(FormatError, match="^line 3, column 8: bad natural literal 'x'$"):
        parse_mat_text(text)
    text = "semiring gaussian 1 4\n1+i 2/3 1+i 1/0i\n"
    with pytest.raises(FormatError, match="^line 2, column 13: bad rational literal '1/0i'$"):
        parse_mat_text(text)


def test_a_bad_literal_is_reported_before_a_wrong_entry_count_in_a_later_row():
    text = "semiring nat 3 2\n1 2\n3 y\n4\n"
    with pytest.raises(FormatError, match="^line 3, column 3: bad natural literal 'y'$"):
        parse_mat_text(text)


def test_a_literal_that_failed_in_one_file_fails_again_in_the_next():
    for text, where in (
        ("semiring tropical 1 2\n0 1.5\n", "line 2, column 3"),
        ("semiring tropical 2 1\n1\n1.5\n", "line 3, column 1"),
    ):
        with pytest.raises(FormatError, match=f"^{where}: bad tropical literal '1.5'$"):
            parse_mat_text(text)
    for text, where in (
        ("semiring gaussian 1 1\n1/0+i\n", "line 2, column 1"),
        ("semiring gaussian 1 2\n2 1/0+i\n", "line 2, column 3"),
    ):
        with pytest.raises(FormatError, match=f"^{where}: bad rational literal '1/0\\+i'$"):
            parse_mat_text(text)


def test_inf_repeated_across_rows_reads_as_infinity_everywhere():
    rows = ["inf 1 inf", "inf inf 2", "0 inf inf"]
    m = parse_mat_text("semiring tropical 3 3\n" + "\n".join(rows) + "\n")
    tokens = " ".join(rows).split()
    assert m.values == tuple(None if tok == "inf" else int(tok) for tok in tokens)
    assert m.entries == tuple(tropical(None if tok == "inf" else int(tok)) for tok in tokens)


def test_each_distinct_gaussian_part_is_converted_once(monkeypatch):
    calls = []
    parse_fraction = algebra._parse_fraction

    def counting(text, original):
        calls.append(text)
        return parse_fraction(text, original)

    monkeypatch.setattr(algebra, "_parse_fraction", counting)
    re_parts = ["0", "1/2", "-3", "5/4", "-7/3", "2"]
    im_parts = ["1/2", "3", "2/5", "7/3"]
    pool = [f"{r}{sign}{q}i" for r in re_parts for sign in "+-" for q in im_parts]
    pool += re_parts
    k = len({*re_parts, *im_parts, *("-" + q for q in im_parts)})
    grid = [[pool[(32 * i + j) % len(pool)] for j in range(32)] for i in range(32)]
    text = "semiring gaussian 32 32\n" + "\n".join(map(" ".join, grid)) + "\n"
    m = parse_mat_text(text)
    assert 1 <= len(calls) <= k < len(pool)
    # Nothing is kept across calls: a second parse converts them again.
    first, calls[:] = calls[:], []
    assert parse_mat_text(text) == m
    assert calls == first
    assert m.entries == tuple(parse_scalar(GAUSSIAN, tok) for row in grid for tok in row)


def test_render_checks_every_entry_against_the_matrix_tag():
    with pytest.raises(TagMismatch, match="^expected a nat scalar, got the tropical scalar inf$"):
        m = Matrix(NAT, 1, 2, (tropical(None), rational("1/2")))
        render_mat_text(m)
    with pytest.raises(TagMismatch, match="^expected a gaussian scalar, got the ratnn scalar 1/2$"):
        m = Matrix(GAUSSIAN, 2, 1, (gaussian(1, 2), rational("1/2")))
        render_mat_text(m)


# Literals in the README grammar, non-canonical spellings included:
# leading zeros, unreduced fractions, "-0", "0+1i", "1/1i". Few digits,
# so that literals in one file often share a prefix or a value.
_digits = st.text("0127", min_size=1, max_size=3)
_denominators = st.builds(
    "/{}{}{}".format,
    st.sampled_from(["", "0"]),
    st.sampled_from("124"),
    st.text("0127", max_size=1),
)
_signs = st.sampled_from(["", "-"])
_unsigned_rationals = st.builds(str.__add__, _digits, st.one_of(st.just(""), _denominators))
_signed_rationals = st.builds(str.__add__, _signs, _unsigned_rationals)
_imaginaries = st.one_of(st.just(""), _unsigned_rationals).map(lambda c: c + "i")
_negative_zeros = st.builds(
    str.__add__,
    st.sampled_from(["-0", "-00", "-000"]),
    st.one_of(st.just(""), _denominators),
)

literals = {
    "nat": _digits,
    "bool": st.sampled_from(["0", "1"]),
    "tropical": st.one_of(st.just("inf"), st.builds(str.__add__, _signs, _digits)),
    "ratnn": st.one_of(_unsigned_rationals, _negative_zeros),
    "gaussian": st.one_of(
        _signed_rationals,
        st.builds(str.__add__, _signs, _imaginaries),
        st.builds(
            lambda re_part, sign, im_part: re_part + sign + im_part,
            _signed_rationals,
            st.sampled_from("+-"),
            _imaginaries,
        ),
    ),
}


@st.composite
def mat_texts(draw):
    """A ``.mat`` file over a few distinct literals, so that rows repeat
    them, with entries separated by runs of blanks and tabs."""
    name = draw(st.sampled_from(sorted(literals)))
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    pool = draw(st.lists(literals[name], min_size=1, max_size=6))
    blanks = st.sampled_from([" ", "  ", "\t", " \t "])
    grid = [[draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)]
    lines = [f"semiring {name} {rows} {cols}"]
    lines += ["".join(draw(blanks) + tok for tok in row) for row in grid]
    return name, grid, "\n".join(lines) + "\n"


_NON_CANONICAL = [
    ("ratnn", [["2/4", "-0"]], "semiring ratnn 1 2\n2/4 -0\n"),
    ("gaussian", [["0+1i", "-0"]], "semiring gaussian 1 2\n0+1i -0\n"),
]


@given(mat_texts())
@example(_NON_CANONICAL[0])
@example(_NON_CANONICAL[1])
def test_parse_mat_text_agrees_with_parse_scalar(case):
    name, grid, text = case
    m = parse_mat_text(text)
    assert m.entries == tuple(parse_scalar(name, tok) for row in grid for tok in row)


@given(mat_texts())
@example(_NON_CANONICAL[0])
@example(_NON_CANONICAL[1])
def test_render_of_parse_is_a_fixed_point(case):
    _, _, text = case
    m = parse_mat_text(text)
    rendered = render_mat_text(m)
    assert parse_mat_text(rendered) == m
    assert render_mat_text(parse_mat_text(rendered)) == rendered


@given(mat_texts())
@example(_NON_CANONICAL[0])
@example(_NON_CANONICAL[1])
@example(("tropical", None, "semiring tropical 2 2\n1 inf\n-2 0\n"))
@example(("nat", None, "semiring nat 1 1\r\n7\r\n\r\n"))
def test_parse_mat_text_reads_a_text_and_its_lines_alike(case):
    _, _, text = case
    m = parse_mat_text(text)
    assert parse_mat_text(text.splitlines()) == m
    assert parse_mat_text(iter(text.splitlines())) == m


fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))

scalar_strategies = {
    "nat": st.integers(0, 99).map(nat),
    "bool": st.booleans().map(boolean),
    "tropical": st.one_of(st.none(), st.integers(-99, 99)).map(tropical),
    "ratnn": fractions.map(abs).map(rational),
    "gaussian": st.tuples(fractions, fractions).map(lambda p: gaussian(*p)),
}


@st.composite
def small_matrices(draw, like=None):
    """A matrix of at most 3x3 over a built-in semiring; with ``like``,
    one over the same semiring and of the same shape."""
    if like is None:
        name = draw(st.sampled_from(sorted(scalar_strategies)))
        rows = draw(st.integers(0, 3))
        cols = draw(st.integers(0, 3))
    else:
        name, rows, cols = like.tag, like.rows, like.cols
    entries = draw(
        st.lists(
            scalar_strategies[name],
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return Matrix(SEMIRINGS[name], rows, cols, tuple(entries))


@given(small_matrices())
def test_text_roundtrip_property(m):
    assert parse_mat_text(render_mat_text(m)) == m


@given(small_matrices())
def test_text_roundtrip_through_the_lines(m):
    assert parse_mat_text(render_mat_text(m).splitlines()) == m


@given(small_matrices())
def test_add_commutes_with_itself(m):
    doubled = mat_add(m, m)
    S = m.semiring
    assert doubled == Matrix(
        S, m.rows, m.cols, tuple(S.add(e, e) for e in m.entries)
    )


@given(st.data())
def test_add_equals_the_biproduct_composite(data):
    f = data.draw(small_matrices())
    g = data.draw(small_matrices(like=f))
    assert mat_add(f, g) == mat_add_biproduct(f, g)


def test_add_checks_tags_and_shapes():
    f = matrix(NAT, nats((1, 2)))
    for add in (mat_add, mat_add_biproduct):
        with pytest.raises(DimensionMismatch):
            add(f, matrix(NAT, nats((1,), (2,))))
        with pytest.raises(TagMismatch):
            add(f, matrix(TROPICAL, [[tropical(1), tropical(2)]]))
