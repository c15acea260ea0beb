"""Scalar arithmetic, descriptor law checks, and the text grammar."""

import itertools
import re
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semicat.algebra import (
    BOOL,
    FREE_WORDS,
    GAUSSIAN,
    NAT,
    RATNN,
    SEMIRINGS,
    TROPICAL,
    _PAYLOAD_OPS,
    _parse_fraction,
    _ratio,
    _rational_add,
    _rational_mul,
    _render_rows,
    boolean,
    canonical_from_nat,
    gaussian,
    monoid_by_name,
    multiplicative_monoid,
    nat,
    parse_scalar,
    rational,
    render_scalar,
    semiring_by_name,
    tropical,
    word,
)
from semicat.matcat import parse_mat_text
from semicat.errors import (
    FormatError,
    MonoidMismatch,
    TagMismatch,
    UnknownSemiring,
)
from semicat.sampling import monoid_pool, scalar_pool
from test_kernels import fractions as wide_fractions
from test_matcat import _python_calls


# ---------------------------------------------------------------------------
# Arithmetic oracles


def test_nat_arithmetic():
    assert NAT.add(nat(2), nat(3)) == nat(5)
    assert NAT.mul(nat(2), nat(3)) == nat(6)
    assert NAT.star(nat(7)) == nat(7)


def test_bool_is_or_and():
    assert BOOL.add(boolean(False), boolean(True)) == boolean(True)
    assert BOOL.add(boolean(False), boolean(False)) == boolean(False)
    assert BOOL.mul(boolean(True), boolean(True)) == boolean(True)
    assert BOOL.mul(boolean(True), boolean(False)) == boolean(False)


def test_tropical_min_plus():
    assert TROPICAL.add(tropical(3), tropical(1)) == tropical(1)
    assert TROPICAL.mul(tropical(3), tropical(1)) == tropical(4)
    assert TROPICAL.zero == tropical(None)
    assert TROPICAL.one == tropical(0)


def test_tropical_infinity_absorbs_and_is_neutral():
    inf = tropical(None)
    assert TROPICAL.mul(inf, tropical(5)) == inf
    assert TROPICAL.add(inf, tropical(5)) == tropical(5)


def test_gaussian_star_is_conjugation():
    assert GAUSSIAN.star(gaussian(1, 2)) == gaussian(1, -2)
    assert GAUSSIAN.star(GAUSSIAN.star(gaussian(3, -5))) == gaussian(3, -5)


def test_gaussian_multiplication():
    # (1+2i)(3+4i) = 3+4i+6i-8 = -5+10i
    assert GAUSSIAN.mul(gaussian(1, 2), gaussian(3, 4)) == gaussian(-5, 10)


def textbook_gaussian_product(x, y):
    (xr, xi), (yr, yi) = x, y
    return (xr * yr - xi * yi, xr * yi + xi * yr)


@given(wide_fractions, wide_fractions, wide_fractions, wide_fractions)
def test_gaussian_product_matches_the_textbook_formula(xr, xi, yr, yi):
    """The scalar and kernel product against six ``Fraction`` operations.
    ``Fraction`` equality compares numerator and denominator, so equal
    parts are also reduced alike and render to the same text."""
    expected = textbook_gaussian_product((xr, xi), (yr, yi))
    for got in (
        _PAYLOAD_OPS["gaussian"][1]((xr, xi), (yr, yi)),
        GAUSSIAN.mul(gaussian(xr, xi), gaussian(yr, yi)).payload,
    ):
        assert got == expected
        assert all(type(part) is Fraction for part in got)


@given(
    st.integers(min_value=-(2**100), max_value=2**100),
    st.integers(min_value=1, max_value=2**100),
)
@example(0, 1)
@example(0, 2**100)
@example(-7, 1)
@example(-(2**100), 6)
@example(2**100, 2**99)
def test_ratio_is_the_fraction(n, d):
    """``_ratio`` builds what ``Fraction(n, d)`` builds: reduced, of the
    same type, hashing, printing and splitting alike."""
    got, want = _ratio(n, d), Fraction(n, d)
    assert type(got) is Fraction
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert got.as_integer_ratio() == want.as_integer_ratio()
    assert (str(got), repr(got)) == (str(want), repr(want))


@given(wide_fractions, wide_fractions)
@example(Fraction(1, 6), Fraction(-1, 6))
@example(Fraction(0), Fraction(-5, 12))
@example(Fraction(5, 12), Fraction(7, 18))
@example(Fraction(-(2**70), 2**61 - 1), Fraction(2**70 + 1, 30_030))
def test_rational_ops_are_fraction_arithmetic(a, b):
    """The ratnn sum and product, which also add the gaussian parts, and
    the gaussian star's negated part are what ``Fraction``'s operators
    give: a ``Fraction``, reduced alike and hashing alike."""
    cases = [
        (_rational_add(a, b), a + b),
        (_rational_mul(a, b), a * b),
        (_PAYLOAD_OPS["gaussian"][2]((a, b))[1], -b),
    ]
    for got, want in cases:
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert hash(got) == hash(want)


def test_ratnn_arithmetic():
    half, third = rational(Fraction(1, 2)), rational(Fraction(1, 3))
    assert RATNN.add(half, third) == rational(Fraction(5, 6))
    assert RATNN.mul(rational(Fraction(2, 3)), rational(Fraction(3, 4))) == half
    assert RATNN.star(third) == third


def test_gaussian_addition():
    # (1/2+2i) + (3-5/3i) = 7/2+1/3i
    total = GAUSSIAN.add(gaussian(Fraction(1, 2), 2), gaussian(3, Fraction(-5, 3)))
    assert total == gaussian(Fraction(7, 2), Fraction(1, 3))


def test_tropical_infinity_on_either_side():
    inf = tropical(None)
    assert TROPICAL.mul(tropical(5), inf) == inf
    assert TROPICAL.mul(inf, tropical(-5)) == inf
    assert TROPICAL.mul(inf, inf) == inf
    assert TROPICAL.add(tropical(-5), inf) == tropical(-5)
    assert TROPICAL.add(inf, inf) == inf


def test_bool_remaining_cases():
    assert BOOL.add(boolean(True), boolean(True)) == boolean(True)
    assert BOOL.mul(boolean(False), boolean(False)) == boolean(False)
    assert BOOL.mul(boolean(False), boolean(True)) == boolean(False)


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_builtin_ops_reject_a_foreign_argument(name):
    S = SEMIRINGS[name]
    message = f"^expected a {name} scalar, got "
    for foreign in (NAT.one if S is not NAT else BOOL.one, S.one.payload):
        for op in (S.add, S.mul):
            for args in ((S.one, foreign), (foreign, S.one)):
                with pytest.raises(TagMismatch, match=message):
                    op(*args)
        with pytest.raises(TagMismatch, match=message):
            S.star(foreign)


def test_rational_rejects_negative():
    with pytest.raises(ValueError):
        rational(Fraction(-1, 2))


# ---------------------------------------------------------------------------
# Axioms of the scalar structures, over their curated sample pools


def _failing(axioms: dict, samples) -> set:
    """The names of the (arity, holds) axioms that some tuple of samples
    breaks."""
    return {
        name
        for name, (arity, holds) in axioms.items()
        if not all(holds(*args) for args in itertools.product(samples, repeat=arity))
    }


def failing_semiring_axioms(desc) -> set:
    """The commutative-semiring axioms, and the star axioms when ``desc``
    has a star, that the scalar pool of ``desc`` breaks."""
    add, mul, zero, one, star = desc.add, desc.mul, desc.zero, desc.one, desc.star
    axioms = {
        "add-commutative": (2, lambda s, t: add(s, t) == add(t, s)),
        "add-associative": (3, lambda s, t, r: add(add(s, t), r) == add(s, add(t, r))),
        "add-unit": (1, lambda s: add(s, zero) == s == add(zero, s)),
        "mul-commutative": (2, lambda s, t: mul(s, t) == mul(t, s)),
        "mul-associative": (3, lambda s, t, r: mul(mul(s, t), r) == mul(s, mul(t, r))),
        "mul-unit": (1, lambda s: mul(s, one) == s == mul(one, s)),
        "zero-annihilates": (1, lambda s: mul(s, zero) == zero == mul(zero, s)),
        "distributive": (3, lambda s, t, r: mul(s, add(t, r)) == add(mul(s, t), mul(s, r))),
    }
    if star is not None:
        axioms |= {
            "star-preserves-add": (2, lambda s, t: star(add(s, t)) == add(star(s), star(t))),
            "star-preserves-mul": (2, lambda s, t: star(mul(s, t)) == mul(star(s), star(t))),
            "star-involutive": (1, lambda s: star(star(s)) == s),
            "star-fixes-zero": (0, lambda: star(zero) == zero),
            "star-fixes-one": (0, lambda: star(one) == one),
        }
    return _failing(axioms, scalar_pool(desc))


def failing_monoid_axioms(desc) -> set:
    """The monoid axioms that the pool of ``desc`` breaks; commutativity
    only when ``desc`` claims it."""
    op, unit = desc.op, desc.unit
    axioms = {
        "op-associative": (3, lambda s, t, r: op(op(s, t), r) == op(s, op(t, r))),
        "unit-neutral": (1, lambda s: op(s, unit) == s == op(unit, s)),
    }
    if desc.commutative:
        axioms["op-commutative"] = (2, lambda s, t: op(s, t) == op(t, s))
    return _failing(axioms, monoid_pool(desc))


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_builtin_semiring_laws(name):
    assert failing_semiring_axioms(SEMIRINGS[name]) == set()


@pytest.mark.parametrize("name", ["nat-mul", "nat-add", "free-words"])
def test_builtin_monoid_laws(name):
    assert failing_monoid_axioms(monoid_by_name(name)) == set()


def _finite(op):
    """``op`` on finite tropical weights, with infinity absorbing."""
    inf = TROPICAL.zero
    return lambda *xs: inf if inf in xs else tropical(op(*(x.payload for x in xs)))


# One broken twin of a built-in per axiom: the twin breaks that axiom on
# the pool and keeps every other one.
BROKEN_TWINS = [
    # the first nonzero summand
    ("add-commutative", failing_semiring_axioms,
     replace(NAT, add=lambda a, b: a if a != NAT.zero else b)),
    # a bump of one when both weights are positive, (1 * 1) * -2 != 1 * (1 * -2)
    ("mul-associative", failing_semiring_axioms,
     replace(TROPICAL, mul=_finite(lambda s, t: s + t + int(s > 0 and t > 0)))),
    # the larger factor, zero absorbing: 2 * (1 + 1) = 2
    ("distributive", failing_semiring_axioms,
     replace(NAT, mul=lambda a, b: nat(a.payload and b.payload and max(a.payload, b.payload)))),
    # disjunction for both operations, so the zero false is also the one
    ("zero-annihilates", failing_semiring_axioms,
     replace(BOOL, mul=BOOL.add, one=BOOL.zero)),
    # doubling preserves min, +, 0 and infinity but is not its own inverse
    ("star-involutive", failing_semiring_axioms,
     replace(TROPICAL, star=_finite(lambda s: 2 * s))),
    ("op-commutative", failing_monoid_axioms, replace(FREE_WORDS, commutative=True)),
]


@pytest.mark.parametrize(
    "axiom, failing, twin", BROKEN_TWINS, ids=[row[0] for row in BROKEN_TWINS]
)
def test_a_broken_twin_fails_only_its_own_axiom(axiom, failing, twin):
    assert failing(twin) == {axiom}


def test_free_words_concatenate():
    assert FREE_WORDS.op(word("ab"), word("cd")) == word("abcd")
    assert FREE_WORDS.op(FREE_WORDS.unit, word("x")) == word("x")
    assert not FREE_WORDS.commutative


def test_monoid_member_guard():
    m = multiplicative_monoid(NAT)
    with pytest.raises(MonoidMismatch):
        m.check_member(boolean(True))


# ---------------------------------------------------------------------------
# Scalar keys


def reference_scalar_key(s) -> tuple:
    """The sort key of a scalar, written per tag."""
    if s.tag == "tropical":
        inner = (1, 0) if s.payload is None else (0, s.payload)
    elif s.tag == "bool":
        inner = (int(s.payload),)
    elif s.tag == "gaussian":
        inner = s.payload  # (re, im) pair of Fractions
    else:
        inner = (s.payload,)
    return ("scalar", s.tag, inner)


KEYED_SCALARS = [
    *(x for S in SEMIRINGS.values() for x in scalar_pool(S)),
    tropical(None),
    *(gaussian(re, im) for re in (1, -1) for im in (-1, 0, Fraction(1, 2), 2, -3)),
]


def test_scalar_keys_compare_as_the_per_tag_reference():
    for x, y in itertools.product(KEYED_SCALARS, repeat=2):
        got, want = (x.key(), y.key()), (reference_scalar_key(x), reference_scalar_key(y))
        assert (got[0] < got[1], got[0] == got[1]) == (want[0] < want[1], want[0] == want[1]), (
            x, y)


# ---------------------------------------------------------------------------
# Registry lookups


def test_semiring_by_name():
    assert semiring_by_name("tropical") is TROPICAL
    with pytest.raises(UnknownSemiring):
        semiring_by_name("octonions")


def test_monoid_by_name():
    assert monoid_by_name("free-words") is FREE_WORDS
    with pytest.raises(UnknownSemiring):
        monoid_by_name("nope")


def test_canonical_from_nat():
    assert canonical_from_nat(NAT, 3) == nat(3)
    assert canonical_from_nat(BOOL, 0) == boolean(False)
    assert canonical_from_nat(BOOL, 2) == boolean(True)
    assert canonical_from_nat(TROPICAL, 0) == tropical(None)
    assert canonical_from_nat(TROPICAL, 5) == tropical(0)
    assert canonical_from_nat(GAUSSIAN, 2) == gaussian(2, 0)


# ---------------------------------------------------------------------------
# Text grammar

nonneg_fractions = st.builds(
    Fraction, st.integers(min_value=0, max_value=10**6), st.integers(1, 997)
)
signed_fractions = st.builds(
    Fraction, st.integers(min_value=-(10**6), max_value=10**6), st.integers(1, 997)
)


@given(st.integers(min_value=0, max_value=10**12))
def test_nat_text_roundtrip(n):
    s = nat(n)
    assert parse_scalar(NAT, render_scalar(s)) == s


@given(st.one_of(st.none(), st.integers(min_value=-(10**9), max_value=10**9)))
def test_tropical_text_roundtrip(v):
    s = tropical(v)
    assert parse_scalar(TROPICAL, render_scalar(s)) == s


@given(nonneg_fractions)
def test_ratnn_text_roundtrip(q):
    s = rational(q)
    assert parse_scalar(RATNN, render_scalar(s)) == s


@given(signed_fractions, signed_fractions)
def test_gaussian_text_roundtrip(re_part, im_part):
    s = gaussian(re_part, im_part)
    assert parse_scalar(GAUSSIAN, render_scalar(s)) == s


@pytest.mark.parametrize(
    "text,expected",
    [
        ("i", gaussian(0, 1)),
        ("-i", gaussian(0, -1)),
        ("2i", gaussian(0, 2)),
        ("1+2i", gaussian(1, 2)),
        ("1/2-3/4i", gaussian(Fraction(1, 2), Fraction(-3, 4))),
        ("-3", gaussian(-3, 0)),
    ],
)
def test_gaussian_literals(text, expected):
    assert parse_scalar(GAUSSIAN, text) == expected


@pytest.mark.parametrize(
    "name,text",
    [
        ("nat", "-1"),
        ("nat", "1.5"),
        ("bool", "2"),
        ("tropical", "fin"),
        ("ratnn", "-1/2"),
        ("ratnn", "1/0"),
        ("gaussian", "1+"),
        ("gaussian", "i2"),
    ],
)
def test_bad_literals_raise(name, text):
    with pytest.raises(FormatError):
        parse_scalar(name, text)


@pytest.mark.parametrize("text", ["-1/2", "-3", "-6/4"])
def test_negative_ratnn_literal_message(text):
    message = f"negative literal {text!r} in nonnegative-rational semiring"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_scalar(RATNN, text)


def reference_parse_gaussian(text: str):
    """The gaussian grammar, splitting the real from the imaginary part
    by a scan of every character for the last sign after the first."""
    body = text
    if not body:
        raise FormatError("empty gaussian literal")
    if body.endswith("i"):
        body = body[:-1]
        sep = -1
        for idx in range(1, len(body)):
            if body[idx] in "+-":
                sep = idx
        if sep >= 0:
            re_text, im_text = body[:sep], body[sep:]
        else:
            re_text, im_text = "", body
        if im_text in ("", "+"):
            im_part = Fraction(1)
        elif im_text == "-":
            im_part = Fraction(-1)
        else:
            im_part = _parse_fraction(im_text.lstrip("+"), text)
        re_part = _parse_fraction(re_text, text) if re_text else Fraction(0)
        return gaussian(re_part, im_part)
    return gaussian(_parse_fraction(body, text), 0)


def parse_outcome(parse, text: str):
    try:
        return parse(text).payload
    except Exception as exc:
        return type(exc), str(exc)


SHORT_GAUSSIAN_TEXTS = [
    "".join(chars) for n in range(7) for chars in itertools.product("01-+/i", repeat=n)
]


def test_every_short_gaussian_literal_parses_as_the_reference():
    assert len(SHORT_GAUSSIAN_TEXTS) == 55_987
    for text in SHORT_GAUSSIAN_TEXTS:
        got = parse_outcome(lambda t: parse_scalar(GAUSSIAN, t), text)
        assert got == parse_outcome(reference_parse_gaussian, text), text


def mat_file_outcome(text: str):
    """The value of ``text`` as the one entry of a gaussian .mat file, or
    its error with the position prefix checked and removed."""
    try:
        return parse_mat_text(f"semiring gaussian 1 1\n{text}\n").entries[0].payload
    except FormatError as exc:
        prefix, _, message = str(exc).partition(": ")
        assert prefix == "line 2, column 1", text
        return FormatError, message


def test_every_short_gaussian_literal_in_a_file_parses_as_the_reference():
    for text in SHORT_GAUSSIAN_TEXTS[1:]:
        assert mat_file_outcome(text) == parse_outcome(reference_parse_gaussian, text), text


def test_short_gaussian_literals_sharing_one_file_parse_as_alone():
    good = []
    for text in SHORT_GAUSSIAN_TEXTS[1:]:
        try:
            good.append((text, reference_parse_gaussian(text)))
        except FormatError:
            pass
    m = parse_mat_text(f"semiring gaussian 1 {len(good)}\n{' '.join(t for t, _ in good)}\n")
    assert m.entries == tuple(value for _, value in good)


def reference_render_gaussian(re_part: Fraction, im_part: Fraction) -> str:
    """The gaussian text, branching on ``Fraction`` comparisons."""

    def part(q: Fraction) -> str:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    if im_part == 0:
        return part(re_part)
    im_text = "i" if im_part == 1 else "-i" if im_part == -1 else f"{part(im_part)}i"
    if re_part == 0:
        return im_text
    return f"{part(re_part)}{'+' if im_part > 0 else ''}{im_text}"


def test_gaussian_rendering_matches_the_reference():
    parts = [Fraction(0)] + [
        sign * q
        for q in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(7, 3))
        for sign in (1, -1)
    ]
    for re_part, im_part in itertools.product(parts, repeat=2):
        s = gaussian(re_part, im_part)
        text = render_scalar(s)
        assert text == reference_render_gaussian(re_part, im_part)
        assert parse_scalar(GAUSSIAN, text) == s
    for q in parts:
        if q >= 0:
            assert render_scalar(rational(q)) == reference_render_gaussian(q, Fraction(0))


def test_unknown_grammar():
    with pytest.raises(UnknownSemiring):
        parse_scalar("octonions", "1")


def test_render_is_canonical():
    assert render_scalar(gaussian(0, 0)) == "0"
    assert render_scalar(gaussian(0, -1)) == "-i"
    assert render_scalar(tropical(None)) == "inf"
    assert render_scalar(rational(Fraction(4, 2))) == "2"


def test_a_tropical_grid_is_written_without_a_call_per_entry():
    """A 30 x 30 tropical grid takes a handful of Python calls, not one per
    entry, and a value past the digit limit is still a FormatError."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    payloads = [None, -3, 7, 0] * 225
    sys.setprofile(profile)
    try:
        lines = _render_rows("tropical", payloads, 30, 30)
    finally:
        sys.setprofile(None)
    assert len(calls) < 10, calls[:10]
    texts = ["inf" if v is None else str(v) for v in payloads]
    assert lines == [" ".join(texts[i * 30 : (i + 1) * 30]) for i in range(30)]
    if hasattr(sys, "get_int_max_str_digits") and sys.get_int_max_str_digits():
        with pytest.raises(FormatError, match="more than"):
            _render_rows("tropical", [10 ** (sys.get_int_max_str_digits() + 1)], 1, 1)


@pytest.mark.parametrize(
    "tag,payloads,most_calls",
    [
        ("ratnn", [Fraction(1, 2), Fraction(3), Fraction(0), Fraction(7, 3)] * 225, 10),
        (
            "gaussian",
            [(Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(-1)),
             (Fraction(3), Fraction(0)), (Fraction(-2), Fraction(-7, 3))] * 225,
            900 + 10,
        ),
    ],
)
def test_a_rational_grid_is_written_with_at_most_one_call_per_entry(tag, payloads, most_calls):
    """A 30 x 30 ratnn grid takes a handful of Python calls, not one per
    entry, and a gaussian grid at most one call per entry."""
    lines = []
    calls = _python_calls(lambda: lines.extend(_render_rows(tag, payloads, 30, 30)))
    assert len(calls) < most_calls, calls[:10]
    reference = {"ratnn": str, "gaussian": lambda v: reference_render_gaussian(*v)}[tag]
    texts = [reference(v) for v in payloads]
    assert lines == [" ".join(texts[i * 30 : (i + 1) * 30]) for i in range(30)]


# Small parts reach d = 1, +-1 and 0; the signed ones reach long ratios.
rendered_parts = st.one_of(
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)), signed_fractions
)


@given(st.lists(st.tuples(rendered_parts, rendered_parts), min_size=1, max_size=12))
@example([(Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1)), (Fraction(2), Fraction(1))])
@example([(Fraction(-1, 2), Fraction(-1)), (Fraction(0), Fraction(0)), (Fraction(-3), Fraction(0))])
@example([(Fraction(5, 3), Fraction(-7, 2)), (Fraction(0), Fraction(-4)), (Fraction(1), Fraction(2))])
def test_gaussian_rows_match_the_reference_renderer(pairs):
    (line,) = _render_rows("gaussian", pairs, 1, len(pairs))
    assert line == " ".join(reference_render_gaussian(re, im) for re, im in pairs)


@given(st.lists(st.one_of(rendered_parts.map(abs), nonneg_fractions), min_size=1, max_size=12))
@example([Fraction(0), Fraction(1), Fraction(3), Fraction(1, 2), Fraction(10**6, 997)])
def test_ratnn_rows_match_str_of_fraction(qs):
    (line,) = _render_rows("ratnn", qs, 1, len(qs))
    assert line == " ".join(map(str, qs))


def test_a_ratnn_value_past_the_digit_limit_is_a_format_error():
    if hasattr(sys, "get_int_max_str_digits") and sys.get_int_max_str_digits():
        big = 10 ** (sys.get_int_max_str_digits() + 1)
        for q in (Fraction(big), Fraction(1, big), Fraction(big + 1, 2)):
            with pytest.raises(FormatError, match="more than"):
                _render_rows("ratnn", [Fraction(1, 2), q], 1, 2)
