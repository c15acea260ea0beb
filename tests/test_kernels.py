"""The payload kernels of compose, tensor, dagger and entrywise add over the
five built-in semirings, against oracles that use only the descriptor's
``add``/``mul``/``star`` in plain loops."""

import builtins
import copy
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import semicat.matcat as matcat
from semicat.adjunctions import _naive_compose
from semicat.algebra import (
    GAUSSIAN,
    NAT,
    RATNN,
    SEMIRINGS,
    TROPICAL,
    Scalar,
    SemiringDescriptor,
    boolean,
    gaussian,
    nat,
    rational,
    tropical,
)
from semicat.errors import TagMismatch
from semicat.matcat import (
    Matrix,
    mat_add,
    mat_compose,
    mat_cotuple,
    mat_dagger,
    mat_identity,
    mat_tensor,
    mat_tuple,
    matrix,
    parse_mat_text,
    render_mat_text,
)


def at(f: Matrix, i: int, j: int):
    return f.entry(i, j)


def compose_oracle(S, g, h):
    entries = []
    for i in range(g.rows):
        for k in range(h.cols):
            acc = S.zero
            for j in range(g.cols):
                acc = S.add(acc, S.mul(at(g, i, j), at(h, j, k)))
            entries.append(acc)
    return Matrix(S, g.rows, h.cols, tuple(entries))


def tensor_oracle(S, g, h):
    entries = []
    for i0 in range(g.rows):
        for i1 in range(h.rows):
            for j0 in range(g.cols):
                for j1 in range(h.cols):
                    entries.append(S.mul(at(g, i0, j0), at(h, i1, j1)))
    return Matrix(S, g.rows * h.rows, g.cols * h.cols, tuple(entries))


def dagger_oracle(S, f):
    entries = []
    for j in range(f.cols):
        for i in range(f.rows):
            entries.append(S.star(at(f, i, j)))
    return Matrix(S, f.cols, f.rows, tuple(entries))


def add_oracle(S, f, g):
    entries = []
    for i in range(f.rows):
        for j in range(f.cols):
            entries.append(S.add(at(f, i, j), at(g, i, j)))
    return Matrix(S, f.rows, f.cols, tuple(entries))


# Large primes and products of small ones give lcms far beyond one entry's
# denominator; the numerators reach past 64 bits.
denominators = st.one_of(
    st.integers(1, 12),
    st.sampled_from([999_983, 1_000_003, 2**61 - 1, 7919 * 7927, 30_030]),
)
big_ints = st.integers(-(2**70), 2**70)
fractions = st.builds(Fraction, st.one_of(st.integers(-30, 30), big_ints), denominators)

scalars = {
    "nat": st.one_of(st.integers(0, 50), st.integers(0, 2**70)).map(nat),
    "bool": st.booleans().map(boolean),
    "tropical": st.one_of(
        st.none(), st.integers(-30, 30), big_ints
    ).map(tropical),
    "ratnn": fractions.map(abs).map(rational),
    "gaussian": st.tuples(fractions, fractions).map(lambda p: gaussian(*p)),
}


def draw_matrix(data, name, rows, cols):
    entries = data.draw(
        st.lists(scalars[name], min_size=rows * cols, max_size=rows * cols)
    )
    return Matrix(SEMIRINGS[name], rows, cols, tuple(entries))


names = st.sampled_from(sorted(scalars))
dims = st.integers(0, 4)


def assert_same(got: Matrix, want: Matrix):
    assert got == want
    assert render_mat_text(got) == render_mat_text(want)


@given(st.data(), names, dims, dims, dims)
def test_compose_kernel(data, name, n, m, p):
    g = draw_matrix(data, name, n, m)
    h = draw_matrix(data, name, m, p)
    assert_same(mat_compose(g, h), compose_oracle(SEMIRINGS[name], g, h))


@given(st.data(), names, dims, dims, dims, dims)
def test_tensor_kernel(data, name, m, p, n, q):
    g = draw_matrix(data, name, m, p)
    h = draw_matrix(data, name, n, q)
    assert_same(mat_tensor(g, h), tensor_oracle(SEMIRINGS[name], g, h))


@given(st.data(), names, dims, dims)
def test_dagger_kernel(data, name, n, m):
    f = draw_matrix(data, name, n, m)
    assert_same(mat_dagger(f), dagger_oracle(SEMIRINGS[name], f))


@given(st.data(), names, dims, dims)
def test_add_kernel(data, name, n, m):
    f = draw_matrix(data, name, n, m)
    g = draw_matrix(data, name, n, m)
    assert_same(mat_add(f, g), add_oracle(SEMIRINGS[name], f, g))


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
@pytest.mark.parametrize(
    "n, m, p",
    [(0, 2, 3), (2, 0, 3), (2, 3, 0), (0, 0, 0), (0, 40, 40), (40, 0, 40), (40, 40, 0)],
)
def test_empty_shapes(name, n, m, p):
    S = SEMIRINGS[name]
    g = Matrix(S, n, m, (S.one,) * (n * m))
    h = Matrix(S, m, p, (S.one,) * (m * p))
    assert_same(mat_compose(g, h), compose_oracle(S, g, h))
    assert_same(mat_tensor(g, h), tensor_oracle(S, g, h))
    assert_same(mat_dagger(g), dagger_oracle(S, g))
    assert_same(mat_add(h, h), add_oracle(S, h, h))


# The products of ints over nat, ratnn and gaussian switch to packed rows at
# n * m * p = _PACK_MIN (9 x 9 x 9); these dims straddle it. The entries'
# bound, 2**bits, puts the dot bound m * max|a| * max|c| in each slot
# width, 1 to 8 bytes, and beyond 8 bytes, where the sums are per cell.
wide_dims = st.integers(6, 12)


def wide_entry(name: str, top: int):
    numerators = st.integers(0 if name != "gaussian" else -top, top)
    part = st.builds(Fraction, numerators, st.sampled_from([1, 1, 1, 2, 3, 6]))
    if name == "nat":
        return numerators.map(nat)
    if name == "ratnn":
        return part.map(rational)
    return st.tuples(part, part).map(lambda p: gaussian(*p))


# Shrinking a failing example here can take minutes and hundreds of MB of
# big ints, so the first failing example is reported as drawn.
@settings(deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(st.data(), st.sampled_from(["gaussian", "nat", "ratnn"]), wide_dims, wide_dims, wide_dims)
def test_compose_kernel_around_the_pack_cutoff(data, name, n, m, p):
    bits = data.draw(st.sampled_from([0, 1, 2, 3, 6, 7, 13, 14, 29, 30, 33, 36]), label="bits")
    entries = wide_entry(name, 2**bits)
    S = SEMIRINGS[name]
    g = Matrix(S, n, m, data.draw(st.lists(entries, min_size=n * m, max_size=n * m)))
    h = Matrix(S, m, p, data.draw(st.lists(entries, min_size=m * p, max_size=m * p)))
    assert_same(mat_compose(g, h), compose_oracle(S, g, h))


def peak_factors(S, scalar, m: int, x: int, y: int, signed: bool):
    """A 9 x m left factor of x's and an m x 9 right factor whose column 0 is
    all y and whose other entries lie in [-y, y] (or [0, y]), so that the
    largest dot is exactly the bound m * x * y."""
    rng = random.Random(m * 1000 + y)
    rest = (lambda: rng.randint(-y, y)) if signed else (lambda: rng.randint(0, y))
    g = Matrix(S, 9, m, [scalar(x)] * (9 * m))
    h = Matrix(S, m, 9, [scalar(y if k == 0 else rest()) for _ in range(m) for k in range(9)])
    assert 9 * m * 9 >= matcat._PACK_MIN
    return g, h


@pytest.mark.parametrize("width", [1, 2, 4, 8])
@pytest.mark.parametrize("peak", ["fits", "overflows"])
def test_compose_kernel_at_each_slot_boundary(width, peak):
    # 15 divides 2**(8w) - 1 and 16 divides 2**(8w): the largest nat dot is
    # the last value a w-byte slot holds, or the first it cannot.
    m, limit = (15, 2 ** (8 * width) - 1) if peak == "fits" else (16, 2 ** (8 * width))
    g, h = peak_factors(NAT, nat, m, 1, limit // m, signed=False)
    got = mat_compose(g, h)
    assert_same(got, compose_oracle(NAT, g, h))
    assert max(got.values) == limit
    # Signed, the same dots sit in slots that also carry the bound as bias,
    # and the right factor's negative entries are packed with a column bias.
    re = lambda v: gaussian(Fraction(v), Fraction(0))
    g, h = peak_factors(GAUSSIAN, re, m, 1, limit // m, signed=True)
    assert_same(mat_compose(g, h), compose_oracle(GAUSSIAN, g, h))


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_compose_kernel_with_signed_parts_at_half_a_slot(width):
    half = 2 ** (8 * width - 1)
    rng = random.Random(width)
    sign = lambda: rng.choice((-1, 1))
    g = Matrix(
        GAUSSIAN, 9, 9,
        [gaussian(Fraction(rng.randint(-1, 1)), Fraction(rng.randint(-1, 1))) for _ in range(81)],
    )
    h = Matrix(
        GAUSSIAN, 9, 9,
        [gaussian(Fraction(sign() * half), Fraction(sign() * half)) for _ in range(81)],
    )
    assert_same(mat_compose(g, h), compose_oracle(GAUSSIAN, g, h))
    assert_same(mat_compose(h, g), compose_oracle(GAUSSIAN, h, g))


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_compose_kernel_with_signed_gaussian_dots_in_each_slot_width(monkeypatch, width):
    # Parts of g in [-1, 1] and of h in [-top, top], both ends reached, so
    # every one of Gauss's three packed products has bound + bias just
    # under 2**(8 * width) and negative dots that lean on the bias.
    top = 2 ** (8 * width) // 128
    rng = random.Random(width)
    part = lambda t: Fraction(rng.randint(-t, t))
    ends = lambda t: [gaussian(t, t), gaussian(-t, -t)]
    g = Matrix(GAUSSIAN, 9, 9, ends(1) + [gaussian(part(1), part(1)) for _ in range(79)])
    h = Matrix(GAUSSIAN, 9, 9, ends(top) + [gaussian(part(top), part(top)) for _ in range(79)])
    widths = []
    real = matcat._packed_dots

    def packed_dots(rows, cols, w, code, col_bias, bias):
        widths.append(w)
        return real(rows, cols, w, code, col_bias, bias)

    monkeypatch.setattr(matcat, "_packed_dots", packed_dots)
    got = mat_compose(g, h)
    assert widths == [width] * 3
    assert_same(got, compose_oracle(GAUSSIAN, g, h))
    real_parts = [re for re, _ in got.values]
    assert min(real_parts) < 0 < max(real_parts)


@pytest.mark.parametrize(
    "S, scalar",
    [
        (NAT, lambda v: nat(abs(v))),
        (RATNN, lambda v: rational(Fraction(abs(v), 7))),
        (GAUSSIAN, lambda v: gaussian(Fraction(v), Fraction(-v, 3))),
    ],
    ids=["nat", "ratnn", "gaussian"],
)
def test_compose_kernel_with_an_all_zero_left_factor(S, scalar):
    rng = random.Random(9)
    for top in (1, 2**7, 2**15, 2**31, 2**63, 2**70):
        g = Matrix(S, 9, 9, [S.zero] * 81)
        h = Matrix(S, 9, 9, [scalar(rng.randint(-top, top)) for _ in range(81)])
        assert_same(mat_compose(g, h), Matrix(S, 9, 9, [S.zero] * 81))


@pytest.mark.parametrize(
    "name, n, fn, calls",
    [
        ("nat", 32, "sum", 32),
        ("ratnn", 32, "sum", 32),
        ("gaussian", 32, "sum", 3 * 32),
        ("nat", 4, "sum", 4 * 4),
        ("ratnn", 4, "sum", 4 * 4),
        ("gaussian", 4, "sum", 3 * 4 * 4),
        ("bool", 32, "any", 32 * 32),
        ("tropical", 32, "min", 3),
        ("tropical", 4, "min", 4 * 4),
    ],
)
def test_which_compose_path_runs(monkeypatch, name, n, fn, calls):
    """32 x 32 products over nat, ratnn and gaussian take one sum per output
    row and integer product, and over tropical three mins in all (the packed
    rows' bounds) and none per entry; 4 x 4 ones, and bool ones of any size,
    take one sum, any or min per entry."""
    S = SEMIRINGS[name]
    rng = random.Random(n)
    g = Matrix(S, n, n, [rng.choice((S.zero, S.one, S.add(S.one, S.one))) for _ in range(n * n)])
    counts = dict.fromkeys({"sum", fn}, 0)
    for builtin in counts:

        def counted(*args, builtin=builtin, **kw):
            counts[builtin] += 1
            return getattr(builtins, builtin)(*args, **kw)

        monkeypatch.setattr(matcat, builtin, counted, raising=False)
    got = mat_compose(g, g)
    monkeypatch.undo()
    assert counts == {"sum": 0, fn: calls}
    assert_same(got, compose_oracle(S, g, g))


@contextmanager
def counting_fraction_new():
    """Counts the calls of ``Fraction.__new__``, patched as the bench
    tracer patches it, and restores the original on exit."""
    calls = [0]
    original = Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        calls[0] += 1
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        yield calls
    finally:
        Fraction.__new__ = original


def test_rational_payloads_skip_fraction_new():
    """32 x 32 ratnn and gaussian products, a gaussian dagger and tensor,
    and the .mat reader over both semirings build each rational with
    ``algebra._ratio``, not through ``Fraction.__new__``."""
    rng = random.Random(32)

    def q():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))

    r = Matrix(RATNN, 32, 32, [rational(abs(q())) for _ in range(32 * 32)])
    z = Matrix(GAUSSIAN, 32, 32, [gaussian(q(), q()) for _ in range(32 * 32)])
    small = Matrix(GAUSSIAN, 5, 6, [gaussian(q(), q()) for _ in range(5 * 6)])
    texts = {"ratnn": render_mat_text(r), "gaussian": render_mat_text(z)}
    ops = {
        "ratnn compose": lambda: mat_compose(r, r),
        "gaussian compose": lambda: mat_compose(z, z),
        "gaussian dagger": lambda: mat_dagger(z),
        "gaussian tensor": lambda: mat_tensor(small, small),
        **{f"{name} parse": lambda t=text: parse_mat_text(t) for name, text in texts.items()},
    }
    counts = {}
    for name, op in ops.items():
        with counting_fraction_new() as calls:
            out = op()
        counts[name] = calls[0]
        assert out.rows and out.cols
    assert counts == dict.fromkeys(ops, 0)


def test_tropical_infinity_and_negative_weights():
    # 7 + 7 is the largest finite sum the weights allow; it must stay finite.
    t = tropical
    g = Matrix(SEMIRINGS["tropical"], 2, 2, (t(None), t(-7), t(7), t(None)))
    h = Matrix(SEMIRINGS["tropical"], 2, 2, (t(7), t(None), t(-5), t(7)))
    assert mat_compose(g, h).entries == (t(-12), t(0), t(14), t(None))


def record_layouts(monkeypatch) -> list:
    """The slot layouts, (width, struct code) or None for too wide, that the
    packed min-plus kernels choose."""
    layouts = []
    real = matcat._guarded_slots

    def guarded_slots(top):
        layouts.append(real(top))
        return layouts[-1]

    monkeypatch.setattr(matcat, "_guarded_slots", guarded_slots)
    return layouts


LAYOUTS = [(1, "B"), (2, "H"), (4, "I"), (8, "Q"), None]


@pytest.mark.parametrize("width", [1, 2, 4, 8])
@pytest.mark.parametrize("peak", ["fits", "overflows"])
def test_packed_min_plus_in_each_slot_width(monkeypatch, width, peak):
    # Left entries span 1 (-1 and 0) and right ones span r, so the largest
    # slot is r + 3: a finite sum reaches r + 1, and an infinite right
    # entry sits at r + 2 before a left entry adds up to 1. That is the
    # last value below a w-byte slot's guard bit, or the first past it.
    limit = 2 ** (8 * width - 1) - 1
    r = limit - 3 if peak == "fits" else limit - 2
    lo, rng = -(r // 2), random.Random(width)
    ends = (lo, lo + r)
    left = [[0] * 9] + [[rng.choice((-1, 0, None)) for _ in range(9)] for _ in range(8)]
    left[1][0] = -1
    right = [
        [lo + r] + [rng.choice((*ends, rng.randint(*ends), None)) for _ in range(8)]
        for _ in range(9)
    ]
    right[0][1] = lo
    g = Matrix(TROPICAL, 9, 9, [tropical(x) for row in left for x in row])
    h = Matrix(TROPICAL, 9, 9, [tropical(x) for row in right for x in row])
    layouts = record_layouts(monkeypatch)
    got = mat_compose(g, h)
    monkeypatch.undo()
    assert layouts == [LAYOUTS[[1, 2, 4, 8].index(width) + (peak == "overflows")]]
    assert_same(got, compose_oracle(TROPICAL, g, h))
    # Row 0 of g holds its largest entry, 0, and column 0 of h its largest,
    # lo + r: their sum is the largest finite sum and stays finite.
    assert got.values[0] == lo + r


# Shrinking a failing example here can take minutes of big-int oracles, so
# the first failing example is reported as drawn.
@settings(deadline=None, max_examples=60, phases=[p for p in Phase if p is not Phase.shrink])
@given(st.data(), st.integers(9, 12), st.integers(9, 12), st.integers(9, 12))
def test_packed_min_plus_with_infinity_and_negative_weights(data, n, m, p):
    """The packed twin of test_tropical_infinity_and_negative_weights, above
    the packing cutoff and across slot widths."""
    bits = data.draw(st.sampled_from([0, 1, 3, 5, 6, 13, 14, 29, 30, 56, 60, 61, 62, 63]))
    weight = st.one_of(st.none(), st.integers(-(2**bits), 2**bits))
    left = data.draw(st.lists(weight, min_size=n * m, max_size=n * m))
    right = data.draw(st.lists(weight, min_size=m * p, max_size=m * p))
    # Row 0 of g and column 0 of h hold each factor's largest weight, so the
    # largest finite sum is entry (0, 0), and it must stay finite.
    top_left = max((x for x in left if x is not None), default=0)
    top_right = max((x for x in right if x is not None), default=0)
    left[:m] = [top_left] * m
    right[::p] = [top_right] * m
    g = Matrix(TROPICAL, n, m, [tropical(x) for x in left])
    h = Matrix(TROPICAL, m, p, [tropical(x) for x in right])
    with pytest.MonkeyPatch.context() as mp:
        layouts = record_layouts(mp)
        got = mat_compose(g, h)
    assert len(layouts) == 1
    assert_same(got, compose_oracle(TROPICAL, g, h))
    assert got.values[0] == top_left + top_right


def test_a_descriptor_sharing_a_builtin_tag_keeps_its_own_operations():
    bogus = SemiringDescriptor(
        name="nat",
        add=lambda a, b: nat(max(a.payload, b.payload)),
        zero=nat(0),
        mul=lambda a, b: nat(a.payload + b.payload),
        one=nat(0),
        star=lambda a: nat(a.payload + 1),
    )
    values = tuple(nat(v) for v in (1, 2, 3, 4))
    f, g = Matrix(bogus, 2, 2, values), Matrix(NAT, 2, 2, values)
    cases = [
        (mat_compose(f, f), compose_oracle(bogus, f, f), mat_compose(g, g)),
        (mat_tensor(f, f), tensor_oracle(bogus, f, f), mat_tensor(g, g)),
        (mat_dagger(f), dagger_oracle(bogus, f), mat_dagger(g)),
        (mat_add(f, f), add_oracle(bogus, f, f), mat_add(g, g)),
    ]
    for got, want, builtin in cases:
        assert got == want
        assert got != builtin


def test_the_first_factor_semiring_computes_when_two_share_a_name():
    bogus = SemiringDescriptor(
        name="nat",
        add=lambda a, b: nat(max(a.payload, b.payload)),
        zero=nat(0),
        mul=lambda a, b: nat(a.payload + b.payload),
        one=nat(0),
        star=lambda a: nat(a.payload + 1),
    )
    values = tuple(nat(v) for v in (1, 2, 3, 4))
    f, g = Matrix(bogus, 2, 2, values), Matrix(NAT, 2, 2, values)
    assert mat_compose(f, g) == compose_oracle(bogus, f, g)
    assert mat_compose(g, f) == compose_oracle(NAT, g, f)
    assert mat_tensor(f, g) == tensor_oracle(bogus, f, g)
    assert mat_tensor(g, f) == tensor_oracle(NAT, g, f)


@pytest.mark.parametrize(
    "op",
    [
        lambda f: mat_compose(f, f),
        lambda f: mat_tensor(f, Matrix(NAT, 1, 1, (nat(1),))),
        mat_dagger,
        lambda f: mat_add(f, f),
    ],
    ids=["compose", "tensor", "dagger", "add"],
)
def test_a_foreign_entry_is_a_tag_mismatch(op):
    with pytest.raises(TagMismatch):
        f = Matrix(NAT, 2, 2, (nat(1), tropical(2), nat(3), nat(4)))
        op(f)


def test_a_builtin_matrix_cannot_hold_a_foreign_scalar():
    message = "^expected a nat scalar, got the tropical scalar 2$"
    with pytest.raises(TagMismatch, match=message):
        mat_cotuple(Matrix(NAT, 1, 1, (tropical(2),)), Matrix(NAT, 1, 1, (nat(1),)))
    with pytest.raises(TagMismatch, match=message):
        matrix(NAT, [[nat(1), tropical(2)]])
    with pytest.raises(TagMismatch, match="^expected a nat scalar, got an object of type int$"):
        Matrix(NAT, 1, 1, (1,))


@given(st.data(), names, dims, dims)
def test_a_matrix_reads_back_the_scalars_it_was_given(data, name, r, c):
    S = SEMIRINGS[name]
    xs = tuple(data.draw(st.lists(scalars[name], min_size=r * c, max_size=r * c)))
    ys = tuple(data.draw(st.lists(scalars[name], min_size=r * c, max_size=r * c)))
    m, n = Matrix(S, r, c, xs), Matrix(S, r, c, list(ys))
    assert m.entries == xs
    assert all(m.entry(i, j) == xs[i * c + j] for i in range(r) for j in range(c))
    assert [m.row(i) for i in range(r)] == [xs[i * c : (i + 1) * c] for i in range(r)]
    rows = ("[" + ",".join(map(str, xs[i * c : (i + 1) * c])) + "]" for i in range(r))
    assert str(m) == "[" + ",".join(rows) + "]"
    assert (m == n) == (xs == ys)
    assert m == Matrix(S, r, c, xs) and hash(m) == hash(Matrix(S, r, c, xs))
    if xs == ys:
        assert hash(m) == hash(n)


def one_at_a_time(payload):
    """An equal payload whose every ``Fraction`` comes from ``Fraction(n, d)``."""
    if type(payload) is Fraction:
        return Fraction(payload.numerator, payload.denominator)
    if type(payload) is tuple:
        return tuple(map(one_at_a_time, payload))
    return payload


@given(st.data(), names, dims, dims, dims)
def test_kernel_results_hash_as_the_same_values_built_one_at_a_time(data, name, n, m, p):
    S = SEMIRINGS[name]
    g, h = draw_matrix(data, name, n, m), draw_matrix(data, name, m, p)
    for got, want in (
        (mat_compose(g, h), _naive_compose(g, h)),
        (mat_tensor(g, h), tensor_oracle(S, g, h)),
        (mat_dagger(g), dagger_oracle(S, g)),
    ):
        rebuilt = Matrix(S, got.rows, got.cols,
                         [Scalar(name, one_at_a_time(e.payload)) for e in want.entries])
        assert got == want == rebuilt
        assert hash(got) == hash(want) == hash(rebuilt)
        assert list(map(hash, got.entries)) == list(map(hash, rebuilt.entries))


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_a_same_named_descriptor_equals_the_builtin(name):
    S = SEMIRINGS[name]
    twin = SemiringDescriptor(name, S.add, S.zero, S.mul, S.one, S.star)
    values = (S.one, S.zero, S.one, S.one)
    f, g = Matrix(twin, 2, 2, values), Matrix(S, 2, 2, values)
    assert f == g and g == f
    assert hash(f) == hash(g)
    assert render_mat_text(f) == render_mat_text(g)
    assert f != Matrix(S, 2, 2, (S.zero,) * 4)


def test_a_deep_copy_keeps_the_builtin_semiring():
    m = Matrix(NAT, 1, 2, (nat(1), nat(2)))
    c = copy.deepcopy(m)
    assert c.semiring is NAT
    assert c == m and c.entries == m.entries
    assert mat_compose(c, mat_dagger(m)) == Matrix(NAT, 1, 1, (nat(5),))


def twin_of(S):
    """A descriptor that only carries S's name, with S's scalar operations."""
    return SemiringDescriptor(S.name, S.add, S.zero, S.mul, S.one, S.star)


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_a_twin_stores_the_payloads_of_the_builtin(name):
    S = SEMIRINGS[name]
    values = (S.one, S.zero, S.one, S.one)
    f, g = Matrix(twin_of(S), 2, 2, values), Matrix(S, 2, 2, values)
    assert f.values == g.values == tuple(x.payload for x in values)
    ops = [lambda m: mat_compose(m, m), lambda m: mat_add(m, m), lambda m: mat_tensor(m, m)]
    if S.star is not None:
        ops.append(mat_dagger)
    for op in ops:
        assert op(f).values == op(g).values
        assert op(f).entries == op(g).entries


@pytest.mark.parametrize("op", [mat_compose, mat_add], ids=["compose", "add"])
def test_a_twin_whose_add_leaves_its_semiring_is_a_tag_mismatch(op):
    twin = SemiringDescriptor(
        "nat", lambda a, b: tropical(a.payload + b.payload), NAT.zero, NAT.mul, NAT.one
    )
    f = Matrix(twin, 2, 2, tuple(nat(v) for v in (1, 2, 3, 4)))
    with pytest.raises(TagMismatch, match="^expected a nat scalar, got the tropical scalar"):
        op(f, f)


@pytest.mark.parametrize(
    "weights",
    [
        [
            [None, 4, None, None, 9],
            [None, 1, 2, None, None],
            [None, None, None, 3, 1],
            [None, None, None, None, 0],
            [2, None, None, None, None],
        ],
        [
            [None, 2, None, None, None],
            [None, None, -1, None, None],
            [None, None, None, 1, None],
            [None, None, None, None, 4],
            [-8, None, None, None, None],
        ],
    ],
    ids=["nonnegative", "negative-cycle"],
)
def test_bounded_paths_over_a_tropical_twin_is_the_builtin_table(monkeypatch, weights):
    S = SEMIRINGS["tropical"]
    twin = twin_of(S)
    entries = tuple(tropical(w) for row in weights for w in row)
    closures = []
    for name in ("_hop_closure", "_relaxation"):
        original = getattr(matcat, name)
        monkeypatch.setattr(
            matcat, name, lambda *a, f=original: closures.append(a) or f(*a)
        )
    for hops in range(12):
        want = matcat.bounded_paths(Matrix(S, 5, 5, entries), hops)
        taken = len(closures)
        got = matcat.bounded_paths(Matrix(twin, 5, 5, entries), hops)
        assert got.semiring is twin
        assert got.values == want.values, hops
        assert len(closures) == taken, hops
    # The built-in took relaxation, a sparse graph's branch; the twin never
    # took it or the hop closure.
    assert closures


def test_the_operations_on_builtin_matrices_build_no_scalar(monkeypatch):
    for name in sorted(SEMIRINGS):
        S = SEMIRINGS[name]
        f = Matrix(S, 2, 2, (S.one, S.zero, S.one, S.one))
        g = Matrix(S, 2, 3, (S.zero, S.one, S.one, S.one, S.zero, S.one))
        built = []
        init = Scalar.__init__
        monkeypatch.setattr(
            Scalar, "__init__", lambda self, *a: built.append(a) or init(self, *a)
        )
        mat_compose(f, g)
        mat_tensor(f, g)
        mat_add(g, g)
        mat_dagger(g)
        mat_tuple(f, g)
        mat_cotuple(f, mat_dagger(f))
        mat_identity(S, 3)
        monkeypatch.undo()
        assert built == [], name
