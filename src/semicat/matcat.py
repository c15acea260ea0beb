"""Matrices over a semiring as a category with biproducts, tensor, dagger.

A morphism from n to m is an n by m grid, stored row major. Composition
follows the source-to-target reading: ``mat_compose(g, h)`` is "g then h",
with entries sum_j g(i,j) * h(j,k). Coprojections and projections are the
0/1 block matrices; the tensor flattens index pairs through the fixed
coordinatisation c = a*m + b, and :func:`mat_dagger` is the starred
transpose.

Hom-set addition derives from the biproduct: the diagonal, then the block
sum, then the codiagonal. :func:`mat_add_biproduct` computes exactly that
composite, and the hom-set semiring of endomaps of 1
(:func:`homset_semiring`) adds with it, so the law suites check the
derived construction against entrywise addition. :func:`mat_add` is the
entrywise sum that other callers, such as :func:`bounded_paths`, use.

A semiring's name is its identity, so a matrix's storage follows the
name and its arithmetic follows the descriptor object. A :class:`Matrix`
over a semiring named as a built-in (``nat``, ``bool``, ``tropical``,
``ratnn``, ``gaussian``) stores the bare payloads of its entries. Scalars
are checked once, where they enter: the constructor raises
:class:`TagMismatch` on an entry of another semiring and unwraps the rest.
They are boxed only on read, by ``entries``, ``entry``, ``row`` and
``str``. The operations and the ``.mat`` reader build their results from
payloads and check nothing again. A matrix over any other descriptor keeps
its entries as given. Two operands combine when their semirings share a
name, and the first operand's descriptor computes.

Over a built-in, entrywise add, tensor and dagger use its payload
operations from ``algebra._PAYLOAD_OPS``, the table its scalar descriptor
is built from. Compose has its own sum-of-products kernel per built-in:
any/and for bool, which stops at the first true product, min-plus on
ints for tropical, and integer dot products for nat, ratnn and gaussian,
all taken by :func:`_dots`. A product of at most ``_DIRECT_MAX`` inner
steps, so every one with an empty dimension, skips them for :func:`_direct`,
the one plain sum-of-products loop. From ``_PACK_MIN`` (9 * 9 * 9) inner
steps up, :func:`_dots` packs each row of the right factor into one int
with a slot per column (Kronecker substitution), so one big-int sum per
output row holds that whole row, and one ``struct`` unpack splits it.
A slot is 1, 2, 4 or 8 bytes, the smallest width that holds every dot,
each at most m * max|a| * max|c| for inner dimension m, doubled by the
bias that lifts signed gaussian parts. A smaller product, or one that
would need wider slots, takes one ``sum`` per entry. Tropical packs the
same way from ``_PACK_MIN`` up, when the result has 4 rows and 4 columns: each
finite left entry folds its packed row of the right factor, lifted by
that entry, into the output row by one slot-wise min (Lamport's packed
compare, :func:`_packed_min_plus`), with infinity a slot value above
every finite sum and a guard bit atop each slot. Below that, or where 8
bytes would not hold the slots, it takes one ``min`` per entry, with
infinity replaced by a stand-in larger than any finite sum can reach.
For ratnn and gaussian,
compose reads the integer ratio of each entry once and scales each row of
the left factor by the lcm D of its denominators and each column of the
right factor by the lcm E of its own.
Every scaled entry is an integer, or an (re, im) pair of integers, so a
row-by-column sum of products is an exact integer sum over D*E. Gaussian
compose takes three integer dot products per output entry, Gauss's trick:
re = sum ac - sum bd and im = sum (a+b)(c+d) - sum ac - sum bd, with the
sums a+b and c+d formed once per row and per column. One reduced
``Fraction`` per output part, built by ``algebra._ratio`` from the integer
sum and D*E, is the exact value, and since it is in lowest terms it is the
same canonical value, rendering to the same bytes, as a sum of
``Fraction`` products. Scaling per row and per column, not per
matrix, keeps the integers as small as the denominators one output entry
combines. Any other descriptor (hom-set and evaluation semirings, or a
twin that only carries a built-in's name) computes with its own
``add``/``mul``/``star``, one call per scalar step, a twin's on its
payloads boxed as scalars, and composes by :func:`_direct` at every
size; the ``compose-oracle`` law compares the kernels with a triple loop
over the descriptor's operations.
:func:`bounded_paths`, the distance table of ``shortest-path``, runs
hop-limited relaxation over the rows of a sparse tropical A, and else
closes I + A by Lehmann's pivots, over tropical on rows packed as compose
packs its right factor (:class:`_PackedRows`), or squares it with
:func:`mat_compose`.

The ``.mat`` text format reads and writes through the scalar grammar and
renderers of :mod:`semicat.algebra`. :func:`parse_mat_text` reads a file
a line at a time and parses each distinct literal text and each distinct
rational part of a gaussian literal once per file, straight to payloads;
:func:`render_mat_text` writes the stored payloads. The ``matmul``
command runs one operation between them and builds no :class:`Scalar`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, and_, mul
from struct import Struct
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .algebra import (
    BOOL,
    GAUSSIAN,
    NAT,
    RATNN,
    SEMIRINGS,
    TROPICAL,
    Scalar,
    SemiringDescriptor,
    _GRAMMARS,
    _PAYLOAD_OPS,
    _parse_nat,
    _payload,
    _payloads,
    _quote,
    _ratio,
    _render_rows,
)
from .errors import (
    DimensionMismatch,
    FormatError,
    IndexOutOfRange,
    NoInvolution,
    NotIdempotent,
    TagMismatch,
)

__all__ = [
    "Matrix",
    "matrix",
    "Aleph0Map",
    "aleph0_compose",
    "mat_identity",
    "mat_compose",
    "mat_coproj1",
    "mat_coproj2",
    "mat_proj1",
    "mat_proj2",
    "mat_cotuple",
    "mat_tuple",
    "mat_add",
    "mat_add_biproduct",
    "coord_split",
    "coord_join",
    "mat_tensor",
    "mat_dagger",
    "bounded_paths",
    "aleph0_embed",
    "homset_semiring",
    "parse_mat_text",
    "render_mat_text",
]


@dataclass(frozen=True, eq=False, init=False)
class Matrix:
    """A morphism rows -> cols of the matrix theory of ``semiring``.

    ``values`` holds rows*cols values in row-major order. Over a semiring
    named as a built-in they are the bare payloads of :class:`Scalar`
    entries, and ``entries``, :meth:`entry`, :meth:`row` and ``str`` box
    them on read. The constructor checks that each such entry carries the
    name (else :class:`TagMismatch`) and unwraps it. Any other descriptor,
    such as a hom-set or evaluation semiring, keeps its values as given.
    Equality compares the semiring's name, shape, and values, so a matrix
    over a twin of a built-in equals the built-in one holding the same
    scalars. Over ratnn and gaussian it compares two ``Fraction`` values,
    or two gaussian pairs of them, by their integer ratios, as
    ``Scalar.__eq__`` does (:func:`_same_payload`); the result is the
    tuple equality of the values.
    """

    semiring: SemiringDescriptor
    rows: int
    cols: int
    values: tuple

    def __init__(self, semiring: SemiringDescriptor, rows: int, cols: int, entries) -> None:
        entries = tuple(entries)
        if rows < 0 or cols < 0:
            raise DimensionMismatch("matrix dimensions must be naturals")
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        if semiring.name in _PAYLOAD_OPS:
            entries = tuple(_payloads(entries, semiring.name))
        self.__dict__.update(semiring=semiring, rows=rows, cols=cols, values=entries)

    @property
    def tag(self) -> str:
        return self.semiring.name

    @property
    def entries(self) -> tuple:
        return self._box(self.values)

    def _box(self, values) -> tuple:
        tag = self.semiring.name
        if tag not in _PAYLOAD_OPS:
            return tuple(values)
        return tuple(Scalar(tag, v) for v in values)

    def entry(self, i: int, j: int):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexOutOfRange(f"entry ({i},{j}) of a {self.rows}x{self.cols} matrix")
        return self._box((self.values[i * self.cols + j],))[0]

    def row(self, i: int) -> tuple:
        return self._box(self.values[i * self.cols : (i + 1) * self.cols])

    def __eq__(self, other) -> bool:
        if not (
            isinstance(other, Matrix)
            and self.tag == other.tag
            and self.rows == other.rows
            and self.cols == other.cols
        ):
            return False
        if self.tag in _RATIO_TAGS:
            return all(map(_same_payload, self.values, other.values))
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(("matrix", self.tag, self.rows, self.cols, self.values))

    def __str__(self) -> str:
        body = ",".join(
            "[" + ",".join(str(e) for e in self.row(i)) + "]" for i in range(self.rows)
        )
        return f"[{body}]"


# The built-ins whose payloads are Fractions or pairs of them.
_RATIO_TAGS = frozenset((RATNN.name, GAUSSIAN.name))


def _same_payload(x, y) -> bool:
    """``x == y`` as a tuple compares its items, with two ``Fraction``
    payloads, or two gaussian pairs of them, compared by their integer
    ratios: ``Fraction.__eq__`` first asks the ``numbers.Rational`` ABC
    about its argument, which costs more than the comparison."""
    if x is y:
        return True
    if x.__class__ is Fraction is y.__class__:
        return x._numerator == y._numerator and x._denominator == y._denominator
    if x.__class__ is tuple is y.__class__ and len(x) == 2 == len(y):
        (a, b), (c, d) = x, y
        if a.__class__ is b.__class__ is c.__class__ is d.__class__ is Fraction:
            return (a._numerator, a._denominator, b._numerator, b._denominator) == (
                c._numerator, c._denominator, d._numerator, d._denominator)
    return x == y


def _matrix(S: SemiringDescriptor, rows: int, cols: int, values) -> Matrix:
    """The matrix that stores ``values`` as they are, checking nothing:
    how the operations, the ``.mat`` reader and ``bounded_paths`` build a
    result from payloads."""
    m = object.__new__(Matrix)
    m.__dict__.update(semiring=S, rows=rows, cols=cols, values=tuple(values))
    return m


def matrix(S: SemiringDescriptor, rows: Sequence[Sequence]) -> Matrix:
    """Build a matrix from a list of rows, validating shape and tags."""
    m = len(rows[0]) if rows else 0
    if any(len(r) != m for r in rows):
        raise DimensionMismatch("ragged rows")
    return Matrix(S, len(rows), m, [x for r in rows for x in r])


def _same_theory(g: Matrix, h: Matrix) -> tuple:
    """g's semiring S, which computes, and h's values, if h's semiring has
    S's name: then both store their values alike."""
    S, T = g.semiring, h.semiring
    if S.name != T.name:
        raise TagMismatch(f"matrices over {S.name} and {T.name} cannot be combined")
    return S, h.values


# ---------------------------------------------------------------------------
# Payload kernels for the built-in semirings


# Below this many inner steps (n * m * p), one ``sum`` per output entry is
# faster: packing costs about 10 us per product on a 2-core Xeon, which
# the packed sums win back from about 9 x 9 x 9 on.
_PACK_MIN = 729

# Up to this many inner steps, a compose over a built-in sums its products
# one payload operation at a time (:func:`_direct`), as a compose over any
# other descriptor does at every size. Per built-in on a 2-core
# Xeon (min of 15 x 2000 calls), that took 0.3-0.6 of the kernel's time at 1
# and 2 steps; at 4, ratnn broke even (9.2 against 9.9 us), and from 6 on its
# integer dots won.
_DIRECT_MAX = 4

# Slot widths in bytes, with their little-endian unsigned ``struct`` codes.
_SLOTS = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))


def _dots(rows: list, cols: list) -> list:
    """Every row-by-column sum of products of ints, row major: a packed
    output row at a time from ``_PACK_MIN`` inner steps up, in the
    narrowest slots that hold every dot and every packed entry, and else,
    or where 8 bytes would not hold them, one ``sum`` per entry."""
    n, m, p = len(rows), len(rows[0]), len(cols)
    if n * m * p >= _PACK_MIN:
        alo, ahi = min(map(min, rows)), max(map(max, rows))
        clo, chi = min(map(min, cols)), max(map(max, cols))
        cmax = max(chi, -clo)
        bound = m * max(ahi, -alo) * cmax  # bounds every |dot|
        # Signed input lifts each dot by the bound, and a negative right
        # factor lifts each of its entries by cmax, so every slot is >= 0.
        bias = bound if alo < 0 or clo < 0 else 0
        col_bias = cmax if clo < 0 else 0
        bits = max(bound + bias, cmax + col_bias).bit_length()
        for width, code in _SLOTS:
            if bits <= 8 * width:
                return _packed_dots(rows, cols, width, code, col_bias, bias)
    return [sum(map(mul, r, c)) for r in rows for c in cols]


def _ones(width: int, count: int) -> int:
    """The int with a 1 in each of ``count`` slots of ``width`` bytes."""
    return int.from_bytes(b"\1".ljust(width, b"\0") * count, "little")


def _packed_dots(rows: list, cols: list, width: int, code: str, col_bias: int, bias: int) -> list:
    """Kronecker substitution: row j of the right factor becomes one int
    with column k's entry in slot k, ``width`` bytes at bit 8 * width * k,
    so sum_j a_j * packed_j holds every dot of row a, dot k in slot k. No
    slot carries into the next, because each holds its dot plus ``bias``
    below 2 ** (8 * width). Entries are packed plus ``col_bias`` into
    unsigned slots, and that bias is taken off each packed int again."""
    p = len(cols)
    slots = Struct(f"<{p}{code}")
    ones = _ones(width, p)
    packed = [
        int.from_bytes(slots.pack(*[x + col_bias for x in h]), "little") - col_bias * ones
        for h in zip(*cols)
    ]
    lift, size = bias * ones, width * p
    out = []
    for r in rows:
        out += slots.unpack((sum(map(mul, r, packed)) + lift).to_bytes(size, "little"))
    return [x - bias for x in out] if bias else out


def _bool_products(rows: list, cols: list) -> list:
    return [any(map(and_, r, c)) for r in rows for c in cols]


def _guarded_slots(top: int) -> tuple[int, str] | None:
    """The narrowest of ``_SLOTS`` whose slots hold 0..top below a guard bit,
    or None where 8 bytes are too narrow."""
    for width, code in _SLOTS:
        if top >> (8 * width - 1) == 0:
            return width, code
    return None


def _tropical_products(rows: list, cols: list) -> list:
    n, m, p = len(rows), len(rows[0]), len(cols)
    # Packed rows win from _PACK_MIN inner steps up once the output has 4
    # rows and 4 columns. With fewer, one packed step per inner index does
    # less than the mins it replaces, or one row pays for packing the right
    # factor: 300 x 300 x 1 and 1 x 300 x 20 ran 1.35 and 1.7 times slower
    # packed.
    if n * m * p >= _PACK_MIN and min(n, p) >= 4:
        a = [x for r in rows for x in r if x is not None]
        c = [x for col in cols for x in col if x is not None]
        alo, ahi = min(a, default=0), max(a, default=0)
        clo = min(c, default=0)
        # A finite sum x + y sits at (x - alo) + (y - clo) <= top, an infinite
        # right entry at top + 1, and no slot ever above top + 1 + ahi - alo.
        top = ahi - alo + max(c, default=0) - clo
        layout = _guarded_slots(top + 1 + ahi - alo)
        if layout:
            return _packed_min_plus(rows, cols, *layout, alo, clo, top)
    # Infinity (None) becomes big = 3M + 1, where M bounds every finite
    # |weight|. A sum of two finite weights stays within [-2M, 2M] and a sum
    # with big in it is at least 2M + 1, so min-plus runs on ints alone.
    bound = max((abs(x) for v in rows + cols for x in v if x is not None), default=0)
    big = 3 * bound + 1
    rows = [[big if x is None else x for x in r] for r in rows]
    cols = [[big if x is None else x for x in c] for c in cols]
    sums = [min(map(add, r, c)) for r in rows for c in cols]
    return [None if x > 2 * bound else x for x in sums]


def _packed_min_plus(
    rows: list, cols: list, width: int, code: str, alo: int, clo: int, top: int
) -> list:
    """Every row-by-column min-plus sum, a packed output row at a time
    (Lamport's packed compare). The rows of the right factor become
    :class:`_PackedRows`, entry y at y - clo and infinity at top + 1. A
    finite left entry x adds x - alo to every slot of row j, and one
    slot-wise min folds that candidate into the output row; an infinite one
    skips its row. Each slot's top bit is a guard, set in the output row and
    clear in every candidate, so one subtraction compares all slots at once
    with no borrow between them: the guard survives where the output slot is
    at least the candidate's, and there the difference is taken off again."""
    right = _PackedRows(list(zip(*cols)), width, code, -clo, top, top + 1)
    shift = 8 * width - 1
    ones, guards = right.ones, right.guards
    packed = [y ^ guards for y in right.ints]
    empty = (top + 1) * ones | guards
    out = []
    for r in rows:
        acc = empty
        for x, y in zip(r, packed):
            if x is not None:
                diff = acc - y - (x - alo) * ones
                kept = diff & guards
                acc -= diff & (kept - (kept >> shift))
        out.append(acc)
    # An output slot holds x + y - alo - clo: the right factor's slots, alo lower.
    right.ints, right.off = out, right.off - alo
    return right.values()


def _over_lcm(qs: list) -> tuple[int, list[int]]:
    """(d, [q * d for q in qs]), d the lcm of the denominators of qs."""
    ratios = [q.as_integer_ratio() for q in qs]
    d = lcm(*[b for _, b in ratios])
    return d, [a * (d // b) for a, b in ratios]


def _ratnn_products(rows: list, cols: list) -> list:
    row_dens, a = zip(*map(_over_lcm, rows))
    col_dens, c = zip(*map(_over_lcm, cols))
    return list(map(_ratio, _dots(a, c), [rd * cd for rd in row_dens for cd in col_dens]))


def _gaussian_over_lcm(pairs: list) -> tuple:
    """(d, re, im, re + im): the parts of ``pairs`` scaled by the lcm d of
    their denominators, and their entrywise sums."""
    d, ints = _over_lcm([q for pair in pairs for q in pair])
    re, im = ints[0::2], ints[1::2]
    return d, re, im, list(map(add, re, im))


def _gaussian_products(rows: list, cols: list) -> list:
    # Gauss's three products: (a + bi)(c + di) has re = ac - bd and
    # im = (a + b)(c + d) - ac - bd.
    row_dens, a, b, a_b = zip(*map(_gaussian_over_lcm, rows))
    col_dens, c, d, c_d = zip(*map(_gaussian_over_lcm, cols))
    dens = [rd * cd for rd in row_dens for cd in col_dens]
    return [
        (_ratio(x - y, den), _ratio(z - x - y, den))
        for x, y, z, den in zip(_dots(a, c), _dots(b, d), _dots(a_b, c_d), dens)
    ]


class _Kernel(NamedTuple):
    """What the matrix operations compute with. ``products`` takes the rows
    of one matrix and the columns of another, as only :func:`mat_compose`
    passes them: at least one of each, over ``_DIRECT_MAX`` inner steps.
    It returns every row-by-column sum of products, row major: over nat,
    ratnn and gaussian from the integer dots of :func:`_dots`, and over
    tropical from packed min-plus rows from ``_PACK_MIN`` inner steps up,
    and entry by entry below it and over bool. Any other descriptor has
    none; its composes take :func:`_direct`. The rest are the scalar
    operations and constants, on values as a matrix stores them."""

    products: Callable[[list, list], list] | None
    add: Callable
    mul: Callable
    star: Callable | None
    zero: object
    one: object


# A built-in's kernel on payloads: its ``products`` and its add, mul and
# star from ``_PAYLOAD_OPS``. Keyed on the descriptor objects, which hash by
# identity: a descriptor that merely shares a built-in's name keeps its own
# operations.
_KERNELS: dict[SemiringDescriptor, _Kernel] = {
    S: _Kernel(products, *_PAYLOAD_OPS[S.name], S.zero.payload, S.one.payload)
    for S, products in (
        (NAT, _dots),
        (BOOL, _bool_products),
        (TROPICAL, _tropical_products),
        (RATNN, _ratnn_products),
        (GAUSSIAN, _gaussian_products),
    )
}


def _generic(S: SemiringDescriptor) -> _Kernel:
    """S's own operations, one descriptor call per scalar step, with no
    ``products``: its composes take :func:`_direct`. A matrix over a twin,
    a descriptor that only carries a built-in's name, stores payloads, so
    each of the twin's operations is lifted to them: its arguments are
    boxed as scalars of that name and its result is unwrapped (else
    :class:`TagMismatch`)."""
    name, add, mul, star, zero, one = S.name, S.add, S.mul, S.star, S.zero, S.one
    if name in _PAYLOAD_OPS:

        def lift(op: Callable) -> Callable:
            return lambda *xs: _payload(op(*(Scalar(name, x) for x in xs)), name)

        add, mul, star = lift(add), lift(mul), star and lift(star)
        zero, one = _payload(zero, name), _payload(one, name)
    return _Kernel(None, add, mul, star, zero, one)


def _kernel(S: SemiringDescriptor) -> _Kernel:
    """A built-in's payload kernel, else S's own operations."""
    return _KERNELS.get(S) or _generic(S)


def _indicator(S: SemiringDescriptor, cols: int, targets: Sequence) -> Matrix:
    """The len(targets) x cols matrix with one at (i, targets[i]) for each
    row i whose target is not None, and zero elsewhere."""
    k = _kernel(S)
    values = [k.zero] * (len(targets) * cols)
    for i, j in enumerate(targets):
        if j is not None:
            values[i * cols + j] = k.one
    return _matrix(S, len(targets), cols, values)


def mat_identity(S: SemiringDescriptor, n: int) -> Matrix:
    return _indicator(S, n, range(n))


def _direct(k: _Kernel, a: tuple, b: tuple, n: int, m: int, p: int) -> list:
    """Every entry of the composite of the values ``a`` (n rows of m) and
    ``b`` (m rows of p), row major: the sum of its m products by k's
    ``add`` and ``mul``, or k's ``zero`` when m is 0."""
    if not m:
        return [k.zero] * (n * p)
    add, mul = k.add, k.mul
    out = []
    for i in range(0, n * m, m):
        for q in range(p):
            acc = mul(a[i], b[q])
            for j in range(1, m):
                acc = add(acc, mul(a[i + j], b[j * p + q]))
            out.append(acc)
    return out


def mat_compose(g: Matrix, h: Matrix) -> Matrix:
    """The composite "g then h" (g: n -> m, h: m -> p).

    A product of at most ``_DIRECT_MAX`` inner steps (n * m * p), and any
    product over a descriptor without a built-in kernel, is summed one
    scalar operation at a time by :func:`_direct`, with :func:`_kernel`'s
    operations. Over a built-in that costs less than the kernel's slices,
    lcm scalings and dots and gives the same reduced values. Every other
    product takes the built-in kernel's ``products``."""
    S, b = _same_theory(g, h)
    if g.cols != h.rows:
        raise DimensionMismatch(
            f"cannot compose {g.rows}x{g.cols} with {h.rows}x{h.cols}"
        )
    a, n, m, p = g.values, g.rows, g.cols, h.cols
    k = _kernel(S)
    if k.products is None or n * m * p <= _DIRECT_MAX:
        return _matrix(S, n, p, _direct(k, a, b, n, m, p))
    rows = [a[i * m : (i + 1) * m] for i in range(n)]
    cols = [b[q::p] for q in range(p)]
    return _matrix(S, n, p, k.products(rows, cols))


def mat_coproj1(S: SemiringDescriptor, n: int, m: int) -> Matrix:
    return _indicator(S, n + m, range(n))


def mat_coproj2(S: SemiringDescriptor, n: int, m: int) -> Matrix:
    return _indicator(S, n + m, range(n, n + m))


def mat_proj1(S: SemiringDescriptor, n: int, m: int) -> Matrix:
    return _indicator(S, n, [*range(n), *[None] * m])


def mat_proj2(S: SemiringDescriptor, n: int, m: int) -> Matrix:
    return _indicator(S, m, [*[None] * n, *range(m)])


def mat_cotuple(f: Matrix, g: Matrix) -> Matrix:
    """[f, g]: stack rows; both maps must share the codomain."""
    S, b = _same_theory(f, g)
    if f.cols != g.cols:
        raise DimensionMismatch("cotuple needs a common codomain")
    return _matrix(S, f.rows + g.rows, f.cols, f.values + b)


def mat_tuple(f: Matrix, g: Matrix) -> Matrix:
    """<f, g>: juxtapose columns; both maps must share the domain."""
    S, b = _same_theory(f, g)
    if f.rows != g.rows:
        raise DimensionMismatch("tuple needs a common domain")
    a, p, q = f.values, f.cols, g.cols
    rows = (a[i * p : (i + 1) * p] + b[i * q : (i + 1) * q] for i in range(f.rows))
    return _matrix(S, f.rows, p + q, [x for row in rows for x in row])


def _parallel(f: Matrix, g: Matrix) -> tuple:
    S, b = _same_theory(f, g)
    if f.rows != g.rows or f.cols != g.cols:
        raise DimensionMismatch("can only add parallel matrices")
    return S, b


def mat_add(f: Matrix, g: Matrix) -> Matrix:
    """Hom-set addition, computed entry by entry. It equals
    :func:`mat_add_biproduct`, the paper's derived addition, which the
    ``add-entrywise`` law checks against entrywise sums."""
    S, b = _parallel(f, g)
    return _matrix(S, f.rows, f.cols, map(_kernel(S).add, f.values, b))


def mat_add_biproduct(f: Matrix, g: Matrix) -> Matrix:
    """Hom-set addition as the biproduct composite: the diagonal, then the
    block sum of f and g, then the codiagonal. This function never touches
    entries directly. It is the addition of :func:`homset_semiring`, so the
    law suites check the derived construction rather than a shortcut."""
    S, _ = _parallel(f, g)
    n, m = f.rows, f.cols
    diag = mat_tuple(mat_identity(S, n), mat_identity(S, n))
    blocked = mat_cotuple(
        mat_compose(f, mat_coproj1(S, m, m)),
        mat_compose(g, mat_coproj2(S, m, m)),
    )
    codiag = mat_cotuple(mat_identity(S, m), mat_identity(S, m))
    return mat_compose(mat_compose(diag, blocked), codiag)


def coord_split(n: int, m: int, c: int) -> tuple[int, int]:
    """The pair (a, b) of the coordinatisation c = a*m + b of {0..n*m-1}."""
    if not (0 <= c < n * m):
        raise IndexOutOfRange(f"index {c} not below {n}*{m}")
    return (c // m, c % m)


def coord_join(n: int, m: int, a: int, b: int) -> int:
    """The index c = a*m + b of the pair (a, b) in {0..n-1} x {0..m-1}."""
    if not (0 <= a < n and 0 <= b < m):
        raise IndexOutOfRange(f"pair ({a},{b}) not inside {n}x{m}")
    return a * m + b


def mat_tensor(g: Matrix, h: Matrix) -> Matrix:
    """Tensor of g: m -> p with h: n -> q, flattened by the fixed
    coordinatisation on rows (inner factor n) and columns (inner factor q)."""
    S, b = _same_theory(g, h)
    a, m, p = g.values, g.rows, g.cols
    n, q = h.rows, h.cols
    g_rows = [a[i * p : (i + 1) * p] for i in range(m)]
    h_rows = [b[i * q : (i + 1) * q] for i in range(n)]
    times = _kernel(S).mul
    return _matrix(
        S, m * n, p * q,
        [times(x, y) for r in g_rows for s in h_rows for x in r for y in s],
    )


def mat_dagger(f: Matrix) -> Matrix:
    """Starred transpose."""
    S = f.semiring
    if S.star is None:
        raise NoInvolution(f"semiring {S.name} has no star")
    a, n, star = f.values, f.cols, _kernel(S).star
    return _matrix(S, n, f.rows, [star(x) for j in range(n) for x in a[j::n]])


# ---------------------------------------------------------------------------
# Bounded-hop sums


# Relaxation answers when m * min(h, n) <= _RELAX_RATIO * n^2 (see
# bounded_paths). On random 150-node graphs with weights 1-99 (2-core
# Python 3.11, in process) it beat the closures up to a ratio of about 20
# at out-degree 64 and lost to them from about 10 at out-degree 128.
_RELAX_RATIO = 8


def bounded_paths(a: Matrix, hops: int) -> Matrix:
    """The sum S_h = a^0 + a^1 + ... + a^hops. Over the tropical semiring
    this is the table of cheapest paths with at most ``hops`` edges;
    negative weights and negative cycles are allowed. ``hops < 0`` raises
    ``ValueError``, and for hops > 0 a matrix that is not square raises
    :class:`DimensionMismatch`.

    When addition is idempotent (1 + 1 = 1: tropical, bool), S_h = B^h for
    B = I + a, computed on the stored payloads of a; the result holds
    payloads too, boxed only when its entries are read.

    Over tropical, a cost estimate of n, h and the number m of finite
    entries of a (the edges) picks the algorithm, with no clock. When
    m * min(h, n) <= ``_RELAX_RATIO`` * n^2, hop-limited relaxation answers
    (Bellman; Mohri's generic single-source algorithm). From each source it
    runs Jacobi rounds over the out-edges in the rows of a: round k sets
    d(v) to the least of d(v) and d(u) + a(u, v), reading only round
    k - 1's distances, so no round adds more than one edge and after round
    k the distances are that source's row of S_k. Only the nodes whose
    distance fell in round k - 1 relax their edges in round k, since every
    other node's offer was taken before, and a round that changes nothing
    ends the run: every later round would repeat it. At most min(h, n)
    rounds run. A walk of n edges repeats a node, so when no cycle is
    negative round n changes nothing; when it still lowers a distance and
    h > n, a cycle is negative, and binary powering answers (below).
    Relaxation costs at most n * m * min(h, n) edge steps against a
    closure's n^3, but it stops early, so the ratio of 8 was measured.

    Otherwise, if hops >= n - 1, it first tries Lehmann's closure of B, n^3
    steps: pivot k adds d_ik times row k to each row i != k, provided
    d_kk = 1, so that d_kk* = 1* = 1. If every pivot passes, the result is
    the sum over all walks, which is S_(n-1) = S_h: each simple cycle c was
    in some pivot's diagonal, so 1 + c = 1, and a walk through c adds
    nothing to the walk without it. Over tropical a failed pivot is a
    negative cycle; over bool none fails (Warshall). One :func:`_closure`
    serves every idempotent semiring. Over tropical its pivots run on rows
    packed once per closure wherever 8-byte slots hold them, one slot-wise
    min per row update (:class:`_PackedRows`, as tropical compose packs its
    right factor); any other semiring's, and tropical rows too wide for 8
    bytes, take one ``add`` and one ``mul`` per entry.

    Over tropical with 0 < hops < n - 1 and a dense a, it first runs the
    same closure on (distance, hops) pairs, ordered lexicographically
    (Lehmann's closure over the lexicographic semiring): each finite entry
    x of B at (i, j) is coded as the int x * K + (i != j) with K = 2n, so a
    walk's code is its weight times K plus its length, and the same closure
    runs on the codes. A simple cycle of weight w and at
    most n edges has a code below 0 exactly when w < 0, so the pivots pass
    exactly when no cycle is negative. Then every least code is reached by
    a simple path, since dropping a cycle of weight >= 0 lowers the code;
    its length is at most n - 1 < K, so ``// K`` and ``% K`` read back the
    distance and the fewest edges among the cheapest walks (floor division
    keeps negative distances exact). If that hop count is at most ``hops``
    for every pair, the closure's distances are S_h. Otherwise, as after a
    failed pivot, binary powering of B with :func:`mat_compose` answers: at
    most two products per bit of ``hops`` after the first, O(n^3 log h),
    stopping when a square repeats, B^(2k) = B^k: in the natural order
    B^k <= B^m <= B^(2k) for k <= m <= 2k, so every later power is B^k.
    Any other semiring raises :class:`NotIdempotent`.
    """
    if hops < 0:
        raise ValueError(f"hops must be a natural number, got {hops}")
    S = a.semiring
    ops = _kernel(S)
    if ops.add(ops.one, ops.one) != ops.one:
        raise NotIdempotent(f"{S.name} has no idempotent addition (1 + 1 != 1)")
    n = a.rows
    if hops == 0:
        return mat_identity(S, n)
    if a.cols != n:
        raise DimensionMismatch(f"bounded paths need a square matrix, not {n}x{a.cols}")
    relaxes = S is TROPICAL and _relaxes(n, n * n - a.values.count(None), hops)
    closed = _relaxation(a.values, n, hops) if relaxes else None
    if closed is None:
        base = mat_add(mat_identity(S, n), a)
        # When relaxation gave up, round n lowered a distance: a cycle is
        # negative, so no closure passes.
        if not relaxes:
            rows = [base.values[i * n : (i + 1) * n] for i in range(n)]
            if hops >= n - 1:
                closed = _closure(S, rows)
            elif S is TROPICAL:
                closed = _hop_closure(rows, hops)
        if closed is None:
            return _powering(base, hops)
    return _matrix(S, n, n, closed)


def _relaxes(n: int, m: int, hops: int) -> bool:
    """Whether relaxation answers S_hops over tropical for n nodes and m
    edges: the cost estimate of :func:`bounded_paths`."""
    return m * min(hops, n) <= _RELAX_RATIO * n * n


def _powering(base: Matrix, hops: int) -> Matrix:
    """B^hops by binary powering of B = ``base``, stopping when a square
    repeats (see :func:`bounded_paths`). Over bool, or another idempotent
    semiring, a square can repeat; over tropical the powering runs only
    after a negative cycle or a failed hop bound, and B^k keeps changing."""
    acc = base  # B^k, k the bits of hops read so far
    for bit in bin(hops)[3:]:
        square = mat_compose(acc, acc)
        if square == acc:
            break
        acc = mat_compose(square, base) if bit == "1" else square
    return acc


def _relaxation(values: list, n: int, hops: int) -> list | None:
    """S_hops over tropical, row major, by hop-limited relaxation from each
    source over the one-hop table ``values`` (see :func:`bounded_paths`);
    None when hops > n and round n still lowers a distance."""
    rounds = min(hops, n)
    # No walk of at most `rounds` edges weighs big or more in absolute
    # value, so big stands in for infinity and every step is on ints.
    big = rounds * max((abs(w) for w in values if w is not None), default=0) + 1
    edges = [
        [(j, w) for j, w in enumerate(values[i * n : (i + 1) * n]) if w is not None]
        for i in range(n)
    ]
    out = []
    for src in range(n):
        dist = [big] * n
        dist[src] = 0
        changed = (src,)
        for _ in range(rounds):
            nxt = dist[:]  # round k reads only round k - 1's distances
            lowered = set()
            for u in changed:
                d = dist[u]
                for v, w in edges[u]:
                    c = d + w
                    if c < nxt[v]:
                        nxt[v] = c
                        lowered.add(v)
            if not lowered:
                break
            dist, changed = nxt, lowered
        else:
            if hops > n:
                return None
        out += [None if x == big else x for x in dist]
    return out


def _hop_closure(rows: list, hops: int) -> list | None:
    """S_hops over tropical, row major, from the closure of the rows of
    B = I + A on (distance, hops) codes (see :func:`bounded_paths`); None
    when a pivot fails or some pair's fewest hops exceed ``hops``. ``rows``
    is left as it is."""
    n = len(rows)
    K = 2 * n
    codes = [
        [None if x is None else x * K + (i != j) for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    closed = _closure(TROPICAL, codes)
    if closed is None or max((c % K for c in closed if c is not None), default=0) > hops:
        return None
    return [None if c is None else c // K for c in closed]


def _closure(S: SemiringDescriptor, rows: list) -> list | None:
    """Lehmann's closure of the square matrix ``rows`` over the idempotent
    S, row major, by n pivots; None when a pivot fails. Over tropical the
    pivots run on :class:`_PackedRows` wherever 8-byte slots hold the rows;
    otherwise :func:`_pivot_of` takes one ``add`` and one ``mul`` of S's
    kernel per entry. ``rows`` is left as it is."""
    n = len(rows)
    packed = S is TROPICAL and _PackedRows.of(rows)
    if packed:
        return packed.values() if all(packed.pivot(k) for k in range(n)) else None
    pivot, rows = _pivot_of(_kernel(S)), list(rows)
    return [x for row in rows for x in row] if all(pivot(rows, k) for k in range(n)) else None


class _PackedRows:
    """Min-plus rows, each packed once into one int: the right factor of a
    tropical compose (:func:`_packed_min_plus`), or a square matrix under
    Lehmann's pivots. Entry v of a row sits in slot j as v + ``off``,
    ``width`` bytes at bit 8 * width * j, below a guard bit that is kept
    set, and infinity as a slot above ``top``. A pivot reads d_kk and each
    d_ik from slot k, and folds row k plus d_ik into row i by one slot-wise
    min, as a compose folds each row of its right factor."""

    def __init__(self, rows: list, width: int, code: str, off: int, top: int, inf: int) -> None:
        count = len(rows[0]) if rows else 0
        self.width, self.off, self.top = width, off, top
        self.slots = Struct(f"<{count}{code}")
        self.ones = _ones(width, count)
        self.guards = self.ones << (8 * width - 1)
        self.ints = [
            int.from_bytes(self.slots.pack(*[inf if x is None else x + off for x in r]), "little")
            | self.guards
            for r in rows
        ]

    @classmethod
    def of(cls, rows: list) -> _PackedRows | None:
        """The square ``rows`` packed for Lehmann's pivots, or None where
        8-byte slots cannot hold them.

        While the pivots pass, every finite entry is the weight of a simple
        path or cycle, so with L and U the largest |negative| and positive
        entries it lies in [lo, hi] = [-n * L, n * U], and a candidate
        d_ik + d_kj in [2 lo, 2 hi]. So ``off`` = -2 lo keeps every slot
        >= 0, and finite slots end at ``top`` = off + hi. An infinite slot
        plus a negative d_ik drifts down by at most -lo per pivot, so
        infinity starts n * -lo above top + 1 and ends above top after the
        n pivots, with no clamp; no slot exceeds infinity + hi."""
        n = len(rows)
        finite = [x for row in rows for x in row if x is not None]
        neg, hi = n * max(0, -min(finite, default=0)), n * max(0, max(finite, default=0))
        off = 2 * neg
        top = off + hi
        inf = top + 1 + n * neg
        layout = _guarded_slots(inf + hi)
        return layout and cls(rows, *layout, off, top, inf)

    def pivot(self, k: int) -> bool:
        ints, off, top, ones, guards = self.ints, self.off, self.top, self.ones, self.guards
        shift = 8 * self.width - 1
        low, at = (1 << shift) - 1, 8 * self.width * k
        pivot = ints[k]
        if (pivot >> at) & low != off:
            return False
        pivot ^= guards
        for i, row in enumerate(ints):
            d = (row >> at) & low
            if d <= top and i != k:
                diff = row - pivot - (d - off) * ones
                kept = diff & guards
                ints[i] = row - (diff & (kept - (kept >> shift)))
        return True

    def values(self) -> list:
        out = []
        size = self.slots.size
        for row in self.ints:
            out += self.slots.unpack((row ^ self.guards).to_bytes(size, "little"))
        off, top = self.off, self.top
        return [None if x > top else x - off for x in out]


def _pivot_of(ops: _Kernel) -> Callable[[list, int], bool]:
    """Step k of Lehmann's closure of a square matrix of lists over the
    semiring of ``ops``, in place: when d_kk is one it adds d_ik times row
    k to each row i != k and returns True, else it changes nothing."""
    add, mul, zero, one = ops.add, ops.mul, ops.zero, ops.one

    def pivot(rows: list, k: int) -> bool:
        row_k = rows[k]
        if row_k[k] != one:
            return False
        for i, row in enumerate(rows):
            d = row[k]
            if i != k and d != zero:
                rows[i] = list(map(add, row, [mul(d, x) for x in row_k]))
        return True

    return pivot


# ---------------------------------------------------------------------------
# Finite functions and their embedding


@dataclass(frozen=True)
class Aleph0Map:
    """A plain function {0..dom-1} -> {0..cod-1}, given by its value table."""

    dom: int
    cod: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.table) != self.dom:
            raise DimensionMismatch("table length must equal the domain size")
        for v in self.table:
            if not (0 <= v < self.cod):
                raise IndexOutOfRange(f"table value {v} not below {self.cod}")

    def __call__(self, i: int) -> int:
        if not (0 <= i < self.dom):
            raise IndexOutOfRange(f"argument {i} not below {self.dom}")
        return self.table[i]


def aleph0_compose(f: Aleph0Map, g: Aleph0Map) -> Aleph0Map:
    """The function "f then g"."""
    if f.cod != g.dom:
        raise DimensionMismatch("functions do not compose")
    return Aleph0Map(f.dom, g.cod, tuple(g(f(i)) for i in range(f.dom)))


def aleph0_embed(f: Aleph0Map, S: SemiringDescriptor) -> Matrix:
    """The 0/1 matrix of a function; identity on objects and functorial."""
    return _indicator(S, f.cod, f.table)


# ---------------------------------------------------------------------------
# The hom(1,1) semiring


def homset_semiring(S: SemiringDescriptor) -> SemiringDescriptor:
    """The semiring of endomaps of 1 in the matrix theory of ``S``.

    Multiplication is composition; addition is the generic biproduct
    composite (diagonal, block sum, codiagonal); zero is the unique map
    through the object 0; star, when the theory has a dagger, is the
    dagger of an endomap.
    """
    one = mat_identity(S, 1)
    zero = mat_compose(Matrix(S, 1, 0, ()), Matrix(S, 0, 1, ()))
    return SemiringDescriptor(
        name=f"hom1(mat({S.name}))",
        add=mat_add_biproduct,
        zero=zero,
        mul=mat_compose,
        one=one,
        star=(lambda a: mat_dagger(a)) if S.star is not None else None,
    )


# ---------------------------------------------------------------------------
# The .mat text format

_TOKEN_RE = re.compile(r"\S+")


def _tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


def _mat_header(lines: Iterator[str]) -> tuple[str, int, int]:
    """The semiring name, rows and cols of a matrix file's line 1, read
    from its lines; no row is read."""
    first = next(lines, None)
    if first is None:
        raise FormatError("line 1, column 1: empty matrix file")
    header = _tokens(first)
    if len(header) != 4 or header[0][0] != "semiring":
        raise FormatError("line 1, column 1: expected 'semiring <name> <rows> <cols>'")
    name = header[1][0]
    if name not in SEMIRINGS:
        raise FormatError(
            f"line 1, column {header[1][1]}: unknown semiring {_quote(name)}"
        )
    dims = []
    for tok, col in header[2:]:
        try:
            dims.append(_parse_nat(tok, {}))
        except FormatError as exc:
            raise FormatError(f"line 1, column {col}: {exc}") from None
    return name, *dims


def parse_mat_text(
    text: str | Iterable[str], header: tuple[str, int, int] | None = None
) -> Matrix:
    """Parse the matrix file format from its text, or from its lines as
    ``str.splitlines`` splits it, read one at a time: a bad line stops the
    read. Line 1 is ``semiring <name> <rows> <cols>``, with rows and cols
    ``nat`` literals (ASCII digits); each following line holds one row of
    scalars in the semiring's text grammar. Each distinct literal text is
    parsed once per call and its value reused for every later copy, and
    each distinct rational part of a gaussian literal is converted once per
    call. Errors carry the offending line and column. A caller that has
    already read line 1 from the lines passes what :func:`_mat_header`
    made of it as ``header``, and the read goes on from line 2.
    """
    lines = iter(text.splitlines() if isinstance(text, str) else text)
    name, rows, cols = _mat_header(lines) if header is None else header
    grammar = _GRAMMARS[name]
    parts: dict = {}
    values: list = []
    # Literal text -> payload, tested with `in`: tropical inf's payload is None.
    parsed: dict = {}
    for i in range(rows):
        lineno = i + 2
        line = next(lines, None)
        if line is None:
            raise FormatError(f"line {lineno}, column 1: missing row {i}")
        toks = line.split()
        if len(toks) != cols:
            spans = _tokens(line)
            col = spans[cols][1] if len(spans) > cols else (spans[-1][1] if spans else 1)
            raise FormatError(
                f"line {lineno}, column {col}: expected {cols} entries, got {len(toks)}"
            )
        if not parsed.keys() >= set(toks):
            for j, tok in enumerate(toks):
                if tok not in parsed:
                    try:
                        parsed[tok] = grammar(tok, parts)
                    except FormatError as exc:
                        # A token that fails is never stored, so this is its
                        # first copy in the row.
                        col = _tokens(line)[j][1]
                        raise FormatError(f"line {lineno}, column {col}: {exc}") from None
        values += map(parsed.__getitem__, toks)
    for lineno, line in enumerate(lines, start=rows + 2):
        if line.strip():
            raise FormatError(f"line {lineno}, column 1: unexpected trailing content")
    return _matrix(SEMIRINGS[name], rows, cols, values)


def render_mat_text(m: Matrix) -> str:
    """Render a matrix over a semiring named as a built-in; inverse of
    :func:`parse_mat_text`, byte for byte. Its payloads were checked when
    they entered, and each is written by that semiring's renderer."""
    tag = m.tag
    if tag not in SEMIRINGS:
        raise FormatError(f"semiring {tag!r} has no file rendering")
    lines = _render_rows(tag, m.values, m.rows, m.cols)
    return "\n".join([f"semiring {tag} {m.rows} {m.cols}", *lines]) + "\n"
