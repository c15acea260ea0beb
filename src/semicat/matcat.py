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
entrywise sum that other callers, such as the shortest-path command, use.

Compose, tensor and dagger each have one core (``_compose``, ``_tensor``,
``_dagger``) on grids: a semiring, a shape, and values that are the bare
payloads over the built-in descriptor objects (``NAT``, ``BOOL``,
``TROPICAL``, ``RATNN``, ``GAUSSIAN``), else the entries. The cores check
shapes and names; the :class:`Matrix` API opens each entry with ``_open``,
raising :class:`TagMismatch` on a foreign one, and boxes with ``_close``.
Entrywise add, tensor and dagger use the built-in's payload operations
from ``algebra._PAYLOAD_OPS``, the table its scalar descriptor is built
from. Compose has its own sum-of-products kernel per built-in: int sums of
products for nat, any/and for bool, and min-plus on ints for tropical,
with infinity replaced by a stand-in larger than any finite sum can
reach. For ratnn and gaussian, compose reads the integer ratio of each
entry once and scales each row of the left factor by the lcm D of its
denominators and each column of the right factor by the lcm E of its own.
Every scaled entry is an integer, or an (re, im) pair of integers, so a
row-by-column sum of products is an exact integer sum over D*E. Gaussian
compose takes three integer dot products per output entry, Gauss's trick:
re = sum ac - sum bd and im = sum (a+b)(c+d) - sum ac - sum bd, with the
sums a+b and c+d formed once per row and per column. One ``Fraction`` built
per output part is the exact value, and since ``Fraction`` reduces to
lowest terms it is the same canonical value, rendering to the same bytes,
as a sum of ``Fraction`` products. Scaling per row and per column, not per
matrix, keeps the integers as small as the denominators one output entry
combines. Any other descriptor (hom-set and evaluation semirings, or one
that merely carries a built-in's name) computes with its own
``add``/``mul``/``star``, one call per scalar step; the ``compose-oracle``
law compares the kernels with a triple loop over the descriptor's
operations.

The ``.mat`` text format reads and writes through the scalar grammar and
renderers of :mod:`semicat.algebra`. ``_read_mat`` reads a file to a grid
of payloads, parsing each distinct literal text and each distinct rational
part of a gaussian literal once per file; ``_write_mat`` writes a grid. The
``matmul`` command runs a core between them; :func:`parse_mat_text` and
:func:`render_mat_text` add ``_close`` and a tag check of every entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, and_, mul
from typing import Callable, NamedTuple, Sequence

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
    _NAT_RE,
    _PAYLOAD_OPS,
    _decimal,
    _payloads,
    _quote,
    _render_rows,
)
from .errors import (
    DimensionMismatch,
    FormatError,
    IndexOutOfRange,
    NoInvolution,
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
    "aleph0_embed",
    "homset_semiring",
    "parse_mat_text",
    "render_mat_text",
]


@dataclass(frozen=True, eq=False)
class Matrix:
    """A morphism rows -> cols of the matrix theory of ``semiring``.

    ``entries`` holds rows*cols values of the entry semiring in row-major
    order; for the scalar built-ins these are :class:`Scalar` values, while
    synthesized semirings (hom-set or evaluation descriptors) supply their
    own value type. Equality compares the semiring's name, shape, and entries.
    """

    semiring: SemiringDescriptor
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("matrix dimensions must be naturals")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries,"
                f" got {len(self.entries)}"
            )

    @property
    def tag(self) -> str:
        return self.semiring.name

    def entry(self, i: int, j: int):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexOutOfRange(f"entry ({i},{j}) of a {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.tag == other.tag
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash(("matrix", self.tag, self.rows, self.cols, self.entries))

    def __str__(self) -> str:
        body = ",".join(
            "[" + ",".join(str(e) for e in self.row(i)) + "]" for i in range(self.rows)
        )
        return f"[{body}]"


def matrix(S: SemiringDescriptor, rows: Sequence[Sequence]) -> Matrix:
    """Build a matrix from a list of rows, validating shape and tags."""
    n = len(rows)
    m = len(rows[0]) if n else 0
    flat = []
    for r in rows:
        if len(r) != m:
            raise DimensionMismatch("ragged rows")
        flat.extend(r)
    if S.name in _PAYLOAD_OPS:
        _payloads(flat, S.name)
    return Matrix(S, n, m, tuple(flat))


def _same_theory(g, h) -> SemiringDescriptor:
    """g's semiring, if h's has its name; g and h are matrices or grids."""
    S, T = g.semiring, h.semiring
    if S.name != T.name:
        raise TagMismatch(f"matrices over {S.name} and {T.name} cannot be combined")
    return S


# ---------------------------------------------------------------------------
# Payload kernels for the built-in semirings


def _nat_products(rows: list, cols: list) -> list:
    return [sum(map(mul, r, c)) for r in rows for c in cols]


def _bool_products(rows: list, cols: list) -> list:
    return [any(map(and_, r, c)) for r in rows for c in cols]


def _tropical_products(rows: list, cols: list) -> list:
    # Infinity (None) becomes big = 3M + 1, where M bounds every finite
    # |weight|. A sum of two finite weights stays within [-2M, 2M] and a sum
    # with big in it is at least 2M + 1, so min-plus runs on ints alone.
    bound = max((abs(x) for v in rows + cols for x in v if x is not None), default=0)
    big = 3 * bound + 1
    rows = [[big if x is None else x for x in r] for r in rows]
    cols = [[big if x is None else x for x in c] for c in cols]
    sums = [min(map(add, r, c), default=big) for r in rows for c in cols]
    return [None if x > 2 * bound else x for x in sums]


def _over_lcm(qs: list) -> tuple[int, list[int]]:
    """(d, [q * d for q in qs]), d the lcm of the denominators of qs."""
    ratios = [q.as_integer_ratio() for q in qs]
    d = lcm(*[b for _, b in ratios])
    return d, [a * (d // b) for a, b in ratios]


def _ratnn_products(rows: list, cols: list) -> list:
    rows = [_over_lcm(r) for r in rows]
    cols = [_over_lcm(c) for c in cols]
    return [
        Fraction(sum(map(mul, rn, cn)), rd * cd) for rd, rn in rows for cd, cn in cols
    ]


def _gaussian_over_lcm(pairs: list) -> tuple:
    """(d, re, im, re + im): the parts of ``pairs`` scaled by the lcm d of
    their denominators, and their entrywise sums."""
    d, ints = _over_lcm([q for pair in pairs for q in pair])
    re, im = ints[0::2], ints[1::2]
    return d, re, im, list(map(add, re, im))


def _gaussian_products(rows: list, cols: list) -> list:
    # Gauss's three products: (a + bi)(c + di) has re = ac - bd and
    # im = (a + b)(c + d) - ac - bd.
    rows = [_gaussian_over_lcm(r) for r in rows]
    cols = [_gaussian_over_lcm(c) for c in cols]
    out = []
    for row_den, a, b, a_b in rows:
        for col_den, c, d, c_d in cols:
            ac, bd = sum(map(mul, a, c)), sum(map(mul, b, d))
            den = row_den * col_den
            out.append(
                (Fraction(ac - bd, den), Fraction(sum(map(mul, a_b, c_d)) - ac - bd, den))
            )
    return out


class _Kernel(NamedTuple):
    """What the matrix operations compute with. ``products`` takes the rows
    of one matrix and the columns of another and returns every row-by-column
    sum of products, row major; the rest are the scalar operations."""

    products: Callable[[list, list], list]
    add: Callable
    mul: Callable
    star: Callable | None


# Keyed on the descriptor objects, which hash by identity: a descriptor
# that merely shares a built-in's name keeps its own operations.
_KERNELS: dict[SemiringDescriptor, _Kernel] = {
    S: _Kernel(products, *_PAYLOAD_OPS[S.name])
    for S, products in (
        (NAT, _nat_products),
        (BOOL, _bool_products),
        (TROPICAL, _tropical_products),
        (RATNN, _ratnn_products),
        (GAUSSIAN, _gaussian_products),
    )
}


def _generic(S: SemiringDescriptor) -> _Kernel:
    """S's own operations, one descriptor call per scalar step."""

    def products(rows: list, cols: list) -> list:
        out = []
        for r in rows:
            for c in cols:
                acc = S.zero
                for x, y in zip(r, c):
                    acc = S.add(acc, S.mul(x, y))
                out.append(acc)
        return out

    return _Kernel(products, S.add, S.mul, S.star)


def _kernel(S: SemiringDescriptor) -> _Kernel:
    """A built-in's payload kernel, else S's own operations."""
    return _KERNELS.get(S) or _generic(S)


class _Grid(NamedTuple):
    """A matrix as the cores take it: payloads over a built-in, else entries."""

    semiring: SemiringDescriptor
    rows: int
    cols: int
    values: Sequence


def _open(m: Matrix, S: SemiringDescriptor | None = None) -> _Grid:
    """m's grid for the kernel of S (by default m's semiring): each entry
    checked to carry S's name and unwrapped, if S is a built-in. A matrix
    of another name is left as it is, for a core to reject by name."""
    S = m.semiring if S is None else S
    values = m.entries
    if S in _KERNELS and m.tag == S.name:
        values = _payloads(values, S.name)
    return _Grid(m.semiring, m.rows, m.cols, values)


def _close(S: SemiringDescriptor, rows: int, cols: int, values: Sequence) -> Matrix:
    """The matrix of a grid's values, each payload wrapped once as a scalar."""
    if S in _KERNELS:
        tag = S.name
        values = [Scalar(tag, v) for v in values]
    return Matrix(S, rows, cols, tuple(values))


def mat_identity(S: SemiringDescriptor, n: int) -> Matrix:
    return Matrix(
        S, n, n, tuple(S.one if i == j else S.zero for i in range(n) for j in range(n))
    )


def _compose(g: _Grid, h: _Grid) -> _Grid:
    S = _same_theory(g, h)
    if g.cols != h.rows:
        raise DimensionMismatch(
            f"cannot compose {g.rows}x{g.cols} with {h.rows}x{h.cols}"
        )
    a, m, p = g.values, g.cols, h.cols
    rows = [a[i * m : (i + 1) * m] for i in range(g.rows)]
    cols = [h.values[k::p] for k in range(p)]
    return _Grid(S, g.rows, p, _kernel(S).products(rows, cols))


def mat_compose(g: Matrix, h: Matrix) -> Matrix:
    """The composite "g then h" (g: n -> m, h: m -> p)."""
    return _close(*_compose(_open(g), _open(h, g.semiring)))


def mat_coproj1(S: SemiringDescriptor, n: int, m: int) -> Matrix:
    return Matrix(
        S, n, n + m,
        tuple(S.one if i == j else S.zero for i in range(n) for j in range(n + m)),
    )


def mat_coproj2(S: SemiringDescriptor, n: int, m: int) -> Matrix:
    return Matrix(
        S, m, n + m,
        tuple(S.one if j == n + i else S.zero for i in range(m) for j in range(n + m)),
    )


def mat_proj1(S: SemiringDescriptor, n: int, m: int) -> Matrix:
    return Matrix(
        S, n + m, n,
        tuple(S.one if i == j else S.zero for i in range(n + m) for j in range(n)),
    )


def mat_proj2(S: SemiringDescriptor, n: int, m: int) -> Matrix:
    return Matrix(
        S, n + m, m,
        tuple(S.one if i == n + j else S.zero for i in range(n + m) for j in range(m)),
    )


def mat_cotuple(f: Matrix, g: Matrix) -> Matrix:
    """[f, g]: stack rows; both maps must share the codomain."""
    S = _same_theory(f, g)
    if f.cols != g.cols:
        raise DimensionMismatch("cotuple needs a common codomain")
    return Matrix(S, f.rows + g.rows, f.cols, f.entries + g.entries)


def mat_tuple(f: Matrix, g: Matrix) -> Matrix:
    """<f, g>: juxtapose columns; both maps must share the domain."""
    S = _same_theory(f, g)
    if f.rows != g.rows:
        raise DimensionMismatch("tuple needs a common domain")
    entries = []
    for i in range(f.rows):
        entries.extend(f.row(i))
        entries.extend(g.row(i))
    return Matrix(S, f.rows, f.cols + g.cols, tuple(entries))


def _parallel(f: Matrix, g: Matrix) -> SemiringDescriptor:
    S = _same_theory(f, g)
    if f.rows != g.rows or f.cols != g.cols:
        raise DimensionMismatch("can only add parallel matrices")
    return S


def mat_add(f: Matrix, g: Matrix) -> Matrix:
    """Hom-set addition, computed entry by entry. It equals
    :func:`mat_add_biproduct`, the paper's derived addition, which the
    ``add-entrywise`` law checks against entrywise sums."""
    S = _parallel(f, g)
    a, b = _open(f).values, _open(g, S).values
    return _close(S, f.rows, f.cols, list(map(_kernel(S).add, a, b)))


def mat_add_biproduct(f: Matrix, g: Matrix) -> Matrix:
    """Hom-set addition as the biproduct composite: the diagonal, then the
    block sum of f and g, then the codiagonal. This function never touches
    entries directly. It is the addition of :func:`homset_semiring`, so the
    law suites check the derived construction rather than a shortcut."""
    S = _parallel(f, g)
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


def _tensor(g: _Grid, h: _Grid) -> _Grid:
    S = _same_theory(g, h)
    a, b = g.values, h.values
    m, p = g.rows, g.cols
    n, q = h.rows, h.cols
    g_rows = [a[i * p : (i + 1) * p] for i in range(m)]
    h_rows = [b[i * q : (i + 1) * q] for i in range(n)]
    times = _kernel(S).mul
    return _Grid(
        S, m * n, p * q,
        [times(x, y) for r in g_rows for s in h_rows for x in r for y in s],
    )


def mat_tensor(g: Matrix, h: Matrix) -> Matrix:
    """Tensor of g: m -> p with h: n -> q, flattened by the fixed
    coordinatisation on rows (inner factor n) and columns (inner factor q)."""
    return _close(*_tensor(_open(g), _open(h, g.semiring)))


def _dagger(f: _Grid) -> _Grid:
    S = f.semiring
    if S.star is None:
        raise NoInvolution(f"semiring {S.name} has no star")
    a, n, star = f.values, f.cols, _kernel(S).star
    return _Grid(S, n, f.rows, [star(x) for j in range(n) for x in a[j::n]])


def mat_dagger(f: Matrix) -> Matrix:
    """Starred transpose."""
    return _close(*_dagger(_open(f)))


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
    return Matrix(
        S,
        f.dom,
        f.cod,
        tuple(
            S.one if f(i) == j else S.zero for i in range(f.dom) for j in range(f.cod)
        ),
    )


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


def parse_mat_text(text: str) -> Matrix:
    """Parse the matrix file format.

    Line 1 is ``semiring <name> <rows> <cols>``, with rows and cols ``nat``
    literals (ASCII digits); each following line holds one row of scalars
    in the semiring's text grammar. Each distinct literal text is parsed
    once per call and its value reused for every later copy, and each
    distinct rational part of a gaussian literal is converted once per call.
    Errors carry the offending line and column.
    """
    return _close(*_read_mat(text))


def _read_mat(text: str) -> _Grid:
    """The grid of bare payloads that :func:`parse_mat_text` reads."""
    lines = text.splitlines()
    if not lines:
        raise FormatError("line 1, column 1: empty matrix file")
    header = _tokens(lines[0])
    if len(header) != 4 or header[0][0] != "semiring":
        raise FormatError("line 1, column 1: expected 'semiring <name> <rows> <cols>'")
    name = header[1][0]
    if name not in SEMIRINGS:
        raise FormatError(
            f"line 1, column {header[1][1]}: unknown semiring {_quote(name)}"
        )
    S = SEMIRINGS[name]
    if not all(_NAT_RE.match(tok) for tok, _ in header[2:]):
        raise FormatError(
            f"line 1, column {header[2][1]}: rows and cols must be naturals"
        )
    dims = []
    for tok, col in header[2:]:
        try:
            dims.append(_decimal(tok))
        except FormatError as exc:
            raise FormatError(f"line 1, column {col}: {exc}") from None
    rows, cols = dims

    grammar = _GRAMMARS[name]
    values: list = []
    # Literal text -> payload, tested with `in`: tropical inf's payload is None.
    parsed: dict = {}
    parts: dict = {}
    for i in range(rows):
        lineno = i + 2
        if lineno - 1 >= len(lines):
            raise FormatError(f"line {lineno}, column 1: missing row {i}")
        line = lines[lineno - 1]
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
    for extra in range(rows + 2, len(lines) + 1):
        if lines[extra - 1].strip():
            raise FormatError(f"line {extra}, column 1: unexpected trailing content")
    return _Grid(S, rows, cols, values)


def render_mat_text(m: Matrix) -> str:
    """Render a matrix over a built-in scalar semiring; inverse of
    :func:`parse_mat_text`, byte for byte. Every entry must carry the
    matrix's tag (else :class:`TagMismatch`), and each is written by that
    semiring's renderer."""
    if m.tag not in SEMIRINGS:
        raise FormatError(f"semiring {m.tag!r} has no file rendering")
    return _write_mat(_Grid(m.semiring, m.rows, m.cols, _payloads(m.entries, m.tag)))


def _write_mat(g: _Grid) -> str:
    """The text of a grid of payloads over a built-in semiring."""
    tag = g.semiring.name
    lines = [f"semiring {tag} {g.rows} {g.cols}"]
    lines += _render_rows(tag, g.values, g.rows, g.cols)
    return "\n".join(lines) + "\n"
