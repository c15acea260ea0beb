"""Formal terms over a matrix theory and their multiset normal forms.

A term pairs a coefficient row (a 1 by i matrix) with a tuple of i
arguments. Terms over terms multiply by composing the outer row with the
block diagonal of the inner rows and concatenating argument tuples. The
normal form of a term is the multiset collecting coefficients of equal
arguments; it identifies exactly the terms related by precomposition
with a plain index function, which the ``relation-sound`` law of the
``freetheory`` suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import _describe
from .errors import MalformedTerm, NoInvolution, TagMismatch
from .kleisli import _built
from .matcat import Aleph0Map, Matrix, aleph0_embed, mat_compose, mat_identity
from .monadcore import (
    Atom,
    Elem,
    Multiset,
    MultisetMonad,
    _scalar_key,
    ms_from_pairs,
    render_elem,
)

__all__ = [
    "FreeTerm",
    "term_normalize",
    "tl_unit",
    "tl_mult",
    "tl_involution",
    "law_unit_functor",
]


@dataclass(frozen=True)
class FreeTerm(Elem):
    """A coefficient row applied to a tuple of arguments.

    Terms are elements themselves, so a term's arguments may be terms
    (the two-level shape that :func:`tl_mult` flattens).
    """

    coeffs: Matrix
    args: tuple

    def __post_init__(self) -> None:
        if self.coeffs.rows != 1:
            raise MalformedTerm("coefficients must form a single row")
        if len(self.args) != self.coeffs.cols:
            raise MalformedTerm(
                f"arity {self.coeffs.cols} term applied to {len(self.args)} arguments"
            )
        for a in self.args:
            if not isinstance(a, Elem):
                raise MalformedTerm(f"argument {_describe(a)} is not an element")

    @property
    def arity(self) -> int:
        return self.coeffs.cols

    def key(self) -> tuple:
        return (
            "freeterm",
            self.coeffs.tag,
            self.coeffs.cols,
            tuple(_scalar_key(e) for e in self.coeffs.entries),
            tuple(a.key() for a in self.args),
        )

    def __str__(self) -> str:
        row = ",".join(str(e) for e in self.coeffs.entries)
        args = ", ".join(render_elem(a) for a in self.args)
        return f"k_{self.arity}([{row}]; ({args}))"


def term_normalize(t: FreeTerm) -> Multiset:
    """The multiset with, at x, the sum of coefficients of arguments equal
    to x. Constant on the classes of the generating relation."""
    if not isinstance(t, FreeTerm):
        raise MalformedTerm(f"{_describe(t)} is not a term")
    return ms_from_pairs(t.coeffs.semiring, zip(t.args, t.coeffs.entries))


def tl_unit(x: Elem, S) -> FreeTerm:
    """The arity-one term with the identity coefficient."""
    return FreeTerm(mat_identity(S, 1), (x,))


def tl_mult(outer: FreeTerm) -> FreeTerm:
    """Flatten a term whose arguments are terms: compose the outer row with
    the block diagonal of the inner rows, concatenate the inner tuples."""
    for a in outer.args:
        if not isinstance(a, FreeTerm):
            raise MalformedTerm(f"argument {render_elem(a)} is not a term")
    S = outer.coeffs.semiring
    inner = outer.args
    for t in inner:
        if t.coeffs.tag != outer.coeffs.tag:
            raise TagMismatch(
                f"inner term over {t.coeffs.tag} inside one over {outer.coeffs.tag}"
            )
    widths = [t.arity for t in inner]
    total = sum(widths)
    entries = [S.zero] * (len(inner) * total)
    offset = 0
    for j, t in enumerate(inner):
        for a in range(widths[j]):
            entries[j * total + offset + a] = t.coeffs.entry(0, a)
        offset += widths[j]
    block = Matrix(S, len(inner), total, tuple(entries))
    args = tuple(x for t in inner for x in t.args)
    return FreeTerm(mat_compose(outer.coeffs, block), args)


def tl_involution(t: FreeTerm) -> FreeTerm:
    """Star every coefficient (the componentwise dagger of the row)."""
    S = t.coeffs.semiring
    if S.star is None:
        raise NoInvolution(f"semiring {S.name} has no star")
    starred = Matrix(
        S, 1, t.coeffs.cols, tuple(S.star(e) for e in t.coeffs.entries)
    )
    return FreeTerm(starred, t.args)


def law_unit_functor(f: Matrix):
    """A matrix as a multiset-monad Kleisli map: component i is the normal
    form of row i applied to the identity tuple of atoms. Functorial and
    coproduct preserving. Each component is a value over the map's
    codomain by construction, so the map is built unchecked."""
    S = f.semiring
    idx = tuple(Atom(j) for j in range(f.cols))
    comps = []
    for i in range(f.rows):
        point = aleph0_embed(Aleph0Map(1, f.rows, (i,)), S)
        row = mat_compose(point, f)
        comps.append(term_normalize(FreeTerm(row, idx)))
    return _built(MultisetMonad(S), f.rows, f.cols, tuple(comps))
