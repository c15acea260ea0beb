"""The finitary Kleisli category of a monad instance.

Objects are naturals; a map n -> m is a list of n monad values over the
index carrier {0..m-1}. Composition is mult . fmap(g) . f. When the monad
is additive the coproduct of objects is a biproduct, and the category is
isomorphic to the matrix theory of the scalar semiring eval_at_one(T)
through the functors :func:`xi` and :func:`theta`, built from the m-ary
bicartesian map :func:`bc_m`.

:class:`KleisliMap` checks every component it is given. The constructors
of this module, ``sampling.random_kleisli``, ``freetheory.law_unit_functor``
and the ``homset-agrees`` law of ``kleisli-iso`` build components that are
values over their codomain by construction, so they make their maps
unchecked (:func:`_built`); each constructor still raises
``DimensionMismatch`` on objects that are not naturals and
``MonadMismatch`` on maps over two monads, with the messages of the
checked map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import SemiringDescriptor
from .errors import (
    DimensionMismatch,
    ElementOutsideCarrier,
    MonadMismatch,
    NoInvolution,
    NotAdditive,
    NotCommutative,
    TagMismatch,
)
from .matcat import Matrix, coord_join, coord_split
from .monadcore import (
    _POINT,
    STAR,
    Atom,
    Elem,
    Inl,
    Inr,
    MonadInstance,
    MultisetMonad,
    eval_at_one,
    index_carrier,
    ms_from_pairs,
    multiplicity,
    render_elem,
    tx_zero,
)

__all__ = [
    "KleisliMap",
    "kl_id",
    "kl_compose",
    "kl_coproj",
    "kl_proj",
    "kl_zero",
    "kl_cotuple",
    "kl_tuple",
    "kl_tensor",
    "bc_m",
    "bc_m_inv",
    "xi",
    "theta",
    "kl_dagger",
    "kleisli_homset_semiring",
]


@dataclass(frozen=True, eq=False)
class KleisliMap:
    """A map dom -> cod: one monad value over {0..cod-1} per domain index."""

    monad: MonadInstance
    dom: int
    cod: int
    components: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        _naturals(self.dom, self.cod)
        if len(self.components) != self.dom:
            raise DimensionMismatch(
                f"a map out of {self.dom} needs {self.dom} components,"
                f" got {len(self.components)}"
            )
        xs = index_carrier(self.cod)
        for c in self.components:
            self.monad.validate_over(c, xs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KleisliMap)
            and self.monad.name == other.monad.name
            and self.dom == other.dom
            and self.cod == other.cod
            and self.components == other.components
        )

    def __hash__(self) -> int:
        return hash(("kleisli", self.monad.name, self.dom, self.cod, self.components))

    def __str__(self) -> str:
        rows = "; ".join(
            f"{i} -> {render_elem(c)}"
            for i, c in enumerate(self.components)
        )
        return f"[{rows}]"


def _naturals(n: int, m: int) -> None:
    if n < 0 or m < 0:
        raise DimensionMismatch("objects are naturals")


def _built(T: MonadInstance, dom: int, cod: int, components: tuple) -> KleisliMap:
    """The map dom -> cod with ``components``, made without the checks of
    :class:`KleisliMap`: for naturals dom and cod, and components that
    are values of T over {0..cod-1} by construction."""
    k = object.__new__(KleisliMap)
    vars(k).update(monad=T, dom=dom, cod=cod, components=components)
    return k


def _same_monad(f: KleisliMap, g: KleisliMap) -> MonadInstance:
    if f.monad.name != g.monad.name:
        raise MonadMismatch(
            f"maps over {f.monad.name} and {g.monad.name} cannot be combined"
        )
    return f.monad


def kl_id(T: MonadInstance, n: int) -> KleisliMap:
    """The unit at each index: the first coprojection into n + 0."""
    return kl_coproj(T, 1, n, 0)


def kl_compose(f: KleisliMap, g: KleisliMap) -> KleisliMap:
    """The composite "f then g": component i is mult(fmap(g)(f_i)). Each
    f_i is over {0..g.dom-1}, so fmap(g) sends it to a value of values
    over {0..g.cod-1}, whose flattening is one: the composite needs no
    check of its own."""
    T = _same_monad(f, g)
    if f.cod != g.dom:
        raise DimensionMismatch(
            f"cannot compose {f.dom}->{f.cod} with {g.dom}->{g.cod}"
        )
    comps = tuple(
        T.mult(T.fmap(lambda x: g.components[x.name], c)) for c in f.components
    )
    return _built(T, f.dom, g.cod, comps)


def kl_coproj(T: MonadInstance, side: int, n: int, m: int) -> KleisliMap:
    """Coprojection into n+m: the unit at the (shifted) index."""
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side!r}")
    _naturals(n, m)
    shift, width = (0, n) if side == 1 else (n, m)
    return _built(T, width, n + m, tuple(T.unit(Atom(shift + i)) for i in range(width)))


def kl_proj(T: MonadInstance, side: int, n: int, m: int) -> KleisliMap:
    """Projection out of n+m onto the block ``(shift, width)`` that
    :func:`kl_coproj` injects: the unit on that block, zero on the other."""
    if not T.additive:
        raise NotAdditive(f"{T.name} has no projections")
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side!r}")
    _naturals(n, m)
    shift, width = (0, n) if side == 1 else (n, m)
    comps = [tx_zero(T)] * (n + m)
    comps[shift : shift + width] = [T.unit(Atom(i)) for i in range(width)]
    return _built(T, n + m, width, tuple(comps))


def kl_zero(T: MonadInstance, n: int, m: int) -> KleisliMap:
    if not T.additive:
        raise NotAdditive(f"{T.name} has no zero maps")
    _naturals(n, m)
    return _built(T, n, m, (tx_zero(T),) * n)


def kl_cotuple(f: KleisliMap, g: KleisliMap) -> KleisliMap:
    """[f, g]: case split on the domain blocks."""
    T = _same_monad(f, g)
    if f.cod != g.cod:
        raise DimensionMismatch("cotuple needs a common codomain")
    return _built(T, f.dom + g.dom, f.cod, f.components + g.components)


def kl_tuple(f: KleisliMap, g: KleisliMap) -> KleisliMap:
    """<f, g>: componentwise inverse bicartesian map, then the canonical
    relabelling of the sum carrier onto {0..cod1+cod2-1}."""
    T = _same_monad(f, g)
    if f.dom != g.dom:
        raise DimensionMismatch("tuple needs a common domain")
    if not T.additive:
        raise NotAdditive(f"{T.name} has no tuples")
    m1 = f.cod

    def canon(e: Elem) -> Elem:
        if isinstance(e, Inl):
            return e.value
        if isinstance(e, Inr):
            return Atom(m1 + e.value.name)
        raise ElementOutsideCarrier(f"{render_elem(e)} is not in a sum carrier")

    comps = tuple(
        T.fmap(canon, T.bc_inv(fc, gc))
        for fc, gc in zip(f.components, g.components)
    )
    return _built(T, f.dom, m1 + g.cod, comps)


def kl_tensor(f: KleisliMap, g: KleisliMap) -> KleisliMap:
    """Tensor of f: m -> p with g: n -> q, for a commutative monad: the
    component at the joined index (i, i') is fmap(join)(dst(f_i, g_i'))."""
    T = _same_monad(f, g)
    if not T.commutative:
        raise NotCommutative(f"{T.name} has no tensor of maps")
    p, q = f.cod, g.cod

    def join(e: Elem) -> Elem:
        return Atom(coord_join(p, q, e.left.name, e.right.name))

    comps = []
    for c in range(f.dom * g.dom):
        i0, i1 = coord_split(f.dom, g.dom, c)
        comps.append(T.fmap(join, T.dst(f.components[i0], g.components[i1])))
    return _built(T, f.dom * g.dom, p * q, tuple(comps))


# ---------------------------------------------------------------------------
# The m-ary bicartesian map and the matrix isomorphism


def bc_m(T: MonadInstance, u, m: int) -> tuple:
    """Split a value over {0..m-1} into m values over the point.

    Iterates the binary bicartesian map with the association
    ((..((1+1)+1)..)+1), peeling the last coordinate at each step.
    Raises ElementOutsideCarrier unless ``u`` is a value over {0..m-1}.
    """
    if not T.additive:
        raise NotAdditive(f"{T.name} has no bicartesian map")
    T.validate_over(u, index_carrier(m))
    return _bc_m(T, u, m)


def _bc_m(T: MonadInstance, u, m: int) -> tuple:
    """:func:`bc_m` without its checks: T is additive, u over {0..m-1}."""
    parts = []
    cur = u
    for width in range(m, 1, -1):
        last = width - 1

        def tag(e: Elem, last=last) -> Elem:
            return Inr(STAR) if e.name == last else Inl(e)

        rest, point = T.bc(T.fmap(tag, cur))
        parts.append(point)
        cur = rest
    if m >= 1:
        parts.append(T.fmap(lambda e: STAR, cur))
    parts.reverse()
    return tuple(parts)


def bc_m_inv(T: MonadInstance, parts: tuple):
    """Reassemble a value over {0..m-1} from m values over the point;
    inverse of :func:`bc_m` with the same association. Raises
    ElementOutsideCarrier unless every part is a value over the point."""
    if not T.additive:
        raise NotAdditive(f"{T.name} has no bicartesian map")
    for part in parts:
        T.validate_over(part, _POINT)
    m = len(parts)
    if m == 0:
        return T.initial_value()
    cur = T.fmap(lambda e: Atom(0), parts[0])
    for width in range(2, m + 1):
        last = width - 1

        def untag(e: Elem, last=last) -> Elem:
            if isinstance(e, Inl):
                return e.value
            if isinstance(e, Inr):
                return Atom(last)
            raise ElementOutsideCarrier(
                f"{render_elem(e)} is not in a sum carrier"
            )

        cur = T.fmap(untag, T.bc_inv(cur, parts[width - 1]))
    return cur


def theta(k: KleisliMap) -> Matrix:
    """A Kleisli map as a matrix over the scalar semiring eval_at_one(T):
    entry (i, j) is the j-th bicartesian part of component i."""
    T = k.monad
    if not T.additive:
        raise NotAdditive(f"{T.name} has no matrix presentation")
    E = eval_at_one(T)
    entries = []
    for c in k.components:  # each validated over {0..cod-1} by KleisliMap
        entries.extend(_bc_m(T, c, k.cod))
    return Matrix(E, k.dom, k.cod, tuple(entries))


def xi(T: MonadInstance, h: Matrix) -> KleisliMap:
    """A matrix over eval_at_one(T) as a Kleisli map: component i is the
    inverse bicartesian map applied to row i."""
    if not T.additive:
        raise NotAdditive(f"{T.name} has no matrix presentation")
    expected = f"eval1({T.name})"
    if h.tag != expected:
        raise TagMismatch(f"matrix over {h.tag} is not over {expected}")
    comps = tuple(bc_m_inv(T, h.row(i)) for i in range(h.rows))
    return _built(T, h.rows, h.cols, comps)


def kl_dagger(k: KleisliMap) -> KleisliMap:
    """The dagger of a multiset-monad map: transpose the component table
    and star every multiplicity."""
    T = k.monad
    if not isinstance(T, MultisetMonad) or T.semiring.star is None:
        raise NoInvolution(f"{T.name} has no dagger")
    S = T.semiring
    comps = []
    for j in range(k.cod):
        pairs = [
            (Atom(i), S.star(multiplicity(k.components[i], Atom(j))))
            for i in range(k.dom)
        ]
        comps.append(ms_from_pairs(S, pairs))
    return _built(T, k.cod, k.dom, tuple(comps))


def kleisli_homset_semiring(T: MonadInstance) -> SemiringDescriptor:
    """The semiring of endomaps of 1, with addition by the biproduct
    composite (diagonal, block sum, codiagonal), multiplication by
    composition, and zero the unique map through the object 0."""
    if not T.additive:
        raise NotAdditive(f"{T.name} has no endomap semiring")
    one = kl_id(T, 1)
    zero = kl_compose(kl_zero(T, 1, 0), _built(T, 0, 1, ()))
    diag = kl_tuple(one, one)
    codiag = kl_cotuple(one, one)

    def h_add(a: KleisliMap, b: KleisliMap) -> KleisliMap:
        blocked = kl_cotuple(
            kl_compose(a, kl_coproj(T, 1, 1, 1)),
            kl_compose(b, kl_coproj(T, 2, 1, 1)),
        )
        return kl_compose(kl_compose(diag, blocked), codiag)

    star = None
    if isinstance(T, MultisetMonad) and T.semiring.star is not None:
        star = kl_dagger
    return SemiringDescriptor(
        name=f"hom1(kl({T.name}))",
        add=h_add,
        zero=zero,
        mul=kl_compose,
        one=one,
        star=star,
    )
