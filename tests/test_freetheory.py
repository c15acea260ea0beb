"""Coefficient-row terms, their normal forms, and agreement with the
multiset monad's unit, multiplication, and involution."""

import pytest

from semicat.algebra import GAUSSIAN, NAT, gaussian, nat
from semicat.errors import MalformedTerm
from semicat.freetheory import (
    FreeTerm,
    law_unit_functor,
    term_normalize,
    tl_involution,
    tl_mult,
    tl_unit,
)
from semicat.kleisli import kl_compose, kl_coproj, kl_id
from semicat.matcat import Matrix, mat_coproj1, mat_identity, matrix
from semicat.monadcore import Atom, MultisetMonad, ms_from_pairs

X, Y, A = Atom("x"), Atom("y"), Atom("a")
MN = MultisetMonad(NAT)


def nat_term(coeffs, args):
    return FreeTerm(matrix(NAT, [[nat(c) for c in coeffs]]), tuple(args))


def test_normalize_merges_equal_arguments():
    t = nat_term((2, 3), (X, X))
    assert term_normalize(t) == ms_from_pairs(NAT, [(X, nat(5))])


def test_normalize_unit_and_empty():
    assert term_normalize(nat_term((1,), (X,))) == ms_from_pairs(NAT, [(X, nat(1))])
    assert term_normalize(nat_term((), ())) == ms_from_pairs(NAT, [])


def test_unit_agrees_with_the_multiset_unit():
    assert term_normalize(tl_unit(X, NAT)) == MN.unit(X)


def test_term_shape_guards():
    with pytest.raises(MalformedTerm):
        FreeTerm(matrix(NAT, [[nat(1)], [nat(2)]]), (X, Y))
    with pytest.raises(MalformedTerm):
        FreeTerm(matrix(NAT, [[nat(1), nat(2)]]), (X,))
    with pytest.raises(MalformedTerm):
        FreeTerm(matrix(NAT, [[nat(1)]]), ("x",))


def test_mult_oracle():
    t1 = nat_term((1,), (A,))
    t2 = nat_term((2,), (A,))
    outer = nat_term((2, 1), (t1, t2))
    assert term_normalize(tl_mult(outer)) == ms_from_pairs(NAT, [(A, nat(4))])


def test_mult_of_empties():
    outer = nat_term((), ())
    assert term_normalize(tl_mult(outer)) == ms_from_pairs(NAT, [])


def test_mult_requires_term_arguments():
    with pytest.raises(MalformedTerm):
        tl_mult(nat_term((1,), (X,)))


def test_relation_check_examples():
    # Each pair is the row g pushed forward along an index function f and
    # applied to v, against g applied to v precomposed with f.
    # f = (0,): the single inner slot goes to position 0 of two outputs
    assert term_normalize(nat_term((4, 0), (X, Y))) == term_normalize(nat_term((4,), (X,)))
    # f = (0, 0): two inner slots collapse onto one output
    assert term_normalize(nat_term((5,), (X,))) == term_normalize(nat_term((2, 3), (X, X)))
    # f = (1, 0): a swap reorders the row and the arguments alike
    assert term_normalize(nat_term((3, 2), (X, Y))) == term_normalize(nat_term((2, 3), (Y, X)))
    # without the precomposition the two sides differ
    assert term_normalize(nat_term((3, 2), (X, Y))) != term_normalize(nat_term((2, 3), (X, Y)))


def test_involution_conjugates_coefficients():
    t = FreeTerm(
        matrix(GAUSSIAN, [[gaussian(1, 1), gaussian(2, 0)]]), (X, Y)
    )
    assert term_normalize(tl_involution(t)) == ms_from_pairs(
        GAUSSIAN, [(X, gaussian(1, -1)), (Y, gaussian(2, 0))]
    )
    twice = tl_involution(tl_involution(t))
    assert term_normalize(twice) == term_normalize(t)


def test_unit_functor_row_extraction():
    k = law_unit_functor(matrix(NAT, [[nat(2), nat(3)]]))
    assert k.dom == 1 and k.cod == 2
    assert k.components[0] == ms_from_pairs(
        NAT, [(Atom(0), nat(2)), (Atom(1), nat(3))]
    )


def test_unit_functor_preserves_identity_and_coprojections():
    assert law_unit_functor(mat_identity(NAT, 3)) == kl_id(MN, 3)
    assert law_unit_functor(mat_coproj1(NAT, 2, 1)) == kl_coproj(MN, 1, 2, 1)


def test_unit_functor_is_functorial():
    g = matrix(NAT, [[nat(1), nat(2)], [nat(0), nat(1)]])
    h = matrix(NAT, [[nat(3)], [nat(4)]])
    lhs = law_unit_functor(Matrix(NAT, 2, 1, (nat(11), nat(4))))
    assert lhs == kl_compose(law_unit_functor(g), law_unit_functor(h))


def test_term_debug_rendering():
    t = nat_term((2, 3), (X, Y))
    assert str(t) == "k_2([2,3]; (x, y))"
