"""Finitary Kleisli maps: composition, biproduct structure, tensor, the
matrix presentation, and the dagger."""

import pytest

from semicat.algebra import (
    GAUSSIAN,
    MONOIDS,
    NAT,
    TROPICAL,
    gaussian,
    nat,
    tropical,
)
from semicat.errors import (
    DimensionMismatch,
    ElementOutsideCarrier,
    MonadMismatch,
    NoInvolution,
    NotAdditive,
    TagMismatch,
)
from semicat.kleisli import (
    KleisliMap,
    bc_m,
    bc_m_inv,
    kl_compose,
    kl_coproj,
    kl_dagger,
    kl_id,
    kl_proj,
    kl_tensor,
    kl_zero,
    kleisli_homset_semiring,
    theta,
    xi,
)
from semicat.matcat import Matrix, mat_compose
from semicat.monadcore import (
    ActionMonad,
    Atom,
    MultisetMonad,
    STAR,
    eval_at_one,
    ms_from_pairs,
    tx_zero,
)

MN = MultisetMonad(NAT)
MG = MultisetMonad(GAUSSIAN)


def nat_value(*pairs):
    return ms_from_pairs(NAT, [(Atom(i), nat(s)) for i, s in pairs])


def test_compose_oracle():
    f = KleisliMap(MN, 1, 2, (nat_value((0, 2), (1, 1)),))
    g = KleisliMap(MN, 2, 1, (nat_value((0, 3)), nat_value((0, 1))))
    assert kl_compose(f, g) == KleisliMap(MN, 1, 1, (nat_value((0, 7)),))


def test_identity_neutral():
    g = KleisliMap(MN, 2, 1, (nat_value((0, 3)), nat_value((0, 1))))
    assert kl_compose(kl_id(MN, 2), g) == g
    assert kl_compose(g, kl_id(MN, 1)) == g


def test_compose_guards():
    f = KleisliMap(MN, 1, 2, (nat_value((0, 2), (1, 1)),))
    with pytest.raises(DimensionMismatch):
        kl_compose(f, f)
    trop = KleisliMap(
        MultisetMonad(TROPICAL), 2, 1,
        (ms_from_pairs(TROPICAL, [(Atom(0), tropical(0))]),) * 2,
    )
    with pytest.raises(MonadMismatch):
        kl_compose(f, trop)


def test_component_validation():
    with pytest.raises(DimensionMismatch):
        KleisliMap(MN, 2, 1, (nat_value((0, 1)),))


def test_biproduct_equations():
    for n, m in ((1, 1), (2, 1), (2, 3)):
        k1 = kl_coproj(MN, 1, n, m)
        k2 = kl_coproj(MN, 2, n, m)
        p1 = kl_proj(MN, 1, n, m)
        p2 = kl_proj(MN, 2, n, m)
        assert kl_compose(k1, p1) == kl_id(MN, n)
        assert kl_compose(k2, p2) == kl_id(MN, m)
        assert kl_compose(k1, p2) == kl_zero(MN, n, m)
        assert kl_compose(k2, p1) == kl_zero(MN, m, n)


def test_biproduct_coproj_and_zero():
    k1 = KleisliMap(MN, 2, 3, (nat_value((0, 1)), nat_value((1, 1))))
    assert kl_coproj(MN, 1, 2, 1) == k1
    assert kl_coproj(MN, 2, 2, 1) == KleisliMap(MN, 1, 3, (nat_value((2, 1)),))
    assert kl_zero(MN, 1, 2) == KleisliMap(MN, 1, 2, (nat_value(),))
    with pytest.raises(ValueError):
        kl_coproj(MN, 3, 1, 1)


def test_projections_need_additivity():
    AW = ActionMonad(MONOIDS["free-words"])
    with pytest.raises(NotAdditive):
        kl_proj(AW, 1, 1, 1)


def test_tensor_oracle():
    f = KleisliMap(MN, 1, 1, (nat_value((0, 2)),))
    g = KleisliMap(MN, 1, 1, (nat_value((0, 3)),))
    assert kl_tensor(f, g) == KleisliMap(MN, 1, 1, (nat_value((0, 6)),))
    assert kl_tensor(kl_id(MN, 1), kl_id(MN, 1)) == kl_id(MN, 1)


def test_bc_m_roundtrip():
    for m in range(4):
        u = ms_from_pairs(NAT, [(Atom(i), nat(i + 1)) for i in range(m)])
        parts = bc_m(MN, u, m)
        assert len(parts) == m
        assert bc_m_inv(MN, parts) == u


@pytest.mark.parametrize(
    ("u", "m"),
    [
        # two elements outside {0} would be merged into coordinate 0
        (ms_from_pairs(NAT, [(Atom("a"), nat(1)), (Atom(5), nat(2))]), 1),
        # a nonempty value over the empty carrier would be dropped
        (nat_value((0, 1)), 0),
        (nat_value((2, 1)), 2),
        (MN.unit(STAR), 2),
    ],
)
def test_bc_m_rejects_a_value_outside_its_carrier(u, m):
    with pytest.raises(ElementOutsideCarrier):
        bc_m(MN, u, m)


@pytest.mark.parametrize(
    "parts",
    [
        (MN.unit(Atom("a")),),
        (MN.unit(STAR), nat_value((0, 3))),
    ],
)
def test_bc_m_inv_rejects_a_part_outside_the_point(parts):
    with pytest.raises(ElementOutsideCarrier):
        bc_m_inv(MN, parts)


def test_xi_oracle():
    E = eval_at_one(MN)
    h = Matrix(
        E, 1, 2,
        (
            ms_from_pairs(NAT, [(STAR, nat(2))]),
            ms_from_pairs(NAT, [(STAR, nat(3))]),
        ),
    )
    k = xi(MN, h)
    assert k.components[0] == nat_value((0, 2), (1, 3))
    assert theta(k) == h


def test_xi_rejects_foreign_scalars():
    plain = Matrix(NAT, 1, 1, (nat(2),))
    with pytest.raises(TagMismatch):
        xi(MN, plain)


def test_theta_is_a_functor_on_a_fixed_pair():
    f = KleisliMap(MN, 2, 2, (nat_value((0, 1), (1, 2)), nat_value((1, 1))))
    g = KleisliMap(MN, 2, 2, (nat_value((0, 3)), nat_value((0, 1), (1, 1))))
    assert theta(kl_compose(f, g)) == mat_compose(theta(f), theta(g))
    assert xi(MN, theta(f)) == f


def test_dagger_transposes_and_conjugates():
    comp = ms_from_pairs(GAUSSIAN, [(Atom(0), gaussian(1, 2))])
    k = KleisliMap(MG, 1, 1, (comp,))
    assert kl_dagger(k) == KleisliMap(
        MG, 1, 1, (ms_from_pairs(GAUSSIAN, [(Atom(0), gaussian(1, -2))]),)
    )
    two = KleisliMap(
        MG, 1, 2,
        (
            ms_from_pairs(
                GAUSSIAN, [(Atom(0), gaussian(0, 1)), (Atom(1), gaussian(2, 0))]
            ),
        ),
    )
    flipped = kl_dagger(two)
    assert flipped.dom == 2 and flipped.cod == 1
    assert flipped.components[0] == ms_from_pairs(
        GAUSSIAN, [(Atom(0), gaussian(0, -1))]
    )


def test_dagger_needs_a_starred_multiset_monad():
    AW = ActionMonad(MONOIDS["free-words"])
    with pytest.raises(NoInvolution):
        kl_dagger(kl_id(AW, 1))


def test_homset_semiring_ops():
    KH = kleisli_homset_semiring(MN)
    two = KleisliMap(MN, 1, 1, (nat_value((0, 2)),))
    three = KleisliMap(MN, 1, 1, (nat_value((0, 3)),))
    assert KH.add(two, three) == KleisliMap(MN, 1, 1, (nat_value((0, 5)),))
    assert KH.mul(two, three) == KleisliMap(MN, 1, 1, (nat_value((0, 6)),))
    assert KH.zero == KleisliMap(MN, 1, 1, (tx_zero(MN),))
    assert KH.one == kl_id(MN, 1)
