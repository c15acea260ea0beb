"""Multiset and action monads: units, multiplication, strength, and the
generically derived additive and module structure."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicat.algebra import (
    BOOL,
    FREE_WORDS,
    GAUSSIAN,
    MONOIDS,
    NAT,
    TROPICAL,
    SemiringDescriptor,
    additive_monoid,
    boolean,
    gaussian,
    multiplicative_monoid,
    nat,
    tropical,
    word,
)
from semicat.errors import (
    CarrierMismatch,
    DimensionMismatch,
    ElementOutsideCarrier,
    IndexOutOfRange,
    KeyNotMultiset,
    MonoidMismatch,
    NoInvolution,
    NotAdditive,
    NotCommutative,
    SemicatError,
    TagMismatch,
)
from semicat.freetheory import FreeTerm, term_normalize, tl_mult
from semicat.matcat import (
    Aleph0Map,
    Matrix,
    aleph0_compose,
    homset_semiring,
    mat_identity,
    matrix,
)
from semicat.monadcore import (
    ActVal,
    ActionMonad,
    Atom,
    CarrierMap,
    FiniteCarrier,
    Inl,
    Inr,
    Multiset,
    MultisetMonad,
    Pair,
    STAR,
    carrier,
    carrier_map,
    dst_strength_first,
    dst_swapped_first,
    eval_at_one,
    generic_strength,
    ms_from_pairs,
    ms_map_scalars,
    multiplicity,
    render_elem,
    render_multiset,
    scalar_action,
    tx_add,
    tx_zero,
)
from semicat.sampling import random_tvalue

A, B, C = Atom("a"), Atom("b"), Atom("c")
U, V, X, Y = Atom("u"), Atom("v"), Atom("x"), Atom("y")

MN = MultisetMonad(NAT)
MT = MultisetMonad(TROPICAL)
MG = MultisetMonad(GAUSSIAN)
AW = ActionMonad(FREE_WORDS)


def ms(S, *pairs):
    return ms_from_pairs(S, pairs)


# ---------------------------------------------------------------------------
# fmap / unit / mult oracles


def test_fmap_merges_preimages():
    phi = ms(NAT, (A, nat(2)), (B, nat(3)), (C, nat(1)))
    xs = carrier([A, B, C])
    ys = carrier([U, V])
    f = carrier_map(xs, ys, {A: U, B: U, C: V})
    assert MN.fmap(f, phi) == ms(NAT, (U, nat(5)), (V, nat(1)))


def test_fmap_identity_and_empty():
    phi = ms(NAT, (A, nat(2)))
    assert MN.fmap(lambda e: e, phi) == phi
    assert MN.fmap(lambda e: e, ms(NAT)) == ms(NAT)


def test_unit_is_singleton_one():
    assert MN.unit(X) == ms(NAT, (X, nat(1)))
    assert MultisetMonad(BOOL).unit(X) == ms(BOOL, (X, boolean(True)))
    assert MT.unit(X) == ms(TROPICAL, (X, tropical(0)))


def test_mult_oracle():
    phi1 = ms(NAT, (A, nat(1)), (B, nat(3)))
    phi2 = ms(NAT, (B, nat(2)))
    outer = ms(NAT, (phi1, nat(2)), (phi2, nat(1)))
    assert MN.mult(outer) == ms(NAT, (A, nat(2)), (B, nat(8)))


def test_mult_of_unit_layers():
    phi = ms(NAT, (A, nat(4)), (B, nat(1)))
    assert MN.mult(MN.unit(phi)) == phi
    assert MN.mult(ms(NAT)) == ms(NAT)


def test_nested_multisets_are_keys_that_sort_and_render_in_place():
    a, b = Atom("a"), Atom("b")
    inner1 = ms(NAT, (b, nat(2)))
    inner2 = ms(NAT, (a, nat(1)), (b, nat(1)))
    keys = [
        inner1, Atom(0), Pair(a, STAR), inner2, Inl(b), a, STAR,
        ActVal(word("ab"), a), ms_from_pairs(NAT, []),
    ]
    nested = ms_from_pairs(NAT, [(k, nat(i + 1)) for i, k in enumerate(keys)])
    assert str(nested) == (
        "{(ab,a): 8, 0: 2, a: 6, {}: 9, {a: 1, b: 1}: 4, {b: 2}: 1, "
        "(a,star): 3, star: 7, inl b: 5}"
    )
    assert MN.mult(MN.unit(inner2)) == inner2


def test_mult_rejects_plain_keys():
    with pytest.raises(KeyNotMultiset):
        MN.mult(ms(NAT, (A, nat(1))))


# ---------------------------------------------------------------------------
# Short paths: no pair, one pair, and empty values


def test_ms_from_pairs_with_no_pair_or_one():
    for S in (NAT, TROPICAL):
        for pairs in ([], iter([])):
            empty = ms_from_pairs(S, pairs)
            assert empty.semiring is S and empty.entries == ()
    for pairs in ([(A, nat(2))], iter([(A, nat(2))])):
        assert ms_from_pairs(NAT, pairs).entries == ((A, nat(2)),)
    # a single zero value is dropped, as it is after a merge
    assert ms_from_pairs(NAT, [(A, nat(0))]).entries == ()
    assert ms_from_pairs(TROPICAL, [(A, tropical(None))]).entries == ()
    assert ms_from_pairs(TROPICAL, [(A, tropical(0))]).entries == ((A, tropical(0)),)
    with pytest.raises(ElementOutsideCarrier) as info:
        ms_from_pairs(NAT, [("a", nat(1))])
    assert str(info.value) == "multiset key a is not an element"
    with pytest.raises(ElementOutsideCarrier) as info:
        ms_from_pairs(NAT, iter([(3, nat(0))]))
    assert str(info.value) == "multiset key an object of type int is not an element"


def test_a_bad_first_key_is_met_before_the_second_pair_is_read():
    def pairs():
        yield "a", nat(1)
        raise AssertionError("the second pair was read")

    with pytest.raises(ElementOutsideCarrier, match="^multiset key a is not an element$"):
        ms_from_pairs(NAT, pairs())
    read = []
    with pytest.raises(ElementOutsideCarrier):
        MN.fmap(lambda x: read.append(x) or "b", ms(NAT, (A, nat(1)), (B, nat(1))))
    assert read == [A]


def test_an_empty_value_comes_back_over_the_monads_own_semiring():
    twin = SemiringDescriptor(NAT.name, NAT.add, NAT.zero, NAT.mul, NAT.one, NAT.star)
    empty = Multiset(twin, ())
    called = []
    results = [
        MN.fmap(called.append, empty),
        MN.mult(empty),
        *MN.bc(empty),
        MN.dst(empty, MN.unit(A)),
        MN.dst(MN.unit(A), empty),
        MN.dst(empty, empty),
    ]
    assert called == []
    for got in results:
        assert got.semiring is NAT and got.entries == ()


def test_an_empty_value_over_another_semiring_is_still_rejected():
    empty = ms(BOOL)
    calls = [
        lambda: MN.fmap(lambda e: e, empty),
        lambda: MN.mult(empty),
        lambda: MN.bc(empty),
        lambda: MN.dst(empty, MN.unit(A)),
        lambda: MN.dst(MN.unit(A), empty),
    ]
    for call in calls:
        with pytest.raises(TagMismatch) as info:
            call()
        assert str(info.value) == "{} over bool is not a value of multiset(nat)"


def test_check_value_messages():
    with pytest.raises(TagMismatch) as info:
        MN.check_value(MultisetMonad(BOOL).unit(A))
    assert str(info.value) == "{a: 1} over bool is not a value of multiset(nat)"
    with pytest.raises(TagMismatch) as info:
        MN.check_value(A)
    assert str(info.value) == "a is not a value of multiset(nat)"


# ---------------------------------------------------------------------------
# Strength and double strength


def test_strength_pairs_on_the_right():
    assert generic_strength(MN, ms(NAT, (A, nat(2))), Y) == ms(
        NAT, (Pair(A, Y), nat(2))
    )
    assert generic_strength(MN, ms(NAT), Y) == ms(NAT)


def test_strength_on_action_values():
    got = generic_strength(AW, ActVal(word("m"), X), Y)
    assert got == ActVal(word("m"), Pair(X, Y))


def test_dst_oracle():
    phi = ms(NAT, (A, nat(2)), (B, nat(1)))
    psi = ms(NAT, (X, nat(3)))
    expected = ms(NAT, (Pair(A, X), nat(6)), (Pair(B, X), nat(3)))
    assert MN.dst(phi, psi) == expected
    assert MN.dst(ms(NAT), psi) == ms(NAT)


def test_dst_tag_mismatch():
    with pytest.raises(TagMismatch):
        MN.dst(ms(NAT, (A, nat(1))), ms(TROPICAL, (X, tropical(0))))


def test_every_multiset_method_rejects_a_value_over_another_semiring():
    u = ms(BOOL, (A, boolean(True)))
    calls = [
        lambda: MN.fmap(lambda e: e, u),
        lambda: MN.mult(u),
        lambda: MN.dst(u, u),
        lambda: MN.dst(MN.unit(A), u),
        lambda: MN.bc(u),
        lambda: MN.bc_inv(u, u),
        lambda: MN.involution(u),
    ]
    for call in calls:
        with pytest.raises(TagMismatch, match="over bool is not a value of multiset[(]nat[)]"):
            call()


def test_commutativity_witness_agrees_for_multisets():
    u, v = ms(NAT, (A, nat(2))), ms(NAT, (X, nat(3)))
    left = dst_strength_first(MN, u, v)
    assert left == dst_swapped_first(MN, u, v)
    assert left == ms(NAT, (Pair(A, X), nat(6)))
    over_bool = MultisetMonad(BOOL).unit(A)
    for composite in (dst_strength_first, dst_swapped_first):
        for args in ((ms(NAT), over_bool), (over_bool, ms(NAT))):
            with pytest.raises(TagMismatch):
                composite(MN, *args)


def test_commutativity_witness_splits_free_words():
    u, v = ActVal(word("ab"), X), ActVal(word("cd"), Y)
    assert dst_strength_first(AW, u, v) == ActVal(word("abcd"), Pair(X, Y))
    assert dst_swapped_first(AW, u, v) == ActVal(word("cdab"), Pair(X, Y))


def test_action_dst_requires_commutativity():
    with pytest.raises(NotCommutative):
        AW.dst(ActVal(word("a"), X), ActVal(word("b"), Y))


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_action_dst_is_the_generic_composites_of_a_commutative_monoid(name):
    # No law runs ActionMonad.dst: dst-direct-agrees is a multiset law.
    T, xs = ActionMonad(MONOIDS[name]), carrier([A, B, C])
    rng = random.Random(0)
    for _ in range(40):
        u, v = random_tvalue(rng, T, xs), random_tvalue(rng, T, xs)
        if not T.commutative:
            with pytest.raises(NotCommutative):
                T.dst(u, v)
            continue
        assert T.dst(u, v) == dst_strength_first(T, u, v) == dst_swapped_first(T, u, v)


# ---------------------------------------------------------------------------
# Additive structure


def test_bicartesian_roundtrip_oracle():
    w = ms(NAT, (Inl(A), nat(2)), (Inr(B), nat(3)))
    u, v = MN.bc(w)
    assert u == ms(NAT, (A, nat(2)))
    assert v == ms(NAT, (B, nat(3)))
    assert MN.bc_inv(u, v) == w


def test_bicartesian_fwd_empty():
    assert MN.bc(ms(NAT)) == (ms(NAT), ms(NAT))


def test_bicartesian_rejects_untagged_keys():
    with pytest.raises(ElementOutsideCarrier):
        MN.bc(ms(NAT, (A, nat(1))))


def test_bicartesian_needs_additivity():
    with pytest.raises(NotAdditive):
        AW.bc(ActVal(word("a"), Inl(X)))


def test_tx_add_is_pointwise():
    u = ms(NAT, (A, nat(2)))
    v = ms(NAT, (A, nat(3)), (B, nat(1)))
    assert tx_add(MN, u, v) == ms(NAT, (A, nat(5)), (B, nat(1)))


def test_tx_add_tropical_is_min():
    u = ms(TROPICAL, (A, tropical(2)))
    v = ms(TROPICAL, (A, tropical(5)))
    assert tx_add(MT, u, v) == ms(TROPICAL, (A, tropical(2)))


def test_tx_add_unit_and_mismatch():
    u = ms(NAT, (A, nat(2)))
    assert tx_add(MN, u, tx_zero(MN)) == u
    with pytest.raises(CarrierMismatch):
        tx_add(MN, u, ms(TROPICAL, (A, tropical(1))))


def test_scalar_action_scales_multiplicities():
    u = ms(NAT, (A, nat(2)), (B, nat(1)))
    three = ms(NAT, (STAR, nat(3)))
    assert scalar_action(MN, three, u) == ms(NAT, (A, nat(6)), (B, nat(3)))
    assert scalar_action(MN, MN.unit(STAR), u) == u
    assert scalar_action(MN, tx_zero(MN), u) == tx_zero(MN)


def test_scalar_action_needs_point_scalar():
    u = ms(NAT, (A, nat(2)))
    with pytest.raises(ElementOutsideCarrier):
        scalar_action(MN, ms(NAT, (A, nat(3))), u)


# ---------------------------------------------------------------------------
# Evaluation at the singleton carrier


def test_eval_at_one_multiset_ops():
    E = eval_at_one(MN)
    two = ms(NAT, (STAR, nat(2)))
    three = ms(NAT, (STAR, nat(3)))
    assert E.mul(two, three) == ms(NAT, (STAR, nat(6)))
    assert E.add(two, three) == ms(NAT, (STAR, nat(5)))
    assert E.zero == ms(NAT)
    assert E.one == ms(NAT, (STAR, nat(1)))
    with pytest.raises(TagMismatch):
        E.mul(E.zero, MultisetMonad(BOOL).unit(STAR))


def test_eval_at_one_action_monad_is_monoid():
    E = eval_at_one(AW)
    w1 = ActVal(word("ab"), STAR)
    w2 = ActVal(word("c"), STAR)
    assert E.op(w1, w2) == ActVal(word("abc"), STAR)
    assert E.unit == ActVal(word(""), STAR)
    assert not hasattr(E, "zero")


def test_eval_at_one_star():
    E = eval_at_one(MG)
    v = ms(GAUSSIAN, (STAR, gaussian(1, 2)))
    assert E.star(v) == ms(GAUSSIAN, (STAR, gaussian(1, -2)))


# ---------------------------------------------------------------------------
# Action monad plumbing


def test_action_unit_mult_oracles():
    assert AW.unit(X) == ActVal(word(""), X)
    assert AW.mult(ActVal(word("a"), ActVal(word("b"), X))) == ActVal(word("ab"), X)
    assert AW.mult(ActVal(word(""), ActVal(word("w"), X))) == ActVal(word("w"), X)


def test_action_monad_member_guard():
    with pytest.raises(MonoidMismatch):
        AW.check_value(ActVal(nat(1), X))


# ---------------------------------------------------------------------------
# Involution


def test_involution_conjugates():
    phi = ms(GAUSSIAN, (A, gaussian(1, 2)))
    assert MG.involution(phi) == ms(GAUSSIAN, (A, gaussian(1, -2)))
    assert MG.involution(MG.involution(phi)) == phi


def test_involution_identity_on_nat():
    phi = ms(NAT, (A, nat(2)))
    assert MN.involution(phi) == phi


def test_involution_requires_star():
    assert not AW.involutive
    with pytest.raises(NoInvolution):
        AW.involution(ActVal(word("a"), X))


# ---------------------------------------------------------------------------
# Scalar reindexing and rendering


def test_ms_map_scalars():
    phi = ms(NAT, (A, nat(2)), (B, nat(0)))
    out = ms_map_scalars(lambda s: tropical(s.payload), phi, TROPICAL)
    assert out == ms(TROPICAL, (A, tropical(2)))


def test_rendering():
    phi = ms(NAT, (B, nat(1)), (A, nat(2)))
    assert render_multiset(phi) == "{a: 2, b: 1}"
    assert render_multiset(ms(NAT)) == "{}"
    assert render_elem(Pair(Inl(A), Inr(STAR))) == "(inl a,inr star)"


# ---------------------------------------------------------------------------
# Property tests over random ingredients

scalars_nat = st.integers(min_value=0, max_value=9).map(nat)
atoms = st.sampled_from([A, B, C])


@st.composite
def nat_multisets(draw):
    pairs = draw(st.lists(st.tuples(atoms, scalars_nat), max_size=4))
    return ms_from_pairs(NAT, pairs)


@given(nat_multisets(), nat_multisets())
def test_tx_add_commutes(u, v):
    assert tx_add(MN, u, v) == tx_add(MN, v, u)


@given(nat_multisets(), nat_multisets(), nat_multisets())
@settings(max_examples=60)
def test_tx_add_associates(u, v, w):
    assert tx_add(MN, tx_add(MN, u, v), w) == tx_add(MN, u, tx_add(MN, v, w))


@given(nat_multisets(), nat_multisets())
def test_dst_matches_generic_composites(u, v):
    left = dst_strength_first(MN, u, v)
    assert left == dst_swapped_first(MN, u, v)
    assert MN.dst(u, v) == left


@given(nat_multisets())
def test_strength_then_drop_is_identity(u):
    dropped = MN.fmap(lambda p: p.left, generic_strength(MN, u, Y))
    assert dropped == u


@given(nat_multisets(), nat_multisets())
def test_bc_inv_then_bc(u, v):
    assert MN.bc(MN.bc_inv(u, v)) == (u, v)


# ---------------------------------------------------------------------------
# A semiring's name is its identity, and errors render the values they name.


@pytest.mark.parametrize(
    "S", [homset_semiring(NAT), eval_at_one(MN)], ids=lambda S: S.name
)
def test_a_multiset_monad_over_a_synthesized_semiring_takes_its_own_values(S):
    T = MultisetMonad(S)
    u = T.unit(A)
    assert T.fmap(lambda x: B, u) == T.unit(B)
    assert T.mult(T.unit(u)) == u


@pytest.mark.parametrize(
    "S", [homset_semiring(NAT), eval_at_one(MN)], ids=lambda S: S.name
)
def test_the_monoids_of_a_synthesized_semiring_take_its_own_values(S):
    for M in (multiplicative_monoid(S), additive_monoid(S)):
        M.check_member(M.unit)
        M.check_member(M.op(M.unit, M.unit))
    T = ActionMonad(multiplicative_monoid(S))
    u = T.unit(A)
    T.check_value(u)
    assert T.mult(T.unit(u)) == u


@pytest.mark.parametrize(
    "S", [homset_semiring(NAT), eval_at_one(MN)], ids=lambda S: S.name
)
def test_action_values_over_a_synthesized_semiring_have_keys(S):
    M = multiplicative_monoid(S)
    u, v = ActionMonad(M).unit(A), ActVal(M.unit, B)
    assert carrier([u, v]).elems == (u, v)
    assert ms_from_pairs(NAT, [(v, nat(1)), (u, nat(2))]) == ms_from_pairs(
        NAT, [(u, nat(2)), (v, nat(1))]
    )


@pytest.mark.parametrize("make", [multiplicative_monoid, additive_monoid])
def test_the_monoids_of_a_builtin_reject_a_scalar_with_a_foreign_tag(make):
    M = make(TROPICAL)
    M.check_member(M.unit)
    with pytest.raises(MonoidMismatch):
        M.check_member(nat(0))
    with pytest.raises(MonoidMismatch):
        ActionMonad(M).check_value(ActVal(nat(0), A))


def test_error_messages_render_values_without_addresses():
    fn = lambda x: x  # noqa: E731
    over_nat = MN.unit(A)
    raising = [
        lambda: MultisetMonad(BOOL).fmap(fn, over_nat),
        lambda: MN.check_value(fn),
        lambda: AW.check_value(over_nat),
        lambda: AW.check_value(fn),
        lambda: AW.check_value(ActVal(nat(1), A)),
        lambda: NAT.add(nat(1), fn),
        lambda: NAT.mul(over_nat, nat(1)),
        lambda: FREE_WORDS.op(word("a"), fn),
        lambda: ms_from_pairs(NAT, [(fn, nat(1))]),
        lambda: FreeTerm(mat_identity(NAT, 1), (fn,)),
        lambda: term_normalize(over_nat),
    ]
    messages = []
    for call in raising:
        with pytest.raises(SemicatError) as info:
            call()
        messages.append(str(info.value))
    assert [m for m in messages if "0x" in m] == []
    assert messages[0] == "{a: 1} over nat is not a value of multiset(bool)"
    assert messages[4] == "the nat scalar 1 is not an element of monoid free-words"
    assert messages[5] == "expected a nat scalar, got an object of type function"
    term = FreeTerm(mat_identity(NAT, 1), (A,))
    assert render_elem(term) == str(term) == "k_1([1]; (a))"


# ---------------------------------------------------------------------------
# Input checks, each with its exception and message

AB, T1 = carrier([A, B]), tropical(1)
TERM_T1 = FreeTerm(matrix(TROPICAL, [[T1]]), (A,))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Matrix(NAT, -1, 0, ()), DimensionMismatch, "matrix dimensions must be naturals"),
        (lambda: Matrix(NAT, 2, 2, (nat(1),) * 3), DimensionMismatch,
         "2x2 matrix needs 4 entries, got 3"),
        (lambda: Aleph0Map(2, 3, (0, 1))(2), IndexOutOfRange, "argument 2 not below 2"),
        (lambda: Aleph0Map(2, 3, (0, 1))(-1), IndexOutOfRange, "argument -1 not below 2"),
        (lambda: aleph0_compose(Aleph0Map(1, 2, (0,)), Aleph0Map(3, 1, (0, 0, 0))),
         DimensionMismatch, "functions do not compose"),
        (lambda: FiniteCarrier((B, A)), ValueError,
         "carrier elements must be strictly sorted and distinct"),
        (lambda: FiniteCarrier((A, A)), ValueError,
         "carrier elements must be strictly sorted and distinct"),
        (lambda: CarrierMap(AB, AB, ((A, A), (B, B), (C, A))), ElementOutsideCarrier,
         "table key c not in the domain"),
        (lambda: CarrierMap(AB, AB, ((A, C), (B, B))), ElementOutsideCarrier,
         "table value c not in the codomain"),
        (lambda: CarrierMap(AB, AB, ((A, B),)), ElementOutsideCarrier,
         "table misses domain element b"),
        (lambda: MN.mult(ms_from_pairs(NAT, [(ms_from_pairs(TROPICAL, [(A, T1)]), nat(1))])),
         TagMismatch, "inner multiset over tropical inside an outer one over nat"),
        (lambda: tl_mult(FreeTerm(matrix(NAT, [[nat(1)]]), (TERM_T1,))),
         TagMismatch, "inner term over tropical inside one over nat"),
    ],
    ids=[
        "matrix-negative-dimension", "matrix-entry-count", "aleph0-argument-above",
        "aleph0-argument-below", "aleph0-compose-domain", "carrier-unsorted",
        "carrier-repeated", "carrier-map-key", "carrier-map-value", "carrier-map-missing",
        "mult-inner-semiring", "tl-mult-inner-semiring",
    ],
)
def test_an_input_check_raises_its_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_equal_carriers_compare_and_hash_alike():
    built, listed = carrier([B, A, C]), FiniteCarrier((A, B, C))
    assert built is not listed
    assert built == listed and hash(built) == hash(listed)
    assert built != carrier([A, B]) and built != (A, B, C)
