"""The monad layer's short paths build what its general constructions build.

``bc``, ``bc_inv``, ``dst``, ``involution``, ``mult`` of a one-entry value
and ``fmap`` of a one-entry value read their canonical arguments as
already sorted and skip the merge of :func:`ms_from_pairs`. Each must
equal ``ms_from_pairs`` over the same pairs, also over a twin descriptor
and over a semiring with zero divisors. ``eval_at_one`` remembers its sums
and products for the length of a law run, and the Kleisli constructors
build their maps without re-checking them, but keep their own checks of
objects and monads. ``Scalar`` and ``Matrix`` compare and hash
``Fraction`` payloads by their integer ratios, a multiset and a matrix
keep their hash, the samplers draw with ``getrandbits`` what
``random.Random``'s methods draw and build their values unchecked, and
``mat_compose`` sums tiny products directly: each must agree with the
general path it skips.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semicat.adjunctions as adjunctions
import semicat.matcat as matcat
import semicat.monadcore as monadcore
import semicat.sampling as sampling
from semicat.adjunctions import _naive_compose
from semicat.algebra import (
    FREE_WORDS,
    GAUSSIAN,
    NAT,
    RATNN,
    SEMIRINGS,
    Scalar,
    SemiringDescriptor,
    nat,
)
from semicat.cli import main
from semicat.errors import (
    CarrierMismatch,
    DimensionMismatch,
    ElementOutsideCarrier,
    MonadMismatch,
    MonoidMismatch,
    TagMismatch,
)
from semicat.freetheory import law_unit_functor
from semicat.kleisli import (
    KleisliMap,
    kl_compose,
    kl_coproj,
    kl_cotuple,
    kl_dagger,
    kl_id,
    kl_proj,
    kl_tensor,
    kl_tuple,
    kl_zero,
    kleisli_homset_semiring,
    theta,
    xi,
)
from semicat.matcat import Matrix, mat_compose
from semicat.monadcore import (
    STAR,
    ActionMonad,
    Atom,
    Inl,
    Inr,
    Multiset,
    MultisetMonad,
    Pair,
    carrier,
    carrier_map,
    eval_at_one,
    index_carrier,
    ms_from_pairs,
    tx_add,
)
from semicat.sampling import (
    random_carrier_fn,
    random_kleisli,
    random_matrix,
    random_multiset,
    random_scalar,
    scalar_pool,
)

# Z/4: 2 * 2 = 0, so a product of two nonzero multiplicities can vanish.
Z4 = SemiringDescriptor(
    "z4",
    add=lambda a, b: (a + b) % 4,
    zero=0,
    mul=lambda a, b: (a * b) % 4,
    one=1,
    star=lambda a: a,
)
# A second descriptor of gaussian: the monad's values are built over the
# original, so each result must come back over the monad's own descriptor.
TWIN = SemiringDescriptor(
    GAUSSIAN.name, GAUSSIAN.add, GAUSSIAN.zero, GAUSSIAN.mul, GAUSSIAN.one, GAUSSIAN.star
)
# (the monad's descriptor, the descriptor the values are built over, scalars)
SUBJECTS = [(S, S, scalar_pool(S)) for S in SEMIRINGS.values()]
SUBJECTS += [(TWIN, GAUSSIAN, scalar_pool(GAUSSIAN)), (Z4, Z4, (0, 1, 2, 3))]
ATOMS = tuple(Atom(n) for n in (0, 1, 2, "a", "b"))


@st.composite
def subjects_and_values(draw):
    """A subject and a drawer of canonical values over it: each value is
    ``ms_from_pairs`` of drawn pairs, so it may merge and drop zeros."""
    S, built, scalars = draw(st.sampled_from(SUBJECTS))

    def value(elems=st.sampled_from(ATOMS)):
        pairs = draw(st.lists(st.tuples(elems, st.sampled_from(scalars)), max_size=5))
        return ms_from_pairs(built, pairs)

    return MultisetMonad(S), value, lambda: draw(st.sampled_from(scalars))


def assert_built_alike(got, want):
    assert got.semiring is want.semiring
    assert got.entries == want.entries


@settings(max_examples=300, deadline=None)
@given(subjects_and_values(), st.data())
def test_each_short_path_equals_the_general_merge(subject, data):
    T, value, scalar = subject
    S = T.semiring
    u, v = value(), value()
    sums = st.sampled_from(ATOMS).flatmap(lambda x: st.sampled_from((Inl(x), Inr(x))))
    w = value(sums)

    def general(pairs):
        return ms_from_pairs(S, list(pairs))

    left, right = T.bc(w)
    assert_built_alike(left, general((x.value, s) for x, s in w.entries if isinstance(x, Inl)))
    assert_built_alike(right, general((x.value, s) for x, s in w.entries if isinstance(x, Inr)))
    assert_built_alike(
        T.bc_inv(u, v),
        general([(Inl(x), s) for x, s in u.entries] + [(Inr(y), t) for y, t in v.entries]),
    )
    assert_built_alike(
        T.dst(u, v),
        general((Pair(x, y), S.mul(s, t)) for x, s in u.entries for y, t in v.entries),
    )
    if S.star is not None:
        assert_built_alike(T.involution(u), general((x, S.star(s)) for x, s in u.entries))
    images = data.draw(st.lists(st.sampled_from(ATOMS), min_size=5, max_size=5))
    table = dict(zip(ATOMS, images))
    assert_built_alike(
        T.fmap(table.__getitem__, u), general((table[x], s) for x, s in u.entries)
    )
    for outer in (
        ms_from_pairs(S, [(u, scalar())]),
        ms_from_pairs(S, [(u, scalar()), (v, scalar())]),
    ):
        assert_built_alike(
            T.mult(outer),
            general((x, S.mul(s, t)) for k, s in outer.entries for x, t in k.entries),
        )


@settings(max_examples=100, deadline=None)
@given(subjects_and_values())
def test_a_multiset_keeps_the_hash_of_its_entries(subject):
    T, value, _ = subject
    u = value()
    want = hash(("multiset", u.semiring.name, u.entries))
    assert hash(u) == want == hash(u)
    assert hash(u) == hash(Multiset(T.semiring, u.entries))  # the twin's too


@pytest.mark.parametrize("S", [RATNN, GAUSSIAN], ids=lambda S: S.name)
def test_a_matrix_keeps_the_hash_of_its_values(monkeypatch, S):
    """Over ratnn and gaussian a matrix keys its values by ``_payload_key``
    on its first hash only. The checked matrix and its unchecked twin from
    the same payloads, with each Fraction a fresh copy, hash alike."""
    pool = sampling.scalar_pool(S)
    keyed = []
    real = matcat._payload_key
    monkeypatch.setattr(matcat, "_payload_key", lambda x: keyed.append(x) or real(x))
    checked = Matrix(S, 2, 3, pool)
    unchecked = matcat._matrix(S, 2, 3, [_copy(s.payload) for s in pool])
    assert checked == unchecked and checked.values is not unchecked.values
    want = hash(("matrix", S.name, 2, 3, tuple(map(real, checked.values))))
    assert keyed == []
    assert hash(checked) == want and len(keyed) == 6
    assert hash(checked) == want and len(keyed) == 6
    assert hash(unchecked) == want and len(keyed) == 12
    assert hash(unchecked) == want and len(keyed) == 12


def test_a_vanishing_product_or_merge_leaves_no_entry():
    T = MultisetMonad(Z4)
    two_a, two_b = ms_from_pairs(Z4, [(Atom("a"), 2)]), ms_from_pairs(Z4, [(Atom("b"), 2)])
    assert T.dst(two_a, two_b).entries == ()
    assert T.mult(ms_from_pairs(Z4, [(two_a, 2)])).entries == ()
    both = ms_from_pairs(Z4, [(Atom("a"), 1), (Atom("b"), 3)])
    assert T.fmap(lambda x: Atom("c"), both).entries == ()
    merged = MultisetMonad(NAT).fmap(
        lambda x: Atom("c"), ms_from_pairs(NAT, [(Atom("a"), nat(1)), (Atom("b"), nat(3))])
    )
    assert merged.entries == ((Atom("c"), nat(4)),)


def test_fmap_of_one_entry_still_checks_the_image():
    with pytest.raises(ElementOutsideCarrier, match="^multiset key a is not an element$"):
        MultisetMonad(NAT).fmap(lambda x: "a", ms_from_pairs(NAT, [(Atom(0), nat(1))]))


def _counting_tx_add(monkeypatch):
    calls = []
    real = monadcore.tx_add

    def counted(T, u, v):
        calls.append(None)
        return real(T, u, v)

    for module in (monadcore, adjunctions):
        monkeypatch.setattr(module, "tx_add", counted)
    return calls


def _point(s):
    return ms_from_pairs(NAT, [(monadcore.STAR, nat(s))])


# A builder of a semiring of values whose addition and multiplication go
# through the run's memo, whether a twin's shares none of its results, and
# two values of it.
RUN_MEMO_INPUTS = {
    "eval_at_one": (lambda: eval_at_one(MultisetMonad(NAT)), True, _point(2), _point(3)),
    "_homset": (
        lambda: adjunctions._homset(NAT),
        False,  # a twin's matrices compare equal, over the same two functions
        Matrix(NAT, 1, 1, (nat(2),)),
        Matrix(NAT, 1, 1, (nat(3),)),
    ),
}


def test_eval_at_one_remembers_per_run():
    """Inside a run each ordered pair is evaluated once, into the run's
    table, and a twin monad's descriptor reads none of it; outside a run
    every call evaluates. Each evaluation builds a new value, so a result
    that is the same object was kept."""
    for name, (build, twin_apart, a, b) in RUN_MEMO_INPUTS.items():
        E, twin = build(), build()
        for op in (E.add, E.mul):
            assert op(a, b) == op(a, b) and op(a, b) is not op(a, b), name
        token = monadcore._RUN_TABLE.set({})
        try:
            table = monadcore._RUN_TABLE.get()
            for op, twin_op in ((E.add, twin.add), (E.mul, twin.mul)):
                size = len(table)
                first = op(a, b)
                assert op(a, b) is first and len(table) == size + 1, name
                assert (twin_op(a, b) is not first) == twin_apart, name
                assert twin_op(a, b) == first and len(table) == size + 1 + twin_apart, name
                swapped = op(b, a)  # the pair is ordered
                assert swapped is not first and op(b, a) is swapped, name
                assert len(table) == size + 2 + twin_apart, name
        finally:
            monadcore._RUN_TABLE.reset(token)
        assert E.add(a, b) is not E.add(a, b), name  # and nothing after it


def test_a_second_identical_run_remembers_nothing_from_the_first(monkeypatch, capsys):
    calls = _counting_tx_add(monkeypatch)
    argv = ["roundtrip", "--adjunction", "srng-e", "--semiring", "gaussian", "--involutive"]
    assert main(argv) == 0
    counts = [len(calls)]
    assert main(argv) == 0
    counts.append(len(calls) - counts[0])
    assert counts[0] > 0 and counts[0] == counts[1]
    out = capsys.readouterr().out
    assert out[: len(out) // 2] == out[len(out) // 2 :]


@pytest.mark.parametrize(
    "op,args,error,message",
    [
        ("add", (nat(1), "one"), TagMismatch, "the nat scalar 1 is not a value of multiset(nat)"),
        ("mul", ("one", nat(1)), TagMismatch, "the nat scalar 1 is not a value of multiset(nat)"),
        ("add", ([1], "one"), TagMismatch,
         "an object of type list is not a value of multiset(nat)"),
        ("mul", ("one", [1]), TagMismatch,
         "an object of type list is not a value of multiset(nat)"),
        ("op", ([1], "unit"), MonoidMismatch,
         "an object of type list is not a value of action(free-words)"),
        ("op", (nat(1), "unit"), MonoidMismatch,
         "the nat scalar 1 is not a value of action(free-words)"),
    ],
)
def test_a_bad_argument_raises_as_before(op, args, error, message):
    E = eval_at_one(ActionMonad(FREE_WORDS) if op == "op" else MultisetMonad(NAT))
    args = [getattr(E, a) if isinstance(a, str) else a for a in args]
    for _ in range(2):  # and nothing is remembered of it
        with pytest.raises(error) as info:
            getattr(E, op)(*args)
        assert str(info.value) == message


def test_unchecked_kleisli_maps_equal_checked_ones():
    T, G = MultisetMonad(NAT), MultisetMonad(GAUSSIAN)
    comps = tuple(ms_from_pairs(NAT, [(Atom(i), nat(i + 1))]) for i in range(2))
    f = KleisliMap(T, 2, 3, comps)
    g = kl_coproj(T, 2, 1, 2)
    built = (kl_compose(f, kl_coproj(T, 1, 3, 1)), kl_compose(g, kl_coproj(T, 2, 1, 3)))
    rng = random.Random(0)
    u, v = random_kleisli(rng, G, 2, 3), random_kleisli(rng, G, 2, 2)
    built += (
        u, v, random_kleisli(rng, ActionMonad(FREE_WORDS), 3, 2),
        kl_proj(T, 1, 2, 1), kl_proj(T, 2, 1, 2), kl_zero(T, 2, 3), kl_zero(T, 0, 1),
        kl_cotuple(f, kl_zero(T, 1, 3)), kl_tuple(u, v), kl_tensor(u, v), kl_dagger(u),
        xi(G, theta(u)), kleisli_homset_semiring(G).zero,
        *(law_unit_functor(random_matrix(rng, GAUSSIAN, n, m)) for n, m in ((0, 2), (2, 0), (3, 2))),
    )
    for k in (*built, kl_id(T, 3), g):
        # The checked constructor accepts what the unchecked one built.
        checked = KleisliMap(k.monad, k.dom, k.cod, k.components)
        assert type(k) is KleisliMap and type(k.components) is tuple
        assert (k, hash(k), str(k)) == (checked, hash(checked), str(checked))
    assert kl_compose(kl_id(T, 2), f).components == f.components
    for bad in (
        lambda: kl_id(T, -1),
        lambda: kl_coproj(T, 1, 2, -1),
        lambda: kl_coproj(T, 2, -1, 2),
        lambda: kl_proj(T, 1, -1, 2),
        lambda: kl_proj(T, 2, 2, -1),
        lambda: kl_proj(T, 1, 2, -1),  # once a map 1 -> 2
        lambda: kl_zero(T, -1, 1),
        lambda: kl_zero(T, 1, -1),
        lambda: random_kleisli(rng, T, -1, 2),
        lambda: random_kleisli(rng, T, 1, -1),
    ):
        with pytest.raises(DimensionMismatch, match="^objects are naturals$"):
            bad()
    for bad in (lambda: kl_coproj(T, 3, -1, 1), lambda: kl_proj(T, 3, -1, 1)):
        with pytest.raises(ValueError, match="side must be 1 or 2"):
            bad()
    for combine in (kl_cotuple, kl_tuple, kl_tensor, kl_compose):
        with pytest.raises(
            MonadMismatch, match=r"^maps over multiset\(nat\) and multiset\(gaussian\) cannot"
        ):
            combine(kl_id(T, 1), kl_id(G, 1))
    with pytest.raises(DimensionMismatch, match="^cotuple needs a common codomain$"):
        kl_cotuple(kl_id(T, 1), kl_id(T, 2))
    with pytest.raises(DimensionMismatch, match="^tuple needs a common domain$"):
        kl_tuple(kl_id(T, 1), kl_id(T, 2))


def test_random_kleisli_into_the_empty_codomain():
    # The empty multiset is a value over the empty carrier; no action
    # monad value is, so only the empty map goes into 0 there, and no
    # action value or nested value is drawn over the empty carrier.
    rng = random.Random(0)
    for T in (MultisetMonad(NAT), MultisetMonad(GAUSSIAN)):
        assert str(random_kleisli(rng, T, 2, 0)) == "[0 -> {}; 1 -> {}]"
    A = ActionMonad(FREE_WORDS)
    assert random_kleisli(rng, A, 0, 0) == KleisliMap(A, 0, 0, ())
    message = r"^action\(free-words\) has no value over the empty carrier, so no map n -> 0 for n > 0$"
    empty = index_carrier(0)
    for draw in (
        lambda: random_kleisli(rng, A, 2, 0),
        lambda: sampling.random_tvalue(rng, A, empty),
        lambda: sampling.random_nested(rng, A, empty, 2),
    ):
        with pytest.raises(DimensionMismatch, match=message):
            draw()


def test_tx_add_and_unit_check_as_before():
    T = MultisetMonad(NAT)
    u = T.unit(Atom(0))
    for args, error, message in (
        ((nat(1), u), TagMismatch, "the nat scalar 1 is not a value of multiset(nat)"),
        ((u, [1]), TagMismatch, "an object of type list is not a value of multiset(nat)"),
        ((ms_from_pairs(GAUSSIAN, []), u), CarrierMismatch,
         "cannot add values over gaussian and nat"),
    ):
        with pytest.raises(error) as info:
            tx_add(T, *args)
        assert str(info.value) == message
    with pytest.raises(ElementOutsideCarrier, match="^multiset key a is not an element$"):
        T.unit("a")
    for S in (*SEMIRINGS.values(), Z4, TWIN):
        for x in ATOMS:
            assert_built_alike(MultisetMonad(S).unit(x), ms_from_pairs(S, [(x, S.one)]))
    trivial = SemiringDescriptor("trivial", lambda a, b: 0, 0, lambda a, b: 0, 0)
    assert MultisetMonad(trivial).unit(STAR).entries == ()


# ---------------------------------------------------------------------------
# Scalar equality by integer ratios


def _copy(payload):
    """An equal payload made of new objects."""
    if type(payload) is Fraction:
        return Fraction(payload.numerator, payload.denominator)
    if type(payload) is tuple:
        return tuple(_copy(q) for q in payload)
    return payload


class _Ratio(Fraction):
    """A Fraction subclass: compared as the tuples are."""


POOL = [s for S in SEMIRINGS.values() for s in scalar_pool(S)]
SCALARS = POOL + [Scalar(s.tag, _copy(s.payload)) for s in POOL] + [
    Scalar("ratnn", 1),
    Scalar("ratnn", Fraction(1)),
    Scalar("ratnn", _Ratio(1)),
    Scalar("ratnn", 1.0),
    Scalar("nat", Fraction(1)),
    Scalar("nat", True),
    Scalar("gaussian", (1, 0)),
    Scalar("gaussian", (Fraction(1), 0)),
    Scalar("gaussian", (Fraction(1), Fraction(0), Fraction(0))),
    Scalar("gaussian", (Fraction(1),)),
    Scalar("gaussian", [Fraction(1), Fraction(0)]),
    Scalar("gaussian", Fraction(1)),
    Scalar("gaussian", (_Ratio(1), Fraction(0))),
    Scalar("gaussian", ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0)))),
    Scalar("tropical", None),
    # each differs from a pool value in one denominator alone
    Scalar("ratnn", Fraction(7, 2)),
    Scalar("gaussian", (Fraction(1, 3), Fraction(-3, 4))),
    Scalar("gaussian", (Fraction(1, 2), Fraction(-3, 5))),
]


def test_scalar_equality_is_tuple_equality():
    for a, b in itertools.product(SCALARS, repeat=2):
        want = (a.tag, a.payload) == (b.tag, b.payload)
        assert (a == b) is want and (a != b) is (not want), (a.tag, a.payload, b.tag, b.payload)
    for a in SCALARS:
        for other in (a.payload, (a.tag, a.payload), None):
            assert a.__eq__(other) is NotImplemented
    hashable = [a for a in SCALARS if type(a.payload) is not list]
    for a, b in itertools.product(hashable, repeat=2):
        if a == b:
            assert hash(a) == hash(b), (a.tag, a.payload, b.tag, b.payload)


def test_matrix_equality_is_tuple_equality():
    """The matrix twin of the test above, over the same payload forms: the
    second entry is compared after an equal first one, in either shape."""

    def mat(tag, rows, cols, values):
        return matcat._matrix(SEMIRINGS[tag], rows, cols, values)

    for a, b in itertools.product(SCALARS, repeat=2):
        g = mat(a.tag, 1, 2, (a.payload, a.payload))
        for h in (
            mat(a.tag, 1, 2, (_copy(a.payload), b.payload)),
            mat(a.tag, 2, 1, (a.payload, b.payload)),
            mat(b.tag, 1, 2, (a.payload, b.payload)),
        ):
            want = (g.tag, g.rows, g.cols, g.values) == (h.tag, h.rows, h.cols, h.values)
            assert (g == h) is want and (g != h) is (not want), (a, b, h.rows)
        assert (mat(a.tag, 1, 1, (a.payload,)) == mat(b.tag, 1, 1, (b.payload,))) is (
            (a.tag, a.payload) == (b.tag, b.payload))
        assert g != a and g != g.values
        if list not in (type(a.payload), type(b.payload)):
            for h in (mat(a.tag, 1, 2, (_copy(a.payload), b.payload)),
                      mat(b.tag, 1, 2, (a.payload, b.payload))):
                if g == h:
                    assert hash(g) == hash(h), (a, b, h.tag)


# ---------------------------------------------------------------------------
# Draws and sampled values


def test_the_draw_helpers_draw_what_random_draws():
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        for n in range(1, 71):
            assert sampling._below(rng, n) == ref.randrange(n)
            assert -3 + sampling._below(rng, n) == ref.randint(-3, n - 4)
            seq = tuple(range(100, 100 + n))
            assert sampling._choice(rng, seq) == ref.choice(seq)
            assert sampling._choose(rng, seq, 3) == [ref.choice(seq) for _ in "abc"]
            for k in range(min(n, 21) + 1):
                assert sampling._sample(rng, n, k) == ref.sample(range(n), k)
            assert rng.getstate() == ref.getstate()


def test_an_empty_draw_raises_as_random_does():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        sampling._below(rng, 0)
    with pytest.raises(IndexError):
        sampling._choice(rng, ())
    with pytest.raises(IndexError):
        sampling._choose(rng, (), 1)
    assert sampling._choose(rng, (), 0) == []
    with pytest.raises(ValueError):
        sampling._sample(rng, 3, 4)
    with pytest.raises(IndexError):
        random_carrier_fn(rng, index_carrier(2), index_carrier(0))
    with pytest.raises(ValueError):
        random_multiset(rng, NAT, index_carrier(2), -1)
    with pytest.raises(DimensionMismatch):
        random_matrix(rng, NAT, -1, 2)


def _sampled_by_elements(rng, S, xs, max_support=4):
    """The multiset sampler as it drew from the list of elements."""
    elems = list(xs)
    k = rng.randint(0, min(max_support, len(elems)))
    chosen = rng.sample(elems, k)
    return ms_from_pairs(S, [(x, random_scalar(rng, S)) for x in chosen])


CARRIERS = [index_carrier(n) for n in range(7)] + [
    carrier([Atom("e"), Atom(3), Pair(Atom(0), STAR), STAR, Inr(Atom(1)), Inl(Atom("a"))]),
]


@pytest.mark.parametrize("S", [*SEMIRINGS.values(), TWIN], ids=[*SEMIRINGS, "gaussian-twin"])
def test_random_multiset_is_the_merge_of_the_pairs_it_drew(S):
    for seed, xs, support in itertools.product(range(40), CARRIERS, (1, 4, 6)):
        rng, replay = random.Random(seed), random.Random(seed)
        got = random_multiset(rng, S, xs, support)
        want = _sampled_by_elements(replay, S, xs, support)
        assert got.semiring is want.semiring is S
        assert len(got.entries) == len(want.entries)
        assert all(x == y and s is t for (x, s), (y, t) in zip(got.entries, want.entries))
        assert rng.getstate() == replay.getstate()


# Each built-in, the gaussian twin, a twin whose zero is another object equal
# to the built-in's, and one whose zero no pool scalar equals.
DRAWN_OVER = [
    *SEMIRINGS.values(), TWIN, replace(NAT, zero=nat(0)), replace(RATNN, zero=object()),
]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(DRAWN_OVER),
    st.integers(0, 2**32 - 1),
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from(CARRIERS),
    st.sampled_from(CARRIERS[1:]),
)
def test_each_sampler_builds_what_its_checked_constructor_builds(S, seed, rows, cols, xs, ys):
    rng, ref = random.Random(seed), random.Random(seed)
    got = random_matrix(rng, S, rows, cols)
    want = Matrix(S, rows, cols, [ref.choice(scalar_pool(S)) for _ in range(rows * cols)])
    assert got.semiring is want.semiring is S
    assert got == want and got.values == want.values and hash(got) == hash(want)
    got = random_carrier_fn(rng, xs, ys)
    want = carrier_map(xs, ys, {x: ref.choice(ys.elems) for x in xs})
    assert vars(got) == vars(want)
    got, want = random_multiset(rng, S, xs), _sampled_by_elements(ref, S, xs)
    assert got.semiring is want.semiring is S
    assert got.entries == want.entries
    assert rng.getstate() == ref.getstate()


# ---------------------------------------------------------------------------
# Tiny composes


def _counting_direct(monkeypatch):
    calls = []
    real = matcat._direct

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(matcat, "_direct", counted)
    return calls


@pytest.mark.parametrize("S", SEMIRINGS.values(), ids=lambda S: S.name)
def test_direct_compose_equals_the_naive_compose(monkeypatch, S):
    calls = _counting_direct(monkeypatch)
    kernel, shapes = matcat._KERNELS[S], []

    def products(a, b, n, m, p):
        shapes.append((n, m, p))
        return kernel.products(a, b, n, m, p)

    monkeypatch.setitem(matcat._KERNELS, S, kernel._replace(products=products))
    top = matcat._DIRECT_MAX + 1
    rng = random.Random(0)
    for n, m, p in itertools.product(range(top + 1), repeat=3):
        if n * m * p > top:
            continue
        for _ in range(8):
            g, h = random_matrix(rng, S, n, m), random_matrix(rng, S, m, p)
            before = len(calls)
            got, want = mat_compose(g, h), _naive_compose(g, h)
            assert len(calls) - before == (n * m * p <= matcat._DIRECT_MAX)
            assert got == want and str(got) == str(want)
            assert [type(v) for v in got.values] == [type(v) for v in want.values]
    # Every kernel call has at least one row, one inner step and one column.
    assert shapes and all(map(all, shapes))


def test_a_twin_keeps_its_own_operations():
    ran = []

    def counted(op, name):
        def step(x, y):
            ran.append(name)
            return op(x, y)

        return step

    twin = SemiringDescriptor(
        RATNN.name, counted(RATNN.add, "add"), RATNN.zero, counted(RATNN.mul, "mul"), RATNN.one
    )
    rng = random.Random(0)
    for m in (2, matcat._DIRECT_MAX + 1):
        g, h = random_matrix(rng, twin, 1, m), random_matrix(rng, twin, m, 1)
        want = _naive_compose(g, h)
        del ran[:]
        got = mat_compose(g, h)
        assert got == want and got.semiring is twin
        assert ran.count("mul") == m and ran.count("add") == m - 1
