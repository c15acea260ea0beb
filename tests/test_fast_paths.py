"""The monad layer's short paths build what its general constructions build.

``bc``, ``bc_inv``, ``dst``, ``involution``, ``mult`` of a one-entry value
and ``fmap`` of a one-entry value read their canonical arguments as
already sorted and skip the merge of :func:`ms_from_pairs`. Each must
equal ``ms_from_pairs`` over the same pairs, also over a twin descriptor
and over a semiring with zero divisors. ``eval_at_one`` remembers its sums
and products per monad instance, and ``kl_compose``, ``kl_id`` and
``kl_coproj`` build their maps without re-checking them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semicat.adjunctions as adjunctions
import semicat.monadcore as monadcore
from semicat.algebra import FREE_WORDS, GAUSSIAN, NAT, SEMIRINGS, SemiringDescriptor, nat
from semicat.cli import main
from semicat.errors import DimensionMismatch, ElementOutsideCarrier, MonoidMismatch, TagMismatch
from semicat.kleisli import KleisliMap, kl_compose, kl_coproj, kl_id
from semicat.monadcore import (
    ActionMonad,
    Atom,
    Inl,
    Inr,
    MultisetMonad,
    Pair,
    eval_at_one,
    ms_from_pairs,
)
from semicat.sampling import scalar_pool

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


def test_eval_at_one_remembers_per_instance(monkeypatch):
    calls = _counting_tx_add(monkeypatch)
    a = ms_from_pairs(NAT, [(monadcore.STAR, nat(2))])
    b = ms_from_pairs(NAT, [(monadcore.STAR, nat(3))])
    first, second = eval_at_one(MultisetMonad(NAT)), eval_at_one(MultisetMonad(NAT))
    assert first.add(a, b) == ms_from_pairs(NAT, [(monadcore.STAR, nat(5))])
    assert first.add(a, b) == second.add(a, b)
    assert len(calls) == 2  # once for first, once for second: nothing shared
    first.add(b, a)
    assert len(calls) == 3  # the pair is ordered


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
    T = MultisetMonad(NAT)
    comps = tuple(ms_from_pairs(NAT, [(Atom(i), nat(i + 1))]) for i in range(2))
    f = KleisliMap(T, 2, 3, comps)
    g = kl_coproj(T, 2, 1, 2)
    built = (kl_compose(f, kl_coproj(T, 1, 3, 1)), kl_compose(g, kl_coproj(T, 2, 1, 3)))
    for k in (*built, kl_id(T, 3), g):
        # The checked constructor accepts what the unchecked one built.
        checked = KleisliMap(k.monad, k.dom, k.cod, k.components)
        assert type(k) is KleisliMap and (k, hash(k), str(k)) == (checked, hash(checked), str(checked))
    assert kl_compose(kl_id(T, 2), f).components == f.components
    for bad in (
        lambda: kl_id(T, -1),
        lambda: kl_coproj(T, 1, 2, -1),
        lambda: kl_coproj(T, 2, -1, 2),
    ):
        with pytest.raises(DimensionMismatch, match="^objects are naturals$"):
            bad()
    with pytest.raises(ValueError, match="side must be 1 or 2"):
        kl_coproj(T, 3, -1, 1)
