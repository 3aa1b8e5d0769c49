"""The one equality rule of the symbolic half: objects of different
classes never compare equal, and two equal objects built apart hash
equal, for every value class of primes, cdtype and groups."""

from hypothesis import given, strategies as st

from bockstein.cdtype import Basis, BocksteinFn, CdType, nat
from bockstein.groups import (
    DirectSum, Q, SumOverPrimes, Z, Zinv, Zloc, Zmod, ZpInf, normalize, sigma,
)
from bockstein.primes import EMPTY, PrimeFn, PrimeSet

from test_cdtype import POOL
from test_primes import prime, prime_fns, prime_sets


def _twins(a, b):
    assert a == b and b == a and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def _set_apart(s):
    return PrimeSet(list(s.primes), cofinite=s.cofinite)


def _fn_apart(f):
    return PrimeFn(f.at_zero, f.default, dict(f.exceptions))


def _phi_apart(phi):
    return BocksteinFn(phi.phi_q, _fn_apart(phi.zp), _fn_apart(phi.zpinf),
                       _fn_apart(phi.zloc))


# A group maker builds one expression afresh on every call.
leaf_makers = st.one_of(
    st.just(lambda: Q), st.just(lambda: Z),
    st.builds(lambda p, k: lambda: Zmod(p, k), prime, st.integers(1, 3)),
    st.builds(lambda p: lambda: ZpInf(p), prime),
    st.builds(lambda p: lambda: Zinv(p), prime),
    st.builds(lambda ps: lambda: Zloc(ps), st.frozensets(prime, max_size=3)),
    st.builds(lambda ps, pattern: lambda: SumOverPrimes(ps, pattern),
              st.frozensets(prime, min_size=1, max_size=3),
              st.sampled_from(("Zp", "ZpInf"))),
)
group_makers = st.one_of(leaf_makers, st.lists(
    leaf_makers, min_size=1, max_size=3).map(
        lambda makers: lambda: DirectSum([m() for m in makers])))


class TestClasses:
    def test_different_classes_never_compare_equal(self):
        pairs = [(Q, Z), (Q, "Q"), (Zmod(2), ZpInf(2)),
                 (nat(1), nat(1).to_phi()), (Zloc(EMPTY), Q),
                 (Zloc([2]), SumOverPrimes([2])), (Basis.q(), Q),
                 (normalize(Z), sigma(Z)), (EMPTY, PrimeFn.constant(0)),
                 (nat(1), "nat(1)")]
        for a, b in pairs:
            assert a != b and b != a, (a, b)
            assert not a == b and not b == a, (a, b)
        # Q and Z hold no slot: only their classes tell them apart.
        assert len({Q, Z}) == 2


class TestEqualValuesHashEqual:
    @given(prime_sets)
    def test_prime_sets(self, s):
        _twins(s, _set_apart(s))

    @given(prime_fns)
    def test_prime_fns(self, f):
        _twins(f, _fn_apart(f))

    @given(st.sampled_from(POOL))
    def test_types_and_their_bockstein_functions(self, t):
        _twins(t, CdType(_set_apart(t.S), _set_apart(t.D), _fn_apart(t.d)))
        _twins(t.to_phi(), _phi_apart(t.to_phi()))

    @given(st.sampled_from(Basis.KINDS[1:]), prime)
    def test_bases(self, kind, p):
        _twins(Basis(kind, p), Basis(kind, p))
        _twins(Basis.q(), Basis("Q"))

    @given(group_makers)
    def test_groups_profiles_and_families(self, make):
        a, b = make(), make()
        _twins(a, b)
        _twins(normalize(a), normalize(b))
        _twins(sigma(a), sigma(b))
