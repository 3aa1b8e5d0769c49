import operator
import re

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp

from bockstein.oracle import _SMALL_PRIMES
from bockstein.primes import (
    ALL_PRIMES, EMPTY, INF, NEG_INF, PrimeFn, PrimeSet, UndefinedArithmetic,
    check_prime, indicator, is_finite, select, value_from_json, value_to_json,
)
from bockstein.primes import (
    _MR_BASES, _MR_BOUND, _MR_PSI, _isprime, _strong_lucas_prp, _strong_prp,
)


SMALL_PRIMES = [2, 3, 5, 7, 11, 13]

prime = st.sampled_from(SMALL_PRIMES)
prime_sets = st.builds(
    lambda ps, cof: PrimeSet(ps, cofinite=cof),
    st.frozensets(prime, max_size=4),
    st.booleans(),
)
values = st.integers(min_value=-6, max_value=6)
prime_fns = st.builds(
    lambda z, d, exc: PrimeFn(z, d, exc),
    values, values, st.dictionaries(prime, values, max_size=3),
)


class TestExtended:
    def test_ordering_against_ints(self):
        assert NEG_INF < -10 ** 9 < 10 ** 9 < INF
        assert INF > 0 and not INF < 0
        assert NEG_INF <= NEG_INF <= INF <= INF

    def test_comparisons_exhaustive(self):
        # All six operators, both operand orders, on the extended line
        # against its rank: INF and NEG_INF beyond every int.
        line = [NEG_INF, -2, -1, 0, 1, 2, INF]
        ops = [operator.lt, operator.le, operator.gt, operator.ge,
               operator.eq, operator.ne]
        for i, x in enumerate(line):
            for j, y in enumerate(line):
                for op in ops:
                    assert op(x, y) is op(i, j), (op.__name__, x, y)
                    assert op(y, x) is op(j, i), (op.__name__, y, x)

    def test_addition(self):
        assert INF + 5 == INF
        assert 5 + INF == INF
        assert NEG_INF + 5 == NEG_INF
        assert INF + INF is INF
        with pytest.raises(UndefinedArithmetic):
            INF + NEG_INF

    def test_subtraction(self):
        assert INF - 3 is INF
        assert 3 - INF is NEG_INF
        with pytest.raises(UndefinedArithmetic):
            INF - INF

    def test_multiplication(self):
        assert INF * 2 is INF
        assert 2 * INF is INF
        assert INF * 0 == 0
        assert INF * INF is INF
        assert INF * (-1) is NEG_INF
        assert NEG_INF * INF is NEG_INF
        assert NEG_INF * NEG_INF is INF

    def test_negation_and_identity(self):
        assert -INF is NEG_INF and -NEG_INF is INF
        assert is_finite(7) and not is_finite(INF)

    def test_json_values(self):
        for v in (0, -3, 12, INF, NEG_INF):
            assert value_from_json(value_to_json(v)) == v
        with pytest.raises(ValueError):
            value_from_json(True)
        with pytest.raises(ValueError):
            value_from_json("infty")


def test_check_prime():
    assert check_prime(2) == 2
    assert check_prime(97) == 97
    for bad in (1, 0, -3, 4, 6, True, 2.0, "2"):
        with pytest.raises(ValueError):
            check_prime(bad)


class TestPrimalityAgainstSympy:
    """check_prime's stdlib test against sympy.isprime.  Each drawn n
    is checked together with every integer up to the next prime, so
    every example reaches the Miller-Rabin or BPSW stage at least once."""

    # Strong pseudoprimes to base 2: the least ones to all prime bases
    # up to 2, 7, 23, 37 and 41 (the last is the BPSW bound itself), and
    # the squares of the Wieferich primes 1093 and 3511.
    STRONG_BASE2 = (2047, 3215031751, 3825123056546413051,
                    318665857834031151167461, 3317044064679887385961981,
                    1093 ** 2, 3511 ** 2)
    CARMICHAEL = (561, 41041, 825265)
    STRONG_LUCAS = (5459, 5777, 10877)

    def check_up_to_next_prime(self, n):
        for m in range(n, sympy.nextprime(n) + 1):
            assert _isprime(m) == sympy.isprime(m), m

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=-10, max_value=2 ** 64))
    def test_below_2_64(self, n):
        self.check_up_to_next_prime(n)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2 ** 64, max_value=_MR_BOUND))
    def test_up_to_the_miller_rabin_bound(self, n):
        self.check_up_to_next_prime(n)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=_MR_BOUND, max_value=2 ** 200))
    def test_bpsw_range(self, n):
        self.check_up_to_next_prime(n)

    def test_hard_composites(self):
        for n in self.STRONG_BASE2 + self.CARMICHAEL + self.STRONG_LUCAS:
            assert not sympy.isprime(n)
            assert not _isprime(n), n
            with pytest.raises(ValueError, match=f"not a prime: {n}"):
                check_prime(n)

    def test_squares_of_primes(self):
        for p in (2, 3, 41, 43, 47, 1093, 3511, 2 ** 61 - 1, 2 ** 89 - 1,
                  2 ** 127 - 1):
            assert sympy.isprime(p) and check_prime(p) == p
            assert not _isprime(p * p), p

    def test_strong_lucas_step(self):
        # The Lucas half of BPSW alone, against sympy's: it accepts the
        # strong Lucas pseudoprimes, which Miller-Rabin to base 2 rejects.
        for n in range(3, 20000, 2):
            assert _strong_lucas_prp(n) == is_strong_lucas_prp(n), n
        for n in self.STRONG_LUCAS:
            assert _strong_lucas_prp(n) and not _strong_prp(n, 2)

    def test_small_primes_literal(self):
        assert _SMALL_PRIMES == tuple(sympy.primerange(2, 101))


class TestMillerRabinRanges:
    """_isprime uses the first k bases below psi_k, the least strong
    pseudoprime to them."""

    def test_table(self):
        assert len(_MR_PSI) == len(_MR_BASES)
        assert list(_MR_PSI) == sorted(_MR_PSI)
        assert _MR_PSI[-1] == _MR_BOUND

    def test_each_psi_fools_its_bases_only(self):
        # psi_k passes its first k bases, so n = psi_k itself must be
        # tested with more of them (psi_k = psi_{k+1} for k = 7, 9, 10).
        for k, psi in enumerate(_MR_PSI, start=1):
            assert all(_strong_prp(psi, a) for a in _MR_BASES[:k]), k
            assert not sympy.isprime(psi)
            assert not _isprime(psi), k

    def test_around_each_bound(self):
        for psi in _MR_PSI:
            for m in range(psi - 300, psi + 300):
                assert _isprime(m) == sympy.isprime(m), m


class TestPrimeSet:
    def test_constructors(self):
        assert PrimeSet.of(3, 2, 3) == PrimeSet([2, 3])
        assert PrimeSet.all_except(5) == PrimeSet([5], cofinite=True)
        assert EMPTY.is_empty and not EMPTY.is_all
        assert ALL_PRIMES.is_all and not ALL_PRIMES.is_finite
        with pytest.raises(ValueError):
            PrimeSet.of(4)

    def test_membership(self):
        s = PrimeSet.all_except(2, 7)
        assert 3 in s and 2 not in s and 7 not in s
        assert 0 not in PrimeSet.of(2)

    @given(prime_sets, prime)
    def test_complement_membership(self, s, p):
        assert (p in ~s) == (p not in s)

    @given(prime_sets)
    def test_double_complement(self, s):
        assert ~~s == s

    @given(prime_sets, prime_sets, prime)
    def test_boolean_algebra_pointwise(self, s, t, p):
        assert (p in (s | t)) == (p in s or p in t)
        assert (p in (s & t)) == (p in s and p in t)
        assert (p in (s - t)) == (p in s and p not in t)

    @given(prime_sets, prime_sets)
    def test_de_morgan(self, s, t):
        assert ~(s | t) == (~s & ~t)
        assert ~(s & t) == (~s | ~t)

    @given(prime_sets)
    def test_json_round_trip(self, s):
        assert PrimeSet.from_json(s.to_json()) == s

    def test_malformed_json_is_refused(self):
        for obj, text in (("finite", "not a PrimeSet object: 'finite'"),
                          ({"primes": [2]}, "bad PrimeSet mode: None")):
            with pytest.raises(ValueError, match=re.escape(text)):
                PrimeSet.from_json(obj)

    def test_render(self):
        assert PrimeSet.of(3, 2).render() == "{2,3}"
        assert ALL_PRIMES.render() == "all"
        assert PrimeSet.all_except(2, 5).render() == "all-{2,5}"


class TestPrimeFn:
    def test_canonical_form(self):
        f = PrimeFn(1, 1, {3: 1, 5: 2})
        assert f.exceptions == ((5, 2),)
        assert PrimeFn(0, 2, [(3, 4)]) == PrimeFn(0, 2, {3: 4})
        with pytest.raises(ValueError):
            PrimeFn(0, 0, [(3, 1), (3, 2)])

    def test_call_rejects_nonprimes(self):
        f = PrimeFn.constant(1)
        with pytest.raises(ValueError):
            f(4)

    @given(prime_fns, prime_fns, st.sampled_from([0] + SMALL_PRIMES))
    def test_pointwise_ops(self, f, g, x):
        assert f.add(g)(x) == f(x) + g(x)
        assert f.sub(g)(x) == f(x) - g(x)
        assert f.mul(g)(x) == f(x) * g(x)
        assert f.max_with(g)(x) == max(f(x), g(x))
        assert f.min_with(g)(x) == min(f(x), g(x))

    @given(prime_fns, st.sampled_from([0] + SMALL_PRIMES))
    def test_map(self, f, x):
        assert f.map(lambda v: 2 * v + 1)(x) == 2 * f(x) + 1

    @given(prime_fns)
    def test_sup_inf_attained(self, f):
        probe = set(SMALL_PRIMES) | {0} | set(f.exception_primes) | {17}
        vals = [f(x) for x in probe]
        assert f.sup() == max(vals)
        assert f.inf() == min(vals)

    @given(prime_fns, prime_sets)
    def test_sup_over(self, f, s):
        if s.is_empty:
            assert f.sup_over(s) is None
            return
        probe = [p for p in SMALL_PRIMES + [17, 19] if p in s]
        got = f.sup_over(s)
        assert all(f(p) <= got for p in probe)
        if s.is_finite:
            assert got == max(f(p) for p in s.primes)
        else:
            # 19 is beyond every exception used by the strategies.
            assert got >= f(19)

    @given(prime_fns, prime_fns)
    def test_leq_vs_pointwise(self, f, g):
        probe = [0] + SMALL_PRIMES + [17]
        assert f.leq(g) == all(f(x) <= g(x) for x in probe)

    @given(prime_fns, values)
    def test_where_equal(self, f, v):
        s = f.where_equal(v)
        for p in SMALL_PRIMES + [17]:
            assert (p in s) == (f(p) == v)

    @given(prime_fns, prime_fns)
    def test_differ(self, f, g):
        s = f.differ(g)
        for p in SMALL_PRIMES + [17]:
            assert (p in s) == (f(p) != g(p))

    @given(prime_fns)
    def test_level_sets_partition(self, f):
        pieces = f.level_sets()
        for p in SMALL_PRIMES + [17]:
            hits = [v for v, s in pieces if p in s]
            assert hits == [f(p)]

    @given(prime_fns)
    def test_json_round_trip(self, f):
        assert PrimeFn.from_json(f.to_json()) == f

    def test_malformed_json_is_refused(self):
        for obj, text in (({"default": 1}, "PrimeFn object has no 'at_zero'"),
                          ({"at_zero": 1}, "PrimeFn object has no 'default'"),
                          ([1, 2], "not a PrimeFn object: [1, 2]")):
            with pytest.raises(ValueError, match=re.escape(text)):
                PrimeFn.from_json(obj)

    def test_infinite_values(self):
        f = PrimeFn(INF, 0, {2: INF})
        assert f.sup() is INF and f.inf() == 0
        g = f.add(PrimeFn.constant(5))
        assert g(2) is INF and g(3) == 5
        with pytest.raises(UndefinedArithmetic):
            f.sub(f)


class TestIndicatorSelect:
    @given(prime_sets, st.sampled_from(SMALL_PRIMES))
    def test_indicator(self, s, p):
        assert indicator(s)(p) == (1 if p in s else 0)
        assert indicator(s)(0) == 0

    @given(prime_sets, prime_fns, prime_fns, st.sampled_from(SMALL_PRIMES))
    def test_select(self, s, f, g, p):
        h = select(s, f, g)
        assert h(p) == (f(p) if p in s else g(p))
        assert h(0) == g(0)


def _fields(x):
    if isinstance(x, PrimeSet):
        return x.primes, x.cofinite
    return x.at_zero, x.default, x.exceptions


def _rebuilt(x):
    if isinstance(x, PrimeSet):
        return PrimeSet(x.primes, cofinite=x.cofinite)
    return PrimeFn(x.at_zero, x.default, x.exceptions)


class TestTrustedPath:
    """Operation results skip validation; they must come out canonical."""

    @given(prime_sets, prime_sets, prime_fns, prime_fns, values)
    def test_results_equal_their_public_rebuild(self, s, t, f, g, v):
        results = [
            s | t, s & t, s - t, ~s,
            f.add(g), f.sub(g), f.mul(g), f.max_with(g), f.min_with(g),
            f.map(lambda x: 2 * x - 1), PrimeFn.constant(v),
            f.where_equal(v), f.differ(g), indicator(s), select(s, f, g),
            *(piece for _, piece in f.level_sets()),
        ]
        for r in results:
            # Field for field, so a list where a tuple belongs also fails.
            assert _fields(r) == _fields(_rebuilt(r))
            if isinstance(r, PrimeSet):
                ps = r.primes
            else:
                assert all(value != r.default for _, value in r.exceptions)
                ps = r.exception_primes
            assert all(a < b for a, b in zip(ps, ps[1:]))
