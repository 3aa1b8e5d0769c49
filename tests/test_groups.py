import pytest

from bockstein.groups import (
    TOR_DIV, TOR_NONDIV, TOR_ZERO, BocksteinFamily, DirectSum, Q,
    SumOverPrimes, Z, Zinv, Zloc, Zmod, ZpInf, normalize, sigma,
)
from bockstein.primes import ALL_PRIMES, EMPTY, PrimeSet


def fam(has_q, loc, zp, zpinf):
    return BocksteinFamily(has_q, loc, zp, zpinf)


S = PrimeSet.of
ALL_BUT = PrimeSet.all_except


class TestConstructors:
    def test_zmod_validation(self):
        assert Zmod(3).k == 1 and Zmod(3, 2).k == 2
        with pytest.raises(ValueError):
            Zmod(4)
        with pytest.raises(ValueError):
            Zmod(3, 0)
        with pytest.raises(ValueError,
                           match="exponent must be a positive integer: True"):
            Zmod(2, True)

    def test_zloc_accepts_iterables(self):
        assert Zloc([3, 2]) == Zloc(S(2, 3))
        assert Zinv(5) == Zloc(ALL_BUT(5))
        assert Zloc(EMPTY) == Zloc(EMPTY)

    def test_direct_sum_flattens(self):
        g = Z + Zmod(2) + ZpInf(3)
        assert isinstance(g, DirectSum)
        assert (Z + Zmod(2)) + ZpInf(3) == Z + (Zmod(2) + ZpInf(3))

    def test_renders(self):
        assert Q.render() == "Q"
        assert Z.render() == "Z"
        assert Zmod(2, 3).render() == "Z/2^3"
        assert Zmod(5).render() == "Z/5"
        assert ZpInf(2).render() == "Zpinf(2)"
        assert Zloc(S(2, 3)).render() == "Zloc{2,3}"
        assert SumOverPrimes(ALL_PRIMES, "Zp").render() == "SumAll(Zp)"
        assert SumOverPrimes(S(2, 3), "Zp").render() == "SumOver({2,3}, Zp)"
        assert (Z + Q).render() == "Z + Q"


class TestNormalize:
    def test_base_profiles(self):
        assert normalize(Q).tf_div == ALL_PRIMES
        assert normalize(Z).tf_div == EMPTY
        assert normalize(Zmod(7)).tf_div is None
        assert normalize(Zmod(7)).tor(7) == TOR_NONDIV
        assert normalize(Zmod(7, 3)).tor(7) == TOR_NONDIV
        assert normalize(ZpInf(7)).tor(7) == TOR_DIV
        assert normalize(Zmod(7)).tor(5) == TOR_ZERO

    def test_localization_divisibility(self):
        # Zloc(at) admits division exactly by the primes outside at.
        assert normalize(Zloc(S(2))).tf_div == ALL_BUT(2)
        assert normalize(Zinv(3)).tf_div == S(3)
        assert normalize(Zloc(EMPTY)).tf_div == ALL_PRIMES

    def test_sum_torsion_interaction(self):
        # A non-divisible p-part poisons divisibility of the whole p-part.
        g = normalize(ZpInf(2) + Zmod(2))
        assert g.tor(2) == TOR_NONDIV
        h = normalize(ZpInf(2) + ZpInf(2))
        assert h.tor(2) == TOR_DIV

    def test_sum_torsion_free_interaction(self):
        assert normalize(Z + Q).tf_div == EMPTY
        assert normalize(Q + Q).tf_div == ALL_PRIMES
        assert normalize(Zloc(S(2)) + Zloc(S(3))).tf_div == ALL_BUT(2, 3)

    def test_sum_over_primes(self):
        pr = normalize(SumOverPrimes(ALL_PRIMES, "Zp"))
        assert pr.tf_div is None and pr.tor(13) == TOR_NONDIV
        pr = normalize(SumOverPrimes(S(2, 5), "ZpInf"))
        assert pr.tor(2) == TOR_DIV and pr.tor(3) == TOR_ZERO


class TestSigma:
    def test_frozen_families(self):
        cases = [
            (Q, fam(True, EMPTY, EMPTY, EMPTY)),
            (Z, fam(False, ALL_PRIMES, EMPTY, EMPTY)),
            (Zmod(3), fam(False, EMPTY, S(3), EMPTY)),
            (Zmod(3, 4), fam(False, EMPTY, S(3), EMPTY)),
            (ZpInf(5), fam(False, EMPTY, EMPTY, S(5))),
            (Zloc(S(2)), fam(False, S(2), EMPTY, EMPTY)),
            (Zinv(3), fam(False, ALL_BUT(3), EMPTY, EMPTY)),
            (Z + Zmod(2), fam(False, ALL_PRIMES, S(2), EMPTY)),
            (Q + Zmod(2), fam(True, EMPTY, S(2), EMPTY)),
            (ZpInf(2) + Zmod(2), fam(False, EMPTY, S(2), EMPTY)),
            (Zmod(2) + Zmod(3), fam(False, EMPTY, S(2, 3), EMPTY)),
            (SumOverPrimes(ALL_PRIMES, "Zp"),
             fam(False, EMPTY, ALL_PRIMES, EMPTY)),
            (SumOverPrimes(ALL_BUT(2), "ZpInf"),
             fam(False, EMPTY, EMPTY, ALL_BUT(2))),
        ]
        for group, expected in cases:
            assert sigma(group) == expected, group.render()

    def test_q_only_when_fully_divisible(self):
        assert sigma(Q).has_q
        assert not sigma(Z).has_q
        assert not sigma(Q + Z).has_q
        assert sigma(Q + Zmod(2)).has_q

    def test_trivial_group_rejected(self):
        with pytest.raises(ValueError):
            sigma(SumOverPrimes(EMPTY, "Zp"))

    def test_rejects_non_groups(self):
        with pytest.raises(TypeError):
            sigma(7)

    def test_renders(self):
        assert sigma(Zinv(3)).render() == "Zloc(p) for all p != 3"
        assert sigma(Q).render() == "Q"
        assert sigma(Z + Zmod(2)).render() == "Zloc(p) for all p; Z/2"
        assert sigma(ZpInf(5)).render() == "Zpinf(5)"

    def test_zp_zpinf_exclusive(self):
        with pytest.raises(ValueError):
            BocksteinFamily(False, EMPTY, S(2), S(2))
