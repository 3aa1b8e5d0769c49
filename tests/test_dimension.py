import itertools

import pytest

from bockstein.cdtype import Basis, CdType, nat, phi_basis, ZERO_TYPE
from bockstein.dimension import (
    anr_admissible, deficiency, dim, fibration_bounds,
    fundamental_product_dim, is_full_valued, p_regular, p_singular,
    power_report,
)
from bockstein.dimension import test_space as space_for
from bockstein.dimension import testing_dim as dim_by_testing
from bockstein.groups import Q, SumOverPrimes, Z, Zinv, Zloc, Zmod, ZpInf
from bockstein.primes import ALL_PRIMES, INF, PrimeFn, PrimeSet

from oracles import (
    ROW_KINDS, fig1_row, fig2_row, pi_type_values, pinned_product_cells,
    valid_quadruples,
)

S = PrimeSet.of

PI = {p: CdType.triple(S(p), S(p), PrimeFn(1, 1, [(p, 2)])) for p in (2, 3)}
M = {p: CdType.triple(S(p), S(p), PrimeFn(3, 3, [(p, 4)])) for p in (2, 3)}


def type_at(q, l, z, i, p=2):
    from bockstein.cdtype import BocksteinFn
    return CdType.from_phi(BocksteinFn(
        q,
        PrimeFn(q, q, [(p, z)]),
        PrimeFn(q, q, [(p, i)]),
        PrimeFn(q, q, [(p, l)]),
    ))


def basis_for(kind, p):
    return {"Q": Basis.q(), "Zloc": Basis.zloc(p),
            "Zp": Basis.zp(p), "ZpInf": Basis.zpinf(p)}[kind]


def group_for(kind, p):
    return {"Q": Q, "Zloc": Zloc([p]), "Zp": Zmod(p),
            "ZpInf": ZpInf(p)}[kind]


# Column layout used by the frozen tables: own prime p, then q.
def column_groups(p, q):
    return [Zloc([p]), Zmod(p), ZpInf(p), Q, Zloc([q]), Zmod(q), ZpInf(q)]


class TestDim:
    def test_figure_one_via_groups(self):
        for kind in ROW_KINDS:
            for n in (2, 3, 4, 5):
                f = phi_basis(basis_for(kind, 2), n)
                got = tuple(dim(f, g) for g in column_groups(2, 3))
                assert got == fig1_row(kind, n), (kind, n)

    def test_pontryagin_seven_values(self):
        for p, q in ((2, 3), (3, 2), (2, 5)):
            f = CdType.triple(S(p), S(p), PrimeFn(1, 1, [(p, 2)]))
            got = tuple(dim(f, g) for g in column_groups(p, q))
            assert got == pi_type_values(2)

    def test_integral_dim_is_norm(self):
        for quad in valid_quadruples(3):
            f = type_at(*quad)
            assert dim(f, Z) == f.norm()

    def test_composite_groups(self):
        f = PI[2]
        assert dim(f, Zmod(2) + Zmod(3)) == 2
        assert dim(f, Q + ZpInf(2)) == 1
        assert dim(f, Zmod(7)) == 1
        assert dim(f, SumOverPrimes(ALL_PRIMES, "Zp")) == 2
        assert dim(f, Zinv(2)) == 1
        assert dim(f, Zloc([2])) == 2

    def test_group_with_k(self):
        assert dim(nat(3), Zmod(2, 2)) == 3
        assert dim(PI[2], Zmod(2, 5)) == 2

    def test_infinite(self):
        f = phi_basis(Basis.zp(2), INF)
        assert dim(f, Zmod(2)) is INF
        assert dim(f, Zmod(3)) == 1


class TestRegularity:
    def test_deficiency(self):
        assert deficiency(PI[2], 2) == 1
        assert deficiency(PI[2], 3) == 0
        assert deficiency(phi_basis(Basis.zpinf(2), 4), 2) == 0
        assert deficiency(ZERO_TYPE, 2) == 0

    def test_deficiency_matches_phi_gap(self):
        for quad in valid_quadruples(3):
            f = type_at(*quad)
            phi = f.to_phi()
            assert deficiency(f, 2) == phi.zp(2) - phi.zpinf(2)

    def test_regular_iff_flat_at_p(self):
        assert p_regular(PI[2], 3) and p_singular(PI[2], 2)
        assert p_regular(nat(7), 2)
        assert p_regular(ZERO_TYPE, 5)
        # Zloc(2) keeps the four 2-local values at n, so 2 is its one
        # regular prime; every other prime splits off the rational value.
        f = phi_basis(Basis.zloc(2), 3)
        assert p_singular(f, 3) and p_regular(f, 2)

    def test_nonprimes_are_refused(self):
        f = phi_basis(Basis.q(), 2)
        for query in (deficiency, p_regular, p_singular):
            for bad in (4, 1, 0, True):
                for g in (f, ZERO_TYPE):
                    with pytest.raises(ValueError):
                        query(g, bad)


class TestPowers:
    def test_full_valued_is_basic(self):
        rep = power_report(nat(3), 4)
        assert rep.kind == "Basic"
        assert rep.power_norms == {1: 3, 2: 6, 3: 9, 4: 12}

    def test_surface_is_basic(self):
        # Z/p attains the norm of Pi_p, so its powers add up fully.
        rep = power_report(PI[2], 4)
        assert rep.kind == "Basic"
        assert rep.power_norms == {1: 2, 2: 4, 3: 6, 4: 8}

    def test_divisible_surface_is_exceptional(self):
        rep = power_report(phi_basis(Basis.zpinf(2), 3), 3)
        assert rep.kind == "Exceptional"
        assert rep.power_norms == {1: 3, 2: 5, 3: 7}

    def test_fundamental_kinds(self):
        assert power_report(phi_basis(Basis.zp(2), 3), 3).kind == "Basic"
        assert power_report(phi_basis(Basis.q(), 3), 3).kind == "Basic"
        assert power_report(
            phi_basis(Basis.zpinf(2), 3), 3).kind == "Exceptional"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            power_report(PI[2], 0)
        with pytest.raises(ValueError):
            power_report(ZERO_TYPE, 2)
        with pytest.raises(ValueError):
            power_report(nat(INF), 2)
        with pytest.raises(ValueError,
                           match="k_max must be an integer >= 1: True"):
            power_report(nat(2), True)


class TestProducts:
    def test_figure_two_rows(self):
        pairs = [(3, 2), (4, 2), (4, 3), (5, 3)]
        for n, m in pairs:
            for row_kind in ROW_KINDS:
                g2 = basis_for(row_kind, 2)
                row = fig2_row(row_kind, n, m)
                cols = [("Zloc", 2), ("Zp", 2), ("ZpInf", 2), ("Q", 2),
                        ("Zloc", 3), ("Zp", 3), ("ZpInf", 3)]
                for (col_kind, p), want in zip(cols, row):
                    g = basis_for(col_kind, p)
                    got = fundamental_product_dim(g, n, g2, m)
                    assert got == want, (row_kind, col_kind, p, n, m)

    def test_pinned_cells(self):
        for n, m in ((3, 2), (5, 3)):
            cells = pinned_product_cells(n, m)
            assert fundamental_product_dim(
                Basis.zp(2), n, Basis.q(), m) == cells[("Q", "Zp")]
            assert fundamental_product_dim(
                Basis.zp(2), n, Basis.zpinf(2), m) == cells[("ZpInf", "Zp")]
            assert fundamental_product_dim(
                Basis.zloc(2), n, Basis.zp(2), m) == cells[("Zp", "Zloc")]

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            fundamental_product_dim(Basis.q(), 2, Basis.q(), 3)
        with pytest.raises(ValueError):
            fundamental_product_dim(Basis.q(), 3, Basis.q(), 1)


class TestTesting:
    def test_test_space_shape(self):
        t = space_for(Zmod(2), 3)
        assert t == phi_basis(Basis.zp(2), 3)
        t = space_for(Z, 2)
        phi = t.to_phi()
        assert phi.zloc(2) == phi.zloc(5) == 2 and phi.phi_q == 2

    def test_testing_recovers_dim(self):
        for group in (Zmod(2), ZpInf(2), Q, Z, Zloc([3]), Zmod(2) + Q):
            for f in (PI[2], PI[3], M[2], nat(2), nat(5)):
                n = f.norm() + 1     # safely above norm - dim
                assert dim_by_testing(f, group, n) == dim(f, group), group

    def test_precondition_enforced(self):
        # norm 4 against rational dim 1: the gap 3 is not below 2.
        with pytest.raises(ValueError):
            dim_by_testing(phi_basis(Basis.zpinf(2), 4), Q, 2)


class TestShapeFilters:
    def test_full_valued(self):
        assert is_full_valued(nat(4))
        assert not is_full_valued(PI[2])
        assert is_full_valued(ZERO_TYPE)

    def test_anr_clauses(self):
        ok, bad = anr_admissible(nat(3))
        assert ok and bad == []
        ok, bad = anr_admissible(PI[2])
        assert not ok and bad == ["c"]
        # Zpinf basis type has phi(Zpinf) = n-1 > phi(Zp)? No: clause a
        # compares Zloc against Zp; the Q-basis type breaks b instead.
        ok, bad = anr_admissible(phi_basis(Basis.zpinf(2), 3))
        assert "a" in bad
        ok, bad = anr_admissible(phi_basis(Basis.q(), 3))
        assert "b" in bad
        assert anr_admissible(ZERO_TYPE) == (True, [])

    def test_fibration_bounds(self):
        assert fibration_bounds(2, 3, 4, 5) == (6, 8, 7, 8)
        b = fibration_bounds(INF, 3, 4, 5)
        assert b[0] is INF and b[2] is INF
