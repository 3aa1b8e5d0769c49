import itertools
import re
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from bockstein.cdtype import (
    ZERO_TYPE, Basis, BocksteinFn, CdType, decompose, nat, phi_basis,
    validate, wedge_family, UniformFamily,
)
from bockstein.oracle import Universe, enumerate_types
from bockstein.primes import (
    ALL_PRIMES, EMPTY, INF, PrimeFn, PrimeSet, UndefinedArithmetic,
)

from oracles import bi_ok_brute, fig1_row, valid_quadruples

S = PrimeSet.of


def phi_at_prime(q, l, z, i, p=2):
    """Bockstein function with profile (l, z, i) at p, regular elsewhere."""
    return BocksteinFn(
        q,
        PrimeFn(q, q, [(p, z)]),
        PrimeFn(q, q, [(p, i)]),
        PrimeFn(q, q, [(p, l)]),
    )


def seven_values(f, p=2, q=3):
    """phi of f on the columns Zloc(p), Zp, Zpinf, Q, Zloc(q), Zq, Zqinf."""
    phi = f.to_phi()
    return (phi.zloc(p), phi.zp(p), phi.zpinf(p), phi.phi_q,
            phi.zloc(q), phi.zp(q), phi.zpinf(q))


PI = {p: CdType.triple(S(p), S(p), PrimeFn(1, 1, [(p, 2)])) for p in (2, 3)}
M = {p: CdType.triple(S(p), S(p), PrimeFn(3, 3, [(p, 4)])) for p in (2, 3)}


class TestValidate:
    def test_agrees_with_literal_inequalities(self):
        grid = range(1, 5)
        for q, l, z, i in itertools.product(grid, repeat=4):
            phi = phi_at_prime(q, l, z, i)
            ok = not validate(phi)
            # The default region is regular, so only the slot at 2 decides.
            assert ok == bi_ok_brute(q, l, z, i), (q, l, z, i)

    def test_violation_names_the_slot(self):
        bad = phi_at_prime(1, 3, 1, 1)     # BI5 fails at 2
        assert ("BI5", 2) in validate(bad)
        bad_default = BocksteinFn(2, PrimeFn.constant(2),
                                  PrimeFn.constant(2), PrimeFn.constant(1))
        assert ("BI3", "default") in validate(bad_default)


class TestBijection:
    def test_phi_to_type_to_phi(self):
        for q, l, z, i in valid_quadruples(4):
            phi = phi_at_prime(q, l, z, i)
            assert CdType.from_phi(phi).to_phi() == phi

    def test_type_to_phi_to_type(self):
        fns = [PrimeFn(1, 1, [(2, 2)]), PrimeFn(2, 2, [(2, 3), (3, 4)]),
               PrimeFn(3, 3)]
        sets = [EMPTY, S(2), S(2, 3), PrimeSet.all_except(3), ALL_PRIMES]
        for s, d_set, d in itertools.product(sets, sets, fns):
            if not (d_set - s).is_empty:
                continue
            try:
                f = CdType.triple(s, d_set, d)
            except ValueError:
                continue    # format constraint can fail; not under test
            assert CdType.from_phi(f.to_phi()) == f

    def test_from_phi_rejects_invalid(self):
        with pytest.raises(ValueError):
            CdType.from_phi(phi_at_prime(1, 3, 1, 1))


class TestTriple:
    def test_d_outside_s_check(self):
        with pytest.raises(ValueError):
            CdType.triple(S(2), EMPTY, PrimeFn(1, 1, [(3, 5)]))
        with pytest.raises(ValueError):
            CdType.triple(PrimeSet.all_except(3), EMPTY,
                          PrimeFn(1, 1, [(3, 5)]))
        with pytest.raises(ValueError):
            CdType.triple(EMPTY, EMPTY, PrimeFn(1, 2))

    def test_d_subset_check(self):
        with pytest.raises(ValueError):
            CdType.triple(S(2), S(3), PrimeFn(1, 1, [(2, 2), (3, 2)]))

    def test_zero_collapse(self):
        assert CdType.triple(EMPTY, EMPTY, PrimeFn.constant(0)) is ZERO_TYPE
        assert nat(0) is ZERO_TYPE

    def test_nat(self):
        assert nat(5).norm() == 5
        assert nat(5).inferior_norm() == 5
        assert nat(INF).norm() is INF
        for bad in (-1, 2.5, "3"):
            with pytest.raises(ValueError):
                nat(bad)

    def test_bool_is_not_a_level(self):
        # True == 1 and False == 0, but neither renders as a level the
        # expression parser accepts back.
        for bad in (True, False):
            with pytest.raises(ValueError):
                nat(bad)
            with pytest.raises(ValueError):
                phi_basis(Basis.zp(2), bad)
            with pytest.raises(ValueError):
                UniformFamily("Zp", bad, S(2, 3))
            with pytest.raises(ValueError):
                PI[2].scale(bad)

    def test_only_the_int_zero_is_the_zero_type(self):
        # 0.0 == 0 and Fraction(0) == 0, but like 1.0 they are not levels.
        for bad in (0.0, Fraction(0), -0.0, 1.0, Fraction(1)):
            with pytest.raises(ValueError):
                nat(bad)


class TestKuzminovBasis:
    def test_figure_one_rows(self):
        kinds = {"Q": Basis.q(), "Zloc": Basis.zloc(2),
                 "Zp": Basis.zp(2), "ZpInf": Basis.zpinf(2)}
        for kind, basis in kinds.items():
            for n in (2, 3, 4, 5):
                f = phi_basis(basis, n)
                assert seven_values(f, 2, 3) == fig1_row(kind, n), (kind, n)

    def test_norm_is_n(self):
        bases = [Basis.q(), Basis.zloc(2), Basis.zp(2), Basis.zpinf(2)]
        for b in bases:
            for n in (2, 3, 4, 5):
                assert phi_basis(b, n).norm() == n

    def test_level_one_collapses(self):
        assert phi_basis(Basis.zp(2), 1) == nat(1)
        assert phi_basis(Basis.q(), 1) == nat(1)

    def test_infinite_level(self):
        f = phi_basis(Basis.zp(2), INF)
        assert f.to_phi().zp(2) is INF
        assert f.to_phi().zp(3) == 1


class TestAlgebra:
    def test_sum_definition(self):
        f, g = PI[2], PI[3]
        h = f.sum(g)
        assert h.S == S(2, 3) and h.D == S(2, 3)
        assert h.d == PrimeFn(2, 2, [(2, 3), (3, 3)])

    def test_sum_zero_identity(self):
        assert PI[2].sum(ZERO_TYPE) == PI[2]
        assert ZERO_TYPE.sum(PI[2]) == PI[2]

    def test_named_norms(self):
        assert PI[2].norm() == 2 and M[2].norm() == 4
        assert PI[2].sum(PI[3]).norm() == 3
        assert M[2].sum(M[3]).norm() == 7
        same = PI[2].sum(PI[2])
        assert same.norm() == 4
        assert same.to_phi().zpinf(2) == 3

    def test_seven_values_of_pi(self):
        assert seven_values(PI[2], 2, 3) == (2, 2, 1, 1, 1, 1, 1)
        assert seven_values(M[2], 2, 3) == (4, 4, 3, 3, 3, 3, 3)

    def test_times(self):
        assert nat(2).times(nat(3)) == nat(6)
        assert PI[2].times(PI[2]) == PI[2]
        assert PI[2].times(ZERO_TYPE) is ZERO_TYPE
        # Cross-prime surface types lose all exceptional structure.
        assert PI[2].times(PI[3]) == nat(1)

    def test_wedge_is_pointwise_max(self):
        f, g = phi_basis(Basis.zp(2), 3), phi_basis(Basis.q(), 2)
        w = f.wedge(g)
        assert w.to_phi() == f.to_phi().max_with(g.to_phi())
        assert w.wedge(w) == w
        assert f.wedge(ZERO_TYPE) == f

    def test_scale_matches_repeated_sum(self):
        for f in (PI[2], phi_basis(Basis.zpinf(3), 4), nat(2)):
            assert f.scale(1) == f
            assert f.scale(3) == f.sum(f).sum(f)
        assert ZERO_TYPE.scale(4) is ZERO_TYPE
        with pytest.raises(ValueError):
            PI[2].scale(0)

    def test_norm_brute(self):
        probe = [0, 2, 3, 5, 7, 11]
        for f in (PI[2], M[3], PI[2].sum(PI[3]),
                  phi_basis(Basis.zpinf(2), 5)):
            chi = f.S - f.D
            want = max(f.d(x) + (1 if x in chi else 0) for x in probe)
            assert f.norm() == want

    def test_inferior_norm(self):
        assert PI[2].inferior_norm() == 1
        assert M[2].inferior_norm() == 3
        for f in (PI[2], M[3], PI[2].sum(PI[3])):
            assert f.inferior_norm() == f.to_phi().inf()

    def test_conjugate(self):
        f = PI[2]
        g = f.conjugate()
        assert g.S == S(2) and g.D == EMPTY
        assert g.d == PrimeFn(-1, -1, [(2, -2)])
        assert g.conjugate() == f
        h = f.sum(g)
        assert h.S == h.D == S(2) and h.d == PrimeFn.constant(0)
        assert ZERO_TYPE.conjugate() is ZERO_TYPE
        with pytest.raises(ValueError):
            nat(INF).conjugate()

    def test_leq(self):
        assert nat(2).leq(nat(3))
        assert not nat(3).leq(nat(2))
        assert phi_basis(Basis.zp(2), 2).leq(phi_basis(Basis.zp(2), 3))
        assert ZERO_TYPE.leq(nat(1))
        a, b = PI[2], PI[3]
        assert not a.leq(b) and not b.leq(a)


class TestSerialization:
    @given(st.sampled_from(valid_quadruples(4)))
    def test_json_round_trip(self, quad):
        f = CdType.from_phi(phi_at_prime(*quad))
        assert CdType.from_json(f.to_json()) == f

    def test_json_zero_and_inf(self):
        assert CdType.from_json(ZERO_TYPE.to_json()) is ZERO_TYPE
        f = nat(INF)
        assert CdType.from_json(f.to_json()) == f

    def test_render_forms(self):
        assert ZERO_TYPE.render() == "nat(0)"
        assert nat(3).render() == "nat(3)"
        assert PI[2].render() == "triple(S={2}, D={2}, d={zero: 1, default: 1, 2: 2})"
        assert nat(INF).render() == "triple(S={}, D={}, d={zero: inf, default: inf})"

    def test_malformed_json_is_refused(self):
        whole = PI[2].to_json()
        cases = [({"kind": "cdtype"}, "cd-type object has no 'S'"),
                 ({k: v for k, v in whole.items() if k != "D"},
                  "cd-type object has no 'D'"),
                 ([1], "not a cd-type object: [1]"),
                 ({"kind": "type"}, "not a cd-type object"),
                 ({**whole, "S": 5}, "not a PrimeSet object: 5"),
                 ({**whole, "d": {"default": 1}},
                  "PrimeFn object has no 'at_zero'")]
        for obj, text in cases:
            with pytest.raises(ValueError, match=re.escape(text)):
                CdType.from_json(obj)


class TestDecompose:
    def test_surface_entries(self):
        dec = decompose(PI[2])
        assert dec.entries() == [("Zp", S(2), 2)]
        assert dec.rewedge() == PI[2]

    def test_fundamental_rewedge(self):
        for b in (Basis.q(), Basis.zloc(2), Basis.zp(2), Basis.zpinf(2)):
            f = phi_basis(b, 4)
            assert decompose(f).rewedge() == f, b

    def test_norm_one(self):
        dec = decompose(nat(1))
        assert dec.entries() == []
        assert dec.rewedge() == nat(1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            decompose(ZERO_TYPE)
        with pytest.raises(ValueError):
            decompose(PI[2].conjugate())

    def test_exhaustive_rewedge_small(self):
        for q, l, z, i in valid_quadruples(3):
            f = CdType.from_phi(phi_at_prime(q, l, z, i))
            assert decompose(f).rewedge() == f, (q, l, z, i)


class TestWedgeFamily:
    def test_empty_is_zero(self):
        assert wedge_family() is ZERO_TYPE

    def test_family_over_all_primes(self):
        f = wedge_family(families=[UniformFamily("Zp", 3, ALL_PRIMES)])
        phi = f.to_phi()
        assert phi.zp(2) == phi.zp(97) == 3
        assert phi.phi_q == 1

    def test_singleton_family_is_member(self):
        f = wedge_family(families=[UniformFamily("ZpInf", 4, S(3))])
        assert f == phi_basis(Basis.zpinf(3), 4)

    def test_family_over_any_iterable_of_primes(self):
        fam = UniformFamily("Zp", 2, [3, 2])
        assert fam.over == S(2, 3)
        assert wedge_family(families=[fam]) == wedge_family(
            families=[UniformFamily("Zp", 2, S(2, 3))])
        with pytest.raises(ValueError, match="not a prime: 4"):
            UniformFamily("Zp", 2, [2, 4])


BASES = [Basis.q()] + [Basis(kind, p) for kind in ("Zp", "ZpInf", "Zloc")
                       for p in (2, 3)]

# Zero first, then standard, extended and infinite-level types.
POOL = [ZERO_TYPE, nat(INF)]
POOL += enumerate_types(Universe([2, 3], 2))
POOL += enumerate_types(Universe([2, 3], 1, True))
POOL += [phi_basis(b, INF) for b in BASES]
POOL += [f.conjugate() for f in enumerate_types(Universe([2], 2))]
FAMILIES = [UniformFamily(kind, n, over)
            for kind in ("Zp", "ZpInf", "Zloc") for n in (1, 2, INF)
            for over in (EMPTY, S(2), S(2, 3), PrimeSet.all_except(3))]


def _results(f, g, fam):
    out = [f.sum(g), f.wedge(g), f.scale(2), CdType.from_phi(f.to_phi()),
           wedge_family([f, g], [fam]), wedge_family(families=[fam])]
    try:
        out.append(f.times(g))
    except UndefinedArithmetic:
        pass        # inf - inf in the [x] formula
    if f.is_finite:
        out += [f.conjugate(), f.sum(f.conjugate())]
    return out + [CdType.from_phi(r.to_phi()) for r in out]


class TestCanonicalForm:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(POOL), st.sampled_from(POOL),
           st.sampled_from(FAMILIES))
    def test_results_are_canonical_triples(self, f, g, fam):
        for r in _results(f, g, fam):
            assert (r is ZERO_TYPE) == (r == ZERO_TYPE), repr(r)
            assert CdType.triple(r.S, r.D, r.d) == r, repr(r)

    def test_every_zero_result_is_the_zero_type(self):
        conj = nat(2).conjugate()
        for r in (ZERO_TYPE.sum(ZERO_TYPE), nat(2).sum(conj),
                  ZERO_TYPE.scale(3), ZERO_TYPE.conjugate(),
                  CdType.from_phi(ZERO_TYPE.to_phi()),
                  wedge_family([ZERO_TYPE]), ZERO_TYPE.times(nat(INF))):
            assert r is ZERO_TYPE
        assert CdType.__slots__ == ("S", "D", "d")


# What a repr may name: the constructors and the infinite level.
REPR_NAMES = {"CdType": CdType, "PrimeSet": PrimeSet, "PrimeFn": PrimeFn,
              "inf": INF}


class TestRepr:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(POOL), st.sampled_from(POOL),
           st.sampled_from(FAMILIES))
    def test_repr_evaluates_back(self, f, g, fam):
        for t in [f, g, nat(1), *_results(f, g, fam)]:
            back = eval(repr(t), REPR_NAMES)
            assert back == t, repr(t)
            assert (back is ZERO_TYPE) == (t is ZERO_TYPE), repr(t)

    def test_zero_type_repr_builds_the_zero_type(self):
        text = repr(ZERO_TYPE)
        assert text == ("CdType.triple(PrimeSet.of(), PrimeSet.of(), "
                        "PrimeFn(at_zero=0, default=0))")
        assert eval(text, REPR_NAMES) is ZERO_TYPE
        for t in (nat(INF), phi_basis(Basis.zp(2), INF), nat(2).conjugate()):
            assert eval(repr(t), REPR_NAMES) == t


def _members_max(kind, n, primes):
    return reduce(BocksteinFn.max_with,
                  [phi_basis(Basis(kind, p), n).to_phi() for p in primes])


class TestKuzminovFamilies:
    @pytest.mark.parametrize("kind", ["Zp", "ZpInf", "Zloc"])
    @pytest.mark.parametrize("n", [1, 2, 3, INF])
    def test_finite_family_is_the_max_of_its_members(self, kind, n):
        for size in (1, 2, 3):
            for primes in itertools.combinations((2, 3, 5, 7), size):
                fam = UniformFamily(kind, n, S(*primes))
                got = wedge_family(families=[fam]).to_phi()
                assert got == _members_max(kind, n, primes), primes

    @pytest.mark.parametrize("kind", ["Zp", "ZpInf", "Zloc"])
    @pytest.mark.parametrize("n", [1, 2, 3, INF])
    def test_cofinite_family_reads_off_two_members(self, kind, n):
        for over in (ALL_PRIMES, PrimeSet.all_except(2)):
            phi = wedge_family(families=[UniformFamily(kind, n, over)]).to_phi()
            # probe prime -> two members whose wedge it must match there
            probes = {3: (3, 5), 5: (5, 7), 97: (97, 3)}
            probes[2] = (2, 3) if 2 in over else (3, 5)
            for p, members in probes.items():
                two = _members_max(kind, n, members)
                assert phi.at(p) == two.at(p), (over, p)
                assert phi.phi_q == two.phi_q
            # the default region is the value at an unlisted prime
            assert (phi.zloc.default, phi.zp.default,
                    phi.zpinf.default) == phi.at(97)


class TestInfiniteValues:
    def test_valid_functions_with_inf_are_accepted(self):
        f = phi_basis(Basis.zp(2), INF)
        phi = f.to_phi()
        assert validate(phi) == []
        back = CdType.from_phi(phi)
        assert back.to_phi() == phi
        # the twin without 2 in D has the same Bockstein function
        assert back == CdType.triple(S(2), EMPTY, f.d)
        assert f.wedge(f).to_phi() == phi
        assert f.wedge(nat(1)).to_phi() == phi

    def test_wedge_of_an_infinite_triple_with_itself(self):
        f = CdType.triple(S(3), EMPTY, PrimeFn(2, 2, [(3, INF)]))
        assert f.wedge(f) == f

    def test_infinite_level_families(self):
        for kind in ("Zp", "ZpInf", "Zloc"):
            fam = UniformFamily(kind, INF, S(2, 3))
            f = wedge_family(families=[fam])
            assert f.to_phi() == _members_max(kind, INF, (2, 3))
