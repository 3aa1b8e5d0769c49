"""Tests for the finite-model law checker."""

import inspect
import random

import pytest

from bockstein.cdtype import CdType, validate
from bockstein.oracle import (
    LAW_NAMES,
    LAWS,
    LawReport,
    Universe,
    check_laws,
    enumerate_types,
    render_reports,
    select_laws,
)

from oracles import extended_count, standard_count, valid_quadruples


class TestUniverse:
    def test_validation(self):
        with pytest.raises(ValueError):
            Universe([], 2)
        with pytest.raises(ValueError):
            Universe([4], 2)
        with pytest.raises(ValueError):
            Universe([2], 0)
        with pytest.raises(ValueError):
            Universe([2], True)

    def test_primes_sorted_and_deduplicated(self):
        assert Universe([3, 2, 3], 2).primes == (2, 3)

    def test_render(self):
        assert Universe([2, 3], 3).render() == "{2,3} bound 3 (standard)"
        assert Universe([2], 2, True).render() == "{2} bound 2 (extended)"


class TestEnumeration:
    def test_bound_one_is_the_unit(self):
        types = enumerate_types(Universe([2, 3], 1))
        assert [f.render() for f in types] == ["nat(1)"]

    @pytest.mark.parametrize("primes, bound", [
        ([2], 2), ([2], 3), ([2, 3], 2), ([2, 3], 3), ([2, 3], 4),
        ([2, 3, 5], 2),
    ])
    def test_census_matches_profile_count(self, primes, bound):
        types = enumerate_types(Universe(primes, bound))
        assert len(types) == standard_count(primes, bound)
        assert len(set(types)) == len(types)

    def test_known_sizes(self):
        assert len(enumerate_types(Universe([2], 2))) == 6
        assert len(enumerate_types(Universe([2, 3], 3))) == 75
        assert len(enumerate_types(Universe([2, 3], 4))) == 196

    def test_every_type_is_valid_and_round_trips(self):
        for f in enumerate_types(Universe([2, 3], 3)):
            phi = f.to_phi()
            validate(phi)
            assert CdType.from_phi(phi) == f

    def test_values_confined_to_the_model(self):
        bound = 3
        for f in enumerate_types(Universe([2], bound)):
            phi = f.to_phi()
            for fn in (phi.zp, phi.zpinf, phi.zloc):
                assert 1 <= fn.inf() and fn.sup() <= bound
                # nothing exceptional outside the prime list
                assert set(fn.exception_primes) <= {2}

    def test_extended_census(self):
        assert len(enumerate_types(Universe([2], 1, True))) == 21
        assert extended_count([2], 1) == 21
        types = enumerate_types(Universe([2, 3], 3, True))
        assert len(types) == extended_count([2, 3], 3) == 1575
        assert len(set(types)) == len(types)

    @pytest.mark.parametrize("primes", [[2], [2, 3], [2, 3, 5]])
    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
    def test_closed_form_counts_match_census(self, primes, bound):
        assert (Universe(primes, bound).type_count()
                == standard_count(primes, bound))
        assert (Universe(primes, bound, True).type_count()
                == extended_count(primes, bound))

    @pytest.mark.parametrize("primes, bound", [([2, 3], 2), ([2, 5], 3)])
    def test_closed_form_counts_match_enumeration(self, primes, bound):
        for extended in (False, True):
            u = Universe(primes, bound, extended)
            assert u.type_count() == len(enumerate_types(u))

    def test_extended_triples_are_canonical(self):
        types = enumerate_types(Universe([2], 2, True))
        # the all-zero triple collapses to the distinguished zero type
        assert sum(1 for f in types if f.zero) == 1
        for f in types:
            if f.zero:
                continue
            assert (f.D & f.S) == f.D
            assert CdType.triple(f.S, f.D, f.d) == f


class TestSelectLaws:
    def test_all_forms(self):
        assert [l.name for l in select_laws("all")] == list(LAW_NAMES)
        assert [l.name for l in select_laws(None)] == list(LAW_NAMES)
        picked = select_laws("norm-sandwich, round-trip")
        assert [l.name for l in picked] == ["norm-sandwich", "round-trip"]
        assert select_laws(["field-bound"])[0] is LAWS["field-bound"]

    def test_unknown_law(self):
        with pytest.raises(ValueError, match="unknown law"):
            select_laws("no-such-law")

    @pytest.mark.parametrize("laws", [",,", "", " , ", []])
    def test_empty_selection_is_refused(self, laws):
        with pytest.raises(ValueError, match="no laws selected"):
            select_laws(laws)
        with pytest.raises(ValueError, match="no laws selected"):
            check_laws(Universe([2], 1), laws=laws)

    def test_registry_shape(self):
        assert len(LAW_NAMES) == 25
        assert len(set(LAW_NAMES)) == 25
        assert set(LAWS) == set(LAW_NAMES)
        # Reports come in suite order, and the laws benchmark pins it.
        assert LAW_NAMES == (
            "round-trip", "closure-sum", "closure-times", "closure-wedge",
            "distributivity-times-sum", "distributivity-sum-wedge",
            "norm-sandwich", "conjugation-zero", "conjugate-maximal",
            "bockstein-alternative", "field-bound", "field-additivity",
            "deficiency-product", "singular-zpinf-sum", "power-dichotomy",
            "norm-basis-formula", "decompose-rewedge", "regular-factor",
            "full-valued-factor", "torsion-free-subadd", "same-type-product",
            "testing-identity", "scaling-identities", "sigma-consistency",
            "anr-basic")
        assert [law.name for law in LAWS.values()] == list(LAW_NAMES)


class TestRegistry:
    """Each law is declared once, by the decorator on its function."""

    def test_arity_is_the_function_arity(self):
        for law in LAWS.values():
            ctx, *rest = inspect.signature(law.fn).parameters.values()
            assert ctx.name == "ctx"
            assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in rest)
            assert law.arity == len(rest), law.name
        assert {law.arity for law in LAWS.values()} == {0, 1, 2, 3}
        assert [name for name, law in LAWS.items()
                if law.domain == "extended"] == ["conjugation-zero",
                                                 "conjugate-maximal"]

    def test_check_laws_calls_the_bound_function(self, monkeypatch):
        law = LAWS["field-bound"]

        def stub(ctx, f):
            if f.render() == "nat(2)":
                yield {"inputs": f.render(), "expected": "e", "got": "g"}

        monkeypatch.setattr(law, "fn", stub)
        [report] = check_laws(Universe([2], 2), laws="field-bound")
        assert (report.checked, report.failures) == (
            6, [{"inputs": "nat(2)", "expected": "e", "got": "g"}])
        monkeypatch.undo()
        [report] = check_laws(Universe([2], 2), laws="field-bound")
        assert (report.checked, report.ok) == (6, True)


class TestCheckLaws:
    def test_exhaustive_counts(self):
        u = Universe([2], 2)
        reports = check_laws(u, laws="round-trip,norm-sandwich")
        by = {r.law: r for r in reports}
        assert by["round-trip"].checked == 6
        assert by["norm-sandwich"].checked == 36
        assert all(r.ok for r in reports)

    def test_extended_domain_laws(self):
        # conjugation runs over the extended model even when the
        # universe itself is standard
        reports = check_laws(Universe([2], 1), laws="conjugation-zero")
        assert reports[0].checked == extended_count([2], 1)
        assert reports[0].ok

    def test_all_laws_pass_on_a_small_universe(self):
        reports = check_laws(Universe([2], 2), laws="all")
        assert len(reports) == 25
        assert all(r.ok for r in reports), render_reports(reports)

    def test_samples_validation(self):
        with pytest.raises(ValueError):
            check_laws(Universe([2], 2), samples=0)
        with pytest.raises(ValueError):
            check_laws(Universe([2], 2), samples="many")
        with pytest.raises(ValueError):
            check_laws(Universe([2, 3], 4), laws="distributivity-times-sum",
                       samples=True)

    def test_sampling_is_deterministic(self):
        # 196^3 tuples exceed the exhaustive limit, so ternary laws
        # sample; the fixed seed must shield them from global state
        u = Universe([2, 3], 4)
        random.seed(1)
        first = check_laws(u, laws="distributivity-times-sum", samples=60)
        random.seed(2)
        second = check_laws(u, laws="distributivity-times-sum", samples=60)
        assert first[0].checked == second[0].checked == 60
        assert first[0].to_json() == second[0].to_json()


class TestReports:
    def test_render_pass_lines(self):
        reports = check_laws(Universe([2], 2), laws="norm-sandwich")
        text = render_reports(reports)
        assert text == "norm-sandwich              checked       36  pass\n"

    def test_render_failure_detail(self):
        bad = LawReport("demo", 4, [
            {"inputs": "nat(1)", "expected": "1", "got": "2"},
        ])
        text = render_reports([bad])
        lines = text.splitlines()
        assert lines[0].endswith("FAIL")
        assert lines[1] == "    inputs:   nat(1)"
        assert lines[2] == "    expected: 1"
        assert lines[3] == "    got:      2"

    def test_report_json(self):
        r = check_laws(Universe([2], 2), laws="field-bound")[0]
        assert r.to_json() == {"law": "field-bound", "checked": 6,
                               "failures": []}

    def test_quadruple_oracle_agrees_with_enumeration(self):
        # one-prime universes are in bijection with valid quadruples
        for bound in (2, 3, 4):
            assert standard_count([2], bound) == len(valid_quadruples(bound))
