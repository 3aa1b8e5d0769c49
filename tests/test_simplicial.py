import random
from hashlib import sha256
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from bockstein.chains import GroupReport
from bockstein.chains import ChainComplex, ChainMap, quotient_complex
from bockstein.groups import Q, Z, Zmod, ZpInf
from bockstein.simplicial import (
    SimplicialComplex, SimplicialMap, _one_triangle, boundary_simplex, circle,
    cohomology_of, complex_from_text, complex_to_text, degree_map_circle,
    ew_skeleton, full_simplex, homology_of, induced, map_from_text,
    map_to_text, mapping_cylinder, pontryagin_stage,
)
from bockstein.chains import induced_map as chain_induced

from oracles import (
    ew_skeleton_by_labels, mp_pair_integral, one_triangle_by_labels,
    pontryagin_integral, replace_triangles_by_labels,
)


def pairs(report, degrees):
    return {k: (report[k].free_rank, report[k].orders) for k in degrees}


def complex_hash(x):
    c = x.chain_complex()
    data = (c.ranks, sorted(c._cols.items()))
    return sha256(repr(data).encode()).hexdigest()


class TestBuilders:
    def test_face_closure(self):
        s = SimplicialComplex([(2, 0, 1)])
        assert s.f_vector() == (3, 3, 1)
        assert s.has((0, 2)) and s.has((1,))
        with pytest.raises(ValueError):
            SimplicialComplex([(0, 0, 1)])

    def test_standard_complexes(self):
        assert full_simplex(3).f_vector() == (4, 6, 4, 1)
        assert boundary_simplex(3).f_vector() == (4, 6, 4)
        assert boundary_simplex(3).euler() == 2
        assert circle(5).f_vector() == (5, 5)

    def test_sphere_homology(self):
        rep = homology_of(boundary_simplex(4))
        assert pairs(rep, range(4)) == {
            0: (1, ()), 1: (0, ()), 2: (0, ()), 3: (1, ())}

    def test_skeleton(self):
        k4 = full_simplex(3).skeleton(1)
        assert k4.f_vector() == (4, 6)
        assert homology_of(k4)[1] == GroupReport(3, (), Z)

    def test_full_subcomplex(self):
        s = full_simplex(2)
        sub = s.full_subcomplex(lambda v: v != 2)
        assert sub.f_vector() == (2, 1)

    def test_relative_pair(self):
        disk, sphere = full_simplex(2), boundary_simplex(2)
        rep = homology_of(disk, relative_to=sphere)
        assert pairs(rep, range(3)) == {0: (0, ()), 1: (0, ()), 2: (1, ())}
        co = cohomology_of(disk, Z, relative_to=sphere)
        assert co[2] == GroupReport(1, (), Z)
        with pytest.raises(ValueError, match="not a simplex of this complex"):
            sphere.indices_of(disk)

    @pytest.mark.parametrize("build, text", [
        (full_simplex, "need n >= 0: True"),
        (boundary_simplex, "need n >= 1: True")])
    def test_a_bool_size_is_refused(self, build, text):
        with pytest.raises(ValueError) as err:
            build(True)
        assert str(err.value) == text

    def test_a_missing_simplex_is_named_by_its_label(self):
        x = SimplicialComplex([("a", "b"), ("b", "c")])
        for sub, missing in ((SimplicialComplex([("a", "c")]), "('a', 'c')"),
                             (SimplicialComplex([("a", "z")]), "('z',)")):
            with pytest.raises(ValueError) as err:
                x.indices_of(sub)
            assert str(err.value) == ("not a simplex of this complex: "
                                      + missing)


class TestMaps:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimplicialMap(circle(4), circle(3), {i: i for i in range(4)})
        with pytest.raises(ValueError):
            SimplicialMap(circle(3), circle(3), {0: 0})

    def test_names_the_first_simplex_whose_image_is_missing(self):
        # The identity onto the hollow triangle misses only the top face.
        with pytest.raises(ValueError) as err:
            SimplicialMap(full_simplex(2), boundary_simplex(2),
                          {v: v for v in range(3)})
        assert str(err.value) == (
            "image of (0, 1, 2) is not a simplex of the target")
        # ('a', 'b') collapses; ('a', 'b', 'c') collapses onto the missing
        # edge ('u', 'w'), which its face ('a', 'c') reaches first.
        image = {"a": "u", "b": "u", "c": "w", "d": "w"}
        for top in ("abc", "abcd"):
            with pytest.raises(ValueError) as err:
                SimplicialMap(SimplicialComplex([tuple(top)]),
                              SimplicialComplex([("u", "v"), ("w",)]),
                              {v: image[v] for v in top})
            assert str(err.value) == (
                "image of ('a', 'c') is not a simplex of the target")

    def test_covering_chain_map(self):
        f = degree_map_circle(3)
        rep = induced(f, 1)
        assert rep.matrix in (((3,),), ((-3,),))
        assert induced(f, 1, Zmod(3)).matrix == ((0,),)
        assert induced(f, 1, Zmod(2)).injective
        assert induced(f, 1, Q).surjective

    def test_collapsing_map_kills_chains(self):
        f = SimplicialMap(circle(3), full_simplex(0),
                          {i: 0 for i in range(3)})
        rep = induced(f, 1, Q)
        assert rep.matrix == ()          # the point has no 1-classes
        assert rep.surjective and not rep.injective

    def test_text_round_trip(self):
        x = boundary_simplex(2)
        assert complex_from_text(complex_to_text(x)) == x
        f = degree_map_circle(2)
        text = map_to_text(f)
        g = map_from_text(text, f.source, f.target)
        assert g.vertex_map == f.vertex_map
        # A line repeated with the same image is no conflict.
        g = map_from_text(text + "0 -> 0\n", f.source, f.target)
        assert g.vertex_map == f.vertex_map

    def test_text_rejects_a_negative_index(self):
        f = degree_map_circle(2)
        with pytest.raises(ValueError, match="'-1 -> 2'"):
            map_from_text(map_to_text(f) + "-1 -> 2\n", f.source, f.target)

    def test_text_rejects_an_index_out_of_range(self):
        f = degree_map_circle(2)        # 6 source and 3 target vertices
        for line in ("6 -> 0", "0 -> 3"):
            with pytest.raises(ValueError, match=f"range: '{line}'"):
                map_from_text(map_to_text(f) + line, f.source, f.target)

    def test_text_rejects_a_side_that_is_not_an_index(self):
        # A letter, a float and an empty side.
        f = degree_map_circle(2)
        for line in ("a -> 1", "0 -> 1.5", "-> 1", "0 ->"):
            with pytest.raises(ValueError, match=f"'i -> j': '{line}'"):
                map_from_text(map_to_text(f) + line, f.source, f.target)

    def test_text_rejects_a_second_image(self):
        f = degree_map_circle(2)
        with pytest.raises(ValueError, match="vertex 0 has two images"):
            map_from_text(map_to_text(f) + "0 -> 1\n", f.source, f.target)

    def test_rejects_a_key_outside_the_source(self):
        c = circle(3)
        with pytest.raises(ValueError, match="vertex 9 is not in the source"):
            SimplicialMap(c, c, {0: 0, 1: 1, 2: 2, 9: 0})


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in zip(*b)) for row in a)


class TestMappingCylinder:
    def test_shape_and_homotopy_type(self):
        for p in (2, 3):
            cyl = mapping_cylinder(degree_map_circle(p))
            assert cyl.complex.euler() == 0
            rep = homology_of(cyl.complex)
            assert pairs(rep, (0, 1)) == {0: (1, ()), 1: (1, ())}
            # Both ends are embedded circles.
            assert pairs(homology_of(cyl.domain), (0, 1)) == {
                0: (1, ()), 1: (1, ())}
            assert pairs(homology_of(cyl.target), (0, 1)) == {
                0: (1, ()), 1: (1, ())}

    def test_pair_integral(self):
        for p in (2, 3):
            cyl = mapping_cylinder(degree_map_circle(p))
            rep = homology_of(cyl.complex, relative_to=cyl.domain)
            assert pairs(rep, range(3)) == mp_pair_integral(p)

    def test_pair_h2_by_coefficients(self):
        # H^2 of the pair is Ext(Z/p, G): Z/p for Z and Z/p itself,
        # nothing over the rationals, a coprime field, or a divisible
        # group.
        for p in (2, 3):
            cyl = mapping_cylinder(degree_map_circle(p))
            h2 = {}
            for coeff in (Z, Q, Zmod(5), Zmod(p), ZpInf(p)):
                rep = cohomology_of(cyl.complex, coeff,
                                    relative_to=cyl.domain)
                h2[coeff.render()] = (rep[2].free_rank, rep[2].orders)
            assert h2["Z"] == (0, (p,))
            assert h2["Q"] == (0, ())
            assert h2["Z/5"] == (0, ())
            assert h2[Zmod(p).render()] == (0, (p,))
            assert h2[ZpInf(p).render()] == (0, ())

    @staticmethod
    def order_complex_by_pairs(f):
        """The cylinder complex built by testing every pair of face-poset
        elements: the reference for Cylinder's face enumeration."""
        elements = ([("K", s) for s in f.source.all_simplices()]
                    + [("L", s) for s in f.target.all_simplices()])
        as_set = {x: frozenset(x[1]) for x in elements}

        def below(x, y):
            if x[0] == y[0]:
                return x != y and as_set[x] < as_set[y]
            return (x[0] == "K" and y[0] == "L"
                    and frozenset(f.image(x[1])) <= as_set[y])

        succ = {x: [y for y in elements if below(x, y)] for x in elements}
        found = []

        def grow(chain, x):
            chain = chain + (x,)
            found.append(chain)
            for y in succ[x]:
                grow(chain, y)

        for x in elements:
            grow((), x)
        return SimplicialComplex(found)

    def test_matches_pairwise_construction(self):
        maps = [degree_map_circle(p) for p in range(2, 14)]
        rng = random.Random(20261018)
        while len(maps) < 120:
            target = SimplicialComplex(
                rng.sample(range(5), rng.randint(1, 3))
                for _ in range(rng.randint(1, 4)))
            vmap = {v: rng.choice(target.vertices()) for v in range(6)}
            simplices = [s for k in (1, 2, 3)
                         for s in combinations(range(6), k)
                         if target.has({vmap[v] for v in s})]
            source = SimplicialComplex(
                rng.sample(simplices, rng.randint(1, 6)))
            maps.append(SimplicialMap(
                source, target, {v: vmap[v] for v in source.vertices()}))
        for f in maps:
            assert (complex_to_text(mapping_cylinder(f).complex)
                    == complex_to_text(self.order_complex_by_pairs(f)))

    def test_matches_pairwise_construction_on_wide_labels(self):
        # Labels drawn from a wide range, on both sides, and targets of up
        # to 14 vertices: positions must follow label order, and a set of
        # positions below 8 iterates in sorted order, so it cannot show a
        # missing sort.
        rng = random.Random(20261020)
        for _ in range(60):
            names = rng.sample(range(-10 ** 6, 10 ** 6), 20)
            target = SimplicialComplex(
                rng.sample(names[6:], rng.randint(1, 3))
                for _ in range(rng.randint(3, 8)))
            vmap = {v: rng.choice(target.vertices()) for v in names[:6]}
            simplices = [s for k in (1, 2, 3)
                         for s in combinations(names[:6], k)
                         if target.has({vmap[v] for v in s})]
            source = SimplicialComplex(
                rng.sample(simplices, rng.randint(1, 6)))
            f = SimplicialMap(source, target,
                              {v: vmap[v] for v in source.vertices()})
            cyl = mapping_cylinder(f)
            want = self.order_complex_by_pairs(f)
            assert complex_to_text(cyl.complex) == complex_to_text(want)
            assert cyl.complex == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_relative_route_makes_no_labels(self, p):
        # The relative (co)homology of (M_p, dM_p) and the collapse map on
        # the pair, as `verify mp-pair` reads them, come from positions
        # and chain data alone: no label tuple is made.
        cyl = mapping_cylinder(degree_map_circle(p))
        rep = homology_of(cyl.complex, relative_to=cyl.domain)
        assert pairs(rep, range(3)) == mp_pair_integral(p)
        assert cohomology_of(cyl.complex, Zmod(p),
                             relative_to=cyl.domain)[2].orders == (p,)
        cone, xi, base = cyl.collapse()
        assert induced(xi, 2, Zmod(p), relative=(cyl.domain, base),
                       cohomology=True).iso
        assert base is cyl.domain
        for x in (cyl.complex, cyl.domain, cone, base):
            assert x._degrees is None
        assert xi._vertex_map is None

    def test_retraction_section(self):
        cyl = mapping_cylinder(degree_map_circle(2))
        r, i = cyl.retraction, cyl.target_inclusion
        comp = {v: r.vertex_map[i.vertex_map[v]]
                for v in cyl.target.vertices()}
        assert comp == {v: v for v in cyl.target.vertices()}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_integral_maps_on_bases_with_zero_entries(self, p):
        # The homology bases here have zero coordinates, which the
        # sparse image of a basis chain must skip.
        cyl = mapping_cylinder(degree_map_circle(p))
        r, j, i = (induced(f, 1).matrix for f in (
            cyl.retraction, cyl.target_inclusion, cyl.domain_inclusion))
        assert mat_mul(r, j) == ((1,),)
        assert mat_mul(r, i) in (((p,),), ((-p,),))

    def test_collapse_is_mod_p_iso_on_pairs(self):
        for p in (2, 3):
            cyl = mapping_cylinder(degree_map_circle(p))
            cone, xi, base = cyl.collapse()
            assert homology_of(cone)[1].is_zero     # a cone is acyclic
            rep = induced(xi, 2, Zmod(p), relative=(cyl.domain, base),
                          cohomology=True)
            assert rep.injective and rep.surjective
            assert rep.matrix not in (((0,),),)

    def test_collapse_rational_pairs_vanish(self):
        cyl = mapping_cylinder(degree_map_circle(2))
        cone, xi, base = cyl.collapse()
        rep = induced(xi, 2, Q, relative=(cyl.domain, base),
                      cohomology=True)
        assert all(not any(row) for row in rep.matrix)


# SHA-256 of the chain columns of L_1 .. L_3, of the two cones and of the
# two bonding chain maps, as the nested labels gave them: positions sort as
# the labels did, so the flat labels must give the same columns.
STAGE_HASHES = {
    2: {
        "stages": (
            "110526ef82e0e5876c4d42e765eeb9d5bd1b19c8585024e7bc3dd1836a0640d9",
            "ede9cb3c5682ec889f0eed5044220b3a1c08289d4ff771754d808336f7f15ecf",
            "f7fcc888c0ba8855b9a67a81c2d92ec9727c208f89fe02ad228825ec8da05b82",
        ),
        "cones": (
            "03f8107aee89344dc2eebf2fff4de94bcdd113d60aca608628ea68c3245abae8",
            "e11ec071747fe1fe3c501455d13d06394da03c36ce9aae60e521b7492d627bce",
        ),
        "bondings": (
            "a96798302269bc7d6c5b4f2572f4598ed1fcab82f1ce2f7037bf66f56926a62f",
            "5824812d7b3b4867e9e9e6aba40f5e9253fd3049c2e6c65803a6c79eca9c2821",
        ),
    },
    3: {
        "stages": (
            "110526ef82e0e5876c4d42e765eeb9d5bd1b19c8585024e7bc3dd1836a0640d9",
            "69d16f15eac3461d3dcadd832aa37ffc304a0bb9061b9f4788fdaa0476714fde",
            "e83fd02a2edf693fefaddb33e9e95dea10ac45dcf1b29d9d8b6554e35201bdfd",
        ),
        "cones": (
            "b9330ff5a3b40ff04d275d20657611de1ae166717b3b764639f511b09f7f67a6",
            "50fe93ba99fa1380195c8e912ee04120f9a61541976bad40abd43cb435c07e41",
        ),
        "bondings": (
            "f2ef598325fdafee32067bc1cca04da278ecf19d33228796624a8545b2e50ef5",
            "039befedb518c756511c0d2446d21e89f8e28e5f60b7112642f38e0a471693de",
        ),
    },
    5: {
        "stages": (
            "110526ef82e0e5876c4d42e765eeb9d5bd1b19c8585024e7bc3dd1836a0640d9",
            "cd89b73f864cebaebc0e8923ec5eb2ec3369dd658cc3310ba7aaef658d7ff708",
            "ed5d0f7422190ab931348b04ed1311f5551567e5b44155c35e86b5ca4ef4e4f6",
        ),
        "cones": (
            "fa13cb99ea5c74ea9d3d3db9bd532294f7a00b3c3f135e98943c30bac5de92ca",
            "94403718c8ebe195555d3682802a31d20bd6d4a62b740c2eba50147cba7e9c59",
        ),
        "bondings": (
            "7700fa69a2209fdcd140710f36dd1b5a77758532cddc2418f750f6285041c5b0",
            "57e9448694e32fe6387332c68a696ccc58b7f1bb03d01bc761483da708f6cad9",
        ),
    },
}


class TestPontryaginStages:
    def test_stage_guards(self):
        with pytest.raises(ValueError):
            pontryagin_stage(4, 1)
        with pytest.raises(ValueError):
            pontryagin_stage(2, 3)

    @pytest.mark.parametrize("k", [True, 1.0])
    def test_a_stage_count_that_is_not_an_int_is_refused(self, k):
        with pytest.raises(ValueError) as err:
            pontryagin_stage(2, k)
        assert str(err.value) == f"stage count must be 1 or 2: {k!r}"

    def test_first_stage_is_sphere(self):
        stages, bondings = pontryagin_stage(2, 1)
        assert stages[0] == boundary_simplex(3)
        assert len(stages) == 2 and len(bondings) == 1

    def test_bonding_iso_mod_p(self):
        for p in (2, 3):
            stages, bondings = pontryagin_stage(p, 2)
            for q in bondings:
                rep = induced(q, 2, Zmod(p), cohomology=True)
                assert rep.injective and rep.surjective, (p, q)

    def test_second_stage_rational_h2_vanishes(self):
        stages, _ = pontryagin_stage(2, 2)
        l2 = stages[1]
        assert cohomology_of(l2, Q)[2].is_zero
        assert homology_of(l2, Q)[1].free_rank > 0

    def test_euler_consistency(self):
        # f-vector Euler characteristic equals the alternating sum of
        # rational Betti numbers, on every stage.
        for p in (2, 3):
            stages, _ = pontryagin_stage(p, 2)
            for l in stages:
                rep = homology_of(l, Q)
                chi = sum((-1) ** k * rep[k].free_rank
                          for k in range(l.dim + 1))
                assert chi == l.euler(), (p, l)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_integral_homology_closed_form(self, p):
        stages, _ = pontryagin_stage(p, 2)
        for before, stage in zip(stages, stages[1:]):
            want = pontryagin_integral(before.f_vector(), p)
            assert pairs(homology_of(stage), range(3)) == dict(
                enumerate(want)), (p, stage)

    def test_mod_p_h2_survives(self):
        stages, _ = pontryagin_stage(2, 2)
        for l in stages[1:]:
            assert not cohomology_of(l, Zmod(2))[2].is_zero

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_chain_columns_pinned(self, p):
        stages, bondings = pontryagin_stage(p, 2)
        assert STAGE_HASHES[p] == {
            "stages": tuple(complex_hash(x) for x in stages),
            "cones": tuple(complex_hash(q.target) for q in bondings),
            "bondings": tuple(sha256(repr(sorted(
                q.chain_map()._cols.items())).encode()).hexdigest()
                for q in bondings),
        }

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_the_label_builder(self, p):
        # Stages, cones and bondings emitted in index order equal the
        # reference built from labels alone: simplex lists, simplex index,
        # chain columns, vertex map and bonding columns.  Their labels
        # are made only here, when first read.
        for k in (1, 2):
            self.assert_matches_the_label_builder(p, k)

    @staticmethod
    def assert_matches_the_label_builder(p, k):
        stages, bondings = pontryagin_stage(p, k)
        before = boundary_simplex(3)
        for stage, q in zip(stages[1:], bondings):
            assert q.source is stage
            assert q._vertex_map is None
            want_stage, want_cone, want_q = replace_triangles_by_labels(
                before, p)
            for got, want in ((stage, want_stage), (q.target, want_cone)):
                assert got._degrees is None     # no label made yet
                assert got.f_vector() == want.f_vector()
                assert got._by_dim == want._by_dim
                assert got._lookup is None      # no simplex looked up yet
                got_c, want_c = got.chain_complex(), want.chain_complex()
                assert (got_c.ranks, got_c._cols) == (want_c.ranks,
                                                      want_c._cols)
                assert got._index == want._index
            assert q.vertex_map == want_q.vertex_map
            cm = q.chain_map()
            assert cm.source is stage.chain_complex()
            assert cm.target is q.target.chain_complex()
            assert cm._cols == want_q.chain_map()._cols
            before = want_stage

    @pytest.mark.parametrize("p", [2, 3])
    def test_field_route_makes_no_labels(self, p):
        # What homology over a field and the bonding checks read (chain
        # complexes, f-vectors, cohomology, induced maps) comes from the
        # chain data alone: no simplex, simplex index or vertex map is made.
        stages, bondings = pontryagin_stage(p, 2)
        lazy = stages[1:] + [q.target for q in bondings]
        for x in stages + lazy:
            x.chain_complex()
            assert x.dim == 2 and x.euler() == x.chain_complex().euler()
        for coeff in (Q, Zmod(p)):
            cohomology_of(stages[-1], coeff)
        for q in bondings:
            assert induced(q, 2, Zmod(p), cohomology=True).iso
            induced(q, 1, Q)
        repr(stages[-1])
        f_vectors = [x.f_vector() for x in lazy]
        assert all(x._degrees is None and x._lookup is None for x in lazy)
        assert all(q._vertex_map is None for q in bondings)
        # Once made, the simplices count as the chain ranks did.
        assert [tuple(map(len, (x.simplices(0), x.simplices(1),
                                x.simplices(2)))) for x in lazy] == f_vectors
        assert [x.f_vector() for x in lazy] == f_vectors

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 829])
    def test_template_matches_the_label_builder(self, p):
        # Blocks, suffixes and bonding picks emitted from the layout equal
        # those read off the label-built one-triangle stage and cone
        # (itemgetters compare by repr, which lists their items).
        assert repr(_one_triangle(p)) == repr(one_triangle_by_labels(p))

    @pytest.mark.parametrize("p", [2, 3])
    def test_labels_are_flat(self, p):
        # No label of L_3 or of a cone nests a label of the stage before.
        stages, bondings = pontryagin_stage(p, 2)
        for x in [stages[-1]] + [q.target for q in bondings]:
            for v in x.vertices():
                assert all(isinstance(part, (str, int)) for part in v), v


class TestEdwardsWalsh:
    def test_identity_for_integers(self):
        c = full_simplex(3)
        ew, incl = ew_skeleton(c, Z, 2)
        assert ew.ranks == c.skeleton(2).chain_complex().ranks
        assert chain_induced(incl, 2, Zmod(2)).injective

    def test_mod_p_modification(self):
        from bockstein.chains import homology
        for p in (2, 3):
            ew, incl = ew_skeleton(full_simplex(3), Zmod(p), 2)
            rep = homology(ew)
            assert rep[2] == GroupReport(0, (p,), Z)
            assert rep[1].is_zero
            assert chain_induced(incl, 2, Zmod(p)).injective

    def test_bigger_complex(self):
        ew, incl = ew_skeleton(full_simplex(4), Zmod(2), 2)
        from bockstein.chains import homology
        rep = homology(ew)
        assert not rep[2].is_zero
        assert chain_induced(incl, 2, Zmod(2)).injective

    def test_guards(self):
        with pytest.raises(ValueError):
            ew_skeleton(full_simplex(3), Zmod(2), 1)
        with pytest.raises(ValueError):
            ew_skeleton(full_simplex(3), Zmod(2, 2), 2)
        with pytest.raises(ValueError):
            ew_skeleton(full_simplex(3), Q, 2)


# -- the trusted path --------------------------------------------------------

def frozen_as_dicts(cols):
    return {k: [dict(col) for col in c] for k, c in cols.items()}


def assert_trusted_complex(c):
    """c, built without checks, equals its public rebuild field for
    field, and the rebuild passes every check of the public edge."""
    rebuilt = ChainComplex.from_columns(c.ranks, frozen_as_dicts(c._cols))
    assert (c.ranks, c._cols) == (rebuilt.ranks, rebuilt._cols)


def assert_trusted_map(cm):
    assert_trusted_complex(cm.source)
    assert_trusted_complex(cm.target)
    rebuilt = ChainMap.from_columns(cm.source, cm.target,
                                    frozen_as_dicts(cm._cols))
    assert cm._cols == rebuilt._cols


def assert_trusted_pair(x, sub):
    assert_trusted_complex(x.chain_complex())
    assert_trusted_complex(quotient_complex(x.chain_complex(),
                                            x.indices_of(sub))[0])


simplex_faces = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.sets(st.integers(0, n), min_size=1), min_size=1,
                 max_size=6),
        st.sets(st.integers(0, n))))

# The same shape, (n, faces, kept vertices), with 9 to 16 vertex labels
# drawn from a wide range, and faces of dimension <= 3.  A set of at most
# 5 small ints iterates in sorted order, so simplex_faces cannot show an
# ordering fault; sets of these labels, and of their positions past 8,
# need not.
wide_faces = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=9,
                      max_size=16, unique=True).flatmap(
    lambda labels: st.tuples(
        st.just(len(labels) - 1),
        st.lists(st.sets(st.sampled_from(labels), min_size=2, max_size=4),
                 min_size=4, max_size=8),
        st.sets(st.sampled_from(labels))))


def assert_public_rebuild(x):
    rebuilt = SimplicialComplex(list(x.all_simplices()))
    assert x == rebuilt
    assert x._index == rebuilt._index


def assert_trusted_cylinder(cyl):
    """The trusted cylinder equals its public rebuild, ends included,
    and the public map constructor accepts its three maps."""
    assert_public_rebuild(cyl.complex)
    simplices = list(cyl.complex.all_simplices())
    for end, side in ((cyl.domain, "K"), (cyl.target, "L")):
        rebuilt = SimplicialComplex(
            [s for s in simplices if all(v[0] == side for v in s)])
        assert end == rebuilt
        assert end._index == rebuilt._index
    for f in (cyl.domain_inclusion, cyl.target_inclusion, cyl.retraction):
        SimplicialMap(f.source, f.target, f.vertex_map)
        assert_trusted_map(f.chain_map())


def assert_trusted_collapse(cyl):
    """The trusted cone of collapse() equals its public rebuild, and the
    public map constructor accepts the collapse map xi."""
    cone, xi, _ = cyl.collapse()
    assert_public_rebuild(cone)
    SimplicialMap(xi.source, xi.target, xi.vertex_map)
    assert_trusted_map(xi.chain_map())


class TestTrustedPath:
    @given(simplex_faces)
    @settings(max_examples=100, deadline=None)
    def test_random_subcomplexes_and_pairs(self, draw):
        n, faces, keep = draw
        x = SimplicialComplex(faces)
        sub = x.full_subcomplex(keep.__contains__)
        assert_trusted_pair(x, sub)
        assert_public_rebuild(sub)
        for k in range(n + 1):
            assert_public_rebuild(x.skeleton(k))

    @given(simplex_faces, st.integers(min_value=0, max_value=3),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_random_simplicial_maps_and_pairs(self, draw, m, rng):
        _, faces, keep = draw
        x = SimplicialComplex(faces)
        y = full_simplex(m)
        f = SimplicialMap(x, y, {v: rng.randint(0, m) for v in x.vertices()})
        assert_trusted_map(f.chain_map())
        # Any subcomplex of x maps into its image's full subcomplex.
        a = x.full_subcomplex(keep.__contains__)
        image = {f.vertex_map[v] for v in a.vertices()}
        if image:
            b = y.full_subcomplex(image.__contains__)
            assert_trusted_map(f.chain_map().quotient(
                x.indices_of(a), y.indices_of(b)))

    @pytest.mark.parametrize("p", [2, 3])
    def test_cylinders_and_the_xi_collapse(self, p):
        cyl = mapping_cylinder(degree_map_circle(p))
        assert_trusted_pair(cyl.complex, cyl.domain)
        for f in (cyl.map, cyl.retraction, cyl.domain_inclusion,
                  cyl.target_inclusion):
            assert_trusted_map(f.chain_map())
        cone, xi, base = cyl.collapse()
        assert_trusted_map(xi.chain_map())
        assert_trusted_map(xi.chain_map().quotient(
            cyl.complex.indices_of(cyl.domain), cone.indices_of(base)))

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_trusted_cylinders_of_degree_maps(self, p):
        assert_trusted_cylinder(mapping_cylinder(degree_map_circle(p)))

    @given(simplex_faces, st.integers(min_value=0, max_value=3),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_trusted_cylinders_of_random_maps(self, draw, m, rng):
        _, faces, _ = draw
        x = SimplicialComplex(faces)
        f = SimplicialMap(x, full_simplex(m),
                          {v: rng.randint(0, m) for v in x.vertices()})
        assert_trusted_cylinder(mapping_cylinder(f))

    @given(wide_faces, st.integers(min_value=0, max_value=3),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_trusted_cylinders_of_wide_maps(self, draw, m, rng):
        _, faces, _ = draw
        x = SimplicialComplex(faces)
        names = rng.sample(range(-10 ** 6, 10 ** 6), m + 1)
        y = SimplicialComplex([names])
        f = SimplicialMap(x, y, {v: rng.choice(names) for v in x.vertices()})
        cyl = mapping_cylinder(f)
        assert_trusted_cylinder(cyl)
        assert_trusted_collapse(cyl)

    def test_trusted_factories(self):
        # The factories install closed, sorted simplex lists without the
        # public closure; the public constructor must build the same.
        for n in range(6):
            assert_public_rebuild(full_simplex(n))
        for n in range(1, 6):
            assert_public_rebuild(boundary_simplex(n))
        for k in range(3, 12):
            assert_public_rebuild(circle(k))
        for p in (2, 3, 5):
            f = degree_map_circle(p, 4)
            assert_public_rebuild(f.source)
            assert_public_rebuild(f.target)
            assert f.vertex_map == {i: i % 4 for i in range(4 * p)}
            assert_trusted_map(f.chain_map())

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7])
    def test_trusted_degree_maps(self, p):
        f = degree_map_circle(p)
        SimplicialMap(f.source, f.target, f.vertex_map)

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_trusted_collapse_of_degree_maps(self, p):
        assert_trusted_collapse(mapping_cylinder(degree_map_circle(p)))

    @given(simplex_faces, st.integers(min_value=0, max_value=3),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_trusted_collapse_of_random_maps(self, draw, m, rng):
        _, faces, _ = draw
        x = SimplicialComplex(faces)
        f = SimplicialMap(x, full_simplex(m),
                          {v: rng.randint(0, m) for v in x.vertices()})
        assert_trusted_collapse(mapping_cylinder(f))

    def test_trusted_map_missing_image_raises(self):
        # _make checks nothing, but chain_map only drops simplices that
        # repeat a vertex: an image missing from the target still fails.
        y = boundary_simplex(2)
        f = SimplicialMap._make(full_simplex(2), y, [0, 1, 2])
        with pytest.raises(KeyError):
            f.chain_map()
        g = SimplicialMap._make(full_simplex(2), y, [0, 0, 1])
        cols = g.chain_map()._cols
        assert cols[1][0] == () and 2 not in cols

    @pytest.mark.parametrize("p", [2, 3])
    def test_pontryagin_stages_and_bondings(self, p):
        stages, bondings = pontryagin_stage(p, 1)
        for x in stages:
            assert_trusted_complex(x.chain_complex())
        for q in bondings:
            assert_trusted_map(q.chain_map())

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2])
    def test_trusted_stages_match_public_rebuild(self, p, k):
        # Stages, cones and bondings are built by the trusted _make
        # constructors; the public ones must build and accept the same.
        stages, bondings = pontryagin_stage(p, k)
        for x in stages + [q.target for q in bondings]:
            assert_public_rebuild(x)
        for q in bondings:
            SimplicialMap(q.source, q.target, q.vertex_map)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("group", [Z, Zmod(2), Zmod(3)])
    def test_edwards_walsh_skeleta(self, n, group):
        for model in (full_simplex(n + 1), boundary_simplex(n + 2)):
            ew, inclusion = ew_skeleton(model, group, n)
            assert_trusted_complex(ew)
            assert_trusted_map(inclusion)


# -- the chain data as the one record ----------------------------------------

def assert_read_off_columns(x):
    """x equals the complex that _lazy reads off its sorted vertex
    labels and its chain complex alone."""
    y = SimplicialComplex._lazy(x.vertices, x.chain_complex())
    assert y.f_vector() == x.f_vector()         # the chain ranks
    assert [y.simplices(k) for k in range(x.dim + 1)] == [
        x.simplices(k) for k in range(x.dim + 1)]
    assert y.f_vector() == x.f_vector()         # the simplices
    assert y._index == x._index
    assert y == x and hash(y) == hash(x)


def assert_vertex_map_read_off_columns(f):
    g = SimplicialMap._make(f.source, f.target, None, f.chain_map())
    assert g.vertex_map == f.vertex_map


def assert_cylinder_read_off_columns(cyl):
    for x in (cyl.complex, cyl.domain, cyl.target):
        assert_read_off_columns(x)
    for f in (cyl.map, cyl.retraction, cyl.domain_inclusion,
              cyl.target_inclusion):
        assert_vertex_map_read_off_columns(f)


class TestChainRecord:
    """Simplices read off boundary columns, and vertex maps read off
    degree-0 columns, equal the ones the labels give."""

    @given(st.one_of(simplex_faces, wide_faces))
    @settings(max_examples=100, deadline=None)
    def test_random_complexes(self, draw):
        n, faces, keep = draw
        x = SimplicialComplex(faces)
        for k in range(n + 1):
            assert_read_off_columns(x.skeleton(k))
        assert_read_off_columns(x.full_subcomplex(keep.__contains__))

    def test_the_empty_complex(self):
        # One convention wherever it comes from: no simplex, dim -1, and
        # a chain complex of rank 0 in degree 0.
        for x in (SimplicialComplex([]),
                  circle(3).full_subcomplex(lambda v: False)):
            y = SimplicialComplex._lazy(x.vertices, x.chain_complex())
            for z in (x, y):
                assert (z.f_vector(), z.dim) == ((), -1)
                assert z.chain_complex().ranks == (0,)
            assert_read_off_columns(x)
            assert homology_of(y, Z)[0] == homology_of(x, Z)[0]

    @given(simplex_faces, st.integers(min_value=0, max_value=3),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_random_maps_and_cylinders(self, draw, m, rng):
        _, faces, _ = draw
        x = SimplicialComplex(faces)
        f = SimplicialMap(x, full_simplex(m),
                          {v: rng.randint(0, m) for v in x.vertices()})
        assert_vertex_map_read_off_columns(f)
        assert_cylinder_read_off_columns(mapping_cylinder(f))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_cylinders_of_degree_maps(self, p):
        assert_cylinder_read_off_columns(mapping_cylinder(
            degree_map_circle(p)))


class TestOneRecord:
    """Every complex is its vertex labels and its chain complex, however
    it is made: label tuples are made only when a simplex is read, and
    the vertex labels only once."""

    def test_public_and_factory_complexes_make_no_label_tuple(self):
        for x in (SimplicialComplex([(2, 0, 1), (3, 4)]), full_simplex(3)):
            assert len(x.vertices()) == x.chain_complex().ranks[0]
            assert x.euler() == x.chain_complex().euler() and x.dim > 0
            repr(x)
            assert x._degrees is None and x._lookup is None
            x.simplices(1)
            assert x._degrees is not None and x._lookup is None

    @pytest.mark.parametrize("p", [2, 3])
    def test_vertices_of_a_cylinder_end_make_no_simplex(self, p):
        cyl = mapping_cylinder(degree_map_circle(p))
        for end, side in ((cyl.domain, "K"), (cyl.target, "L")):
            assert {v[0] for v in end.vertices()} == {side}
            assert len(end.vertices()) == end.f_vector()[0]
            assert end._degrees is None

    def test_each_complex_builds_its_labels_once(self):
        built = []

        def counted(x):
            def build():
                built.append(x)
                return x.vertices()
            return SimplicialComplex._lazy(build, x.chain_complex())

        x, sub = counted(full_simplex(3)), counted(boundary_simplex(2))
        for _ in range(3):
            assert x.indices_of(sub)[1] == (0, 1, 3)
        assert x.has((0, 3)) and sub.simplices(1) == ((0, 1), (0, 2), (1, 2))
        assert x.vertices() is x.vertices()
        assert len(built) == 2

    def test_has_answers_false_for_a_label_that_is_not_a_vertex(self):
        x = full_simplex(2)
        assert not x.has([0, "x"]) and not x.has([5])
        assert x.has([2, 0]) and not x.has([0, 0])
        assert x._degrees is None

    def test_one_simplex_index_per_complex(self):
        cyl = mapping_cylinder(degree_map_circle(2))
        x = cyl.complex
        want = x.indices_of(cyl.domain)
        index = x._lookup
        assert len(index) == sum(x.f_vector())
        for _ in range(2):
            assert x.indices_of(cyl.domain) == want
            assert x._lookup is index
        # A map into x looks its images up in the same index.
        cm = cyl.domain_inclusion.chain_map()
        assert cm._cols == {k: tuple([((n, 1),) for n in idx])
                            for k, idx in want.items()}
        assert x._lookup is index
        assert x._degrees is None and cyl.domain._degrees is None

    def test_equality_and_hash_make_no_label_tuple(self):
        a, b = full_simplex(3), SimplicialComplex([(3, 2, 1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != boundary_simplex(3) and a != full_simplex(2)
        assert a._degrees is None and b._degrees is None

    @given(st.one_of(simplex_faces, wide_faces))
    @settings(max_examples=100, deadline=None)
    def test_skeleton_matches_the_label_collected_one(self, draw):
        _, faces, _ = draw
        x = SimplicialComplex(faces)
        for n in (-1, 0, x.dim, x.dim + 1):
            got = x.skeleton(n)
            want = SimplicialComplex([s for k in range(n + 1)
                                      for s in x.simplices(k)])
            assert got.f_vector() == want.f_vector()
            assert got.vertices() == want.vertices()
            got_c, want_c = got.chain_complex(), want.chain_complex()
            assert (got_c.ranks, got_c._cols) == (want_c.ranks, want_c._cols)
            assert got == want and got._index == want._index


class TestEdwardsWalshByLabels:
    """ew_skeleton, read off the complex's chain complex, equals the
    skeleton-and-label-lookup construction of tests/oracles.py."""

    @staticmethod
    def assert_matches_labels(model, group, n):
        ew, inclusion = ew_skeleton(model, group, n)
        want, want_inclusion = ew_skeleton_by_labels(model, group, n)
        assert (ew.ranks, ew._cols) == (want.ranks, want._cols)
        base = inclusion.source
        assert base.ranks == model.chain_complex().ranks[:n + 1]
        assert (base.ranks, base._cols) == (want_inclusion.source.ranks,
                                            want_inclusion.source._cols)
        assert inclusion.target is ew
        assert inclusion._cols == want_inclusion._cols

    @given(simplex_faces, st.integers(min_value=2, max_value=4),
           st.sampled_from([Z, Zmod(2), Zmod(3)]))
    @settings(max_examples=100, deadline=None)
    def test_random_complexes(self, draw, n, group):
        _, faces, _ = draw
        self.assert_matches_labels(SimplicialComplex(faces), group, n)

    @pytest.mark.parametrize("group", [Z, Zmod(2), Zmod(3)])
    def test_full_simplices(self, group):
        # Dimensions below n, at n and n + 1, and above n + 1.
        for d in range(7):
            for n in (2, 3, 4):
                self.assert_matches_labels(full_simplex(d), group, n)

    @pytest.mark.parametrize("p", [2, 3])
    def test_second_pontryagin_stage(self, p):
        stages, _ = pontryagin_stage(p, 1)
        for group in (Z, Zmod(2), Zmod(3)):
            self.assert_matches_labels(stages[1], group, 2)
