import time
from fractions import Fraction
from functools import reduce
from hashlib import sha256
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import prime, primerange

from bockstein.chains import (
    ChainComplex, ChainMap, GroupReport, field_betti, homology, cohomology,
    induced_map, integral_homology, join_homology, moore_space,
    quotient_complex, snf,
)
from bockstein.chains import _snf_shaped, _sparse_invariants
from bockstein.chains import _invariant_factors
from bockstein.chains import _boundary_reducer, _convert, _field_basis
from bockstein import chains, simplicial
from bockstein.simplicial import SimplicialComplex, pontryagin_stage
from bockstein.groups import Q, Z, Zmod, ZpInf

from oracles import (
    _int_inverse, betti_oracle, induced_rank_oracle, integral_homology_oracle,
    join_expect, rank_mod_p, rank_rational, smith_invariants,
)
from test_simplicial import simplex_faces, wide_faces


matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)))


# Mostly zero, with units mixed among 2, 3, 4 and 6; the unit-free
# entry sets leave the whole matrix to the dense core.
sparse_matrices = st.sampled_from([
    (0, 0, 0, 1, -1, 2, -3, 4, 6),
    (0, 0, 0, 0, 1, -1, 1, 2, -2),
    (0, 0, 2, -2, 3, 4, -6),
    (0, 0, 0, 4, 6, -6, 9),
]).flatmap(lambda entries: st.integers(min_value=1, max_value=9).flatmap(
    lambda r: st.integers(min_value=1, max_value=9).flatmap(
        lambda c: st.lists(st.lists(st.sampled_from(entries),
                                    min_size=c, max_size=c),
                           min_size=r, max_size=r))))


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


class TestSmithNormalForm:
    @given(matrices)
    @settings(max_examples=200, deadline=None)
    def test_invariants_match_sympy(self, mat):
        inv, _, _ = snf(mat)
        assert [d for d in inv if d > 1] == smith_invariants(mat)

    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_transforms_diagonalize(self, mat):
        inv, u, v = snf(mat)
        prod = mat_mul(u, mat_mul(mat, v))
        rows, cols = len(mat), len(mat[0])
        for i in range(rows):
            for j in range(cols):
                want = inv[i] if i == j and i < len(inv) else 0
                assert prod[i][j] == want

    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_divisibility_chain(self, mat):
        inv, _, _ = snf(mat)
        assert all(d > 0 for d in inv)
        assert all(b % a == 0 for a, b in zip(inv, inv[1:]))

    @given(sparse_matrices)
    @settings(max_examples=300, deadline=None)
    def test_sparse_invariants_match_dense_and_sympy(self, mat):
        rows, cols = len(mat), len(mat[0])
        columns = [tuple((i, mat[i][j]) for i in range(rows) if mat[i][j])
                   for j in range(cols)]
        inv = _sparse_invariants(columns)
        assert inv == snf(mat)[0]
        assert [d for d in inv if d > 1] == smith_invariants(mat)

    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_transforms_come_with_their_inverses(self, mat):
        rows, cols = len(mat), len(mat[0])
        inv, u, v, u_inv, v_inv = _snf_shaped(mat, rows, cols)
        assert (inv, u, v) == snf(mat)
        for m, m_inv in ((u, u_inv), (v, v_inv)):
            ident = [[int(i == j) for j in range(len(m))]
                     for i in range(len(m))]
            assert mat_mul(m, m_inv) == ident
            assert mat_mul(m_inv, m) == ident

    def test_edge_cases(self):
        assert snf([[0, 0], [0, 0]])[0] == []
        assert snf([[6]])[0] == [6]
        assert snf([[2, 0], [0, 3]])[0] == [1, 6]


def unimodular(n, steps):
    """Identity changed by elementary integer row operations: add a
    multiple of one row to another, or negate a row."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for a, b, q in steps:
        a, b = a % n, b % n
        if a == b:
            m[a] = [-x for x in m[a]]
        else:
            m[a] = [x + q * y for x, y in zip(m[a], m[b])]
    return m


class TestIntInverse:
    @given(st.integers(min_value=1, max_value=6),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(-4, 4)), max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_inverts_unimodular(self, n, steps):
        m = unimodular(n, steps)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        inv = _int_inverse(m)
        assert mat_mul(inv, m) == ident
        assert mat_mul(m, inv) == ident

    def test_empty(self):
        assert _int_inverse([]) == []

    @pytest.mark.parametrize("m", [[[2]], [[0]], [[1, 2], [3, 4]],
                                   [[1, 1], [1, 1]]])
    def test_rejects_non_unimodular(self, m):
        with pytest.raises(ValueError):
            _int_inverse(m)


# Small standard complexes with known boundaries.
def cell_circle():
    # Minimal CW circle: no boundary at all.
    return ChainComplex([1, 1])


def cell_sphere(n):
    ranks = [1] + [0] * (n - 1) + [1]
    return ChainComplex(ranks)


def simplicial_circle(k=3):
    from bockstein.simplicial import circle
    return circle(k).chain_complex()


def simplicial_sphere2():
    from bockstein.simplicial import boundary_simplex
    return boundary_simplex(3).chain_complex()


SAMPLES = [
    cell_circle(),
    cell_sphere(2),
    cell_sphere(3),
    moore_space(2),
    moore_space(6),
    moore_space(3, 2),
    simplicial_circle(),
    simplicial_sphere2(),
]


def dense_boundaries(c):
    return {k: c.boundary(k) for k in range(1, c.top + 1)
            if c.rank(k) and c.rank(k - 1)}


class TestIntegralHomology:
    def test_known_values(self):
        assert integral_homology(cell_circle()) == [(1, ()), (1, ())]
        assert integral_homology(simplicial_sphere2()) == [
            (1, ()), (0, ()), (1, ())]
        assert integral_homology(moore_space(4)) == [
            (1, ()), (0, (4,)), (0, ())]
        assert integral_homology(moore_space(5, 2)) == [
            (1, ()), (0, ()), (0, (5,)), (0, ())]

    def test_against_sympy_oracle(self):
        for c in SAMPLES:
            want = integral_homology_oracle(c.ranks, dense_boundaries(c))
            got = [(b, tuple(sorted(t))) for b, t in integral_homology(c)]
            assert got == want, c

    def test_pontryagin_l3_within_five_seconds(self):
        # The gate for sparse integral homology: L_3 finishes, and agrees
        # through universal coefficients with the independent field route.
        for p in (2, 3):
            c = pontryagin_stage(p, 2)[0][-1].chain_complex()
            start = time.perf_counter()
            pairs = integral_homology(c)
            assert time.perf_counter() - start < 5, p
            assert field_betti(c, Q) == [beta for beta, _ in pairs]
            for r in (2, 3):
                assert field_betti(c, Zmod(r)) == [
                    beta + torsion_count(tors, r)
                    + (torsion_count(pairs[k - 1][1], r) if k else 0)
                    for k, (beta, tors) in enumerate(pairs)], (p, r)

    def test_square_zero_enforced(self):
        with pytest.raises(ValueError):
            ChainComplex([1, 1, 1], {1: [[1]], 2: [[1]]})

    def test_euler(self):
        assert simplicial_sphere2().euler() == 2
        assert cell_circle().euler() == 0


class TestFieldRoute:
    def test_betti_against_dense_oracle(self):
        for c in SAMPLES:
            bnd = dense_boundaries(c)
            for coeff, rank_fn in ((Q, rank_rational),
                                   (Zmod(2), lambda m: rank_mod_p(m, 2)),
                                   (Zmod(3), lambda m: rank_mod_p(m, 3))):
                want = betti_oracle(c.ranks, bnd, rank_fn)
                assert field_betti(c, coeff) == want, (c, coeff)

    def test_field_report_matches_uct_route(self):
        # The fast path must agree with the Smith-form route followed
        # by universal coefficients, on every sample complex.
        for c in SAMPLES:
            pairs = integral_homology(c)
            for p in (2, 3, 5):
                report = homology(c, Zmod(p))
                for k in range(c.top + 1):
                    free, tors = pairs[k]
                    below = pairs[k - 1][1] if k else ()
                    want = (free
                            + sum(1 for t in tors if t % p == 0)
                            + sum(1 for t in below if t % p == 0))
                    assert report[k] == GroupReport(0, (p,) * want, Zmod(p))
            rational = homology(c, Q)
            for k in range(c.top + 1):
                assert rational[k] == GroupReport(pairs[k][0], (), Q)

    def test_cohomology_field_dims_match(self):
        for c in SAMPLES:
            for coeff in (Q, Zmod(2)):
                h = homology(c, coeff)
                ch = cohomology(c, coeff)
                for k in range(c.top + 1):
                    assert h[k] == ch[k]


class TestCoefficients:
    def test_moore_prime_power(self):
        c = moore_space(2)
        rep = homology(c, Zmod(2, 2))
        assert rep[0] == GroupReport(0, (4,), Zmod(2, 2))
        assert rep[1] == GroupReport(0, (2,), Zmod(2, 2))
        assert rep[2] == GroupReport(0, (2,), Zmod(2, 2))

    def test_moore_divisible(self):
        c = moore_space(2)
        rep = homology(c, ZpInf(2))
        assert rep[0] == GroupReport(1, (), ZpInf(2))   # one Z(2^inf)
        assert rep[1].is_zero
        assert rep[2] == GroupReport(0, (2,), ZpInf(2))

    def test_moore_coprime(self):
        rep = homology(moore_space(2), Zmod(3))
        assert rep[1].is_zero and rep[2].is_zero

    def test_integral_cohomology_shifts_torsion(self):
        rep = cohomology(moore_space(2), Z)
        assert rep[0] == GroupReport(1, (), Z)
        assert rep[1].is_zero
        assert rep[2] == GroupReport(0, (2,), Z)

    def test_rejects_unknown_coefficients(self):
        with pytest.raises(ValueError):
            homology(cell_circle(), "Z")
        with pytest.raises(ValueError):
            homology(cell_circle(), Zmod(2) + Zmod(3))


class TestInducedMaps:
    def degree_map(self, p):
        c = cell_circle()
        return ChainMap(c, c, {0: [[1]], 1: [[p]]})

    def test_integral_degree_map(self):
        rep = induced_map(self.degree_map(3), 1)
        assert rep.matrix == ((3,),)
        assert rep.injective and not rep.surjective

    def test_field_degree_map(self):
        rep = induced_map(self.degree_map(3), 1, Zmod(3))
        assert not rep.injective and not rep.surjective
        rep = induced_map(self.degree_map(3), 1, Zmod(2))
        assert rep.injective and rep.surjective
        rep = induced_map(self.degree_map(3), 1, Q)
        assert rep.injective and rep.surjective

    def test_cohomology_transposes(self):
        two_points = ChainComplex([2])
        point = ChainComplex([1])
        fold = ChainMap(two_points, point, {0: [[1, 1]]})
        rep = induced_map(fold, 0, Zmod(2))
        assert rep.matrix == ((1, 1),)
        assert rep.surjective and not rep.injective
        corep = induced_map(fold, 0, Zmod(2), cohomology=True)
        assert corep.matrix == ((1,), (1,))
        assert corep.injective and not corep.surjective

    def test_commutation_checked(self):
        c = moore_space(2)
        with pytest.raises(ValueError):
            ChainMap(c, c, {1: [[1]]})   # misses degree 2 compatibility

    def test_integral_needs_free_homology(self):
        c = moore_space(2)
        ident = ChainMap(c, c, {0: [[1]], 1: [[1]], 2: [[1]]})
        with pytest.raises(ValueError):
            induced_map(ident, 1, Z)


def int_product(a, b, inner, cols):
    """a (any rows x inner) times b (inner x cols), sizes given so that
    empty matrices multiply too."""
    return tuple(tuple(sum(row[t] * b[t][j] for t in range(inner))
                       for j in range(cols)) for row in a)


def image_map(x, m, rng):
    """A random simplicial map from x onto its image on the vertices
    0..m."""
    vmap = {v: rng.randint(0, m) for v in x.vertices()}
    y = SimplicialComplex([{vmap[v] for v in s} for s in x.all_simplices()])
    return simplicial.SimplicialMap(x, y, vmap)


class TestIntegralInducedMaps:
    """Complexes on at most 5 vertices have torsion-free homology, so
    every integral induced map between them is defined."""

    @given(simplex_faces, st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=3),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_functorial(self, draw, m, m2, rng):
        _, faces, _ = draw
        f = image_map(SimplicialComplex(faces), m, rng)
        g = image_map(f.target, m2, rng)
        gf = simplicial.SimplicialMap(f.source, g.target, {
            v: g.vertex_map[w] for v, w in f.vertex_map.items()})
        betti_x = integral_homology(f.source.chain_complex())
        betti_y = integral_homology(f.target.chain_complex())
        for k, (cols, _) in enumerate(betti_x):
            got = induced_map(gf.chain_map(), k).matrix
            inner = betti_y[k][0] if k < len(betti_y) else 0
            assert got == int_product(
                induced_map(g.chain_map(), k).matrix,
                induced_map(f.chain_map(), k).matrix, inner, cols), k

    @given(simplex_faces)
    @settings(max_examples=40, deadline=None)
    def test_identity(self, draw):
        _, faces, _ = draw
        x = SimplicialComplex(faces)
        ident = simplicial.SimplicialMap(x, x, {v: v for v in x.vertices()})
        for k, (beta, _) in enumerate(integral_homology(x.chain_complex())):
            rep = induced_map(ident.chain_map(), k)
            assert rep.matrix == tuple(tuple(int(i == j) for j in range(beta))
                                       for i in range(beta)), k
            assert rep.iso

    @given(simplex_faces, st.integers(min_value=0, max_value=4),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_rank_over_q(self, draw, m, rng):
        _, faces, _ = draw
        cm = image_map(SimplicialComplex(faces), m, rng).chain_map()
        for k in range(cm.source.top + 1):
            rep, rep_q = induced_map(cm, k), induced_map(cm, k, Q)
            assert rank_rational([list(r) for r in rep.matrix]) == (
                rank_rational([list(r) for r in rep_q.matrix])), k
            assert rep.injective == rep_q.injective, k
            assert rep.surjective <= rep_q.surjective, k

    def test_image_not_a_cycle(self):
        # A trusted map that does not commute: the cycle of the circle
        # goes to the edge of an interval.
        circle = ChainComplex([1, 1])
        interval = ChainComplex([2, 1], {1: [[-1], [1]]})
        cm = ChainMap._make(circle, interval, {1: (((0, 1),),)})
        with pytest.raises(ValueError, match="chain is not a cycle"):
            induced_map(cm, 1)


class TestJoin:
    def test_two_circles_make_s3(self):
        rep = join_homology(cell_circle(), cell_circle())
        assert rep[3] == GroupReport(1, (), Z)
        for k in (0, 1, 2):
            assert rep[k].is_zero

    def test_moore_joins(self):
        cases = [((2, 3), 1), ((2, 2), 2), ((4, 6), 2), ((3, 3), 3)]
        for (a, b), g in cases:
            rep = join_homology(moore_space(a), moore_space(b))
            expect = join_expect(g)
            for k in range(6):
                free, tors = expect[k]
                assert rep[k] == GroupReport(free, tors, Z), (a, b, k)

    def test_mod_p_join(self):
        # Mod 2 the torsion in degrees 3 and 4 doubles up through
        # universal coefficients and reaches into degree 5.
        rep = join_homology(moore_space(2), moore_space(2), Zmod(2))
        assert rep[3] == GroupReport(0, (2,), Zmod(2))
        assert rep[4] == GroupReport(0, (2, 2), Zmod(2))
        assert rep[5] == GroupReport(0, (2,), Zmod(2))
        assert rep[2].is_zero


class TestInvariantFactors:
    @given(st.lists(st.one_of(st.integers(min_value=1, max_value=60),
                              st.sampled_from([2 ** 61 - 1, 10 ** 24 + 7,
                                               2 * (2 ** 61 - 1)])),
                    min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_matches_snf_of_the_diagonal(self, orders):
        diag = [[n if i == j else 0 for j in range(len(orders))]
                for i, n in enumerate(orders)]
        want = tuple(d for d in snf(diag)[0] if d > 1)
        assert _invariant_factors(orders) == want

    def test_huge_prime_orders(self):
        big = 10 ** 24 + 7
        assert _invariant_factors([big, big, 2]) == (big, 2 * big)
        assert GroupReport(0, (2 ** 61 - 1,), Z).render() == (
            f"Z/{2 ** 61 - 1}")

    @given(st.lists(st.sampled_from([1, 2, 2, 2, 3, 3, 4, 5, 6, 8, 9, 12,
                                     25, 2 ** 61 - 1]),
                    max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_full_merge_on_long_lists(self, orders):
        assert _invariant_factors(orders) == merged_factors(orders)

    @pytest.mark.parametrize("p", [2, 3, 2 ** 61 - 1])
    def test_repeated_orders(self, p):
        # The long lists against their closed forms; the quadratic full
        # merge only on short ones.
        orders = (p,) * 2000
        assert _invariant_factors(orders) == orders
        mixed = (p, p * p) * 1000
        assert _invariant_factors(mixed) == (p,) * 1000 + (p * p,) * 1000
        for short in ((p,) * 200, (p, p * p) * 100, (p * p, p, p ** 3) * 70):
            assert _invariant_factors(short) == merged_factors(short)
        assert GroupReport(0, orders, Z).orders == orders

    def test_pairwise_coprime_orders(self):
        # A coprime merge leaves a trivial factor; it must not stay in
        # the chain for every later merge to walk.
        primes = list(primerange(2, prime(2000) + 1))
        orders = primes[:500] * 2
        assert _invariant_factors(orders) == merged_factors(orders)
        assert _invariant_factors(primes) == (prod(primes),)


def merged_factors(orders):
    """The invariant factors by merging every order through the whole
    chain, gcd below and lcm carried up: b^2 / 2 steps for b orders."""
    factors = []
    for n in orders:
        if n > 1:
            for i, f in enumerate(factors):
                factors[i], n = gcd(f, n), lcm(f, n)
            factors.append(n)
    return tuple(f for f in factors if f > 1)


class TestSparseConstructors:
    """The public sparse edges refuse what the dense ones refuse."""

    @pytest.mark.parametrize("ranks, columns, message", [
        ([1, 1, 1], {1: [{0: 1}], 2: [{0: 1}]},
         "boundary squared is nonzero at degree 2, column 0"),
        ([1, 1], {1: [{1: 1}]}, "row index 1 out of range in boundary 1"),
        ([1, 1], {1: [{0: 1}, {0: 1}]}, "boundary 1 needs 1 columns"),
        ([1, 1], {2: []}, "boundary degree 2 out of range"),
        ([1, 1], {0: [{}]}, "boundary degree 0 out of range"),
    ])
    def test_complex_refusals(self, ranks, columns, message):
        with pytest.raises(ValueError, match=message):
            ChainComplex.from_columns(ranks, columns)

    def test_map_refusals(self):
        m = moore_space(2)
        with pytest.raises(ValueError,
                           match="chain map does not commute in degree 2"):
            ChainMap.from_columns(m, m, {0: [{0: 1}], 2: [{0: 1}]})
        with pytest.raises(ValueError, match="degree 1 needs 1 columns"):
            ChainMap.from_columns(m, m, {1: []})

    def test_accepts_what_it_checks(self):
        c = ChainComplex.from_columns([3, 1], {1: [{2: 0, 1: 1, 0: -1}]})
        assert c._cols == {1: (((0, -1), (1, 1)),)}
        m = moore_space(2)
        ident = ChainMap.from_columns(m, m, {k: [{0: 1}] for k in (0, 1, 2)})
        assert induced_map(ident, 0).matrix == ((1,),)


class TestQuotient:
    def test_disk_mod_boundary(self):
        # One 2-cell over the minimal circle; quotient by the circle.
        c = ChainComplex([1, 1, 1], {2: [[0]]})
        q, _ = quotient_complex(c, {0: [0], 1: [0]})
        assert integral_homology(q) == [(0, ()), (0, ()), (1, ())]

    # The filled triangle on the vertices 0, 1, 2, with the edges
    # (0, 1), (0, 2), (1, 2) in that order.
    TRIANGLE = ChainComplex.from_columns(
        [3, 3, 1], {1: [{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}],
                    2: [{0: 1, 1: -1, 2: 1}]})

    def test_kept_maps_each_survivor_to_its_new_index(self):
        # Modulo the edge (0, 1): vertex 2 and the other two edges stay.
        q, kept = quotient_complex(self.TRIANGLE, {0: [1, 0], 1: [0]})
        assert kept == {0: {2: 0}, 1: {1: 0, 2: 1}, 2: {0: 0}}
        assert [list(kept[k]) for k in range(3)] == [[2], [1, 2], [0]]
        assert q.ranks == (1, 2, 1)
        assert q._cols == {1: (((0, 1),), ((0, 1),)),
                           2: (((0, -1), (1, 1)),)}

    def test_refuses_a_sub_index_out_of_range(self):
        for bad in (3, -1):
            with pytest.raises(ValueError,
                               match="sub index out of range in degree 1"):
                quotient_complex(self.TRIANGLE, {0: [0, 1, 2], 1: [bad]})

    def test_refuses_a_leaking_sub(self):
        # The sub leaks in degrees 1 and 2; the lower degree is named.
        with pytest.raises(ValueError, match="not a subcomplex: boundary "
                                             "leaks in degree 1"):
            quotient_complex(self.TRIANGLE, {1: [0], 2: [0]})
        with pytest.raises(ValueError, match="not a subcomplex: boundary "
                                             "leaks in degree 2"):
            quotient_complex(self.TRIANGLE, {0: [0, 1, 2], 1: [0], 2: [0]})

    def test_refuses_a_map_that_sends_the_sub_outside(self):
        c = self.TRIANGLE
        ident = ChainMap.from_columns(
            c, c, {k: [{j: 1} for j in range(c.rank(k))] for k in range(3)})
        inside = {0: [0, 1], 1: [0]}
        assert ident.quotient(inside, inside).target.ranks == (1, 2, 1)
        # The edge (0, 1) and its vertices leave; the lowest degree is
        # named.
        for target_sub, k in (({0: [2]}, 0), ({0: [0, 1, 2]}, 1)):
            with pytest.raises(ValueError, match="map does not send the "
                               f"subcomplex into the subcomplex in degree {k}"):
                ident.quotient(inside, target_sub)


# -- universal coefficients tie the field route to the integral route --------

def join(a, b):
    """Cellular chains of the join a * b of two cell complexes.

    A cell of the join pairs a cell of a (or the empty cell) with a
    cell of b (or the empty cell), the two empty cells not together.
    Its chains are the tensor product of the augmented chains, with
    degrees shifted up by one: d(x * y) = dx * y + (-1)^(|x|+1) x * dy,
    where d of a vertex is the empty cell.
    """
    def augmented(c):
        # Boundary columns by shifted degree s = k + 1: s = 0 holds the
        # empty cell alone.
        return ([[{}], [{0: 1}] * c.rank(0)]
                + [c.sparse_boundary(k) for k in range(1, c.top + 1)])

    bnd_a, bnd_b = augmented(a), augmented(b)
    index, ranks, columns = {}, [], {}
    for n in range(len(bnd_a) + len(bnd_b) - 2):
        cells = [(s, n + 1 - s, i, j)
                 for s in range(len(bnd_a)) if 0 <= n + 1 - s < len(bnd_b)
                 for i in range(len(bnd_a[s]))
                 for j in range(len(bnd_b[n + 1 - s]))]
        index.update((cell, pos) for pos, cell in enumerate(cells))
        ranks.append(len(cells))
        if n:
            columns[n] = []
            for s, t, i, j in cells:
                col = {index[s - 1, t, r, j]: v
                       for r, v in bnd_a[s][i].items()}
                col.update((index[s, t - 1, i, r], (-1) ** s * v)
                           for r, v in bnd_b[t][j].items())
                columns[n].append(col)
    return ChainComplex.from_columns(ranks, columns)


POINT = ChainComplex([1])
TWO_POINTS = ChainComplex([2])

simplex_subcomplexes = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(st.sets(st.integers(0, n), min_size=1),
                       min_size=1, max_size=6)).map(
    lambda faces: SimplicialComplex(faces).chain_complex())
moore_spaces = st.builds(moore_space, st.integers(min_value=2, max_value=12),
                         st.integers(min_value=1, max_value=2))
# Cones, suspensions and joins with Moore spaces of a random start.
small_complexes = st.builds(
    lambda base, others: reduce(join, others, base),
    st.one_of(simplex_subcomplexes, moore_spaces),
    st.lists(st.one_of(st.just(POINT), st.just(TWO_POINTS),
                       st.builds(moore_space,
                                 st.integers(min_value=2, max_value=6))),
             max_size=2))


def torsion_count(tors, p):
    return sum(1 for t in tors if t % p == 0)


class TestUniversalCoefficients:
    def test_join_builds_cone_and_suspension(self):
        circle = simplicial_circle()
        assert integral_homology(join(circle, POINT)) == [
            (1, ()), (0, ()), (0, ())]
        assert integral_homology(join(circle, TWO_POINTS)) == [
            (1, ()), (0, ()), (1, ())]

    @given(st.one_of(simplex_subcomplexes, moore_spaces),
           st.one_of(simplex_subcomplexes, moore_spaces))
    @settings(max_examples=30, deadline=None)
    def test_join_complex_matches_join_formula(self, a, b):
        rep = join_homology(a, b)
        pairs = integral_homology(join(a, b))
        for k, (beta, tors) in enumerate(pairs):
            assert rep[k] == GroupReport(beta - (k == 0), tors, Z), k

    @given(small_complexes)
    @settings(max_examples=100, deadline=None)
    def test_field_route_obeys_universal_coefficients(self, c):
        pairs = integral_homology(c)
        assert field_betti(c, Q) == [beta for beta, _ in pairs]
        for report in (homology(c, Q), cohomology(c, Q)):
            for k, (beta, _) in enumerate(pairs):
                assert report[k] == GroupReport(beta, (), Q)
        for p in (2, 3, 5):
            want = [beta + torsion_count(tors, p)
                    + (torsion_count(pairs[k - 1][1], p) if k else 0)
                    for k, (beta, tors) in enumerate(pairs)]
            assert field_betti(c, Zmod(p)) == want, p
            for report in (homology(c, Zmod(p)), cohomology(c, Zmod(p))):
                for k, dim in enumerate(want):
                    assert report[k] == GroupReport(0, (p,) * dim, Zmod(p))


# -- clearing on the field route ---------------------------------------------

FIELDS = ((Q, rank_rational), (Zmod(2), lambda m: rank_mod_p(m, 2)),
          (Zmod(3), lambda m: rank_mod_p(m, 3)))


@st.composite
def simplex_pairs(draw):
    """A random subcomplex of the n-simplex, n <= 5, and a subcomplex of
    it: a skeleton or the full subcomplex on some vertices.  Some faces
    are drawn large, so that three or more degrees interact."""
    n = draw(st.integers(min_value=1, max_value=5))
    vertices = st.integers(0, n)
    faces = draw(st.lists(st.one_of(st.sets(vertices, min_size=1),
                                    st.sets(vertices, min_size=n)),
                          min_size=1, max_size=8))
    x = SimplicialComplex(faces)
    if draw(st.booleans()):
        sub = x.skeleton(draw(st.integers(0, x.dim)))
    else:
        keep = draw(st.sets(st.sampled_from(x.vertices()), min_size=1))
        sub = x.full_subcomplex(keep.__contains__)
    return x, sub


def uncleared_basis(c, k, p):
    """_field_basis without clearing: every k-cycle of the left-to-right
    kernel is offered to the boundary space."""
    space = _boundary_reducer(c, k + 1, p)
    kernel = []
    _boundary_reducer(c, k, p, kernel=kernel)
    reps = []
    for cycle in kernel:
        if space.add(dict(cycle), {len(reps): 1}):
            reps.append(cycle)
    return space, reps


def assert_basis_uncleared(c):
    for p in (None, 2, 3):
        for k in range(c.top + 1):
            space, reps = _field_basis(c, k, p)
            space_0, reps_0 = uncleared_basis(c, k, p)
            assert reps == reps_0, (c, k, p)
            assert space.kept == space_0.kept, (c, k, p)


# Complexes where a column cleared by the pivots of the wrong degree is
# the only one to reach some row, so the rank drops: in about one random
# complex of dimension 3 or more in a hundred.
WRONG_CLEARING_SHOWS = [
    SimplicialComplex([(0, 1, 2, 3, 5), (1, 2, 4, 5)]),
    SimplicialComplex([(2, 3, 5), (2, 3, 4), (0, 1, 2, 3, 5)]),
]


class TestClearing:
    @given(simplex_pairs())
    @example(pair=(WRONG_CLEARING_SHOWS[0], WRONG_CLEARING_SHOWS[0]
                   .skeleton(0)))
    @example(pair=(WRONG_CLEARING_SHOWS[1], WRONG_CLEARING_SHOWS[1]
                   .skeleton(0)))
    @settings(max_examples=60, deadline=None)
    def test_betti_against_dense_oracle(self, pair):
        x, sub = pair
        for c in (x.chain_complex(),
                  quotient_complex(x.chain_complex(), x.indices_of(sub))[0]):
            bnd = dense_boundaries(c)
            for coeff, rank_fn in FIELDS:
                assert field_betti(c, coeff) == betti_oracle(
                    c.ranks, bnd, rank_fn), (c, coeff)

    @given(simplex_pairs())
    @settings(max_examples=40, deadline=None)
    def test_basis_matches_uncleared_on_random_complexes(self, pair):
        x, sub = pair
        assert_basis_uncleared(x.chain_complex())
        assert_basis_uncleared(
            quotient_complex(x.chain_complex(), x.indices_of(sub))[0])

    def test_basis_matches_uncleared_on_constructions(self):
        for p in (2, 3):
            cyl = simplicial.mapping_cylinder(simplicial.degree_map_circle(p))
            assert_basis_uncleared(cyl.complex.chain_complex())
            assert_basis_uncleared(quotient_complex(
                cyl.complex.chain_complex(),
                cyl.complex.indices_of(cyl.domain))[0])
            assert_basis_uncleared(pontryagin_stage(p, 1)[0][-1]
                                   .chain_complex())
        for n in (2, 3, 4):
            model = simplicial.full_simplex(n + 1)
            for group in (Z, Zmod(2), Zmod(3)):
                assert_basis_uncleared(
                    simplicial.ew_skeleton(model, group, n)[0])


# -- field induced maps against a dense oracle -------------------------------

def dense_map(cm, k):
    f = [[0] * cm.source.rank(k) for _ in range(cm.target.rank(k))]
    for j, col in enumerate(cm._cols.get(k, ())):
        for i, v in col:
            f[i][j] = v
    return f


def assert_induced_against_oracle(cm, primes=(None, 2, 3)):
    """Rank and flags of every field induced map of cm, homology and
    cohomology, against the dense rank of [B_k(T) | f(Z_k(S))], over
    those of Q (None), Z/2 and Z/3 that primes names."""
    src, tgt = cm.source, cm.target
    bnd_s, bnd_t = dense_boundaries(src), dense_boundaries(tgt)
    for (coeff, rank_fn), p in zip(FIELDS, (None, 2, 3)):
        if p not in primes:
            continue
        betti_s = betti_oracle(src.ranks, bnd_s, rank_fn)
        betti_t = betti_oracle(tgt.ranks, bnd_t, rank_fn)
        for k in range(src.top + 1):
            d_source = bnd_s.get(k)
            d_target_up = bnd_t.get(k + 1)
            want = induced_rank_oracle(d_source, d_target_up,
                                       dense_map(cm, k), p)
            b_s = betti_s[k]
            b_t = betti_t[k] if k <= tgt.top else 0
            hom = induced_map(cm, k, coeff)
            co = induced_map(cm, k, coeff, cohomology=True)
            assert rank_fn([list(r) for r in hom.matrix]) == want, (k, coeff)
            assert len(hom.matrix) == b_t and len(co.matrix) == b_s
            assert (hom.injective, hom.surjective) == (want == b_s,
                                                       want == b_t)
            assert (co.injective, co.surjective) == (want == b_t,
                                                     want == b_s)


class TestFieldInducedAgainstDenseOracle:
    @given(simplex_pairs(), st.integers(min_value=1, max_value=4),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_simplicial_maps(self, pair, m, rng):
        # The target is the image of x, so it has homology of its own.
        x, _ = pair
        vmap = {v: rng.randint(0, m + 1) for v in x.vertices()}
        y = SimplicialComplex([{vmap[v] for v in s}
                               for s in x.all_simplices()])
        f = simplicial.SimplicialMap(x, y, vmap)
        assert_induced_against_oracle(f.chain_map())

    # Cylinders of graphs: the order complex of anything larger is too
    # big for the dense oracle.
    @given(st.lists(st.sets(st.integers(0, 3), min_size=1, max_size=2),
                    min_size=1, max_size=4),
           st.integers(min_value=0, max_value=1),
           st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_cylinder_retractions(self, faces, m, rng):
        # Onto a point or onto the circle.
        x = SimplicialComplex(faces)
        y = simplicial.circle(3) if m else simplicial.full_simplex(0)
        f = simplicial.SimplicialMap(
            x, y, {v: rng.randint(0, 2 * m) for v in x.vertices()})
        cyl = simplicial.mapping_cylinder(f)
        assert_induced_against_oracle(cyl.retraction.chain_map())

    @pytest.mark.parametrize("p", [2, 3])
    def test_degree_map_cylinders(self, p):
        cyl = simplicial.mapping_cylinder(simplicial.degree_map_circle(p))
        for f in (cyl.map, cyl.retraction):
            assert_induced_against_oracle(f.chain_map())


# -- boundary columns kept as they come --------------------------------------
#
# The field reducer keeps a frozen column as it is when no kept column owns
# its last row; its other entries may vanish mod p, and its lead need not
# be 1.  These complexes have both, against the dense oracles.

def assert_field_route_against_dense(c):
    """field_betti and the _field_basis representatives of c over Q,
    Z/2 and Z/3 against dense ranks: as many as the Betti number,
    cycles, and independent modulo the boundaries."""
    bnd = dense_boundaries(c)
    for (coeff, rank_fn), p in zip(FIELDS, (None, 2, 3)):
        betti = betti_oracle(c.ranks, bnd, rank_fn)
        assert field_betti(c, coeff) == betti, (c, coeff)
        for k in range(c.top + 1):
            _, reps = _field_basis(c, k, p)
            assert len(reps) == betti[k], (c, k, coeff)
            vecs = [[rep.get(j, 0) for j in range(c.rank(k))] for rep in reps]
            for row in bnd.get(k, ()):
                for v in vecs:
                    w = sum(a * b for a, b in zip(row, v))
                    assert (w % p if p else w) == 0, (c, k, coeff)
            up = bnd.get(k + 1)
            stacked = [(list(up[i]) if up else []) + [v[i] for v in vecs]
                       for i in range(c.rank(k))]
            assert rank_fn(stacked) - (rank_fn(up) if up else 0) == len(
                reps), (c, k, coeff)


def rebased(c, steps):
    """c in the basis given by P_k = unimodular(rank_k, steps), so that
    d'_k = P_{k-1}^-1 d_k P_k: returns it with each P_k and inverse."""
    ps = {k: unimodular(n, steps) for k, n in enumerate(c.ranks) if n}
    invs = {k: _int_inverse(m) for k, m in ps.items()}
    new = ChainComplex(c.ranks, {k: mat_mul(invs[k - 1], mat_mul(d, ps[k]))
                                 for k, d in dense_boundaries(c).items()})
    return new, ps, invs


# Multipliers of 2 and 3 make entries that vanish mod 2 or mod 3.
basis_steps = st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30),
                                 st.sampled_from([-6, -3, -2, -1, 1, 2, 3,
                                                  4, 6, 9])),
                       max_size=25)

# A column kept as it came whose other entry vanishes mod p, then one that
# meets its pivot and lacks that row; leads of -1, 2 and 4.
FROZEN_PINS = [
    ChainComplex([2, 2], {1: [[2, 0], [1, 1]]}),
    ChainComplex([2, 2], {1: [[3, 0], [1, 1]]}),
    ChainComplex([1, 2, 1], {1: [[2, 4]], 2: [[2], [-1]]}),
    ChainComplex([2, 3, 1], {1: [[3, 0, 3], [2, 6, -4]],
                             2: [[1], [-1], [-1]]}),
]

# Maps M(Z/m, n) -> M(Z/m2, n) of degree a on the n-cell and b on the top
# cell, where m2 * b = a * m.
MOORE_MAPS = [(2, 4, 2, 1), (4, 2, 1, 2), (6, 3, 1, 2), (3, 6, 2, 1),
              (6, 6, 5, 5), (12, 4, 1, 3), (9, 3, 1, 3)]


class TestFrozenColumns:
    @pytest.mark.parametrize("c", FROZEN_PINS)
    def test_pinned_columns(self, c):
        assert_field_route_against_dense(c)
        ident = {k: [[int(i == j) for j in range(n)] for i in range(n)]
                 for k, n in enumerate(c.ranks)}
        assert_induced_against_oracle(ChainMap(c, c, ident))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [2, 3])
    def test_edwards_walsh_skeleta(self, n, p):
        for model in (simplicial.full_simplex(n + 1),
                      simplicial.boundary_simplex(n + 2)):
            ew, inclusion = simplicial.ew_skeleton(model, Zmod(p), n)
            assert_field_route_against_dense(ew)
            assert_induced_against_oracle(inclusion)

    @pytest.mark.parametrize("n", [1, 2])
    def test_moore_spaces_and_their_maps(self, n):
        for m, m2, a, b in MOORE_MAPS:
            src, tgt = moore_space(m, n), moore_space(m2, n)
            assert_field_route_against_dense(src)
            assert_induced_against_oracle(ChainMap(
                src, tgt, {0: [[1]], n: [[a]], n + 1: [[b]]}))
        assert_field_route_against_dense(direct_sum(
            moore_space(6, n), moore_space(2), moore_space(9, n)))

    @given(simplex_pairs(), st.integers(min_value=1, max_value=3),
           st.randoms(use_true_random=False), basis_steps, basis_steps)
    @settings(max_examples=25, deadline=None)
    def test_rebased_simplicial_maps(self, pair, m, rng, steps_x, steps_y):
        # A simplicial map g between complexes written in other bases,
        # Q_Y^-1 g P_X, and the isomorphism P_X back onto the source.
        x, _ = pair
        vmap = {v: rng.randint(0, m + 1) for v in x.vertices()}
        y = SimplicialComplex([{vmap[v] for v in s}
                               for s in x.all_simplices()])
        g = simplicial.SimplicialMap(x, y, vmap).chain_map()
        cx, px, _ = rebased(g.source, steps_x)
        cy, _, qy = rebased(g.target, steps_y)
        assert_field_route_against_dense(cx)
        assert_induced_against_oracle(ChainMap(cx, g.source, px))
        assert_induced_against_oracle(ChainMap(cx, cy, {
            k: mat_mul(qy[k], mat_mul(dense_map(g, k), px[k]))
            for k in px if k in qy}))


# -- the kept layout -----------------------------------------------------------

def assert_kept_layout(reducer):
    """Every column reducer keeps is laid out as _Reducer says: an index
    names a column claimed in place, whose last entry is its pivot with
    the value 1; any other column's pivot entry times the inverse it
    carries is 1, and its other rows lie below the pivot."""
    p = reducer.p
    for row, owner in reducer.kept.items():
        if isinstance(owner, int):
            assert reducer.columns[owner][-1] == (row, 1), (row, owner)
        else:
            entries, _, inv = owner
            entries = dict(entries)
            lead = entries[row] * inv
            assert (lead % p if p else lead) == 1, (row, owner)
            assert max(entries) == row, (row, owner)


def assert_reducers_laid_out(c):
    for p in (None, 2, 3):
        for k in range(1, c.top + 1):
            assert_kept_layout(_boundary_reducer(c, k, p))
            assert_kept_layout(_boundary_reducer(c, k, p, kernel=[]))
        for k in range(c.top + 1):
            assert_kept_layout(_field_basis(c, k, p)[0])


class TestKeptLayout:
    @pytest.mark.parametrize("c", FROZEN_PINS)
    def test_pinned_columns(self, c):
        # Leads of -1, 2 and 4 and entries that vanish mod 2 or 3.
        assert_reducers_laid_out(c)

    def test_constructions(self):
        for n in (1, 2):
            for m in (2, 4, 6):
                assert_reducers_laid_out(moore_space(m, n))
        for p in (2, 3):
            assert_reducers_laid_out(
                simplicial.ew_skeleton(simplicial.full_simplex(4), Zmod(p),
                                       2)[0])
            assert_reducers_laid_out(
                pontryagin_stage(p, 1)[0][-1].chain_complex())

    @given(wide_faces)
    @settings(max_examples=40, deadline=None)
    def test_wide_complexes(self, draw):
        # Against the dense oracles too.
        _, faces, keep = draw
        x = SimplicialComplex(faces)
        sub = x.full_subcomplex(keep.__contains__)
        for c in (x.chain_complex(),
                  quotient_complex(x.chain_complex(), x.indices_of(sub))[0]):
            assert_reducers_laid_out(c)
            assert_field_route_against_dense(c)


# -- long vectors --------------------------------------------------------------

class TestLongVectors:
    """A vector of more than _HEAP_ROWS rows finds its pivots on a heap.
    The domain end of these cylinders is a circle of 2pk > _HEAP_ROWS
    edges, whose class the inclusion carries into the cylinder, where it
    is reduced against the boundaries of the triangles, picking up rows
    that become pivots later."""

    @pytest.mark.parametrize("p, k", [(2, 13), (3, 9)])
    def test_degree_map_cylinders(self, p, k):
        cyl = simplicial.mapping_cylinder(simplicial.degree_map_circle(p, k))
        inclusion = cyl.domain_inclusion.chain_map()
        for f in (None, 2, 3):
            _, (rep,) = _field_basis(inclusion.source, 1, f)
            assert len(rep) == 2 * p * k > chains._HEAP_ROWS
        # The dense rational oracle takes seconds here; over Q the map
        # on H_1 is the covering's degree p, an iso.
        assert_induced_against_oracle(inclusion, (2, 3))
        assert induced_map(inclusion, 1, Q).matrix in (((p,),), ((-p,),))


# -- field route outputs pinned ----------------------------------------------
#
# SHA-256 of what the field route returns on the constructions: Betti
# numbers, the kept pivot rows and representatives of every homology
# basis, and every homology induced-map report, over Q, Z/p and one
# other Z/q.

def pinned_fields(p):
    q = 3 if p == 2 else 2
    return ((Q, None), (Zmod(p), p), (Zmod(q), q))


def field_record(c, p):
    out = []
    for coeff, f in pinned_fields(p):
        out.append(tuple(field_betti(c, coeff)))
        for k in range(c.top + 1):
            space, reps = _field_basis(c, k, f)
            out.append((sorted(space.kept),
                        [sorted(rep.items()) for rep in reps]))
    return out


def induced_record(cm, p):
    # The cohomology report is the transpose, with the flags swapped.
    out = []
    for coeff, _ in pinned_fields(p):
        for k in range(cm.source.top + 1):
            r = induced_map(cm, k, coeff)
            out.append((r.matrix, r.injective, r.surjective))
    return out


def digest(records):
    return sha256(repr(records).encode()).hexdigest()


FIELD_HASHES = {
    "pontryagin": {
        2: ("0e314820db4d35878e33c552fcfb22e4163186a9c60af46be16dc27c75d74214",
            "9c02d428cdf9149b2eb46ec024ef2c7a8c7089da9ae602cafca29c03ec0473c7",
            "938c48ebd05237ba52370e36b04f211c5ce782f9f4fdcc944abd615fefc3af83"),
        3: ("ac4e88b057a88300d35cbdc223c97fa05b10960f9c8be08705b14371bf5931a2",
            "aadcbca44e558a76fa35fa6c38ac35ebd96cb6bd0637d6f2bfd23560f2bb07e7",
            "bf2422b4d592e0eb6d8db646ed6ced6d4fa9b3d406e613829bfef1032bf6136f"),
        5: ("b718ef372139119ac99957275df24c537eb0cce9b022f9f93ab507031e5064cf",
            "14f3cddd7712145d72557a0ea09383ffad90c17e677eb006ea7858493c9576da",
            "99d7ff00fd7e8d4944884197b1f2f664582bf161213630b3b1d2782423c7b21c"),
    },
    "ew": {
        2: "6bd2e8279aad60c117b8e6d20e4161b1cfa2038a309e938a4636dccb89a5327a",
        3: "15c60e5c69eed39637c0073423a30d265ffcc97aeb077f5842d34fb45f360942",
    },
    "moore": "3098a3e3205105ef43f189a6251a9c0da8d56d8527eaa4a7e8780bfdaa3a62cc",
}


class TestFieldOutputsPinned:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_pontryagin_stages_and_bondings(self, p):
        # L_1 .. L_3, the cones the bondings land in, and both bondings.
        stages, bondings = pontryagin_stage(p, 2)
        assert FIELD_HASHES["pontryagin"][p] == (
            digest([field_record(x.chain_complex(), p) for x in stages]),
            digest([field_record(q.target.chain_complex(), p)
                    for q in bondings]),
            digest([induced_record(q.chain_map(), p) for q in bondings]))

    @pytest.mark.parametrize("p", [2, 3])
    def test_edwards_walsh_skeleta(self, p):
        records = []
        for n in (2, 3):
            for model in (simplicial.full_simplex(n + 1),
                          simplicial.boundary_simplex(n + 2)):
                ew, inclusion = simplicial.ew_skeleton(model, Zmod(p), n)
                records += [field_record(ew, p), induced_record(inclusion, p)]
        assert FIELD_HASHES["ew"][p] == digest(records)

    def test_moore_spaces_and_their_maps(self):
        records = []
        for n in (1, 2):
            for m, m2, a, b in MOORE_MAPS:
                src, tgt = moore_space(m, n), moore_space(m2, n)
                records += [field_record(src, 2), induced_record(ChainMap(
                    src, tgt, {0: [[1]], n: [[a]], n + 1: [[b]]}), 2)]
        assert FIELD_HASHES["moore"] == digest(records)


# -- clearing on the integral route ------------------------------------------

def uncleared_integral(c):
    """integral_homology without clearing: the invariant factors of each
    boundary on their own."""
    inv = {k: _sparse_invariants(cols) for k, cols in c._cols.items()}
    return [(c.rank(k) - len(inv.get(k, ())) - len(inv.get(k + 1, ())),
             tuple(d for d in inv.get(k + 1, ()) if d > 1))
            for k in range(c.top + 1)]


def assert_integral_uncleared(c):
    got = integral_homology(c)
    assert got == uncleared_integral(c), c
    assert [(beta, tuple(sorted(tors))) for beta, tors in got] == \
        integral_homology_oracle(c.ranks, dense_boundaries(c)), c


def direct_sum(*complexes):
    """The chain complex of a disjoint union: block-diagonal boundaries."""
    top = max(c.top for c in complexes)
    ranks = [sum(c.rank(k) for c in complexes) for k in range(top + 1)]
    columns = {k: [] for k in range(1, top + 1)}
    offset = [0] * (top + 1)
    for c in complexes:
        for k in range(1, top + 1):
            columns[k].extend({offset[k - 1] + i: v for i, v in col.items()}
                              for col in c.sparse_boundary(k))
        offset = [o + c.rank(k) for k, o in enumerate(offset)]
    return ChainComplex.from_columns(ranks, columns)


moore_sums = st.lists(moore_spaces, min_size=1, max_size=3).map(
    lambda spaces: direct_sum(*spaces))
integral_families = st.one_of(
    simplex_pairs().map(lambda pair: pair[0].chain_complex()),
    simplex_pairs().map(lambda pair: quotient_complex(
        pair[0].chain_complex(), pair[0].indices_of(pair[1]))[0]),
    moore_sums,
    small_complexes)

# d_2 is zero, so _make drops degree 2: d_3's pivot rows index C_2 and
# must not clear the columns of d_1, which index C_1.
MISSING_DEGREE = ChainComplex([1, 1, 1, 1], {1: [[1]], 3: [[1]]})


class TestIntegralClearing:
    @given(integral_families)
    @example(c=MISSING_DEGREE)
    @example(c=direct_sum(moore_space(2), moore_space(2)))
    @example(c=WRONG_CLEARING_SHOWS[0].chain_complex())
    @settings(max_examples=120, deadline=None)
    def test_matches_uncleared_and_sympy(self, c):
        assert_integral_uncleared(c)

    def test_missing_degree_clears_nothing(self):
        assert integral_homology(MISSING_DEGREE) == [
            (0, ()), (0, ()), (0, ()), (0, ())]

    @pytest.mark.parametrize("p", [2, 3])
    def test_cylinder_pairs(self, p):
        cyl = simplicial.mapping_cylinder(simplicial.degree_map_circle(p))
        x = cyl.complex.chain_complex()
        assert_integral_uncleared(x)
        assert_integral_uncleared(
            quotient_complex(x, cyl.complex.indices_of(cyl.domain))[0])

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("group", [Z, Zmod(2), Zmod(3)])
    def test_edwards_walsh_skeleta(self, n, group):
        for model in (simplicial.full_simplex(n + 1),
                      simplicial.boundary_simplex(n + 2)):
            assert_integral_uncleared(
                simplicial.ew_skeleton(model, group, n)[0])

    def test_pontryagin_stages_match_uncleared(self):
        for p in (2, 3, 5):
            stage = pontryagin_stage(p, 1)[0][-1].chain_complex()
            assert integral_homology(stage) == uncleared_integral(stage), p

    def test_wide_core_keeps_every_factor(self):
        # Two unit-free columns: a gcd would merge their factors.
        assert _sparse_invariants([((0, 2),), ((1, 2),)]) == [2, 2]
        assert _sparse_invariants([((0, 2), (1, 4)), ((0, 6),)]) == [2, 12]
        assert _sparse_invariants([((0, -4), (2, 6))]) == [2]

    def test_reports_unit_pivot_rows(self):
        pivots = set()
        inv = _sparse_invariants([((0, 1), (1, -1)), ((1, 2),), ((2, 3),)],
                                 cleared={2}, pivots=pivots)
        assert inv == [1, 2]
        assert len(pivots) == 1 and pivots <= {0, 1}


@st.composite
def prime_power_data(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    orders = st.builds(lambda u, e: u * p ** e, st.integers(1, 40),
                       st.integers(0, 9))
    return (p, draw(st.integers(1, 6)), draw(st.integers(0, 3)),
            draw(st.lists(orders, max_size=4)),
            draw(st.lists(orders, max_size=4)))


class TestPrimePowerCoefficients:
    @given(prime_power_data(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_orders_match_gcd_formula(self, data, dual):
        p, k, beta, tors, below = data
        m = p ** k
        want = [m] * beta + [gcd(t, m) for t in tors + below]
        got = _convert((beta, tuple(tors)), (0, tuple(below)), Zmod(p, k),
                       dual)
        assert got == GroupReport(0, want, Zmod(p, k))


def test_moore_space_refuses_a_bool_dimension():
    with pytest.raises(ValueError) as err:
        moore_space(2, True)
    assert str(err.value) == "Moore space needs n >= 1: True"
