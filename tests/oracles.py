"""Independent oracles and frozen values for the test suite.

Everything here is computed by hand or by a deliberately different
algorithm than the library uses: the Bockstein inequalities are
transcribed literally, homology ranks come from dense Gaussian
elimination, and integer normal forms come from sympy.  Frozen tables
hold the published values the implementation must reproduce.
"""

from fractions import Fraction

from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form


# -- Bockstein inequalities, transcribed one by one --------------------------

def bi_ok_brute(q, l, z, i):
    """(q, l, z, i) = (phi(Q), phi(Z_(p)), phi(Z_p), phi(Z_p^inf))."""
    if not i <= z:                 # BI1
        return False
    if not z <= i + 1:             # BI2
        return False
    if not z <= l:                 # BI3
        return False
    if not q <= l:                 # BI4
        return False
    if not l <= max(q, i + 1):     # BI5
        return False
    if not i <= max(q, l - 1):     # BI6
        return False
    return True


def valid_quadruples(bound):
    """All BI-valid slot quadruples with entries in [1, bound]."""
    rng = range(1, bound + 1)
    return [(q, l, z, i)
            for q in rng for l in rng for z in rng for i in rng
            if bi_ok_brute(q, l, z, i)]


def standard_count(primes, bound):
    """Independent census of the standard finite universe."""
    per_v0 = {}
    for v0 in range(1, bound + 1):
        per_v0[v0] = sum(1 for (q, l, z, i) in valid_quadruples(bound)
                         if q == v0)
    return sum(count ** len(primes) for count in per_v0.values())


def extended_count(primes, bound):
    vals = 2 * bound + 1
    per_size = {k: (2 ** k) * (vals ** k) for k in range(len(primes) + 1)}
    from math import comb
    subsets = sum(comb(len(primes), k) * per_size[k]
                  for k in range(len(primes) + 1))
    return vals * subsets


# -- frozen dimension tables --------------------------------------------------

# Row order Q, Z_(p), Z_p, Z_p^inf; columns Z_(p), Z_p, Z_p^inf, Q,
# then the same three at a second prime q != p.
def fig1_row(kind, n):
    if kind == "Q":
        return (n, 1, 1, n, n, 1, 1)
    if kind == "Zloc":
        return (n, n, n, n, n, 1, 1)
    if kind == "Zp":
        return (n, n, n - 1, 1, 1, 1, 1)
    if kind == "ZpInf":
        return (n, n - 1, n - 1, 1, 1, 1, 1)
    raise KeyError(kind)


def fig2_row(kind, n, m):
    """Product-norm table row: the level-m row values plus n."""
    return tuple(v + n for v in fig1_row(kind, m))


# Three product cells pinned directly to the published examples,
# as ((row kind at m), (column kind at n)) -> value.
def pinned_product_cells(n, m):
    return {
        ("Q", "Zp"): n + 1,
        ("ZpInf", "Zp"): m + n - 1,
        ("Zp", "Zloc"): m + n,
    }


ROW_KINDS = ("Q", "Zloc", "Zp", "ZpInf")

# Column j of the seven-column layout: (kind, own prime?).
SEVEN_COLUMNS = (("Zloc", True), ("Zp", True), ("ZpInf", True),
                 ("Q", True), ("Zloc", False), ("Zp", False),
                 ("ZpInf", False))


# -- frozen named values ------------------------------------------------------

# The 2-dimensional surface type for the prime p: phi = (2, 2, 1, 1) at
# p in the slot order of bi_ok_brute, all ones elsewhere.
def pi_type_values(n=2):
    """Seven-column dim values of the generalized surface type of
    norm n (n = 2 is the classical one, n = 4 the M_p case)."""
    return (n, n, n - 1, n - 1, n - 1, n - 1, n - 1)


PI_SUM_DISTINCT = 3     # ||Pi_2 [+] Pi_3||
M_SUM_DISTINCT = 7      # ||M_2 [+] M_3||
PI_SUM_SAME = 4         # ||Pi_p [+] Pi_p||
PI_SUM_SAME_ZPINF = 3   # dim_{Z_p^inf} of Pi_p [+] Pi_p


# -- frozen homology values ---------------------------------------------------

def mp_pair_integral(p):
    """H_*(M_p, boundary circle; Z) as (free rank, torsion orders)."""
    return {0: (0, ()), 1: (0, (p,)), 2: (0, ())}


def pontryagin_integral(f_vector, p):
    """H_0..H_2(L_{j+1}; Z) as (free rank, torsion orders), in closed
    form from the f-vector of the stage L_j before it (j >= 1).

    Each triangle of L_j becomes a cylinder of the p-fold circle
    covering, glued along its subdivided boundary, so beta_1 is the
    cycle rank f_1 - f_0 + 1 of L_j's 1-skeleton, and the relations
    leave one Z/p.
    """
    f0, f1 = f_vector[0], f_vector[1]
    return [(1, ()), (f1 - f0 + 1, (p,)), (0, ())]


# Reduced homology of M(Z/a,1) * M(Z/b,1) in degrees 0..5 as a function
# of g = gcd(a, b).
def join_expect(g):
    trivial = (0, ())
    cyc = (0, (g,)) if g > 1 else trivial
    return {0: trivial, 1: trivial, 2: trivial, 3: cyc, 4: cyc, 5: trivial}


# -- independent linear algebra ----------------------------------------------

def _dense_rank(rows, sub, mul, inv, is_zero):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for c in range(cols):
        pivot = next((r for r in range(pivot_row, len(rows))
                      if not is_zero(rows[r][c])), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv_p = inv(rows[pivot_row][c])
        rows[pivot_row] = [mul(inv_p, v) for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and not is_zero(rows[r][c]):
                factor = rows[r][c]
                rows[r] = [sub(a, mul(factor, b))
                           for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank


def rank_mod_p(matrix, p):
    """Rank of an integer matrix over the prime field F_p, dense."""
    if not matrix or not matrix[0]:
        return 0
    return _dense_rank(
        [[v % p for v in row] for row in matrix],
        sub=lambda a, b: (a - b) % p,
        mul=lambda a, b: (a * b) % p,
        inv=lambda a: pow(a, p - 2, p),
        is_zero=lambda a: a % p == 0,
    )


def rank_rational(matrix):
    """Rank of an integer matrix over Q, dense fractions."""
    if not matrix or not matrix[0]:
        return 0
    return _dense_rank(
        [[Fraction(v) for v in row] for row in matrix],
        sub=lambda a, b: a - b,
        mul=lambda a, b: Fraction(a) * b,
        inv=lambda a: 1 / Fraction(a),
        is_zero=lambda a: a == 0,
    )


def betti_oracle(complex_ranks, boundaries, rank_fn):
    """Betti numbers over a field from dense boundary matrices.

    boundaries[k] maps degree-k chains down; a missing or empty matrix
    means the zero map.
    """
    out = []
    for k, rk in enumerate(complex_ranks):
        dk = boundaries.get(k)
        dk1 = boundaries.get(k + 1)
        r_k = rank_fn(dk) if dk else 0
        r_k1 = rank_fn(dk1) if dk1 else 0
        out.append(rk - r_k - r_k1)
    return out


def smith_invariants(matrix):
    """Nontrivial invariant factors of an integer matrix, via sympy."""
    if not matrix or not matrix[0]:
        return []
    m = smith_normal_form(Matrix(matrix))
    diag = [abs(m[i, i]) for i in range(min(m.rows, m.cols))]
    return [int(d) for d in diag if d not in (0, 1)]


def _int_inverse(m):
    """Exact inverse of a unimodular integer matrix: the Smith normal
    form gives u * m * v = I, so the inverse is v * u."""
    from bockstein.chains import snf

    n = len(m)
    inv, u, v = snf(m)
    if inv != [1] * n:
        raise ValueError("matrix is not unimodular")
    return [[sum(v[i][t] * u[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]


def integral_homology_oracle(complex_ranks, boundaries):
    """(free rank, torsion orders) per degree, from sympy normal forms."""
    out = []
    for k, rk in enumerate(complex_ranks):
        dk = boundaries.get(k)
        dk1 = boundaries.get(k + 1)
        rank_k = rank_rational(dk) if dk else 0
        rank_k1 = rank_rational(dk1) if dk1 else 0
        torsion = smith_invariants(dk1) if dk1 else []
        out.append((rk - rank_k - rank_k1, tuple(sorted(torsion))))
    return out


def kernel_basis(matrix, cols, p):
    """A basis of the null space of an integer matrix with cols columns,
    over Q (p None) or F_p, by dense Gauss-Jordan elimination."""
    if p is None:
        rows = [[Fraction(v) for v in row] for row in matrix]
        norm = Fraction
        inv = lambda a: 1 / a
    else:
        rows = [[v % p for v in row] for row in matrix]
        norm = lambda a: a % p
        inv = lambda a: pow(a, p - 2, p)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = inv(rows[r][c])
        rows[r] = [norm(scale * v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [norm(a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = norm(-rows[r][free])
        basis.append(v)
    return basis


def induced_rank_oracle(d_source, d_target_up, f, p):
    """Rank of the map H_k(S) -> H_k(T) that a chain map induces over Q
    (p None) or F_p: rank([B_k(T) | f(Z_k(S))]) - rank(B_k(T)).

    f is the dense degree-k matrix (rows: k-cells of T, columns: k-cells
    of S); d_source is d_k of S and d_target_up is d_{k+1} of T, dense,
    with None for a zero map."""
    rows, cols = len(f), len(f[0]) if f else 0
    if d_source:
        cycles = kernel_basis(d_source, cols, p)
    else:
        cycles = [[int(i == j) for i in range(cols)] for j in range(cols)]
    images = [[sum(a * z for a, z in zip(row, cycle)) for row in f]
              for cycle in cycles]
    bounds = [list(row) for row in d_target_up] if d_target_up else (
        [[] for _ in range(rows)])
    stacked = [b + [image[i] for image in images]
               for i, b in enumerate(bounds)]
    rank = rank_rational if p is None else (lambda m: rank_mod_p(m, p))
    return rank(stacked) - (rank(d_target_up) if d_target_up else 0)


# -- Pontryagin stages by labels ---------------------------------------------

def _subdivided_cycle(tri, p):
    """The 6p-gon boundary of a triangle whose edges carry 2p - 1
    interior points each, as flat labels: ('o', i) at a corner and
    ('e', u, v, i) on the edge u < v, i steps from u."""
    a, b, c = tri
    cyc = [("o", a)]
    cyc.extend(("e", a, b, i) for i in range(1, 2 * p))
    cyc.append(("o", b))
    cyc.extend(("e", b, c, i) for i in range(1, 2 * p))
    cyc.append(("o", c))
    cyc.extend(("e", a, c, i) for i in range(2 * p - 1, 0, -1))
    return cyc


def replace_triangles_by_labels(l, p):
    """One Pontryagin stage built from labels alone: the reference for
    the library's index-native builder.  Returns (next stage, cone
    retriangulation of l, bonding map), every complex collected closed
    under faces and sorted by the generic trusted constructor, and the
    bonding given by its vertex map to the public constructor, which
    checks that it carries simplices to simplices.

    Every 2-simplex of l becomes a copy of the mapping cylinder of the
    p-fold circle covering, glued along the subdivided boundary.  A new
    vertex is named by the positions, in l.simplices(0), of the vertices
    of l it comes from: ('o', i), ('e', i, j, t), ('c', i, j, k) followed
    by the covered circle's simplex, and the cone apex ('a', i, j, k).
    """
    from operator import itemgetter

    from bockstein.simplicial import (
        SimplicialComplex, SimplicialMap, degree_map_circle,
        mapping_cylinder)

    cyl = mapping_cylinder(degree_map_circle(p, 3))
    corners = cyl.complex.vertices()
    interiors = [m for m, (side, _) in enumerate(corners) if side == "L"]

    def relabel(tri, cyc):
        out = []
        for side, s in corners:
            if side == "L":
                out.append(("c",) + tri + s)
            elif len(s) == 1:
                out.append(cyc[2 * s[0]])
            else:
                i, j = s
                out.append(cyc[2 * i + 1 if j == i + 1 else 2 * j + 1])
        return out

    where = {v: m for m, v in enumerate(corners)}
    template = relabel((0, 1, 2), _subdivided_cycle((0, 1, 2), p))
    pick = [itemgetter(*sorted([where[v] for v in s],
                               key=template.__getitem__))
            for s in cyl.complex.all_simplices() if len(s) > 1]
    pos = {v: i for i, (v,) in enumerate(l.simplices(0))}
    bonding = {("o", i): ("o", i) for i in range(len(pos))}
    shared = set()
    for (u, v) in l.simplices(1):
        u, v = pos[u], pos[v]
        path = [("o", u)]
        path.extend(("e", u, v, i) for i in range(1, 2 * p))
        path.append(("o", v))
        shared.update((x, y) if x < y else (y, x)
                      for x, y in zip(path, path[1:]))
        for x in path[1:-1]:
            bonding[x] = x
    shared.update((x,) for x in bonding)
    simplices = set(shared)
    cone_simplices = set(shared)
    for tri in l.simplices(2):
        tri = (pos[tri[0]], pos[tri[1]], pos[tri[2]])
        cyc = _subdivided_cycle(tri, p)
        labels = relabel(tri, cyc)
        simplices.update((x,) for x in labels)
        simplices.update([g(labels) for g in pick])
        apex = ("a",) + tri
        cone_simplices.add((apex,))
        for m in range(6 * p):
            x, y = cyc[m], cyc[(m + 1) % (6 * p)]
            cone_simplices.add((apex, x))
            cone_simplices.add((apex, x, y) if x < y else (apex, y, x))
        for m in interiors:
            bonding[labels[m]] = apex
    nxt = SimplicialComplex._make(simplices)
    cone = SimplicialComplex._make(cone_simplices)
    return nxt, cone, SimplicialMap(nxt, cone, bonding)


def one_triangle_by_labels(p):
    """The one-triangle template of the library's Pontryagin stages,
    built through the public constructor and label lookups: the
    reference for simplicial._one_triangle, which emits the same blocks,
    suffixes and bonding picks from the layout alone.  See that function
    for the layout; here the stage and the cone are closed under faces
    and sorted by SimplicialComplex(...), and each block column is read
    off a label index of their simplices, made here."""
    from operator import itemgetter

    from bockstein.simplicial import SimplicialComplex

    suffixes = [(0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]
    c = {s: v for v, s in enumerate(suffixes)}
    m = 2 * p - 1
    o = 6 + 3 * m
    e01, e02, e12 = (list(range(6 + t * m, 6 + t * m + m)) for t in range(3))
    ring = [o] + e01 + [o + 1] + e12 + [o + 2] + e02[::-1] + [o]
    triangles = []
    for i in range(3 * p):
        a, b = i % 3, (i + 1) % 3
        v, e, w = ring[2 * i:2 * i + 3]
        edge = c[(min(a, b), max(a, b))]
        triangles += [(edge, v, e), (edge, e, w)]
        triangles += [(c[(a,)], c[(min(a, x), max(a, x))], v)
                      for x in range(3) if x != a]
    stage = SimplicialComplex(triangles)
    apex = 0
    cone = SimplicialComplex([(apex, x, y) for x, y in zip(ring, ring[1:])])

    def blocks(x, head):
        own = set(x.vertices()[:head])
        index = {s: j for k in range(x.dim + 1)
                 for j, s in enumerate(x.simplices(k))}
        out = []
        for k in range(x.dim + 1):
            size = sum(s[0] in own for s in x.simplices(k))
            below = len(x.simplices(k - 1))
            out.append((size, [itemgetter(*[
                index[s[:i] + s[i + 1:]] + (below if i % 2 else 0)
                for i in range(len(s) - 1, -1, -1)])
                for s in x.simplices(k)[:size]] if k else []))
        return out

    both = (blocks(stage, 6), blocks(cone, 1))
    picks = []
    for k, ((bs, _), (bc, _)) in enumerate(zip(*both)):
        row = {s: r for r, s in enumerate(cone.simplices(k)[:bc])}
        picks.append(itemgetter(*[bc if len(s) > 1 and s[1] < 6
                                  else row[(apex,) + s[1:]]
                                  for s in stage.simplices(k)[:bs]]))
    return both, suffixes, picks


# -- Edwards-Walsh skeleta by labels -----------------------------------------

def ew_skeleton_by_labels(k_complex, group, n):
    """The Edwards-Walsh modification of the n-skeleton over Z or Z/p,
    built from labels: the reference for the library's ew_skeleton,
    which reads the complex's chain complex instead.  The n-skeleton is
    collected by its labels and closed and sorted anew by the public
    constructor, and each (n+1)-simplex is attached, for Z/p, along the
    boundary that its faces' labels give, times p.  Returns the chain
    complex and the inclusion of the skeleton's chains."""
    from bockstein.chains import ChainComplex, ChainMap
    from bockstein.groups import Z
    from bockstein.simplicial import SimplicialComplex

    skel = SimplicialComplex([s for k in range(n + 1)
                              for s in k_complex.simplices(k)])
    base = skel.chain_complex()
    ident = {k: tuple(((j, 1),) for j in range(base.rank(k)))
             for k in range(base.top + 1)}
    if group is Z:
        return base, ChainMap._make(base, base, ident)
    tops = k_complex.simplices(n + 1)
    ranks = tuple(base.rank(k) for k in range(n + 1)) + (len(tops),)
    index = {s: j for k in range(n + 1)
             for j, s in enumerate(skel.simplices(k))}
    attach = tuple(tuple([(index[s[:i] + s[i + 1:]], (-1) ** i * group.p)
                          for i in range(len(s) - 1, -1, -1)])
                   for s in tops)
    ew = ChainComplex._make(ranks, {**base._cols, n + 1: attach})
    return ew, ChainMap._make(base, ew, ident)
