"""Exact homology of finite chain complexes over Z.

Two independent routes compute homology.  The integral route needs
only the invariant factors of each boundary: it eliminates the +-1
pivots of the sparse columns one by one, each a factor 1.  The core
left over is a single column on the Pontryagin stages, cylinders and
skeleta, and gives the gcd of its entries; a wider core goes to a
hand-rolled dense Smith normal form.  Both routes clear (Chen &
Kerber's twist): they run from the top degree down, and each pivot row
of d_{k+1} names a column of d_k that the reduction of d_k skips.  Over
a field that column would reduce to zero; over Z it is an integer
combination of the columns kept, so the image lattice does not change.
Z/p^k (k > 1) and the Pruefer group Z(p^inf) are derived from the
integral answer through universal coefficients.  Integral induced maps
take two dense Smith forms per complex, of d_k and of d_{k+1} written in
cycle coordinates; each keeps its transforms and their exact inverses.
The field route (Q and Z/p) is one sparse column reducer over a field
given by p: None for Q, else the prime.  A boundary column whose pivot
entry is 1 and whose pivot row no kept column owns, as most simplicial
boundary columns are, is claimed in place: the reducer keeps its index
and nothing else.  Any other column is copied and reduced, and carries
the inverse of its pivot entry, so the elimination never divides.  The
pivots met in one reduction strictly decrease, so a long vector walks
them down a heap of its rows instead of scanning for the max at every
step.  The reducer supplies Betti numbers, homology bases and induced
maps, and stays exact and fast on complexes far too large for dense
elimination.

Boundary and chain-map matrices are stored as frozen sparse columns:
tuples of (row, value) pairs, rows ascending, zeros dropped.  Chain
data is validated once, at the public constructors (ChainComplex(...),
ChainComplex.from_columns, ChainMap(...), ChainMap.from_columns).
Complexes and maps the library derives itself (simplicial chains,
Edwards-Walsh skeleta, quotients) are built by the trusted _make
constructors and read by both routes as they are.  Dense views are
plain lists of int rows.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .groups import Q as Q_GROUP
from .groups import Z as Z_GROUP
from .groups import Zmod, ZpInf

__all__ = [
    "ChainComplex",
    "ChainMap",
    "GroupReport",
    "HomologyReport",
    "InducedMapReport",
    "cohomology",
    "field_betti",
    "homology",
    "induced_map",
    "integral_homology",
    "join_homology",
    "moore_space",
    "quotient_complex",
    "snf",
]


# -- integer matrices (dense helpers) ---------------------------------------

def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _snf_shaped(mat, rows, cols):
    """Smith normal form with transforms: returns (invariants, u, v,
    u_inv, v_inv).

    u (rows x rows) and v (cols x cols) are unimodular with
    u * mat * v = diag(invariants, then zeros); the invariants are
    positive and each divides the next.  u_inv and v_inv are their exact
    inverses, kept by undoing each step on the other side: a row step on
    u is a column step on u_inv, and a column step on v a row step on
    v_inv.  u_inv is built by columns, so that both are row steps here.
    """
    a = [list(map(int, row)) for row in mat]
    u = _identity(rows)
    v = _identity(cols)
    u_inv_cols = _identity(rows)
    v_inv = _identity(cols)

    def add(dst, src, q):
        """dst += q * src, walking only the nonzero entries of src."""
        for j, x in enumerate(src):
            if x:
                dst[j] += q * x

    def row_add(i, t, q):
        add(a[i], a[t], q)
        add(u[i], u[t], q)
        add(u_inv_cols[t], u_inv_cols[i], -q)

    def col_add(j, t, q):
        # Column t's entries are one per row: skip the rows where it is 0.
        for m in (a, v):
            for line in m:
                x = line[t]
                if x:
                    line[j] += q * x
        add(v_inv[t], v_inv[j], -q)

    def row_swap(i, t):
        a[i], a[t] = a[t], a[i]
        u[i], u[t] = u[t], u[i]
        u_inv_cols[i], u_inv_cols[t] = u_inv_cols[t], u_inv_cols[i]

    def col_swap(j, t):
        for i in range(rows):
            a[i][j], a[i][t] = a[i][t], a[i][j]
        for i in range(cols):
            v[i][j], v[i][t] = v[i][t], v[i][j]
        v_inv[j], v_inv[t] = v_inv[t], v_inv[j]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        u_inv_cols[i] = [-x for x in u_inv_cols[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # Smallest nonzero entry of the remaining block becomes the pivot.
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
            if best == 1:
                # No entry is smaller: the rest cannot change the pivot.
                break
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        if a[t][t] < 0:
            row_negate(t)
        d = a[t][t]
        rest = False
        for i in range(t + 1, rows):
            if a[i][t]:
                row_add(i, t, -(a[i][t] // d))
                rest = rest or a[i][t] != 0
        for j in range(t + 1, cols):
            if a[t][j]:
                col_add(j, t, -(a[t][j] // d))
                rest = rest or a[t][j] != 0
        if rest:
            # A remainder is smaller than the pivot: pick the smallest
            # entry again.  Carrying on with the remainder's row or
            # column as the pivot instead lets entries grow without
            # bound (thousands of digits on 7 x 7 matrices).
            continue
        bad = None
        if d > 1:
            # A unit pivot divides every entry: only a larger one is checked.
            for i in range(t + 1, rows):
                if any(a[i][j] % d for j in range(t + 1, cols)):
                    bad = i
                    break
        if bad is not None:
            # Divisibility repair: fold the offending row into row t.
            row_add(t, bad, 1)
            continue
        t += 1

    invariants = [a[i][i] for i in range(min(rows, cols)) if a[i][i]]
    return invariants, u, v, [list(r) for r in zip(*u_inv_cols)], v_inv


def snf(mat):
    """Smith normal form of an integer matrix: (invariants, u, v).

    >>> snf([[2]])[0]
    [2]
    >>> snf([[1, 0], [0, 0]])[0]
    [1]
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    return _snf_shaped(mat, rows, cols)[:3]


# -- sparse column plumbing --------------------------------------------------
#
# A frozen column is a tuple of (row, value) pairs, rows ascending, zeros
# dropped; a frozen matrix is a tuple of frozen columns.

def _freeze_column(col, rows, where):
    out = []
    for i, v in sorted(col.items()):
        v = int(v)
        if not 0 <= i < rows:
            raise ValueError(f"row index {i} out of range in {where}")
        if v:
            out.append((i, v))
    return tuple(out)


def _columns_from_dense(mat, rows, cols, where):
    if len(mat) != rows or any(len(r) != cols for r in mat):
        raise ValueError(f"{where} must be {rows} x {cols}")
    return [{i: row[j] for i, row in enumerate(mat) if row[j]}
            for j in range(cols)]


def _dense_from_columns(columns, rows, cols):
    mat = [[0] * cols for _ in range(rows)]
    for j, col in enumerate(columns):
        for i, v in col:
            mat[i][j] = v
    return mat


def _zero_columns(n):
    return ((),) * n


def _nonzero_degrees(columns):
    return {k: cols for k, cols in columns.items() if any(cols)}


def _restrict(cols, keep_cols, keep_rows):
    """The columns keep_cols of a frozen matrix, cut down to the rows in
    keep_rows (a dict from old to new row, increasing) and renumbered."""
    return tuple([tuple([(keep_rows[i], v) for i, v in cols[j]
                         if i in keep_rows]) for j in keep_cols])


def _sparse_compose(cols_low, col):
    """Apply a sparsely stored matrix to one sparse column (ints)."""
    acc = {}
    for i, v in col:
        for i2, v2 in cols_low[i]:
            w = acc.get(i2, 0) + v * v2
            if w:
                acc[i2] = w
            else:
                del acc[i2]
    return acc


# -- chain complexes ---------------------------------------------------------

class ChainComplex:
    """Finitely generated free chain complex over Z.

    ranks[k] is the rank in degree k.  Boundaries map degree k to the
    matrix of C_k -> C_{k-1} (ranks[k-1] rows, ranks[k] columns); they
    are stored as frozen columns and missing degrees are zero.  The
    public constructors check the data, the square-zero identity
    included; complexes the library derives are built by _make.
    """

    __slots__ = ("ranks", "_cols")

    def __init__(self, ranks, boundaries=None):
        self._set_ranks(ranks)
        self._fill((k, _columns_from_dense(mat, self.rank(k - 1),
                                           self.rank(k), f"boundary {k}"))
                   for k, mat in (boundaries or {}).items())

    @classmethod
    def from_columns(cls, ranks, columns):
        """Build from sparse data: columns[k] lists, per basis element
        of degree k, a dict from row index to integer coefficient."""
        c = cls.__new__(cls)
        c._set_ranks(ranks)
        c._fill(columns.items())
        return c

    @classmethod
    def _make(cls, ranks, columns):
        """Trusted constructor: ranks is a tuple of nonnegative ints and
        columns[k] a frozen matrix of the right shape with square zero.
        Nothing is checked; degrees with all columns empty are dropped."""
        c = cls.__new__(cls)
        c.ranks = ranks
        c._cols = _nonzero_degrees(columns)
        return c

    def _set_ranks(self, ranks):
        self.ranks = tuple(int(r) for r in ranks)
        if not self.ranks or any(r < 0 for r in self.ranks):
            raise ValueError("ranks must be a nonempty list of nonnegatives")

    def _fill(self, items):
        columns = {}
        for k, cols in items:
            cols = list(cols)
            if len(cols) != self.rank(k):
                raise ValueError(f"boundary {k} needs {self.rank(k)} columns")
            columns[k] = tuple(_freeze_column(col, self.rank(k - 1),
                                              f"boundary {k}")
                               for col in cols)
            if not 1 <= k <= self.top:
                raise ValueError(f"boundary degree {k} out of range")
        self._cols = _nonzero_degrees(columns)
        for k in range(2, self.top + 1):
            if k in self._cols and (k - 1) in self._cols:
                below = self._cols[k - 1]
                for j, col in enumerate(self._cols[k]):
                    if _sparse_compose(below, col):
                        raise ValueError(
                            f"boundary squared is nonzero at degree {k}, "
                            f"column {j}")

    @property
    def top(self):
        return len(self.ranks) - 1

    def rank(self, k):
        if 0 <= k <= self.top:
            return self.ranks[k]
        return 0

    def _columns(self, k):
        return self._cols.get(k) or _zero_columns(self.rank(k))

    def sparse_boundary(self, k):
        """Columns of the boundary C_k -> C_{k-1} as fresh dicts."""
        return [dict(col) for col in self._columns(k)]

    def boundary(self, k):
        """Dense view of the boundary matrix (mutable rows)."""
        return _dense_from_columns(self._cols.get(k, ()), self.rank(k - 1),
                                   self.rank(k))

    def euler(self):
        return sum((-1) ** k * r for k, r in enumerate(self.ranks))

    def __repr__(self):
        return f"ChainComplex(ranks={self.ranks!r})"


def quotient_complex(c: ChainComplex, sub):
    """Quotient of c by a sub chain complex given as index sets.

    sub maps degree -> indices spanning the sub in that degree.  Raises
    if the span is not boundary-closed.  Returns (quotient, kept) where
    kept[k] maps each surviving index of degree k to its new index, in
    order.
    """
    inside = {}
    for k, idx in sub.items():
        chosen = sorted(set(idx))
        if chosen and (chosen[0] < 0 or chosen[-1] >= c.rank(k)):
            raise ValueError(f"sub index out of range in degree {k}")
        inside[k] = set(chosen)
    kept = {}
    for k in range(c.top + 1):
        drop = inside.get(k, ())
        kept[k] = {i: n for n, i in enumerate(
            [i for i in range(c.rank(k)) if i not in drop])}
    for k in sorted(c._cols):
        if any(_restrict(c._cols[k], inside.get(k, ()), kept[k - 1])):
            raise ValueError(
                f"not a subcomplex: boundary leaks in degree {k}")
    columns = {k: _restrict(cols, kept[k], kept[k - 1])
               for k, cols in c._cols.items()}
    ranks = tuple(len(kept[k]) for k in range(c.top + 1))
    return ChainComplex._make(ranks, columns), kept


class ChainMap:
    """A degree-preserving map of chain complexes.  The degree-k matrix
    has target.rank(k) rows and source.rank(k) columns; missing degrees
    are zero.  The public constructors check that it commutes with the
    boundaries; maps the library derives are built by _make.
    """

    __slots__ = ("source", "target", "_cols")

    def __init__(self, source, target, matrices):
        self._fill(source, target,
                   ((k, _columns_from_dense(mat, target.rank(k),
                                            source.rank(k), f"degree {k}"))
                    for k, mat in matrices.items()))

    @classmethod
    def from_columns(cls, source, target, columns):
        cm = cls.__new__(cls)
        cm._fill(source, target, columns.items())
        return cm

    @classmethod
    def _make(cls, source, target, columns):
        """Trusted constructor: columns[k] is a frozen matrix of the
        right shape that commutes with the boundaries.  Nothing is
        checked; degrees with all columns empty are dropped."""
        cm = cls.__new__(cls)
        cm.source = source
        cm.target = target
        cm._cols = _nonzero_degrees(columns)
        return cm

    def _fill(self, source, target, items):
        self.source = source
        self.target = target
        columns = {}
        for k, cols in items:
            cols = list(cols)
            if len(cols) != source.rank(k):
                raise ValueError(
                    f"degree {k} needs {source.rank(k)} columns")
            columns[k] = tuple(_freeze_column(col, target.rank(k),
                                              f"degree {k}")
                               for col in cols)
        self._cols = _nonzero_degrees(columns)
        for k in range(1, max(source.top, target.top) + 1):
            f_here = self._cols.get(k) or _zero_columns(source.rank(k))
            f_below = self._cols.get(k - 1) or _zero_columns(
                source.rank(k - 1))
            d_src, d_tgt = source._columns(k), target._columns(k)
            for j in range(source.rank(k)):
                lhs = _sparse_compose(f_below, d_src[j])
                rhs = _sparse_compose(d_tgt, f_here[j])
                if lhs != rhs:
                    raise ValueError(
                        f"chain map does not commute in degree {k}")

    def quotient(self, sub_source, sub_target):
        """The induced map of quotient complexes (map of pairs)."""
        qs, kept_s = quotient_complex(self.source, sub_source)
        qt, kept_t = quotient_complex(self.target, sub_target)
        columns = {}
        for k in sorted(self._cols):
            cols = self._cols[k]
            if any(_restrict(cols, sub_source.get(k, ()), kept_t[k])):
                raise ValueError(
                    f"map does not send the subcomplex into the "
                    f"subcomplex in degree {k}")
            columns[k] = _restrict(cols, kept_s[k], kept_t[k])
        return ChainMap._make(qs, qt, columns)

    def __repr__(self):
        return f"ChainMap({self.source!r} -> {self.target!r})"


# -- integral homology and coefficient conversion ----------------------------

def _sparse_invariants(columns, cleared=(), pivots=None):
    """The invariant factors snf lists for a matrix given by sparse
    columns of (row, value) pairs, without its transforms.

    A +-1 entry is a pivot: column operations clear the rest of its
    row, and row operations then clear its column without touching
    anything else, so dropping the pivot's row and column leaves a
    matrix with the remaining invariant factors.  Each such pivot is
    one factor 1 and costs only the fill-in it makes.  Pivots are taken
    from the sparsest column first, in the row shared by the fewest
    columns.  The core left when no column holds a unit (a single
    column on Pontryagin stages, mapping cylinders and Edwards-Walsh
    skeleta) needs no transforms: one column gives the gcd of its
    entries, a wider core goes to the dense Smith normal form.

    The columns whose index is in cleared are skipped, and when pivots
    is a set, the row of every unit pivot is added to it.  Given the
    pivot rows of d_{k+1} as cleared, the columns of d_k keep their
    image lattice, so the factors do not change (see integral_homology).
    """
    cols = {j: dict(col) for j, col in enumerate(columns)
            if col and j not in cleared}
    where = {}
    for j, col in cols.items():
        for i in col:
            where.setdefault(i, set()).add(j)
    # Entries go stale when their column shrinks, grows or is eliminated;
    # a column that changes is pushed again under its new size.
    heap = [(len(col), j) for j, col in cols.items()]
    heapify(heap)
    units = 0
    while heap:
        size, j = heappop(heap)
        col = cols.get(j)
        if col is None or len(col) != size:
            continue
        i = None
        for r, v in col.items():
            if (v == 1 or v == -1) and (i is None or len(where[r]) < fewest):
                i, fewest = r, len(where[r])
        if i is None:
            continue
        del cols[j]
        for r in col:
            where[r].discard(j)
        # The pivot is its own inverse.
        a = col.pop(i)
        for j2 in where.pop(i):
            other = cols[j2]
            f = other.pop(i) * a
            for r, v in col.items():
                w = other.get(r, 0) - f * v
                if w:
                    other[r] = w
                    where[r].add(j2)
                else:
                    del other[r]
                    where[r].discard(j2)
            if other:
                heappush(heap, (len(other), j2))
            else:
                del cols[j2]
        if pivots is not None:
            pivots.add(i)
        units += 1
    if len(cols) <= 1:
        return [1] * units + [gcd(*col.values()) for col in cols.values()]
    rows = {i: n for n, i in enumerate(sorted(
        {i for col in cols.values() for i in col}))}
    core = _dense_from_columns(
        [[(rows[i], v) for i, v in col.items()] for col in cols.values()],
        len(rows), len(cols))
    return [1] * units + _snf_shaped(core, len(rows), len(cols))[0]


def integral_homology(c: ChainComplex):
    """Per degree: (free rank, invariant torsion factors > 1).

    Only the invariant factors of each boundary are needed, so its
    sparse columns go through unit-pivot elimination and the small
    leftover core through a gcd or the dense Smith normal form; no
    transforms are built.

    The degrees run from the top down, and each clears the columns the
    one above has shown to be redundant.  A unit pivot of d_{k+1} in
    row i is a boundary: an integer chain whose coefficient on cell i
    is +-1, and whose other cells are non-pivot rows or rows pivoted
    later (earlier pivot rows were cleared from it).  d_k of it is zero,
    so column i of d_k is an integer combination of those columns, and
    by induction from the last pivot down, of the columns that are not
    pivot rows.  Skipping the pivot rows leaves the image lattice of
    d_k, and so its rank and invariant factors, as they were.  Only
    degree k + 1 clears degree k: a degree missing from c._cols (zero
    boundary) clears nothing below it.
    """
    rank_of = {}
    torsion_of = {}
    pivots = set()
    for k in sorted(c._cols, reverse=True):
        cleared = pivots if k + 1 in rank_of else ()
        pivots = set()
        inv = _sparse_invariants(c._cols[k], cleared, pivots)
        rank_of[k] = len(inv)
        torsion_of[k] = tuple(d for d in inv if d > 1)
    out = []
    for k in range(c.top + 1):
        beta = c.rank(k) - rank_of.get(k, 0) - rank_of.get(k + 1, 0)
        out.append((beta, torsion_of.get(k + 1, ())))
    return out


def _invariant_factors(orders):
    """Canonical invariant-factor chain of a finite abelian group.

    Each order is merged into the chain: Z/f + Z/n = Z/gcd + Z/lcm, and
    the lcm carries on up.  Once n divides f, every merge above only
    moves the chain up one place, so n is inserted there instead: b
    equal orders cost b steps, not b^2 / 2.  A gcd of 1 is a trivial
    summand and is dropped at once, so b pairwise coprime orders keep
    the chain short and cost b steps too.  Nothing is factored, so huge
    prime orders cost no more than small ones.

    >>> _invariant_factors([2, 3])
    (6,)
    >>> _invariant_factors([2, 4, 3])
    (2, 12)
    """
    factors = []
    for n in orders:
        if n > 1:
            i = 0
            while i < len(factors):
                f = factors[i]
                if f % n == 0:
                    factors.insert(i, n)
                    break
                g = gcd(f, n)
                n = f // g * n
                if g > 1:
                    factors[i] = g
                    i += 1
                else:
                    del factors[i]
            else:
                factors.append(n)
    return tuple(factors)


class GroupReport:
    """A homology group, canonically presented.

    free_rank counts the full summands (Z, Q, Z/p^k or Z(p^inf)
    depending on the coefficients); orders lists the remaining finite
    cyclic invariant factors in ascending divisibility order.

    >>> GroupReport(1, (2,), Z_GROUP).render()
    'Z + Z/2'
    """

    __slots__ = ("free_rank", "orders", "coeff")

    def __init__(self, free_rank, orders, coeff):
        self.free_rank = int(free_rank)
        self.orders = _invariant_factors(orders)
        self.coeff = coeff

    @property
    def is_zero(self):
        return self.free_rank == 0 and not self.orders

    def __eq__(self, other):
        if not isinstance(other, GroupReport):
            return NotImplemented
        return (self.free_rank, self.orders, self.coeff) == (
            other.free_rank, other.orders, other.coeff)

    def __hash__(self):
        return hash((self.free_rank, self.orders, self.coeff))

    def _symbol(self):
        if self.coeff is Z_GROUP:
            return "Z"
        if self.coeff is Q_GROUP:
            return "Q"
        return self.coeff.render()

    def render(self):
        parts = [self._symbol()] * self.free_rank
        parts.extend(f"Z/{n}" for n in self.orders)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return (f"GroupReport({self.free_rank}, {self.orders!r}, "
                f"{self.coeff!r})")


class HomologyReport:
    """All homology groups of one computation, indexed by degree."""

    __slots__ = ("groups", "coeff", "variance", "reduced")

    def __init__(self, groups, coeff, variance="homology", reduced=False):
        self.groups = dict(groups)
        self.coeff = coeff
        self.variance = variance
        self.reduced = reduced

    def __getitem__(self, k):
        if k in self.groups:
            return self.groups[k]
        return GroupReport(0, (), self.coeff)

    def degrees(self):
        return sorted(self.groups)

    def render(self):
        head = "H^" if self.variance == "cohomology" else "H_"
        return "\n".join(f"{head}{k} = {self[k].render()}"
                         for k in self.degrees())

    def __repr__(self):
        body = {k: self[k].render() for k in self.degrees()}
        return f"HomologyReport({body!r})"


def _valuation(t, p):
    """The exponent of the prime p in the positive int t."""
    v = 0
    while t % p == 0:
        v += 1
        t //= p
    return v


def _check_coeff(coeff):
    if coeff is Z_GROUP or coeff is Q_GROUP:
        return coeff
    if isinstance(coeff, (Zmod, ZpInf)):
        return coeff
    raise ValueError(f"unsupported coefficients: {coeff!r}")


def _convert(pair, below, coeff, dual):
    """Universal coefficients in one degree, from the integral homology:
    H_k(G) = (H_k tensor G) + Tor(H_{k-1}, G), or for cohomology (dual)
    H^k(G) = Hom(H_k, G) + Ext(H_{k-1}, G)."""
    beta, tors = pair
    _, tors_below = below
    if coeff is Z_GROUP:
        return GroupReport(beta, tors_below if dual else tors, coeff)
    if coeff is Q_GROUP:
        return GroupReport(beta, (), coeff)
    if isinstance(coeff, Zmod):
        # gcd(t, p^k) is p^min(v_p(t), k); p^k itself, which can have
        # millions of digits, is built only for a free summand.
        p, k = coeff.p, coeff.k
        orders = [p ** k] * beta if beta else []
        orders.extend(p ** min(_valuation(t, p), k)
                      for t in (*tors, *tors_below))
        return GroupReport(0, orders, coeff)
    # Divisible coefficients kill the tensor torsion and, being
    # injective, Ext; Tor and Hom keep p-parts.
    p = coeff.p
    orders = [p ** _valuation(t, p) for t in (tors if dual else tors_below)]
    return GroupReport(beta, orders, coeff)


def _is_field(coeff):
    return coeff is Q_GROUP or (isinstance(coeff, Zmod) and coeff.k == 1)


def _field_groups(c, coeff):
    # Over a field the Betti numbers say everything.
    betti = field_betti(c, coeff)
    if coeff is Q_GROUP:
        return {k: GroupReport(b, (), coeff) for k, b in enumerate(betti)}
    return {k: GroupReport(0, (coeff.p,) * b, coeff)
            for k, b in enumerate(betti)}


def _report(c, coeff, relative_to, variance):
    coeff = _check_coeff(coeff)
    if relative_to is not None:
        c, _ = quotient_complex(c, relative_to)
    if _is_field(coeff):
        # Hom duality over a field keeps the dimensions, so cohomology
        # shares the groups of homology.
        return HomologyReport(_field_groups(c, coeff), coeff, variance)
    pairs = integral_homology(c)
    zero = (0, ())
    dual = variance == "cohomology"
    groups = {k: _convert(pairs[k], pairs[k - 1] if k else zero, coeff, dual)
              for k in range(c.top + 1)}
    return HomologyReport(groups, coeff, variance)


def homology(c: ChainComplex, coeff=Z_GROUP, relative_to=None):
    """Homology of c, or of the pair when relative_to gives the
    subcomplex by basis indices per degree."""
    return _report(c, coeff, relative_to, "homology")


def cohomology(c: ChainComplex, coeff=Z_GROUP, relative_to=None):
    return _report(c, coeff, relative_to, "cohomology")


# -- field linear algebra (sparse columns) -----------------------------------
#
# A field is given by p: None for Q, where entries are exact ints and
# Fractions, else a prime, where entries are ints in [0, p).

def _field_prime(coeff):
    if not _is_field(coeff):
        raise ValueError(f"not field coefficients: {coeff!r}")
    return None if coeff is Q_GROUP else coeff.p


def _inverse(lead, p):
    """The inverse of a nonzero field entry: mod p, or exact over Q."""
    if p:
        return pow(lead, -1, p)
    if lead == -1:
        return lead
    # Integral inverses keep entries ints.
    inv = 1 / Fraction(lead)
    return inv.numerator if inv.denominator == 1 else inv


# A reduction takes its next pivot as the max of its vector until the
# vector holds more than this many rows, and from then on pops it off a
# heap of the vector's rows (see _Reducer).  Short vectors are the rule:
# 25 of the 18 121 reductions of a homology-field pass (Pontryagin L_3 at
# p = 2, 2, 3) grow past 48 rows, and for the rest one max is cheaper
# than a heap (a heap for every vector was ~6% slower).  Long vectors are
# the cycles and their images in the bonding maps.  Measured in process
# (Python 3.11, 2-CPU x86_64): any limit from 16 to 512 rows times alike,
# `verify pontryagin --p 829 --stages 1` 0.70-0.73 s and `--p 7 --stages
# 2` 0.31 s, against 1.52 s and 0.39 s for max alone; of 16-96, 48 and 64
# gave the lowest homology-field pass medians.
_HEAP_ROWS = 48


def _subtract(target, source, factor, p):
    """target -= factor * source, in place: target a dict over the field,
    source (row, value) pairs.  Entries of source may vanish mod p, so a
    zero is deleted only where it is found."""
    get = target.get
    if p:
        for i, v in source:
            w = (get(i, 0) - factor * v) % p
            if w:
                target[i] = w
            elif i in target:
                del target[i]
    else:
        for i, v in source:
            w = get(i, 0) - factor * v
            if w:
                target[i] = w
            else:
                del target[i]


class _Reducer:
    """Sparse columns with distinct pivots, kept by pivot row.

    A column's pivot is its largest nonzero row, and every other row of
    a kept column lies below it.  kept maps the pivot row to one of:

    - an int j: column j of columns, a frozen boundary column whose
      pivot entry is 1 and whose pivot row no column owned before, kept
      in place (see _boundary_reducer).  Its coordinates are the one
      entry j: 1 when the reducer tracks them, else none;
    - (entries, coords, inv): the column's (row, value) pairs, unscaled,
      its coordinates, and the inverse of its pivot entry, so that
      eliminating with it never divides.  entries are the items of the
      dict the column was reduced in.

    Coordinates are what every operation on a column applies alike:
    homology representatives carry a basis vector, kernel columns the
    combination of original columns they came from.  Image columns and
    untracked reductions carry None and do no coordinate work.  The
    other entries of a column claimed in place may vanish mod p, so the
    elimination deletes only the keys it finds.

    Within one reduction the pivots strictly decrease: eliminating the
    pivot low subtracts a column whose other rows all lie below low.
    So a vector longer than _HEAP_ROWS walks its pivots down a heap of
    its rows, pushing each row an elimination touches and skipping a
    popped row that has left the vector, instead of taking a max over
    the whole vector at every step.
    """

    __slots__ = ("p", "kept", "columns", "track")

    def __init__(self, p, columns=(), track=False):
        self.p = p
        self.kept = {}
        self.columns = columns
        self.track = track

    def reduce(self, vec, coords):
        """Clear kept pivots from vec in place, bottom row first,
        subtracting the same multiples of their coordinates from coords
        when both carry any (coords may be None).  Returns the pivot row
        left in vec, or -1 when nothing is left."""
        p = self.p
        kept = self.kept
        track = self.track and coords is not None
        heap = None
        while vec:
            if heap is not None:
                low = -heappop(heap)
                if low not in vec:
                    continue
            elif len(vec) > _HEAP_ROWS:
                heap = [-i for i in vec]
                heapify(heap)
                continue
            else:
                low = max(vec)
            owner = kept.get(low)
            if owner is None:
                return low
            factor = vec[low]
            if owner.__class__ is int:
                column = self.columns[owner]
                if track:
                    _subtract(coords, ((owner, 1),), factor, p)
            else:
                column, column_coords, inv = owner
                factor *= inv
                if column_coords and coords is not None:
                    _subtract(coords, column_coords.items(), factor, p)
            _subtract(vec, column, factor, p)
            if heap is not None:
                for i, _ in column:
                    if i in vec:
                        heappush(heap, -i)
        return -1

    def add(self, vec, coords):
        """Reduce vec and keep what is left under its pivot; returns
        whether anything was kept.  vec is a dict over the field, taken
        over, or a frozen column, which is copied.  coords is taken over
        and may be None."""
        p = self.p
        if vec.__class__ is tuple:
            vec = {i: w for i, v in vec if (w := v % p)} if p else dict(vec)
        low = self.reduce(vec, coords)
        if low < 0:
            return False
        lead = vec[low]
        # Reduced leads are mostly 1.
        self.kept[low] = (vec.items(), coords,
                          1 if lead == 1 else _inverse(lead, p))
        return True


def _rank(vecs, p):
    reducer = _Reducer(p)
    return sum(reducer.add(vec, None) for vec in vecs)


def _boundary_reducer(c: ChainComplex, k, p, cleared=(), kernel=None):
    """The columns of d_k reduced left to right, skipping those whose
    index is in cleared.

    This is clearing (Chen and Kerber's twist).  A pivot row i of the
    reduced d_{k+1} leads a k-cycle sigma_i + (earlier cells), so column
    i of d_k is a combination of earlier columns and would reduce to
    zero: given the kept keys of degree k + 1 as cleared, the reducer
    keeps the same columns as without them.  When kernel is a list,
    each column carries the combination of original columns it came
    from, and those that reduce to zero are appended to kernel: with
    the image of d_{k+1} they span the k-cycles.

    A column whose pivot entry is 1 and whose pivot row no kept column
    owns is claimed in place: kept records its index (see _Reducer), and
    nothing is reduced, copied or allocated for it.  On simplicial
    chains, whose leads are all 1, that is most columns."""
    columns = c._columns(k)
    track = kernel is not None
    reducer = _Reducer(p, columns, track)
    kept = reducer.kept
    add = reducer.add
    for j, col in enumerate(columns):
        if j in cleared:
            continue
        if col:
            low, lead = col[-1]
            if lead == 1 and low not in kept:
                kept[low] = j
                continue
        if not track:
            add(col, None)
        elif not add(col, combo := {j: 1}):
            kernel.append(combo)
    return reducer


def _field_basis(c: ChainComplex, k, p):
    """Representative cycles of a basis of H_k(c; field), and the
    reducer that writes any other k-cycle in their coordinates."""
    space = _boundary_reducer(c, k + 1, p)
    kernel = []
    _boundary_reducer(c, k, p, space.kept, kernel)
    reps = []
    for cycle in kernel:
        if space.add(dict(cycle), {len(reps): 1}):
            reps.append(cycle)
    return space, reps


def field_betti(c: ChainComplex, coeff):
    """Field Betti numbers by direct rank computation, independent of
    the Smith-normal-form route.  The degrees run from the top down so
    that each clears the columns the one above has shown to vanish."""
    p = _field_prime(coeff)
    ranks = [0] * (c.top + 2)
    cleared = ()
    for k in range(c.top, 0, -1):
        # Only the pivot rows are kept, so each reducer is freed before
        # the next degree's is filled.
        cleared = set(_boundary_reducer(c, k, p, cleared).kept)
        ranks[k] = len(cleared)
    return [c.rank(k) - ranks[k] - ranks[k + 1] for k in range(c.top + 1)]


# -- induced maps ------------------------------------------------------------

class InducedMapReport:
    """The matrix of an induced (co)homology map plus its rank flags."""

    __slots__ = ("matrix", "injective", "surjective", "iso", "degree",
                 "coeff", "variance")

    def __init__(self, matrix, injective, surjective, degree, coeff,
                 variance):
        self.matrix = tuple(tuple(row) for row in matrix)
        self.injective = bool(injective)
        self.surjective = bool(surjective)
        self.iso = self.injective and self.surjective
        self.degree = degree
        self.coeff = coeff
        self.variance = variance

    def __repr__(self):
        return (f"InducedMapReport(matrix={self.matrix!r}, "
                f"injective={self.injective}, "
                f"surjective={self.surjective})")

    def render(self):
        if self.iso:
            flags = ["iso"]
        else:
            flags = []
            if self.injective:
                flags.append("mono")
            if self.surjective:
                flags.append("epi")
            if not flags:
                flags.append("neither mono nor epi")
        rows = [" ".join(str(x) for x in row) for row in self.matrix]
        return f"[{'; '.join(rows)}] ({', '.join(flags)})"


def _field_induced(cm: ChainMap, degree, coeff, dual):
    p = _field_prime(coeff)
    _, reps_s = _field_basis(cm.source, degree, p)
    space_t, reps_t = _field_basis(cm.target, degree, p)
    maps = cm._cols.get(degree)
    images = []
    for rep in reps_s:
        image = _sparse_compose(maps, rep.items()) if maps else {}
        if p:
            image = {i: w for i, v in image.items() if (w := v % p)}
        coords = {}
        if space_t.reduce(image, coords) >= 0:
            raise ValueError("vector is not a cycle in this degree")
        images.append({j: -v % p if p else -v for j, v in coords.items()})
    n_s, n_t = len(reps_s), len(reps_t)
    columns = [[image.get(i, 0) for i in range(n_t)] for image in images]
    # A matrix and its transpose have the same rank.
    rank = _rank(images, p)
    if dual:
        return InducedMapReport(columns, rank == n_t, rank == n_s, degree,
                                coeff, "cohomology")
    hom = [[col[i] for col in columns] for i in range(n_t)]
    return InducedMapReport(hom, rank == n_s, rank == n_t, degree, coeff,
                            "homology")


def _integral_free_basis(c: ChainComplex, k):
    """Chains giving a basis of H_k over Z, requiring H_k torsion-free.

    Returns (basis chains as (cell, coefficient) pairs, coordinate
    function of a cycle given as a dict from cell to coefficient).

    Two Smith forms do it.  That of d_k, u d_k v = diag(r invariants),
    makes the columns r.. of v a basis of the k-cycles: a cycle w has
    the coordinates y = (v_inv w)[r:], and the first r entries of
    v_inv w vanish.  That of b, the columns of d_{k+1} in those
    coordinates, u_b b v_b = diag(rb ones) when H_k is free, makes the
    first rb entries of u_b y span the boundaries: the entries rb.. are
    the class of w, and the chains v[:, r:] u_b_inv[:, rb:] represent
    the basis.  Each form keeps the inverses of its transforms, so
    nothing else is inverted."""
    n = c.rank(k)
    inv_k, _, v, _, v_inv = _snf_shaped(c.boundary(k), c.rank(k - 1), n)
    r = len(inv_k)
    m = n - r
    b = [[sum(row[i] * x for i, x in col) for col in c._columns(k + 1)]
         for row in v_inv[r:]]
    inv_b, u_b, _, u_b_inv, _ = _snf_shaped(b, m, c.rank(k + 1))
    if any(d != 1 for d in inv_b):
        raise ValueError(
            "integral induced maps need torsion-free homology; "
            "use field coefficients")
    rb = len(inv_b)
    kernel = [row[r:] for row in v]
    free = []
    for j in range(rb, m):
        coords = [row[j] for row in u_b_inv]
        chain = [sum(x * y for x, y in zip(row, coords)) for row in kernel]
        free.append([(i, x) for i, x in enumerate(chain) if x])

    def free_coords(w):
        y = [sum(row[i] * x for i, x in w.items()) for row in v_inv]
        if any(y[:r]):
            raise ValueError("chain is not a cycle")
        y = y[r:]
        return [sum(a * x for a, x in zip(row, y)) for row in u_b[rb:]]

    return free, free_coords


def _integral_induced(cm: ChainMap, degree, dual):
    if dual:
        raise ValueError("integral induced maps are reported on homology; "
                         "dualize with field coefficients")
    basis_s, _ = _integral_free_basis(cm.source, degree)
    basis_t, coords_t = _integral_free_basis(cm.target, degree)
    maps = cm._cols.get(degree)
    columns = [coords_t(_sparse_compose(maps, chain) if maps else {})
               for chain in basis_s]
    out = [[columns[j][i] for j in range(len(basis_s))]
           for i in range(len(basis_t))]
    inv = _snf_shaped(out, len(basis_t), len(basis_s))[0]
    injective = len(inv) == len(basis_s)
    surjective = len(inv) == len(basis_t) and all(d == 1 for d in inv)
    return InducedMapReport(out, injective, surjective, degree, Z_GROUP,
                            "homology")


def induced_map(cm: ChainMap, degree, coeff=Z_GROUP, cohomology=False):
    """Induced map on (co)homology in one degree.

    Field coefficients (Q or Z/p) work for arbitrary homology; integral
    coefficients need the degree's homology torsion-free on both sides.
    Cohomology matrices are the transposes, with flags recomputed for
    the reversed direction.
    """
    coeff = _check_coeff(coeff)
    if coeff is Z_GROUP:
        return _integral_induced(cm, degree, cohomology)
    return _field_induced(cm, degree, coeff, cohomology)


# -- standard small complexes ------------------------------------------------

def moore_space(m, n=1) -> ChainComplex:
    """Cellular chains of the Moore space M(Z/m, n): one cell each in
    degrees 0, n and n+1, the top cell attached with degree m.

    >>> homology(moore_space(2, 1))[1].render()
    'Z/2'
    """
    if not (isinstance(m, int) and not isinstance(m, bool) and m >= 2):
        raise ValueError(f"Moore space needs m >= 2: {m!r}")
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 1):
        raise ValueError(f"Moore space needs n >= 1: {n!r}")
    ranks = [0] * (n + 2)
    ranks[0] = 1
    ranks[n] = 1
    ranks[n + 1] = 1
    return ChainComplex(ranks, {n + 1: [[m]]})


def _tensor_pair(a, b):
    r1, t1 = a
    r2, t2 = b
    orders = list(t2) * r1 + list(t1) * r2
    orders.extend(gcd(x, y) for x in t1 for y in t2)
    return (r1 * r2, tuple(o for o in orders if o > 1))


def _tor_pair(a, b):
    _, t1 = a
    _, t2 = b
    orders = tuple(g for g in (gcd(x, y) for x in t1 for y in t2) if g > 1)
    return (0, orders)


def _merge(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _reduced_pairs(c: ChainComplex):
    pairs = integral_homology(c)
    beta0, tors0 = pairs[0]
    if c.rank(0) == 0 or beta0 < 1:
        raise ValueError("join needs nonempty complexes")
    return [(beta0 - 1, tors0)] + pairs[1:]


def join_homology(k: ChainComplex, l: ChainComplex, coeff=Z_GROUP):
    """Reduced homology of the join, via the suspension of the smash:
    degree i collects tensor terms over a + b = i - 1 and torsion
    products over a + b = i - 2 of the reduced integral homologies,
    then converts coefficients."""
    coeff = _check_coeff(coeff)
    pa = _reduced_pairs(k)
    pb = _reduced_pairs(l)
    top = (len(pa) - 1) + (len(pb) - 1) + 1
    zero = (0, ())
    joined = []
    for i in range(top + 1):
        acc = zero
        for a in range(len(pa)):
            b = i - 1 - a
            if 0 <= b < len(pb):
                acc = _merge(acc, _tensor_pair(pa[a], pb[b]))
            b = i - 2 - a
            if 0 <= b < len(pb):
                acc = _merge(acc, _tor_pair(pa[a], pb[b]))
        joined.append(acc)
    groups = {}
    for i in range(top + 1):
        below = joined[i - 1] if i else zero
        groups[i] = _convert(joined[i], below, coeff, False)
    return HomologyReport(groups, coeff, reduced=True)
