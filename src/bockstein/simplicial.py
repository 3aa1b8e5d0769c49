"""Finite simplicial complexes and the compact constructions used to
check cohomological-dimension claims by direct computation.

The builders here produce honest simplicial models: mapping cylinders
of circle coverings (as order complexes of the face poset), iterated
Pontryagin-style triangle replacements with their collapse maps,
Edwards-Walsh modifications of a skeleton, joins via chain complexes.

Vertex labels may be anything hashable and mutually comparable; the
constructions use tagged tuples so that every generated label stays
comparable with its peers.  Cylinders nest the simplices they come
from; a Pontryagin stage names each new vertex by a tag and the
positions of the previous stage's vertices, so its labels stay flat
tuples of a tag and ints at every stage.

A complex looks its simplices up by label only through an index built
on first use.  Pontryagin stages never need it: each stage, and the cone
its bonding map lands in, lists in every degree one block per triangle
of the stage before, each laid out as the replacement of a single
triangle, then the shared subdivided 1-skeleton.  So their chain
complexes and bonding chain maps are emitted in basis order from that
one-triangle template, and the chain data is their one record: their
simplices are read off the boundary columns, and the bondings' vertex
maps off the degree-0 columns, only when a caller first reads them.
Homology, f-vectors and induced maps read no label.  Edwards-Walsh
skeleta, too, take their columns from the complex's chain complex.
"""

from __future__ import annotations

from itertools import combinations
from operator import eq, itemgetter

from . import chains
from .groups import Q as Q_GROUP
from .groups import Z as Z_GROUP
from .groups import Zmod
from .primes import check_prime

__all__ = [
    "Cylinder",
    "SimplicialComplex",
    "SimplicialMap",
    "boundary_simplex",
    "circle",
    "cohomology_of",
    "complex_from_text",
    "complex_to_text",
    "degree_map_circle",
    "ew_skeleton",
    "full_simplex",
    "homology_of",
    "induced",
    "map_from_text",
    "map_to_text",
    "mapping_cylinder",
    "pontryagin_stage",
]


def _boundary_column(s, index):
    """The frozen boundary column of the sorted simplex s.  Dropping a
    later vertex leaves an earlier face, so the rows come out ascending
    when i runs down."""
    return tuple([(index[s[:i] + s[i + 1:]][1], -1 if i % 2 else 1)
                  for i in range(len(s) - 1, -1, -1)])


def _sorted_by_degree(closed):
    by_dim = {}
    for s in closed:
        by_dim.setdefault(len(s) - 1, []).append(s)
    return {k: tuple(sorted(v)) for k, v in by_dim.items()}


def _perm_sign(values):
    sign = 1
    vals = list(values)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] > vals[j]:
                sign = -sign
    return sign


class SimplicialComplex:
    """An abstract simplicial complex, stored closed under faces.

    Simplices are sorted tuples of vertex labels.  The constructor
    accepts any iterable of simplices (maximal ones suffice) and closes
    it downward.  A complex the library builds with its chain complex
    may read its simplices off that chain complex on first use (see
    _lazy); dim and f_vector then read the chain ranks, and every read
    of a simplex, has, == and hash make them.  The empty complex has
    f_vector () and dim -1, however it is made; its chain complex, like
    every chain complex, has a degree 0, of rank 0.

    >>> s = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
    >>> s.f_vector()
    (3, 3)
    """

    __slots__ = ("_degrees", "_build", "_lookup", "_chain")

    def __init__(self, simplices):
        seen = set()
        for s in simplices:
            t = tuple(sorted(s))
            if len(set(t)) != len(t):
                raise ValueError(f"degenerate simplex: {s!r}")
            if not t:
                raise ValueError("the empty simplex is not allowed")
            for k in range(1, len(t) + 1):
                seen.update(combinations(t, k))
        self._install(_sorted_by_degree(seen))

    @classmethod
    def _make(cls, closed):
        """Trusted constructor: closed is a collection of distinct,
        sorted, nondegenerate simplices, closed under faces.  Nothing is
        checked or closed."""
        x = cls.__new__(cls)
        x._install(_sorted_by_degree(closed))
        return x

    @classmethod
    def _lazy(cls, vertices, chain):
        """Trusted constructor: chain is the chain complex that
        chain_complex would build, with every degree in sorted order, and
        vertices() returns the sorted vertex labels.  The simplices are
        read off chain on the first read of one (see _by_dim); nothing
        is checked."""
        x = cls.__new__(cls)
        x._install(None, chain, vertices)
        return x

    def _install(self, by_dim, chain=None, build=None):
        self._degrees = by_dim
        self._build = build
        self._lookup = None
        self._chain = chain

    @property
    def _by_dim(self):
        """Each degree's tuple of simplices.  A complex made by _lazy
        reads them off its boundary columns on first use: a simplex's
        vertices are those of its faces (any two of them cover it),
        taken as positions in the sorted vertex list, which sort as the
        labels do.  Each degree keeps the order of its columns."""
        if self._degrees is None:
            labels = self._build()
            self._build = None
            cols = self._chain._cols
            faces = [(i,) for i in range(len(labels))]
            degrees = {0: tuple([(v,) for v in labels])} if labels else {}
            for k in range(1, len(self._chain.ranks)):
                faces = [tuple(sorted({*faces[col[0][0]], *faces[col[1][0]]}))
                         for col in cols[k]]
                degrees[k] = tuple([tuple([labels[v] for v in s])
                                    for s in faces])
            self._degrees = degrees
        return self._degrees

    @property
    def _index(self):
        """Each simplex's (degree, position), built on first use: only
        label lookups (has, indices_of, and chain data built from
        labels) need it."""
        if self._lookup is None:
            self._lookup = {s: (k, n) for k, ss in self._by_dim.items()
                            for n, s in enumerate(ss)}
        return self._lookup

    @property
    def dim(self):
        return len(self.f_vector()) - 1

    def simplices(self, k):
        return self._by_dim.get(k, ())

    def all_simplices(self):
        for k in sorted(self._by_dim):
            yield from self._by_dim[k]

    def vertices(self):
        return tuple(v for (v,) in self.simplices(0))

    def has(self, simplex):
        return tuple(sorted(simplex)) in self._index

    def f_vector(self):
        if self._degrees is None:
            # The simplices are not built yet; the chain ranks count them,
            # but for the empty complex's degree 0 of rank 0.
            ranks = self._chain.ranks
            return ranks if ranks[0] else ()
        # Closed under faces, so the degrees run 0 .. dim.
        return tuple(len(self._degrees[k]) for k in range(len(self._degrees)))

    def euler(self):
        return sum((-1) ** k * n for k, n in enumerate(self.f_vector()))

    def skeleton(self, n):
        keep = []
        for k in range(min(n, self.dim) + 1):
            keep.extend(self.simplices(k))
        return SimplicialComplex._make(keep)

    def full_subcomplex(self, keep_vertex):
        """The induced subcomplex on vertices passing the predicate."""
        return SimplicialComplex._make(
            [s for s in self.all_simplices()
             if all(keep_vertex(v) for v in s)])

    def chain_complex(self):
        """Simplicial chains with the sorted-vertex orientation.  The
        degree-k basis order matches simplices(k); the result is cached
        so maps over the same complex share the object."""
        if self._chain is not None:
            return self._chain
        ranks = self.f_vector() or (0,)
        index = self._index
        self._chain = chains.ChainComplex._make(ranks, {
            k: tuple(_boundary_column(s, index)
                     for s in self.simplices(k))
            for k in range(1, len(ranks))})
        return self._chain

    def indices_of(self, sub):
        """Index sets of a subcomplex, per degree, for relative work.
        Both complexes list each degree in sorted order, so the indices
        come out ascending."""
        index = self._index
        out = {}
        for k in range(sub.dim + 1):
            idx = []
            for s in sub.simplices(k):
                if s not in index:
                    raise ValueError(f"not a simplex of this complex: {s!r}")
                idx.append(index[s][1])
            out[k] = tuple(idx)
        return out

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._by_dim == other._by_dim

    def __hash__(self):
        return hash(tuple(sorted(self._by_dim.items())))

    def __repr__(self):
        return f"SimplicialComplex(f_vector={self.f_vector()!r})"


class SimplicialMap:
    """A simplicial map given on vertices; images of simplices are
    checked to be simplices of the target (collapses are allowed)."""

    __slots__ = ("source", "target", "_vertex_map", "_chain")

    def __init__(self, source, target, vertex_map):
        self.source = source
        self.target = target
        self._vertex_map = dict(vertex_map)
        self._chain = None
        for v in source.vertices():
            if v not in self.vertex_map:
                raise ValueError(f"vertex {v!r} has no image")
        src_vertices = set(source.vertices())
        tgt_vertices = set(target.vertices())
        for v, w in self.vertex_map.items():
            if v not in src_vertices:
                raise ValueError(f"vertex {v!r} is not in the source")
            if w not in tgt_vertices:
                raise ValueError(f"image vertex {w!r} is not in the target")
        for s in source.all_simplices():
            if not target.has(set(self.vertex_map[v] for v in s)):
                raise ValueError(
                    f"image of {s!r} is not a simplex of the target")

    @classmethod
    def _make(cls, source, target, vertex_map, chain=None):
        """Trusted constructor: vertex_map is a dict defined on every
        source vertex and carrying simplices to simplices, and chain,
        when given, is the chain map that chain_map would build.  Given
        chain, vertex_map may be None: it is then read off chain on
        first use (see vertex_map).  Nothing is checked."""
        f = cls.__new__(cls)
        f.source = source
        f.target = target
        f._vertex_map = vertex_map
        f._chain = chain
        return f

    @property
    def vertex_map(self):
        """The image of each source vertex.  A map made with its chain
        map alone reads it on first use off the degree-0 columns: the
        column of the j-th source vertex holds one row, the position of
        its image among the target's vertices."""
        if self._vertex_map is None:
            tv = self.target.vertices()
            self._vertex_map = {v: tv[col[0][0]] for v, col in zip(
                self.source.vertices(), self._chain._cols[0])}
        return self._vertex_map

    def image(self, simplex):
        return tuple(sorted(set(self.vertex_map[v] for v in simplex)))

    def chain_map(self):
        """The induced map of simplicial chain complexes, cached.
        Simplices collapsed by the vertex map contribute zero."""
        if self._chain is not None:
            return self._chain
        index = self.target._index
        vmap = self.vertex_map
        columns = {}
        for k in range(self.source.dim + 1):
            cols = []
            for s in self.source.simplices(k):
                imgs = tuple([vmap[v] for v in s])
                t = tuple(sorted(imgs))
                hit = index.get(t)
                if hit is not None:
                    # An image already in order keeps the orientation.
                    sign = 1 if t == imgs else _perm_sign(imgs)
                    cols.append(((hit[1], sign),))
                elif any(map(eq, t, t[1:])):
                    # A collapsed simplex repeats a vertex, next to
                    # itself once sorted.
                    cols.append(())
                else:
                    raise KeyError(t)
            columns[k] = tuple(cols)
        self._chain = chains.ChainMap._make(self.source.chain_complex(),
                                            self.target.chain_complex(),
                                            columns)
        return self._chain

    def __repr__(self):
        return f"SimplicialMap({self.source!r} -> {self.target!r})"


# -- factories ---------------------------------------------------------------

def full_simplex(n):
    """The full n-simplex on vertices 0..n, top face included."""
    if not (isinstance(n, int) and n >= 0):
        raise ValueError(f"need n >= 0: {n!r}")
    return SimplicialComplex([tuple(range(n + 1))])


def boundary_simplex(n):
    """The boundary of the n-simplex, a combinatorial (n-1)-sphere."""
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"need n >= 1: {n!r}")
    return SimplicialComplex(combinations(range(n + 1), n))


def circle(k):
    """The cyclic triangulation of the circle on vertices 0..k-1."""
    if not (isinstance(k, int) and k >= 3):
        raise ValueError(f"a triangulated circle needs k >= 3: {k!r}")
    return SimplicialComplex([(i, (i + 1) % k) for i in range(k)])


def degree_map_circle(p, k=3):
    """The standard p-fold covering of circles, vertex i -> i mod k.

    >>> f = degree_map_circle(2, 3)
    >>> f.source.f_vector(), f.target.f_vector()
    ((6, 6), (3, 3))
    """
    if not (isinstance(p, int) and p >= 2):
        raise ValueError(f"covering degree must be at least 2: {p!r}")
    if not (isinstance(k, int) and k >= 3):
        raise ValueError(f"base circle needs k >= 3: {k!r}")
    return SimplicialMap._make(circle(p * k), circle(k),
                               {i: i % k for i in range(p * k)})


# -- mapping cylinders -------------------------------------------------------

class Cylinder:
    """A simplicial mapping cylinder.

    complex is the order complex of the face poset of source and target
    joined along the map; domain and target are the two ends (the ends
    carry the barycentric subdivisions of the original complexes).
    retraction collapses everything onto the target end.
    """

    __slots__ = ("map", "complex", "domain", "target",
                 "domain_inclusion", "target_inclusion", "retraction")

    def __init__(self, f: SimplicialMap):
        self.map = f
        elements = ([("K", s) for s in f.source.all_simplices()]
                    + [("L", s) for s in f.target.all_simplices()])
        # x < y in the poset when x is a proper face of y on the same
        # side, or x is in K and f(x) is a face of y in L.  Each y is
        # appended to the lists of the elements below it, visiting y in
        # elements order, so every list keeps that order.
        by_image = {}
        for s in f.source.all_simplices():
            by_image.setdefault(f.image(s), []).append(("K", s))
        succ = {x: [] for x in elements}
        for y in elements:
            side, s = y
            for k in range(1, len(s) + 1):
                for face in combinations(s, k):
                    if k < len(s):
                        succ[(side, face)].append(y)
                    if side == "L":
                        for x in by_image.get(face, ()):
                            succ[x].append(y)
        found = []

        def grow(chain, x):
            chain = chain + (x,)
            found.append(tuple(sorted(chain)))
            for y in succ[x]:
                grow(chain, y)

        for x in elements:
            grow((), x)
        # Every chain of the poset is found once, and so is every part
        # of it, so found is closed under faces.  K lies only below L,
        # and "K" sorts before "L": a chain lies in the K end iff its
        # last label does, and in the L end iff its first label does.
        self.complex = SimplicialComplex._make(found)
        self.domain = SimplicialComplex._make(
            [c for c in found if c[-1][0] == "K"])
        self.target = SimplicialComplex._make(
            [c for c in found if c[0][0] == "L"])
        self.domain_inclusion = SimplicialMap._make(
            self.domain, self.complex, {v: v for v in self.domain.vertices()})
        self.target_inclusion = SimplicialMap._make(
            self.target, self.complex, {v: v for v in self.target.vertices()})
        retract = {}
        for v in self.complex.vertices():
            retract[v] = ("L", f.image(v[1])) if v[0] == "K" else v
        self.retraction = SimplicialMap._make(self.complex, self.target,
                                              retract)

    def collapse(self):
        """Collapse the target end to a point: returns (cone, xi, base)
        where cone is the cone on the domain end, xi the collapse map,
        and base the domain end inside the cone.

        The cone is collected closed under faces and sorted ("K" sorts
        before "apex"), so both are built by the trusted constructors."""
        apex = ("apex",)
        cone_simplices = list(self.domain.all_simplices())
        cone_simplices.extend(s + (apex,)
                              for s in self.domain.all_simplices())
        cone_simplices.append((apex,))
        cone = SimplicialComplex._make(cone_simplices)
        vmap = {v: (v if v[0] == "K" else apex)
                for v in self.complex.vertices()}
        xi = SimplicialMap._make(self.complex, cone, vmap)
        return cone, xi, self.domain

    def __repr__(self):
        return f"Cylinder({self.map!r})"


def mapping_cylinder(f: SimplicialMap) -> Cylinder:
    """The simplicial mapping cylinder of f, with both end inclusions.

    >>> cyl = mapping_cylinder(degree_map_circle(2, 3))
    >>> len(cyl.complex.simplices(2))
    24
    """
    return Cylinder(f)


# -- Pontryagin-style stages -------------------------------------------------

def _one_triangle(p):
    """The replacement of the single triangle (0, 1, 2), read off for
    _replace_triangles: the blocks (see _blocks) of the stage and of the
    cone, the label suffixes of the stage's six 'c' vertices, which name
    the vertices of every copy, and per degree an itemgetter that picks
    each bonding column of the stage's block among the cone's block of
    one-entry columns followed by the empty column.  Every copy in a
    real stage is laid out as this one; only its chain columns are read.

    Its vertices are ints that sort as a copy's labels do: the six 'c'
    vertices, one per simplex of the covered circle on 0, 1, 2, then the
    2p - 1 'e' vertices of the edges (0, 1), (0, 2), (1, 2), then the
    three 'o' corners.  Round the 6p-gon, the 3p vertices and 3p edges
    of the covering circle alternate, vertex i lying over i mod 3.  The
    stage has 6p triangles over the 6p-gon's edges, each to the 'c'
    vertex under its covering edge, and 6p joining each covering vertex
    to its image and to the image's two edges.  The cone joins the
    6p-gon to an apex that sorts first, as ('a', 0, 1, 2) does."""
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
    blocks = (_blocks(stage, 6), _blocks(cone, 1))
    # A block simplex goes to the apex and the rest of it, or collapses
    # when it has a second 'c' vertex.
    picks = []
    for k, ((bs, _), (bc, _)) in enumerate(zip(*blocks)):
        row = {s: r for r, s in enumerate(cone.simplices(k)[:bc])}
        picks.append(itemgetter(*[bc if len(s) > 1 and s[1] < 6
                                  else row[(apex,) + s[1:]]
                                  for s in stage.simplices(k)[:bs]]))
    return blocks, suffixes, picks


def _blocks(x, head):
    """Per degree of a one-triangle complex x whose first head vertices
    are the copy's own: the number of simplices starting at one of them
    (they sort first), and the boundary column of each such simplex as
    an itemgetter of its entries in the list of x's rows of the degree
    below, each with the sign 1, followed by the same rows with the sign
    -1.  The chain columns are all a copy needs: its simplices are read
    off them (see SimplicialComplex._by_dim)."""
    own = set(x.vertices()[:head])
    cols = x.chain_complex()._cols
    out = []
    for k in range(x.dim + 1):
        size = sum(s[0] in own for s in x.simplices(k))
        below = len(x.simplices(k - 1))
        out.append((size,
                    [itemgetter(*[r if v == 1 else below + r for r, v in col])
                     for col in cols[k][:size]] if k else []))
    return out


def _replace_triangles(l: SimplicialComplex, p, template):
    """One stage of triangle replacement: every 2-simplex of l becomes
    a copy of the mapping cylinder of the p-fold circle covering, glued
    along the subdivided boundary.  template is _one_triangle(p).
    Returns (next stage, cone retriangulation of l, bonding map).

    A new vertex is named by the positions, in l.simplices(0), of the
    vertices of l it comes from: ('o', i) for vertex i, ('e', i, j, t)
    on the edge (i, j), and inside the triangle (i, j, k) the apex
    ('a', i, j, k) or ('c', i, j, k) followed by the simplex of the
    covered circle whose barycentre the vertex is.  Positions sort as the
    labels of l do, so no label nests those of the stage before.

    Nothing is sorted or looked up by label: the sorted order is known.
    A simplex with a 'c' (or, in the cone, an 'a') vertex sorts by that
    vertex, so in every degree these come first, one block per triangle
    of l in l's order, each laid out as the replacement of the single
    triangle (0, 1, 2).  The rest is the shared, subdivided 1-skeleton
    of l: the 2p - 1 'e' vertices of each edge of l, then the 'o'
    vertices, then the 2p edges of each edge of l, in l's order.  So
    every row of a boundary or bonding column is a block offset plus a
    row of the one-triangle copy, or a shared row computed from the edge
    positions that l's own chain complex lists.  Only l's chain complex
    is read.  Both complexes come with their chain complexes and the
    bonding with its chain map, which are their one record: the complexes
    list only their vertex labels, and their simplices and the bonding's
    vertex map are read off the columns when a caller first reads them.

    The entries are shared: per degree, one list of (row, 1) and one of
    (row, -1) pairs, as long as the stage's rank (the stage has the most
    rows), supplies every entry of the stage's and the cone's boundary
    columns and of the bonding's one-entry columns.  So an entry is one
    object however many columns hold it.
    """
    blocks, suffixes, picks = template
    lc = l.chain_complex()
    nv, ne, nt = lc.ranks
    ends = [(col[0][0], col[1][0]) for col in lc._cols[1]]
    # A triangle's column lists its edges (a, b), (a, c), (b, c).
    tris = [ends[col[0][0]] + (ends[col[2][0]][1], col[0][0], col[1][0],
                                col[2][0]) for col in lc._cols[2]]
    m = 2 * p - 1
    # The shared entries, as many per degree as the stage has rows.
    (s0, _), (s1, _), (s2, _) = blocks[0]
    rows = (s0 * nt + ne * m + nv, s1 * nt + 2 * p * ne, s2 * nt)
    plus0, plus1, plus2 = ([(r, 1) for r in range(n)] for n in rows)
    minus0, minus1 = ([(r, -1) for r in range(n)] for n in rows[:2])

    def shared():
        """The labels of the shared 'e' and 'o' vertices, in order."""
        return ([("e", u, v, i) for u, v in ends for i in range(1, 2 * p)]
                + [("o", i) for i in range(nv)])

    def build(blocks, vertices):
        (b0, _), (b1, bounds1), (b2, bounds2) = blocks
        v0, e0 = b0 * nt, b1 * nt       # the first shared vertex and edge
        o0 = v0 + ne * m                # the first 'o' vertex
        n0, n1 = o0 + nv, e0 + 2 * p * ne

        def copy0(x, t, a, b, c, ab, ac, bc):
            """Of x, one entry per vertex, those of the copy over the
            triangle t = (a, b, c), in the one-triangle order."""
            return (x[b0 * t:b0 * t + b0] + x[v0 + ab * m:v0 + ab * m + m]
                    + x[v0 + ac * m:v0 + ac * m + m]
                    + x[v0 + bc * m:v0 + bc * m + m]
                    + [x[o0 + a], x[o0 + b], x[o0 + c]])

        def copy1(x, t, ab, ac, bc):
            """The same for one entry per edge."""
            return (x[b1 * t:b1 * t + b1]
                    + x[e0 + 2 * p * ab:e0 + 2 * p * (ab + 1)]
                    + x[e0 + 2 * p * ac:e0 + 2 * p * (ac + 1)]
                    + x[e0 + 2 * p * bc:e0 + 2 * p * (bc + 1)])

        cols1, cols2 = [], []
        for t, (a, b, c, ab, ac, bc) in enumerate(tris):
            entries = (copy0(plus0, t, a, b, c, ab, ac, bc)
                       + copy0(minus0, t, a, b, c, ab, ac, bc))
            cols1 += [g(entries) for g in bounds1]
            entries = (copy1(plus1, t, ab, ac, bc)
                       + copy1(minus1, t, ab, ac, bc))
            cols2 += [g(entries) for g in bounds2]
        for n, (u, v) in enumerate(ends):
            r = v0 + n * m              # the row of e_1 on the edge n
            cols1 += [(minus0[r], plus0[r + 1]), (minus0[r], plus0[o0 + u]),
                      *zip(minus0[r + 1:r + m - 1], plus0[r + 2:r + m]),
                      (minus0[r + m - 1], plus0[o0 + v])]

        return SimplicialComplex._lazy(vertices, chains.ChainComplex._make(
            (n0, n1, b2 * nt), {1: tuple(cols1), 2: tuple(cols2)}))

    nxt = build(blocks[0], lambda: [("c", a, b, c) + s for a, b, c, *_ in tris
                                    for s in suffixes] + shared())
    cone = build(blocks[1], lambda: [("a", a, b, c) for a, b, c, *_ in tris]
                 + shared())
    # The bonding fixes the shared skeleton and sends each copy onto the
    # cone over its triangle, collapsing what has two 'c' vertices.  A
    # copy's simplex starts at its 'c' vertex and its image at the apex,
    # the rest in the same order, so every entry is 1: per copy, one
    # itemgetter picks each column among the cone's one-entry columns of
    # that triangle's block and the empty column.
    columns = {}
    for k, rank in enumerate(cone.f_vector()):
        bc = blocks[1][k][0]
        unit = [(e,) for e in (plus0, plus1, plus2)[k][:rank]]
        cols = []
        for t in range(nt):
            cols += picks[k](unit[bc * t:bc * t + bc] + [()])
        columns[k] = tuple(cols + unit[bc * nt:])
    return nxt, cone, SimplicialMap._make(
        nxt, cone, None,
        chains.ChainMap._make(nxt.chain_complex(), cone.chain_complex(),
                              columns))


def pontryagin_stage(p, k):
    """Stages L_1 .. L_{k+1} of the Pontryagin-style construction for
    the prime p, with the bonding collapses between them.

    L_1 is the boundary of the 3-simplex; each later stage replaces
    every triangle by the mapping cylinder of the p-fold circle
    covering.  The j-th bonding map goes from L_{j+1} onto a cone
    retriangulation of L_j (same underlying space).  k is limited to 2
    to keep complexes of workable size.

    L_1 has the vertices 0 .. 3; later stages and the cones have flat
    labels such as ('o', i), ('e', i, j, t), ('c', i, j, k, ...) and
    ('a', i, j, k), whose ints are positions in the sorted vertex list
    of the stage before.  Each later stage, and each cone, lists in
    every degree first one block per triangle of the stage before (the
    simplices with a 'c' or 'a' vertex), then the shared subdivided
    1-skeleton.  It is built with its chain complex, the bonding with
    its chain map, straight from that layout and from one template of
    the single triangle; simplices, the label index and the vertex map
    are read off that chain data only when a caller reads them (see
    _replace_triangles).
    """
    check_prime(p)
    if k not in (1, 2):
        raise ValueError(f"stage count must be 1 or 2: {k!r}")
    template = _one_triangle(p)
    stages = [boundary_simplex(3)]
    bondings = []
    for _ in range(k):
        nxt, _, q = _replace_triangles(stages[-1], p, template)
        stages.append(nxt)
        bondings.append(q)
    return stages, bondings


# -- Edwards-Walsh skeleta ---------------------------------------------------

def ew_skeleton(k_complex: SimplicialComplex, group, n):
    """The Edwards-Walsh modification of the n-skeleton over Z or Z/p.

    For Z this is the n-skeleton's chain complex itself.  For Z/p one
    (n+1)-cell is glued onto each (n+1)-simplex with attaching degree
    p, killing the simplex boundary only modulo p.  Returns the chain
    complex together with the inclusion of the n-skeleton's chains.
    Both are read off k_complex.chain_complex(): its degrees up to n
    are the skeleton's chains, and its boundary columns of degree n + 1,
    times p, attach the new cells.  No label is read.
    """
    if not (isinstance(n, int) and n >= 2):
        raise ValueError(f"Edwards-Walsh skeleta need n >= 2: {n!r}")
    c = k_complex.chain_complex()
    base = chains.ChainComplex._make(
        c.ranks[:n + 1], {k: cols for k, cols in c._cols.items() if k <= n})
    ident = {k: tuple(((j, 1),) for j in range(base.rank(k)))
             for k in range(base.top + 1)}
    if group is Z_GROUP:
        return base, chains.ChainMap._make(base, base, ident)
    if not (isinstance(group, Zmod) and group.k == 1):
        raise ValueError(f"Edwards-Walsh groups are Z or Z/p: {group!r}")
    ranks = tuple(c.rank(k) for k in range(n + 2))
    attach = tuple(tuple([(r, v * group.p) for r, v in col])
                   for col in c._cols.get(n + 1, ()))
    ew = chains.ChainComplex._make(ranks, {**base._cols, n + 1: attach})
    return ew, chains.ChainMap._make(base, ew, ident)


# -- homology adapters -------------------------------------------------------

def homology_of(x: SimplicialComplex, coeff=Z_GROUP, relative_to=None):
    """Simplicial homology, absolute or of the pair (x, relative_to)."""
    sub = x.indices_of(relative_to) if relative_to is not None else None
    return chains.homology(x.chain_complex(), coeff, sub)


def cohomology_of(x: SimplicialComplex, coeff=Z_GROUP, relative_to=None):
    sub = x.indices_of(relative_to) if relative_to is not None else None
    return chains.cohomology(x.chain_complex(), coeff, sub)


def induced(f: SimplicialMap, degree, coeff=Z_GROUP, relative=None,
            cohomology=False):
    """Induced map on (co)homology, optionally of pairs.

    relative, when given, is (subcomplex of source, subcomplex of
    target); the map must carry the first into the second.  Cohomology
    reverses the arrow: the matrix maps target classes to source
    classes."""
    cm = f.chain_map()
    if relative is not None:
        a_src, a_tgt = relative
        cm = cm.quotient(f.source.indices_of(a_src),
                         f.target.indices_of(a_tgt))
    return chains.induced_map(cm, degree, coeff, cohomology)


# -- text exchange -----------------------------------------------------------

def complex_to_text(x: SimplicialComplex):
    """One simplex per line, vertices as indices into the sorted
    vertex list."""
    order = {v: i for i, v in enumerate(x.vertices())}
    lines = []
    for s in x.all_simplices():
        lines.append(" ".join(str(order[v]) for v in s))
    return "\n".join(lines) + "\n"


def complex_from_text(text):
    simplices = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        simplices.append(tuple(int(tok) for tok in line.split()))
    if not simplices:
        raise ValueError("no simplices in input")
    return SimplicialComplex(simplices)


def map_to_text(f: SimplicialMap):
    """One vertex assignment per line, as 'i -> j' in index form."""
    src = {v: i for i, v in enumerate(f.source.vertices())}
    tgt = {v: i for i, v in enumerate(f.target.vertices())}
    lines = []
    for v in f.source.vertices():
        lines.append(f"{src[v]} -> {tgt[f.vertex_map[v]]}")
    return "\n".join(lines) + "\n"


def map_from_text(text, source, target):
    """Read the 'i -> j' lines of map_to_text.  A line not of that form
    (no arrow, or a side that is not an integer), an index outside the
    vertex list (a negative one included), or a source index given two
    different images raises ValueError naming the line."""
    sv = source.vertices()
    tv = target.vertices()
    vmap = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        # Without an arrow, right is empty and int() refuses it.
        left, _, right = line.partition("->")
        try:
            i, j = int(left), int(right)
        except ValueError:
            raise ValueError(f"expected 'i -> j': {line!r}") from None
        if not (0 <= i < len(sv) and 0 <= j < len(tv)):
            raise ValueError(f"vertex index out of range: {line!r}")
        if vmap.setdefault(sv[i], tv[j]) != tv[j]:
            raise ValueError(f"vertex {i} has two images: {line!r}")
    return SimplicialMap(source, target, vmap)
