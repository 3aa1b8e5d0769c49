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

Every complex is one record, however it is made: its sorted vertex
labels and its chain complex on vertex positions, a simplex being also
the tuple of its vertices' positions in the sorted vertex list, which
sorts as its labels do.  SimplicialComplex(...) closes its input and
keeps only that record.  Mapping cylinders number the face poset's
elements once and enumerate its chains as tuples of those positions;
each Pontryagin stage, and the cone its bonding map lands in, lists in
every degree one block per triangle of the stage before, each laid out
as the replacement of a single triangle, then the shared subdivided
1-skeleton, and is emitted in basis order from that one-triangle
template; a skeleton cuts the chain complex.  A map is one record too:
the position of each source vertex's image among the target's
vertices, which a bonding reads off its degree-0 columns.  Simplices as
label tuples and vertex maps are views, made only when a caller first
reads them, so homology, relative homology, f-vectors, induced maps and
Edwards-Walsh skeleta read no label.
"""

from __future__ import annotations

from itertools import chain, combinations, count, repeat
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


def _chains_on_positions(degrees):
    """The chain complex, in the sorted-vertex orientation, of a complex
    given per degree by its simplices as tuples of vertex positions,
    every tuple and every degree sorted.  A vertex's row is its
    position; the faces of a k-simplex (k >= 2) are looked up among the
    int tuples of degree k - 1, one face slot at a time.  Dropping a
    later vertex leaves an earlier face, so the rows come out ascending
    when the dropped vertex runs down."""
    columns = {}
    if len(degrees) > 1:
        columns[1] = tuple([((a, -1), (b, 1)) for a, b in degrees[1]])
    for k in range(2, len(degrees)):
        row = dict(zip(degrees[k - 1], count()))
        columns[k] = tuple(zip(*[
            zip(map(row.__getitem__,
                    map(itemgetter(*[j for j in range(k + 1) if j != i]),
                        degrees[k])),
                repeat(-1 if i % 2 else 1))
            for i in range(k, -1, -1)]))
    return chains.ChainComplex._make(tuple(map(len, degrees)) or (0,),
                                     columns)


def _perm_sign(values):
    sign = 1
    vals = list(values)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] > vals[j]:
                sign = -sign
    return sign


def _on_positions(closed):
    """The record of closed, a collection of sorted label tuples closed
    under faces: its sorted vertex labels and its chain complex on the
    tuples of vertex positions, every degree sorted as ints."""
    labels = sorted([s[0] for s in closed if len(s) == 1])
    where = dict(zip(labels, count()))
    degrees = [[] for _ in range(max(map(len, closed), default=0))]
    for s in closed:
        degrees[len(s) - 1].append(tuple([where[v] for v in s]))
    for ss in degrees:
        ss.sort()
    return tuple(labels), _chains_on_positions(degrees)


class SimplicialComplex:
    """An abstract simplicial complex, stored closed under faces.

    Simplices are sorted tuples of vertex labels.  The constructor
    accepts any iterable of simplices (maximal ones suffice) and closes
    it downward.  However it is made, a complex is one record: its
    sorted vertex labels and its chain complex on vertex positions (see
    _lazy); dim, f_vector, has, == and hash read only that record (see
    _index and _key); the simplices as label tuples are a view made on
    first use.  The empty complex has f_vector () and dim -1; its chain
    complex, like every chain complex, has a degree 0, of rank 0.

    >>> s = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
    >>> s.f_vector()
    (3, 3)
    """

    __slots__ = ("_degrees", "_labels", "_lookup", "_chain")

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
        self._install(*_on_positions(seen))

    @classmethod
    def _make(cls, closed):
        """Trusted constructor: closed is a collection of distinct,
        sorted, nondegenerate simplices, closed under faces.  Nothing is
        checked or closed."""
        return cls._lazy(*_on_positions(closed))

    @classmethod
    def _lazy(cls, vertices, chain):
        """Trusted constructor: vertices is the tuple of sorted vertex
        labels, or a callable that makes them on first use, and chain
        the chain complex on vertex positions, in the sorted-vertex
        orientation with every degree in sorted order.  Nothing is
        checked."""
        x = cls.__new__(cls)
        x._install(vertices, chain)
        return x

    def _install(self, vertices, chain):
        self._labels = vertices
        self._chain = chain
        self._degrees = None
        self._lookup = None

    @property
    def _by_dim(self):
        """Each degree's tuple of simplices, made on first use from the
        vertex labels and the position tuples that _positions reads off
        the boundary columns."""
        if self._degrees is None:
            labels = self.vertices()
            self._degrees = {k: tuple([tuple([labels[v] for v in s])
                                       for s in ss])
                             for k, ss in enumerate(self._positions())}
        return self._degrees

    def _positions(self):
        """Per degree, the simplices in the order of simplices(k), each
        as the tuple of its vertices' positions in the sorted vertex
        list, read off the boundary columns without a label: the rows of
        a column ascend, so its first two faces drop the last and the
        second-to-last vertex, and the simplex is the first with the last
        vertex of the second."""
        cols = self._chain._cols
        ranks = self.f_vector()
        faces = [(v,) for v in range(ranks[0])] if ranks else []
        out = [faces] if ranks else []
        for k in range(1, len(ranks)):
            faces = [faces[col[0][0]] + faces[col[1][0]][-1:]
                     for col in cols[k]]
            out.append(faces)
        return out

    @property
    def _index(self):
        """Each simplex's position tuple, mapped to its index in its
        degree (tuples of different degrees differ in length), built on
        first use and kept: has, indices_of and chain_map read it."""
        if self._lookup is None:
            self._lookup = dict(chain.from_iterable(
                zip(ss, count()) for ss in self._positions()))
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
        """The sorted vertex labels, made once and kept."""
        if callable(self._labels):
            self._labels = tuple(self._labels())
        return self._labels

    def has(self, simplex):
        """Whether the labels span a simplex; a label that is not a
        vertex answers False, even one that does not compare."""
        where = dict(zip(self.vertices(), count()))
        places = [where.get(v) for v in simplex]
        return None not in places and tuple(sorted(places)) in self._index

    def f_vector(self):
        # The chain ranks count the simplices, but for the empty
        # complex's degree 0 of rank 0.
        ranks = self._chain.ranks
        return ranks if ranks[0] else ()

    def euler(self):
        return sum((-1) ** k * n for k, n in enumerate(self.f_vector()))

    def skeleton(self, n):
        """The n-skeleton: the chain complex cut after degree n."""
        if n < 0:
            return SimplicialComplex([])
        c = self._chain
        cut = {k: cols for k, cols in c._cols.items() if k <= n}
        return SimplicialComplex._lazy(
            self.vertices, chains.ChainComplex._make(c.ranks[:n + 1], cut))

    def full_subcomplex(self, keep_vertex):
        """The induced subcomplex on vertices passing the predicate."""
        return SimplicialComplex._make(
            [s for s in self.all_simplices()
             if all(keep_vertex(v) for v in s)])

    def chain_complex(self):
        """Simplicial chains with the sorted-vertex orientation.  The
        degree-k basis order matches simplices(k); maps over the same
        complex share the object."""
        return self._chain

    def indices_of(self, sub):
        """Index sets of a subcomplex, per degree, for relative work.
        Sub's vertex labels are placed among this complex's once; then
        each simplex of sub, as a tuple of positions, is looked up among
        this complex's.  Positions sort as the labels do, so the indices
        come out ascending."""
        where = dict(zip(self.vertices(), count()))
        labels = sub.vertices()
        place = list(map(where.get, labels))
        # Sub's vertices are often this complex's first ones, in order.
        identity = place == list(range(len(place)))
        index = self._index
        out = {}
        for k, ss in enumerate(sub._positions()):
            idx = tuple(map(index.get, ss if identity else [
                tuple(map(place.__getitem__, s)) for s in ss]))
            if None in idx:
                s = ss[idx.index(None)]
                raise ValueError("not a simplex of this complex: "
                                 f"{tuple([labels[v] for v in s])!r}")
            out[k] = idx
        return out

    def _key(self):
        """What == and hash compare: builders install canonical columns,
        so equal records are equal simplex lists."""
        c = self._chain
        return self.vertices(), c.ranks, tuple(sorted(c._cols.items()))

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"SimplicialComplex(f_vector={self.f_vector()!r})"


class SimplicialMap:
    """A simplicial map given on vertices; images of simplices are
    checked to be simplices of the target (collapses are allowed).  It
    is stored as the position of each vertex's image (see _make)."""

    __slots__ = ("source", "target", "_vertex_map", "_places", "_chain")

    def __init__(self, source, target, vertex_map):
        self.source = source
        self.target = target
        self._vertex_map = vertex_map = dict(vertex_map)
        self._chain = None
        sv = source.vertices()
        for v in sv:
            if v not in vertex_map:
                raise ValueError(f"vertex {v!r} has no image")
        src_vertices = set(sv)
        where = dict(zip(target.vertices(), count()))
        for v, w in vertex_map.items():
            if v not in src_vertices:
                raise ValueError(f"vertex {v!r} is not in the source")
            if w not in where:
                raise ValueError(f"image vertex {w!r} is not in the target")
        self._places = [where[vertex_map[v]] for v in sv]
        # A collapsed simplex's image is that of a face of lower degree
        # that does not collapse, which chain_map checks first.
        try:
            self.chain_map()
        except KeyError as missing:
            raise ValueError(f"image of {missing.args[0]!r} is not a "
                             "simplex of the target") from None

    @classmethod
    def _make(cls, source, target, places, chain=None):
        """Trusted constructor: places lists, in source vertex order, the
        position among the target's vertices of each source vertex's
        image, and chain, if given, is the chain map that chain_map would
        build; places may be None when chain is given (see _positions).
        It carries simplices to simplices.  Nothing is checked."""
        f = cls.__new__(cls)
        f.source = source
        f.target = target
        f._vertex_map = None
        f._places = places
        f._chain = chain
        return f

    @property
    def vertex_map(self):
        """The image of each source vertex, made on first use off the
        vertex positions."""
        if self._vertex_map is None:
            tv = self.target.vertices()
            self._vertex_map = dict(zip(self.source.vertices(),
                                        [tv[w] for w in self._positions()]))
        return self._vertex_map

    def _positions(self):
        """Per source vertex, in order, the position of its image among
        the target's vertices.  A map made with its chain map alone reads
        them off the degree-0 columns: the column of the j-th source
        vertex holds one row, that position."""
        if self._places is None:
            self._places = [col[0][0]
                            for col in self._chain._cols.get(0, ())]
        return self._places

    def image(self, simplex):
        return tuple(sorted(set(self.vertex_map[v] for v in simplex)))

    def chain_map(self):
        """The induced map of simplicial chain complexes, cached, built
        on vertex positions.  Simplices collapsed by the vertex map
        contribute zero; KeyError names the first source simplex whose
        image is not a simplex of the target."""
        if self._chain is not None:
            return self._chain
        index = self.target._index
        places = self._positions()
        columns = {}
        for k, ss in enumerate(self.source._positions()):
            cols = []
            for s in ss:
                imgs = tuple([places[v] for v in s])
                t = tuple(sorted(imgs))
                n = index.get(t)
                if n is not None:
                    # An image already in order keeps the orientation.
                    cols.append(((n, 1 if t == imgs else _perm_sign(imgs)),))
                elif any(map(eq, t, t[1:])):
                    # A collapsed simplex repeats a vertex, next to
                    # itself once sorted.
                    cols.append(())
                else:
                    sv = self.source.vertices()
                    raise KeyError(tuple([sv[v] for v in s]))
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
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 0):
        raise ValueError(f"need n >= 0: {n!r}")
    return SimplicialComplex._make([s for k in range(1, n + 2)
                                    for s in combinations(range(n + 1), k)])


def boundary_simplex(n):
    """The boundary of the n-simplex, a combinatorial (n-1)-sphere."""
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 1):
        raise ValueError(f"need n >= 1: {n!r}")
    return SimplicialComplex._make([s for k in range(1, n + 1)
                                    for s in combinations(range(n + 1), k)])


def circle(k):
    """The cyclic triangulation of the circle on vertices 0..k-1."""
    if not (isinstance(k, int) and k >= 3):
        raise ValueError(f"a triangulated circle needs k >= 3: {k!r}")
    return SimplicialComplex._make([(i,) for i in range(k)] + [(0, k - 1)]
                                   + [(i, i + 1) for i in range(k - 1)])


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
    # The vertices of both circles are their own positions.
    return SimplicialMap._make(circle(p * k), circle(k),
                               [i % k for i in range(p * k)])


# -- mapping cylinders -------------------------------------------------------

class Cylinder:
    """A simplicial mapping cylinder.

    complex is the order complex of the face poset of source and target
    joined along the map; domain and target are the two ends (the ends
    carry the barycentric subdivisions of the original complexes).
    retraction collapses everything onto the target end.

    The poset's elements are numbered once, in the sorted order of their
    labels ('K', s) and ('L', t): every source simplex s, in order, then
    every target simplex t.  The chains are enumerated as tuples of
    those positions, which sort as the labels do, so the complex and its
    ends come with their chain complexes and make their labels only when
    a caller reads one (see SimplicialComplex._lazy).  The three maps,
    and the cone and collapse map of collapse, are given by positions
    too.
    """

    __slots__ = ("map", "complex", "domain", "target",
                 "domain_inclusion", "target_inclusion", "retraction")

    def __init__(self, f: SimplicialMap):
        self.map = f
        # A simplex as the tuple of its vertex positions sorts as its
        # labels do, in both complexes.
        ks = sorted(chain.from_iterable(f.source._positions()))
        ls = sorted(chain.from_iterable(f.target._positions()))
        nk = len(ks)
        n = nk + len(ls)
        at_k = {s: x for x, s in enumerate(ks)}
        at_l = {t: y for y, t in enumerate(ls, nk)}
        # x < y in the poset when x is a proper face of y on the same
        # side, or x is in K and f(x) is a face of y in L; up[x] lists
        # the elements above x.
        up = [[] for _ in range(n)]
        for at in (at_k, at_l):
            for s, y in at.items():
                for k in range(1, len(s)):
                    for face in combinations(s, k):
                        up[at[face]].append(y)
        places = f._positions()
        by_image = {}
        retract = []
        for x, s in enumerate(ks):
            image = tuple(sorted({places[v] for v in s}))
            by_image.setdefault(image, []).append(x)
            retract.append(at_l[image] - nk)
        retract.extend(range(n - nk))
        for t in ls:
            for k in range(1, len(t) + 1):
                for face in combinations(t, k):
                    for x in by_image.get(face, ()):
                        up[x].append(at_l[t])
        # Every chain of the poset is found once, in poset order, by
        # extending each chain by an element above its top.  K lies only
        # below L, and every K element sorts before every L element: a
        # chain lies in the K end iff its last position does, and in the
        # L end iff its first position does.
        degrees = []
        level = [(x,) for x in range(n)]
        while level:
            degrees.append(sorted([tuple(sorted(c)) for c in level]))
            level = [c + (y,) for c in level for y in up[c[-1]]]
        domain = [d for d in ([s for s in ss if s[-1] < nk]
                              for ss in degrees) if d]
        target = [d for d in ([tuple([v - nk for v in s])
                               for s in ss if s[0] >= nk]
                              for ss in degrees) if d]

        def labels():
            sv = f.source.vertices()
            tv = f.target.vertices()
            return ([("K", tuple([sv[v] for v in s])) for s in ks]
                    + [("L", tuple([tv[v] for v in t])) for t in ls])

        whole = self.complex = SimplicialComplex._lazy(
            labels, _chains_on_positions(degrees))
        self.domain = SimplicialComplex._lazy(
            lambda: whole.vertices()[:nk], _chains_on_positions(domain))
        self.target = SimplicialComplex._lazy(
            lambda: whole.vertices()[nk:], _chains_on_positions(target))
        self.domain_inclusion = SimplicialMap._make(
            self.domain, self.complex, range(nk))
        self.target_inclusion = SimplicialMap._make(
            self.target, self.complex, range(nk, n))
        self.retraction = SimplicialMap._make(self.complex, self.target,
                                              retract)

    def collapse(self):
        """Collapse the target end to a point: returns (cone, xi, base)
        where cone is the cone on the domain end, xi the collapse map,
        and base the domain end inside the cone.

        The cone's apex ('apex',) sorts after every K element, so its
        position is the one after theirs: a simplex of the cone is one of
        the domain end, or one of those with the apex appended."""
        nk = self.domain.chain_complex().ranks[0]
        n = self.complex.chain_complex().ranks[0]
        ends = self.domain._positions()
        apex = (nk,)
        degrees = [[*ends[0], apex]] if ends else [[apex]]
        for k in range(1, len(ends) + 1):
            tops = [s + apex for s in ends[k - 1]]
            degrees.append(sorted(ends[k] + tops) if k < len(ends) else tops)
        cone = SimplicialComplex._lazy(
            lambda: [*self.domain.vertices(), ("apex",)],
            _chains_on_positions(degrees))
        xi = SimplicialMap._make(self.complex, cone,
                                 [*range(nk), *[nk] * (n - nk)])
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
    _replace_triangles: the blocks of the stage and of the cone, the
    label suffixes of the stage's six 'c' vertices, which name the
    vertices of every copy, and per degree an itemgetter that picks each
    bonding column of the stage's block among the cone's block of
    one-entry columns followed by the empty column.  Every copy in a
    real stage is laid out as this one; only its chain columns are read.

    A complex's block, per degree, is the number of its simplices that
    start at the copy's own vertices (the six 'c' vertices, or the cone's
    apex), which sort first, and the boundary column of each as an
    itemgetter of its entries in the list of the rows of the degree
    below, each with the sign 1, followed by the same rows with the sign
    -1.

    The stage's vertices are ints that sort as a copy's labels do: the
    six 'c' vertices, one per simplex of the covered circle on 0, 1, 2,
    then the 2p - 1 'e' vertices of the edges (0, 1), (0, 2), (1, 2),
    then the three 'o' corners.  Round the 6p-gon, the 3p vertices and
    3p edges of the covering circle alternate, vertex i lying over
    i mod 3.  The stage has 6p triangles over the 6p-gon's edges, each
    to the 'c' vertex under its covering edge, and 6p joining each
    covering vertex to its image and to the image's two edges; its
    edges are their faces, those from a 'c' vertex first, then the
    6p-gon's.  The cone joins the 6p-gon to an apex that sorts first, as
    ('a', 0, 1, 2) does: its vertices are the apex and the 6p-gon's, in
    order, its edges the 6p from the apex and then the 6p-gon's, and its
    triangles one per edge of the 6p-gon.  So every row is read off
    the sorted int tuples of the stage, and no complex is built."""
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
        triangles += [(edge, *sorted((v, e))), (edge, *sorted((e, w)))]
        triangles += [(*sorted((c[(a,)], c[(min(a, x), max(a, x))])), v)
                      for x in range(3) if x != a]
    triangles.sort()
    edges = sorted({f for a, b, d in triangles
                    for f in ((a, b), (a, d), (b, d))})
    row = dict(zip(edges, count()))
    own = 12 * p + 6                    # the edges from a 'c' vertex
    n = 6 * p                           # the 6p-gon's vertices and edges
    blocks = ([(6, []),
               (own, [itemgetter(o + 3 + u, w) for u, w in edges[:own]]),
               (len(triangles), [itemgetter(row[a, b], len(edges) + row[a, d],
                                            row[b, d])
                                 for a, b, d in triangles])],
              # The cone's vertex 1 + j is the stage's vertex 6 + j; its
              # edge (0, j) is row j - 1, the 6p-gon's j-th edge row n + j.
              [(1, []),
               (n, [itemgetter(n + 1, j) for j in range(1, n + 1)]),
               (n, [itemgetter(x - 6, 2 * n + y - 6, n + j)
                    for j, (x, y) in enumerate(edges[own:])])])
    # A block simplex goes to the apex and the rest of it, or collapses
    # when it has a second 'c' vertex.
    picks = [itemgetter(*[0] * 6),
             itemgetter(*[n if w < 6 else w - 6 for _, w in edges[:own]]),
             itemgetter(*[n if b < 6 else row[b, d] - own
                          for _, b, d in triangles])]
    return blocks, suffixes, picks


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
    the single triangle; simplices and the vertex map are read off that
    chain data only when a caller reads them (see _replace_triangles).
    """
    check_prime(p)
    if not (isinstance(k, int) and not isinstance(k, bool) and k in (1, 2)):
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
    The skeleton's chains are those of k_complex.skeleton(n), and the
    boundary columns of degree n + 1 of k_complex.chain_complex(), times
    p, attach the new cells.  No label is read.
    """
    if not (isinstance(n, int) and n >= 2):
        raise ValueError(f"Edwards-Walsh skeleta need n >= 2: {n!r}")
    c = k_complex.chain_complex()
    base = k_complex.skeleton(n).chain_complex()
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
    return "\n".join(" ".join(map(str, s))
                     for ss in x._positions() for s in ss) + "\n"


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
    lines = [f"{i} -> {j}" for i, j in enumerate(f._positions())]
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
