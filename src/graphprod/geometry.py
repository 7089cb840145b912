"""Desk-scale geometry of the quasi-median Cayley graph of a graph product.

The Cayley graph is taken over the union of the non-trivial vertex-group
elements, so edges are labelled by vertices of the defining graph and the
graph metric is the reduced-word length.  This module materializes finite
balls around the identity for use as brute-force oracles, identifies
hyperplanes algebraically by (label vertex, minimal coset representative of
the carrier), constructs flat grids spanned by two diagonals of an induced
square, and computes electrified distances on cone-off balls.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .graphs import GraphMismatchError, is_star_of_vertex
from .squares import minsquare_subgraphs
from .words import (
    NormalForm,
    _coset_prefix,
    _coset_rep,
    _last_syllables,
    _push,
    format_word,
    identity,
    invert,
    multiply,
    reduce_word,
    Word,
)

__all__ = [
    "BallCapExceeded",
    "HyperplaneId",
    "CayleyBall",
    "FlatGrid",
    "ElectrifiedDistance",
    "build_ball",
    "hyperplane_of_edge",
    "separating_hyperplanes",
    "transverse",
    "flat_witness",
    "electrified_distance",
    "is_essential",
]

DEFAULT_VERTEX_CAP = 200_000


class BallCapExceeded(RuntimeError):
    """Ball construction hit the vertex cap; carries the last completed radius."""

    def __init__(self, cap, radius_reached):
        self.cap = cap
        self.radius_reached = radius_reached
        super().__init__(
            f"vertex cap {cap} exceeded; completed radius {radius_reached}")


class HyperplaneId(NamedTuple):
    """A hyperplane of the Cayley graph, identified algebraically: the vertex
    labelling its edges and the minimal-length representative of the carrier
    coset (the coset of the label's star-parabolic).  A plain tuple, so an
    id also equals the tuple (label, coset)."""

    label: str
    coset: NormalForm

    def __repr__(self):
        return f"Hyp({self.label}|{format_word(self.coset)})"


# This module builds every HyperplaneId as _new_id(HyperplaneId, (label,
# coset)): the construction NamedTuple's own __new__ performs, without its
# Python frame.
_new_id = tuple.__new__


class CayleyBall:
    """A breadth-first ball of given radius around the identity.

    Vertices are normal forms indexed in discovery order (identity first,
    level by level).  `adj` holds plain Cayley edges only, each vertex's
    neighbours in the order the edges were recorded; when electrified,
    cone adjacency is kept as coset groups (each group is one minsquare
    parabolic coset restricted to the ball, coned to a clique).
    """

    def __init__(self, graph, radius, verts, index, adj, edge_label,
                 electrified, cone_groups):
        self.graph = graph
        self.radius = radius
        self.verts = verts
        self._index = index
        self.adj = adj
        self._edge_label = edge_label
        self.electrified = electrified
        self.cone_groups = cone_groups
        # vertex -> the indices of its groups, in index order; no table
        # when there are no groups
        gov = ()
        if cone_groups:
            gov = [() for _ in verts]
            for gi, group in enumerate(cone_groups):
                for i in group:
                    gov[i] += (gi,)
        self._groups_of_vertex = gov
        self._edge_hyp = None

    # --- basic queries ----------------------------------------------------

    @property
    def vertex_count(self):
        return len(self.verts)

    def __contains__(self, nf):
        return nf.graph == self.graph and nf.sylls in self._index

    def index_of(self, nf):
        if nf.graph != self.graph:
            raise GraphMismatchError(f"{nf} is over a graph other than the ball's")
        try:
            return self._index[nf.sylls]
        except KeyError:
            raise ValueError(f"{nf} is outside the radius-{self.radius} ball") from None

    def level(self, i):
        return len(self.verts[i])

    def edges(self):
        """Plain Cayley edges as (i, j, label vertex) with i < j."""
        for (i, j), lab in sorted(self._edge_label.items()):
            yield i, j, lab

    def edge_count(self):
        return len(self._edge_label)

    def cone_edges(self):
        """Cone edges as (i, j) pairs, i < j, each once.  Quadratic in coset
        size; meant for small balls and tests (BFS uses the groups
        directly).  A pair is yielded with the first group holding both
        ends, found from the groups of each end, so nothing is kept."""
        gov = self._groups_of_vertex
        for gi, group in enumerate(self.cone_groups):
            for a, i in enumerate(group):
                mine = gov[i]
                earlier = set(mine[:mine.index(gi)])
                for j in group[a + 1:]:
                    if earlier.isdisjoint(gov[j]):
                        yield i, j

    def cone_edge_count(self):
        """The number of cone edges, counted without listing them: half the
        sum of the vertices' cone degrees, a vertex's degree being the size
        of the union of its groups less one."""
        groups = self.cone_groups
        degrees = 0
        for mine in self._groups_of_vertex:
            if len(mine) == 1:
                degrees += len(groups[mine[0]]) - 1
            elif mine:
                degrees += len(set().union(*(groups[g] for g in mine))) - 1
        return degrees // 2

    # --- metrics ----------------------------------------------------------

    def distances_from(self, indices=None):
        """Graph distances (plain edges, no cones) from the given source
        indices (all vertices by default) to every ball vertex: one list of
        ints per source."""
        if indices is None:
            indices = range(self.vertex_count)
        return [self._bfs(i, cones=False) for i in indices]

    def bfs_electrified(self, source):
        """BFS distances from one vertex using plain edges plus cone cliques."""
        return self._bfs(source, cones=True)

    def _bfs(self, source, cones):
        """Breadth-first distances from one vertex over the plain edges and,
        if `cones`, the cone cliques.  Each coset group is swept at most
        once, so the cone cliques never get materialized."""
        adj = self.adj
        cone_groups = self.cone_groups
        groups_of_vertex = self._groups_of_vertex
        cones = cones and bool(cone_groups)
        dist = [-1] * self.vertex_count
        dist[source] = 0
        used_group = [False] * len(cone_groups)
        queue = [source]
        for i in queue:  # the queue grows while it is read
            d = dist[i] + 1
            for j in adj[i]:
                if dist[j] < 0:
                    dist[j] = d
                    queue.append(j)
            if not cones:
                continue
            for gi in groups_of_vertex[i]:
                if used_group[gi]:
                    continue
                used_group[gi] = True
                for j in cone_groups[gi]:
                    if dist[j] < 0:
                        dist[j] = d
                        queue.append(j)
        return dist

    # --- hyperplanes --------------------------------------------------------

    def edge_hyperplanes(self):
        """Map each plain edge (i, j) to its HyperplaneId (cached), in the
        order the edges were recorded.  A u-labelled edge at x is dual to
        the hyperplane carried by the coset x<star(u)>, named by that
        coset's head: one `_coset_heads` pass over the stars of all labels
        finds the heads at the lower ends of the edges (the proof is
        there), and each edge's id is read from a list per label indexed
        by head.  Edges of one label and head share one id, built once."""
        if self._edge_hyp is None:
            g = self.graph
            verts = self.verts
            stars = [g._adj_bits[v] | 1 << v for v in range(g.n)]
            heads = _coset_heads(self, stars, [k > 2 for k in g._orders_ix])
            # label -> (its head table, its ids by head, filled on first use)
            tables = {name: (head, [None] * len(head))
                      for name, head in zip(g.vertices, heads)}
            new_id = _new_id
            hyp = {}
            for e, lab in self._edge_label.items():
                head, id_of = tables[lab]
                k = head[e[0]]
                h = id_of[k]
                if h is None:
                    h = id_of[k] = new_id(HyperplaneId, (lab, verts[k]))
                hyp[e] = h
            self._edge_hyp = hyp
        return self._edge_hyp

    def __repr__(self):
        kind = "electrified ball" if self.electrified else "ball"
        return (f"<{kind} of {self.graph.name}: radius {self.radius}, "
                f"{self.vertex_count} vertices>")


def build_ball(graph, radius, electrified=False, max_vertices=DEFAULT_VERTEX_CAP):
    """BFS-complete ball of the given radius.  Raises BallCapExceeded (with
    the last completed radius) if the vertex count passes max_vertices.

    The cache keeps the last ball built, keyed on the normalised arguments
    however they are spelled.  Only two callers reuse a ball: an
    electrified build right after the plain build of the same arguments,
    and repeated `electrified_distance` calls at one radius; one entry
    serves both and keeps at most one sweep alive.  An electrified ball is
    the plain ball of the same graph, radius and cap, built or taken from
    the cache, with the cone groups laid on top (`_electrify`), and both
    hold the same read-only vertices, index, adjacency and edge labels.

    One breadth-first sweep over the growing vertex list multiplies each
    vertex x by the generators s = (v, e) in declaration order, but computes
    only the products that land in the ball, deciding from the last letters
    of x (`words._last_syllables`):

    * v is not a last letter of x: x s is one syllable longer, so it is
      skipped when x lies on the outermost level;
    * v is a last letter with exponent f and f + e is the order of v: the
      syllable cancels and x s is one shorter.  It is skipped: that shorter
      vertex was swept before x, and there v was not a last letter (else x
      would not be longer), so its product with the inverse generator
      already recorded this edge with the same label;
    * otherwise the syllables amalgamate and x s lies on the level of x.

    Every skipped product was either discarded or a repeat of an edge
    already recorded, so vertex order, edge order and cap outcome are those
    of the sweep over all products.  Each edge is recorded once, from its
    lower-index end: that end is swept first and always forms the product
    (a growth from the shorter end, or an amalgamation, which both ends of
    a level form), so the edges keep the order in which the sweep first
    meets them, and `_coset_heads` relies on that order.
    Each vertex lists its neighbours in that order too.

    On the outermost level only amalgamations remain, and an amalgamation
    needs a vertex of order above 2.  So an outermost vertex reads only its
    last letters at those vertices and walks only their generators, in
    declaration order; a graph with all orders 2 has none, and its sweep
    stops at the first outermost vertex, since every later one is
    outermost too.

    The cone groups are the minsquare cosets found by `_coset_heads`, the
    edge pass that also finds the carriers of `edge_hyperplanes`: one pass
    for all pieces, grouped by (piece, head) in index order."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if max_vertices < 1:
        raise ValueError("max_vertices must be >= 1")
    return _cached_ball(graph, radius, bool(electrified), max_vertices)


@lru_cache(maxsize=1)
def _cached_ball(graph, radius, electrified, max_vertices):
    if electrified:
        return _electrify(_cached_ball(graph, radius, False, max_vertices))
    return _sweep(graph, radius, max_vertices)


build_ball.cache_info = _cached_ball.cache_info
build_ball.cache_clear = _cached_ball.cache_clear


def _sweep(graph, radius, max_vertices):
    """The plain ball: the last-letter sweep described in `build_ball`."""
    ident = identity(graph)
    verts = [ident]
    index = {ident.sylls: 0}
    edge_label = {}
    orders = graph._orders_ix
    # The identity alone is the radius-0 ball.  At radius 1 and more its
    # neighbours are the Σ(order - 1) generators, all distinct, so past the
    # cap the sweep stops on its first vertex: check that before listing
    # generators, whose number the cap does not bound.
    gens = []
    if radius > 0:
        if 1 + sum(k - 1 for k in orders) > max_vertices:
            raise BallCapExceeded(max_vertices, 0)
        gens = [(v, e, graph.vertices[v], (v, e))
                for v in range(graph.n) for e in range(1, orders[v])]
    every = (1 << graph.n) - 1
    # the vertices of order above 2: the only ones that amalgamate
    big = sum(1 << v for v, k in enumerate(orders) if k > 2)
    big_gens = [gen for gen in gens if orders[gen[0]] > 2]
    # Vertices come level by level, so every vertex within the radius
    # exists before the outermost level is swept, and that level only adds
    # the edges among existing vertices, by amalgamation.
    for ix, x in enumerate(verts):
        sylls = x.sylls
        grow = len(sylls) < radius
        if grow:
            last = _last_syllables(graph, sylls, every)
            walk = gens
        elif big:
            last = _last_syllables(graph, sylls, big)
            walk = big_gens
        else:
            break  # every vertex from here on is outermost
        for v, e, name, s in walk:
            f = last.get(v)
            if f is None:
                if not grow:
                    continue
            elif f + e == orders[v]:
                continue
            out = list(sylls)
            _push(graph, out, s)
            y = tuple(out)
            iy = index.get(y)
            if iy is None:
                if len(verts) >= max_vertices:
                    raise BallCapExceeded(max_vertices, len(sylls))
                iy = len(verts)
                verts.append(NormalForm(graph, y))
                index[y] = iy
            elif iy < ix:
                continue  # recorded while y was swept
            edge_label[ix, iy] = name
    adj = [[] for _ in verts]
    for (i, j) in edge_label:
        adj[i].append(j)
        adj[j].append(i)
    return CayleyBall(graph, radius, tuple(verts), index,
                      tuple(map(tuple, adj)), edge_label, False, ())


def _electrify(ball):
    """The electrified ball over a plain one: its structures shared, the
    minsquare cosets found from the edges by one `_coset_heads` pass over
    all pieces, every table read whole.  A square-free graph has no cosets
    to find, so its edges are not read."""
    graph = ball.graph
    masks = [lam.mask for lam in minsquare_subgraphs(graph)]
    cone_groups = []
    for head in _coset_heads(ball, masks, [True] * len(masks)) if masks else ():
        groups = {}
        for i, h in enumerate(head):
            groups.setdefault(h, []).append(i)
        cone_groups.extend(tuple(g) for g in groups.values() if len(g) >= 2)
    return CayleyBall(graph, ball.radius, ball.verts, ball._index, ball.adj,
                      ball._edge_label, True, tuple(cone_groups))


def _coset_heads(ball, masks, read_outer):
    """For each vertex mask, one table giving for each ball vertex x the
    index of its coset's head: the shortest member of x<mask>, for the
    parabolic subgroup the mask gives.  A table whose flag in `read_outer`
    is false stops before level R, the radius.  `_electrify` asks for the
    masks of all minsquare pieces, all flagged, and reads every entry.
    `CayleyBall.edge_hyperplanes` asks for the stars of all vertices,
    flagged where the vertex has order above 2: it reads the lower end i
    of each edge (i, j), and i lies on level R only when the edge lies
    inside level R, an amalgamation, whose label has order above 2.

    Every table starts as a copy of one index list, and one pass over the
    ball's edges in recording order fills them all: an edge (i, j), i < j,
    labelled u sets head[j] = head[i] in the tables whose mask holds u,
    with two rules on which of them it feeds:

    * the edges whose lower end lies below level R - 1 feed all of them.
      They are a prefix of the recording order, since the sweep records
      an edge while its lower end is swept;
    * every later edge feeds only the flagged ones.  When there are none,
      nothing after the prefix is fed.

    This is exact.  Let p be the shortest member of a coset x<mask> (its
    minimal representative, unique).  Any other member x = p w of the
    ball, with w in <mask> reduced, has a last letter in the mask, and
    dropping it gives a shorter member joined to x by an edge labelled in
    the mask; p itself has no such edge down, and no other member on its
    level.  So once every edge down into a level has fed a table, head
    chains each member on that level to p, and an edge inside the level
    changes nothing, since it joins two members whose head is already p.
    The edges down into a level below R have their lower ends below level
    R - 1, so they lie in the prefix and feed every table; the edges down
    into level R come after it and feed every flagged table.  Both come
    before the edges inside their level, as the sweep records an edge
    while its lower end is swept.  No normal form is built."""
    verts = ball.verts
    cut = _level_start(verts, ball.radius - 1)
    outer = _level_start(verts, ball.radius)
    index = list(range(len(verts)))
    heads = [index[:] if flag else index[:outer] for flag in read_outer]
    # label -> the tables whose mask holds it, and the flagged ones among
    # them, fed after the prefix
    feeds, late = {}, {}
    for v, name in enumerate(ball.graph.vertices):
        feeds[name] = [h for h, m in zip(heads, masks) if m >> v & 1]
        late[name] = [h for h, m, flag in zip(heads, masks, read_outer)
                      if flag and m >> v & 1]
    edges = iter(ball._edge_label.items())
    for (i, j), lab in edges:
        if i >= cut:
            for head in late[lab]:
                head[j] = head[i]
            break
        for head in feeds[lab]:
            head[j] = head[i]
    if any(late.values()):
        for (i, j), lab in edges:
            for head in late[lab]:
                head[j] = head[i]
    return heads


def _level_start(verts, level):
    """The index of the first ball vertex of at least the given length, by
    bisection, since vertices come level by level.  (`bisect.bisect_left`
    with key=len would do it, but importing `bisect` took 0.44-0.52 ms by
    `python -X importtime`, 2-vCPU VM, Python 3.11.)"""
    lo, hi = 0, len(verts)
    while lo < hi:
        mid = (lo + hi) // 2
        if len(verts[mid]) < level:
            lo = mid + 1
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# hyperplanes


def hyperplane_of_edge(x, u):
    """Hyperplane dual to the u-labelled edges at x.  The carrier is the
    coset x<star(u)>, stored by its minimal-length representative."""
    g = x.graph
    v = g.index(u)
    return _new_id(HyperplaneId, (u, _coset_rep(x, g._adj_bits[v] | 1 << v)))


def separating_hyperplanes(x, y):
    """Hyperplanes crossed by the canonical geodesic from x to y, in crossing
    order.  The entries are pairwise distinct and their set does not depend
    on the choice of reduced word for x^-1 y.

    The walk keeps the current vertex as a syllable list and pushes the
    syllables of x^-1 y onto it one at a time, so the only full product is
    x^-1 y itself.  Each carrier is the coset representative of the list
    before its syllable (v, e) is pushed: the list less its maximal suffix
    in star(v), by `words._coset_prefix`."""
    w = multiply(invert(x), y)
    g = x.graph
    names = g.vertices
    adj = g._adj_bits
    out = []
    cur = list(x.sylls)
    for s in w.sylls:
        v = s[0]
        pre = _coset_prefix(g, cur, adj[v] | 1 << v)
        out.append(_new_id(HyperplaneId, (names[v], NormalForm(g, pre))))
        _push(g, cur, s)
    return tuple(out)


def transverse(j1, j2, ball):
    """True iff some square of the ball has one pair of opposite edges dual
    to j1 and the other pair dual to j2."""
    hyp = ball.edge_hyperplanes()
    edges1 = [e for e, h in hyp.items() if h == j1]
    if not edges1:
        raise ValueError(f"{j1} has no edge inside the ball")
    if j1 == j2:
        return False
    if not any(h == j2 for h in hyp.values()):
        raise ValueError(f"{j2} has no edge inside the ball")

    def hyp_of(a, b):
        return hyp[(a, b) if a < b else (b, a)]

    adj = ball.adj
    for a, b in edges1:
        for x, y in ((a, b), (b, a)):
            for z in adj[y]:
                if z == x or z in adj[x]:
                    continue
                if hyp_of(y, z) != j2:
                    continue
                for w in adj[x]:
                    if w == y or w in adj[y] or w not in adj[z]:
                        continue
                    if hyp_of(z, w) == j1 and hyp_of(x, w) == j2:
                        return True
    return False


# ---------------------------------------------------------------------------
# flat grids


class FlatGrid(NamedTuple):
    """Grid of vertices origin * h_i * v_j, where the h_i are the prefixes of
    an alternating word over one diagonal and the v_j over the other.  When
    the defining pairs span an induced square the grid is isometrically
    embedded: distances obey the l1 law."""

    origin: NormalForm
    horizontal: tuple
    vertical: tuple
    size: tuple

    def vertex(self, i, j):
        return multiply(multiply(self.origin, self.horizontal[i]), self.vertical[j])

    def all_vertices(self):
        p, q = self.size
        return [[self.vertex(i, j) for j in range(q + 1)] for i in range(p + 1)]

    def is_isometric(self):
        """True iff every two grid vertices are as far apart as the l1 law
        says: |x^-1 y| = |i1 - i2| + |j1 - j2| for x = vertex(i1, j1) and
        y = vertex(i2, j2).

        For each source x the products x^-1 y are walked over the grid
        after x, row by row, one pushed step at a time.  The steps use only
        vertex(i, j) = origin h_i v_j, and no commutation, so a grid that is
        not flat is caught as well:

        * along a row, x^-1 vertex(i, j+1) = x^-1 vertex(i, j) v_j^-1 v_{j+1},
          the same step in every row;
        * the next row starts from x^-1 vertex(i+1, 0) =
          x^-1 vertex(i, 0) vertex(i, 0)^-1 vertex(i+1, 0);
        * the walk below x's row starts from x^-1 vertex(i1, 0) = v_{j1}^-1 v_0.

        Two facts let each walk run once, still with no commutation assumed.
        Along x's own row, x^-1 vertex(i1, j) = v_{j1}^-1 v_j whatever i1
        is, so that walk runs once per column j1.  Below it, a row's walk
        depends only on its start, the state x^-1 vertex(i, 0): once the
        start has length di + j1, the law asks of the walk the lengths
        len(start) - j1 + |j + 1 - j1|.  So each column keeps the set of
        starts whose walk met the law, and an equal start skips its walk.
        The set holds at most one start per (i1, i) pair, each of at most
        p + j1 syllables, and is emptied for the next column.

        The steps are the only full products, O(size) of them per grid.  A
        `flat_witness` grid alternates its axes, so one column meets at
        most 2p distinct starts and the pushes grow about as size^3 (SQ4:
        4,680 at size 12, 164,000 at size 40, against 14,196 and 1,412,040
        walking every start).  A hand-built grid whose starts never repeat
        still walks about every pair of vertices, some size^4 pushes, and
        nothing caps the time (best of 3, in-process, 2-vCPU Xeon VM,
        Python 3.11: the SQ4 witness in 0.03 s at size 20 and 0.14 s at
        size 40; a grid over a square of order-3 vertices with exponents
        drawn from {1, 2} in 0.06 s and 0.5 s)."""
        p, q = self.size
        g = self.origin.graph
        vert = self.vertical
        starts = [self.vertex(i, 0) for i in range(p + 1)]
        row_step = [_quotient(starts[i], starts[i + 1]) for i in range(p)]
        col_step = [_quotient(vert[j], vert[j + 1]) for j in range(q)]
        to_row = [_quotient(vert[j], vert[0]) for j in range(q + 1)]
        for j1 in range(q + 1):
            cur = []  # x^-1 vertex(i1, j) for j = j1, j1 + 1, ...
            for j in range(j1, q):
                for s in col_step[j]:
                    _push(g, cur, s)
                if len(cur) != j + 1 - j1:
                    return False
            # the law for a row walk from a start of length m: m + off[j]
            off = tuple(abs(j + 1 - j1) - j1 for j in range(q))
            passed = set()
            for i1 in range(p + 1):
                start = list(to_row[j1])  # x^-1 vertex(i, 0)
                for i in range(i1, p):
                    for s in row_step[i]:
                        _push(g, start, s)
                    m = len(start)
                    if m != i + 1 - i1 + j1:
                        return False
                    key = tuple(start)
                    if key in passed:
                        continue
                    cur = start[:]
                    for j in range(q):
                        for s in col_step[j]:
                            _push(g, cur, s)
                        if len(cur) != m + off[j]:
                            return False
                    passed.add(key)
        return True


def _quotient(a, b):
    """The syllables of a^-1 b."""
    return multiply(invert(a), b).sylls


def _alternating_prefixes(g, u, v, count):
    out = [identity(g)]
    for k in range(1, count + 1):
        w = [(u, 1), (v, 1)] * ((k + 1) // 2)
        out.append(reduce_word(Word(g, w[:k])))
    return out


def flat_witness(graph, diag1, diag2, size, origin=None):
    """Flat (size+1) x (size+1) grid spanned by two diagonals of an induced
    square: horizontal rays alternate over diag1, vertical over diag2.

    The two pairs must each be non-adjacent with every cross pair adjacent,
    i.e. the four vertices form an induced square with diag1 and diag2 as its
    opposite pairs.  A grid of more than DEFAULT_VERTEX_CAP vertices is
    refused (ValueError) before any prefix is built."""
    u, v = diag1
    a, b = diag2
    if len({u, v, a, b}) != 4:
        raise ValueError("diagonals must use four distinct vertices")
    if graph.adjacent(u, v) or graph.adjacent(a, b):
        raise ValueError("each diagonal must be a non-adjacent pair")
    for p in (u, v):
        for q in (a, b):
            if not graph.adjacent(p, q):
                raise ValueError(
                    f"{p} and {q} must be adjacent: diagonals do not span an induced square")
    if size < 0:
        raise ValueError("size must be >= 0")
    cells = (size + 1) ** 2
    if cells > DEFAULT_VERTEX_CAP:
        raise ValueError(f"size {size} gives a grid of {cells} vertices, "
                         f"more than {DEFAULT_VERTEX_CAP}")
    return FlatGrid(
        origin=origin if origin is not None else identity(graph),
        horizontal=tuple(_alternating_prefixes(graph, u, v, size)),
        vertical=tuple(_alternating_prefixes(graph, a, b, size)),
        size=(size, size),
    )


# ---------------------------------------------------------------------------
# electrification


class ElectrifiedDistance:
    """Distance measured on a finite electrified ball.  Cone paths through
    points outside the ball cannot be ruled out, so the value is an upper
    bound for the true electrified distance; it is non-increasing in the
    radius and stabilizes once the ball is large enough."""

    __slots__ = ("value", "radius")

    def __init__(self, value, radius):
        self.value = value
        self.radius = radius

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other
        return (isinstance(other, ElectrifiedDistance)
                and (self.value, self.radius) == (other.value, other.radius))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"ElectrifiedDistance({self.value}, radius={self.radius})"


def electrified_distance(x, y, radius, max_vertices=DEFAULT_VERTEX_CAP):
    """BFS distance between two ball members after coning off every minsquare
    parabolic coset."""
    if x.graph != y.graph:
        raise GraphMismatchError("operands over different graphs")
    ball = build_ball(x.graph, radius, electrified=True, max_vertices=max_vertices)
    ix = ball.index_of(x)
    iy = ball.index_of(y)
    dist = ball.bfs_electrified(ix)[iy]
    return ElectrifiedDistance(dist, radius)


def is_essential(g):
    """The Cayley graph is essential iff the defining graph is not the star
    of one of its vertices."""
    return not is_star_of_vertex(g.full_set())
