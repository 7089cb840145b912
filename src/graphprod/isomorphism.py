"""Canonical forms for small vertex-labelled graphs.

Pieces compared across two analyses (minsquare subgraphs, peripheral members)
are matched up to isomorphism respecting the vertex-group orders.  A piece is
read through its local shape (`_piece`: orders and adjacency bitmasks in
declaration order).  Every formula here is written once on the shape:

- **fingerprint** (`_fingerprint`): the sorted multiset of (order, degree)
  pairs, an isomorphism invariant that separates graphs soundly but cannot
  certify sameness;
- **label** (`_label`): vertex count, edge count and sorted orders, read off
  the fingerprint, so it is an isomorphism invariant too;
- **canonical key**: exact, for pieces of at most MAX_EXACT_VERTICES
  vertices.

`fingerprint(s)`, `piece_label(s)` and `canonical_key(s)` apply them to a
vertex set.  `report.compare` builds each piece's shape once and searches
only the shapes whose fingerprint another shape shares.

The exact key is the minimum leaf of an individualization-refinement search
tree (McKay & Piperno, *Practical graph isomorphism II*, J. Symbolic Comput.
60, 2014):

- **refine**: colour each vertex by the rank of (its colour, the sorted
  colours of its neighbours) until no cell splits; the first colours are the
  vertex orders;
- **target cell**: the least colour held by more than one vertex;
- **individualize**: one child per target vertex, in index order, whose
  colour is set to -1 (forced least) before refining again;
- **leaf**: a discrete colouring; its key is (orders, upper-triangle
  adjacency bits) with the vertices listed by colour.  The canonical key is
  the least leaf key.

Refinement and individualization commute with relabelling, so the least leaf
key depends only on the isomorphism type.  Pruning: when a leaf's key equals
the first leaf's key, the map between the two leaves' vertex orders is an
automorphism, and it is recorded.  At a node reached by individualizing the
vertices `fixed`, a target vertex in the orbit of an already explored one,
under the recorded automorphisms that fix `fixed` pointwise, is skipped.
Such an automorphism maps one child's subtree onto the other's, leaf by leaf
and with equal keys, so both subtrees have the same least key and the
minimum over the tree is unchanged.  On symmetric pieces this cuts a
factorial search to a few hundred refinements (K6,6: 156; the edgeless
12-vertex graph: 298).
"""

from __future__ import annotations

from .graphs import _bits

__all__ = ["MAX_EXACT_VERTICES", "canonical_key", "fingerprint", "piece_label"]

MAX_EXACT_VERTICES = 12


def _piece(s):
    """(orders, adjacency bitmasks) of the induced subgraph as tuples, local
    index i being the i-th member in declaration order."""
    g, mask = s.graph, s.mask
    ix = tuple(_bits(mask))
    local = {gi: li for li, gi in enumerate(ix)}
    adj = []
    for gi in ix:
        bits = 0
        for gj in _bits(g._adj_bits[gi] & mask):
            bits |= 1 << local[gj]
        adj.append(bits)
    return tuple(g._orders_ix[gi] for gi in ix), tuple(adj)


def _refine(nbrs, colors):
    """Coarsest equitable refinement of `colors`, as ranks of
    (colour, sorted neighbour colours).  Cells only ever split, so a round
    that splits none has reached the fixed point."""
    cells = len(set(colors))
    while True:
        sig = [(c, tuple(sorted([colors[j] for j in nb])))
               for c, nb in zip(colors, nbrs)]
        ranks = {s: r for r, s in enumerate(sorted(set(sig)))}
        colors = [ranks[s] for s in sig]
        if len(ranks) == cells:
            return colors
        cells = len(ranks)


def _orbit(points, gens):
    """Images of `points` under the group generated by the permutations
    `gens`."""
    seen = set(points)
    stack = list(points)
    while stack:
        x = stack.pop()
        for gamma in gens:
            y = gamma[x]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


class _Search:
    """One canonical labelling search: the least leaf key so far, the first
    leaf and the automorphisms found.  Plain attributes rather than nested
    closures, so a finished search leaves no reference cycle behind."""

    def __init__(self, orders, adj):
        self.orders = orders
        self.n = n = len(orders)
        self.nbrs = [[j for j in range(n) if (adj[i] >> j) & 1] for i in range(n)]
        self.best = None
        self.first = None   # (key, vertex order) of the first leaf
        self.autos = []     # automorphisms found, as lists i -> image of i

    def node(self, colors, fixed):
        colors = _refine(self.nbrs, colors)
        cells = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            self.leaf(colors)
            return
        done = []
        for v in target:
            if done and v in _orbit(done, [gamma for gamma in self.autos
                                           if all(gamma[x] == x for x in fixed)]):
                continue
            branched = list(colors)
            branched[v] = -1  # individualize: forced least colour
            self.node(branched, fixed + (v,))
            done.append(v)

    def leaf(self, colors):
        n, nbrs = self.n, self.nbrs
        perm = [0] * n
        for i, c in enumerate(colors):
            perm[c] = i
        bits = 0
        for i in range(n):
            a = colors[i]
            base = a * (2 * n - a - 1) // 2 - a - 1  # pair (a, b) is bit base + b
            for j in nbrs[i]:
                b = colors[j]
                if b > a:
                    bits |= 1 << (base + b)
        key = tuple(self.orders[p] for p in perm), bits
        if self.first is None:
            self.first = key, perm
        elif key == self.first[0]:
            gamma = [0] * n
            for p, q in zip(self.first[1], perm):
                gamma[p] = q
            self.autos.append(gamma)
        if self.best is None or key < self.best:
            self.best = key


def _canon(orders, adj):
    search = _Search(orders, adj)
    search.node(list(orders), ())
    return search.best


def canonical_key(s, shape=None):
    """Exact isomorphism key of the induced subgraph with order labels, for
    pieces of at most MAX_EXACT_VERTICES vertices (ValueError above that).
    `shape` is `_piece(s)` when the caller has already built it."""
    orders, adj = _piece(s) if shape is None else shape
    if len(orders) > MAX_EXACT_VERTICES:
        raise ValueError(f"piece too large for exact canonical labeling "
                         f"({len(orders)} > {MAX_EXACT_VERTICES} vertices)")
    return _canon(orders, adj)


def _fingerprint(shape):
    """Sorted (order, degree) pairs of a local shape."""
    orders, adj = shape
    return tuple(sorted((orders[i], adj[i].bit_count()) for i in range(len(orders))))


def _label(fp):
    """The label of a piece read off its fingerprint: vertices, edges (half
    the degree sum) and the orders, which the fingerprint lists sorted."""
    m = sum(d for _, d in fp) // 2
    os = ",".join(str(o) for o, _ in fp)
    return f"{len(fp)}v{m}e[{os}]"


def fingerprint(s):
    """Sound but incomplete invariant: sorted (order, degree) pairs."""
    return _fingerprint(_piece(s))


def piece_label(s):
    """Short human-readable tag for a piece, stable across runs."""
    return _label(_fingerprint(_piece(s)))
