"""Finite simplicial graphs with vertex-group orders, and the .gg file format.

A graph here is the defining data of a graph product of finite groups: a
finite simplicial graph together with one integer per vertex, the order of
the (cyclic model of the) group attached to that vertex.  Vertex declaration
order is significant: it is the total order used for every canonical form
downstream (normal forms, coset representatives, square enumeration), so two
files declaring the same graph with different vertex orders produce different
canonical output.

The .gg format is line oriented, with ``#`` starting a comment:

    graph NAME
    vertex ID [order=N]
    edge ID ID

Identifiers match ``[A-Za-z_][A-Za-z0-9_]*``.  Orders default to 2 and must
be at least 2.  Vertices must be declared before edges mention them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations

__all__ = [
    "GGParseError",
    "GraphMismatchError",
    "SimplicialGraph",
    "VertexSet",
    "parse_graph",
    "serialize_graph",
    "link",
    "star",
    "is_complete",
    "induced_squares",
    "square_diagonals",
    "clique_number",
    "core_decomposition",
    "is_star_of_vertex",
]

_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class GGParseError(ValueError):
    """Malformed .gg input. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class GraphMismatchError(ValueError):
    """Two operands live over different graphs."""


class SimplicialGraph:
    """Immutable finite simplicial graph with a group order at each vertex.

    >>> g = SimplicialGraph("SQ4", "abcd", [("a","b"),("b","c"),("c","d"),("d","a")])
    >>> g.adjacent("a", "b"), g.adjacent("a", "c")
    (True, False)
    >>> g.order("a")
    2
    """

    __slots__ = ("name", "vertices", "_orders", "_orders_ix", "_index", "_nbrs",
                 "_adj_bits", "_edges", "_hash", "_core")

    def __init__(self, name, vertices, edges=(), orders=None):
        vertices = tuple(vertices)
        if not _ID_RE.match(name):
            raise ValueError(f"invalid graph name {name!r}")
        seen = set()
        for v in vertices:
            if not isinstance(v, str) or not _ID_RE.match(v):
                raise ValueError(f"invalid vertex identifier {v!r}")
            if v in seen:
                raise ValueError(f"duplicate vertex {v!r}")
            seen.add(v)
        index = {v: i for i, v in enumerate(vertices)}
        orders = dict(orders or {})
        for v, k in orders.items():
            if v not in index:
                raise ValueError(f"order given for unknown vertex {v!r}")
            if not isinstance(k, int) or k < 2:
                raise ValueError(f"vertex {v!r}: order must be an integer >= 2")
        n = len(vertices)
        adj_bits = [0] * n
        edge_set = set()
        for u, v in edges:
            if u not in index:
                raise ValueError(f"edge endpoint {u!r} undeclared")
            if v not in index:
                raise ValueError(f"edge endpoint {v!r} undeclared")
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            i, j = index[u], index[v]
            adj_bits[i] |= 1 << j
            adj_bits[j] |= 1 << i
            edge_set.add((min(i, j), max(i, j)))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_orders", {v: orders.get(v, 2) for v in vertices})
        object.__setattr__(self, "_orders_ix", tuple(orders.get(v, 2) for v in vertices))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_adj_bits", tuple(adj_bits))
        object.__setattr__(self, "_nbrs", tuple(
            frozenset(vertices[j] for j in range(n) if (adj_bits[i] >> j) & 1)
            for i in range(n)))
        object.__setattr__(self, "_edges", tuple(sorted(edge_set)))
        object.__setattr__(self, "_hash", hash(
            (name, vertices, tuple(sorted(edge_set)),
             tuple(orders.get(v, 2) for v in vertices))))
        # per-graph square data, filled in on first use by graphprod.squares
        object.__setattr__(self, "_core", None)

    def __setattr__(self, *_):
        raise AttributeError("SimplicialGraph is immutable")

    # basic queries -------------------------------------------------------

    @property
    def n(self):
        return len(self.vertices)

    @property
    def edges(self):
        """Edges as (u, v) name pairs, endpoint and list order canonical."""
        return tuple((self.vertices[i], self.vertices[j]) for i, j in self._edges)

    @property
    def orders(self):
        return dict(self._orders)

    def order(self, v):
        self._check_vertex(v)
        return self._orders[v]

    def index(self, v):
        self._check_vertex(v)
        return self._index[v]

    def adjacent(self, u, v):
        return (self._adj_bits[self.index(u)] >> self.index(v)) & 1 == 1

    def neighbors(self, v):
        return self._nbrs[self.index(v)]

    def subset(self, members):
        return VertexSet(self, frozenset(members))

    def full_set(self):
        return VertexSet(self, frozenset(self.vertices))

    def _check_vertex(self, v):
        if v not in self._index:
            raise ValueError(f"unknown vertex {v!r}")

    # value semantics ------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SimplicialGraph):
            return NotImplemented
        return (self.name == other.name and self.vertices == other.vertices
                and self._edges == other._edges and self._orders == other._orders)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"SimplicialGraph({self.name!r}, {self.n} vertices, "
                f"{len(self._edges)} edges)")


@dataclass(frozen=True)
class VertexSet:
    """A subset of a graph's vertices, always read as the induced subgraph."""

    graph: SimplicialGraph
    members: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        members = frozenset(self.members)
        object.__setattr__(self, "members", members)
        for v in members:
            self.graph._check_vertex(v)

    @property
    def sorted(self):
        """Members in the graph's declaration order."""
        idx = self.graph._index
        return tuple(sorted(self.members, key=idx.__getitem__))

    @property
    def mask(self):
        idx = self.graph._index
        m = 0
        for v in self.members:
            m |= 1 << idx[v]
        return m

    def __contains__(self, v):
        return v in self.members

    def __iter__(self):
        return iter(self.sorted)

    def __len__(self):
        return len(self.members)

    def __le__(self, other):
        self._check_same(other)
        return self.members <= other.members

    def union(self, other):
        self._check_same(other)
        return VertexSet(self.graph, self.members | other.members)

    def intersection(self, other):
        self._check_same(other)
        return VertexSet(self.graph, self.members & other.members)

    def difference(self, other):
        self._check_same(other)
        return VertexSet(self.graph, self.members - other.members)

    def _check_same(self, other):
        if self.graph != other.graph:
            raise GraphMismatchError("vertex sets over different graphs")

    def __repr__(self):
        return "{" + ",".join(self.sorted) + "}"


def _set_from_mask(g, mask):
    return VertexSet(g, frozenset(
        g.vertices[i] for i in range(g.n) if (mask >> i) & 1))


# ---------------------------------------------------------------------------
# .gg parsing and serialization


def parse_graph(source):
    """Parse .gg text into a SimplicialGraph.

    >>> parse_graph("graph P2\\nvertex a\\nvertex b order=3\\nedge a b").order("b")
    3
    """
    name = None
    vertices = []
    orders = {}
    edges = []
    declared = set()
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "graph":
            if len(parts) != 2:
                raise GGParseError("expected: graph NAME", lineno)
            if name is not None:
                raise GGParseError("duplicate graph line", lineno)
            if vertices or edges:
                raise GGParseError("graph line must come first", lineno)
            if not _ID_RE.match(parts[1]):
                raise GGParseError(f"invalid graph name {parts[1]!r}", lineno)
            name = parts[1]
        elif kw == "vertex":
            if len(parts) not in (2, 3):
                raise GGParseError("expected: vertex ID [order=N]", lineno)
            v = parts[1]
            if not _ID_RE.match(v):
                raise GGParseError(f"invalid vertex identifier {v!r}", lineno)
            if v in declared:
                raise GGParseError(f"duplicate vertex {v!r}", lineno)
            if len(parts) == 3:
                m = re.match(r"^order=(\d+)$", parts[2])
                if not m:
                    raise GGParseError("expected order=N", lineno)
                k = int(m.group(1))
                if k < 2:
                    raise GGParseError(f"vertex {v!r}: order {k} < 2", lineno)
                orders[v] = k
            declared.add(v)
            vertices.append(v)
        elif kw == "edge":
            if len(parts) != 3:
                raise GGParseError("expected: edge ID ID", lineno)
            u, v = parts[1], parts[2]
            if u == v:
                raise GGParseError(f"self-loop at {u!r}", lineno)
            for w in (u, v):
                if w not in declared:
                    raise GGParseError(f"edge endpoint {w!r} undeclared", lineno)
            edges.append((u, v))
        else:
            raise GGParseError(f"unknown directive {kw!r}", lineno)
    return SimplicialGraph(name or "G", vertices, edges, orders)


def serialize_graph(g):
    """Canonical .gg text: vertices in declaration order, edges sorted,
    default orders omitted.  parse(serialize(g)) == g."""
    lines = [f"graph {g.name}"]
    for v in g.vertices:
        k = g.order(v)
        lines.append(f"vertex {v}" if k == 2 else f"vertex {v} order={k}")
    for u, v in g.edges:
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# induced-subgraph combinatorics


def link(g, v):
    """Neighbors of v.  The star is link(v) plus v itself."""
    return VertexSet(g, g.neighbors(v))


def star(g, v):
    return VertexSet(g, g.neighbors(v) | {v})


def is_complete(s):
    """True iff every pair of distinct members is adjacent.  The empty set
    and singletons count as complete."""
    verts = s.sorted
    g = s.graph
    for u, v in combinations(verts, 2):
        if not g.adjacent(u, v):
            return False
    return True


def _square_pairing(adj, quad):
    """If the 4 indices induce a square, return (diag1, diag2) index pairs,
    else None.  At most one pairing can satisfy the square conditions."""
    a, b, c, d = quad
    for (p, q, r, s) in ((a, b, c, d), (a, c, b, d), (a, d, b, c)):
        if (adj[p] >> q) & 1 or (adj[r] >> s) & 1:
            continue
        if ((adj[r] >> p) & 1 and (adj[s] >> p) & 1
                and (adj[r] >> q) & 1 and (adj[s] >> q) & 1):
            return (p, q), (r, s)
    return None


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Graphs up to this many vertices list their squares in lexicographic order
# of the sorted index 4-tuple, larger ones in ascending mask order.  The two
# orders differ; both are kept because the order shows in `analyze` output
# (uncovered squares) and in closure traces.
_LEX_ORDER_MAX_N = 16


def induced_squares(g):
    """All induced 4-cycles of g, as 4-element VertexSets in canonical order.

    Output-sensitive: each square is found once, from the diagonal through
    its least vertex x, as a non-adjacent pair (y, w) of common neighbours
    of x and a vertex z > x at distance 2.

    >>> g = parse_graph("graph SQ4\\nvertex a\\nvertex b\\nvertex c\\nvertex d\\n"
    ...                 "edge a b\\nedge b c\\nedge c d\\nedge d a")
    >>> induced_squares(g)
    ({a,b,c,d},)
    """
    adj = g._adj_bits
    masks = []
    for x in range(g.n):
        above = -1 << (x + 1)          # indices greater than x
        nbrs = adj[x] & above
        reach = 0
        for y in _bits(nbrs):
            reach |= adj[y]
        for z in _bits(reach & above & ~adj[x]):
            common = nbrs & adj[z]
            if common & (common - 1) == 0:
                continue
            pair = (1 << x) | (1 << z)
            for y in _bits(common):
                for w in _bits(common & ~adj[y] & (-1 << (y + 1))):
                    masks.append(pair | (1 << y) | (1 << w))
    if g.n <= _LEX_ORDER_MAX_N:
        masks.sort(key=lambda m: tuple(_bits(m)))
    else:
        masks.sort()
    return tuple(_set_from_mask(g, m) for m in masks)


def square_diagonals(s):
    """The two opposite (non-adjacent) pairs of an induced square,
    each pair and the pair list in canonical order."""
    if len(s) != 4:
        raise ValueError("not a 4-element vertex set")
    g = s.graph
    quad = tuple(g.index(v) for v in s.sorted)
    pairing = _square_pairing(g._adj_bits, quad)
    if pairing is None:
        raise ValueError(f"{s!r} does not induce a square")
    (p, q), (r, s2) = pairing
    d1 = (g.vertices[p], g.vertices[q])
    d2 = (g.vertices[r], g.vertices[s2])
    return tuple(sorted((d1, d2), key=lambda pr: (g.index(pr[0]), g.index(pr[1]))))


def clique_number(g):
    """Size of a maximum clique (0 for the empty graph).  Branch and bound
    over (size, candidates) states on an explicit stack, so depth is not
    limited by the recursion limit."""
    adj = g._adj_bits
    best = 0
    stack = [(0, (1 << g.n) - 1)]
    while stack:
        size, cand = stack.pop()
        if size + cand.bit_count() <= best:
            continue
        if not cand:
            best = size
            continue
        low = cand & -cand
        v = low.bit_length() - 1
        stack.append((size, cand ^ low))
        stack.append((size + 1, cand & adj[v]))
    return best


def _merge_overlapping(g, masks):
    """Unions of the connected components of masks, two masks being joined
    when they share a non-adjacent vertex pair (when their intersection is
    not complete).  Components come from a union-find over an index from
    each non-adjacent pair, among vertices lying in two or more masks, to
    the first mask holding it; they are listed in order of first member."""
    adj = g._adj_bits
    seen = shared = 0
    for m in masks:
        shared |= seen & m
        seen |= m
    parent = list(range(len(masks)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first = {}
    for i, m in enumerate(masks):
        inner = m & shared
        for u in _bits(inner):
            for v in _bits(inner & ~adj[u] & (-1 << (u + 1))):
                ri, rj = find(i), find(first.setdefault((u, v), i))
                if ri != rj:
                    parent[ri] = rj
    merged = {}
    for i, m in enumerate(masks):
        r = find(i)
        merged[r] = merged.get(r, 0) | m
    return list(merged.values())


def core_decomposition(s):
    """Split s = lambda0 * lambda1 where lambda1 collects the members adjacent
    (within s) to every other member.  lambda1 is complete, the join is all of
    s, and lambda0 is never the star of one of its own vertices."""
    g = s.graph
    members = s.members
    lam1 = frozenset(v for v in members
                     if members - {v} <= g.neighbors(v))
    return VertexSet(g, members - lam1), VertexSet(g, lam1)


def is_star_of_vertex(s):
    """True iff some member's star (within s) covers all of s.
    Singletons are their own star; the empty set is not."""
    g = s.graph
    return any(s.members - {v} <= g.neighbors(v) for v in s.members)
