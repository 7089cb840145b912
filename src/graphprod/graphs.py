"""Finite simplicial graphs with vertex-group orders, and the .gg file format.

A graph here is the defining data of a graph product of finite groups: a
finite simplicial graph together with one integer per vertex, the order of
the (cyclic model of the) group attached to that vertex.  Vertex declaration
order is significant: it is the total order used for every canonical form
downstream (normal forms, coset representatives, square enumeration), so two
files declaring the same graph with different vertex orders produce different
canonical output.  Vertex i in that order is bit i of every vertex set:
the graph keeps each neighbourhood as a bitmask, and a VertexSet is one
bitmask, its names and frozensets derived from it on demand.

The .gg format is line oriented, with ``#`` starting a comment:

    graph NAME
    vertex ID [order=N]
    edge ID ID

Identifiers match ``[A-Za-z_][A-Za-z0-9_]*``.  Orders are written in ASCII
digits, default to 2 and must be at least 2.  Vertices must be declared
before edges mention them.
"""

from __future__ import annotations

import re
from itertools import compress
from operator import rshift

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

    __slots__ = ("name", "vertices", "_orders_ix", "_index", "_adj_bits",
                 "_edges", "_hash", "_core")

    def __init__(self, name, vertices, edges=(), orders=None):
        vertices = tuple(vertices)
        if not isinstance(name, str) or not _ID_RE.match(name):
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
        orders_ix = tuple(orders.get(v, 2) for v in vertices)
        edges = tuple(sorted(edge_set))
        object.__setattr__(self, "_orders_ix", orders_ix)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_adj_bits", tuple(adj_bits))
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_hash", hash((name, vertices, edges, orders_ix)))
        # per-graph square data, filled in on first use by graphprod.squares
        object.__setattr__(self, "_core", None)

    def __setattr__(self, *_):
        raise AttributeError("SimplicialGraph is immutable")

    def __reduce__(self):
        # copies and unpickled graphs go through the constructor, which
        # recomputes the hash; the square data in _core is not carried
        return SimplicialGraph, (self.name, self.vertices, self.edges, self.orders)

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
        return dict(zip(self.vertices, self._orders_ix))

    def order(self, v):
        return self._orders_ix[self.index(v)]

    def index(self, v):
        self._check_vertex(v)
        return self._index[v]

    def adjacent(self, u, v):
        return (self._adj_bits[self.index(u)] >> self.index(v)) & 1 == 1

    def neighbors(self, v):
        names = self.vertices
        return frozenset(names[i] for i in _bits(self._adj_bits[self.index(v)]))

    def subset(self, members):
        return VertexSet(self, members)

    def full_set(self):
        return _set_from_mask(self, (1 << self.n) - 1)

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
                and self._edges == other._edges and self._orders_ix == other._orders_ix)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"SimplicialGraph({self.name!r}, {self.n} vertices, "
                f"{len(self._edges)} edges)")


class VertexSet:
    """A subset of a graph's vertices, always read as the induced subgraph.
    Immutable; held as a bitmask over the graph's vertex indices, from which
    every other view derives."""

    __slots__ = ("graph", "mask")

    def __init__(self, graph, members=()):
        mask = 0
        for v in members:
            mask |= 1 << graph.index(v)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, *_):
        raise AttributeError("VertexSet is immutable")

    def __reduce__(self):
        return _set_from_mask, (self.graph, self.mask)

    @property
    def members(self):
        return frozenset(self.sorted)

    @property
    def sorted(self):
        """Members in the graph's declaration order."""
        names = self.graph.vertices
        return tuple(names[i] for i in _bits(self.mask))

    def __contains__(self, v):
        i = self.graph._index.get(v)
        return i is not None and (self.mask >> i) & 1 == 1

    def __iter__(self):
        return iter(self.sorted)

    def __len__(self):
        return self.mask.bit_count()

    def __le__(self, other):
        self._check_same(other)
        return self.mask & ~other.mask == 0

    def union(self, other):
        self._check_same(other)
        return _set_from_mask(self.graph, self.mask | other.mask)

    def intersection(self, other):
        self._check_same(other)
        return _set_from_mask(self.graph, self.mask & other.mask)

    def difference(self, other):
        self._check_same(other)
        return _set_from_mask(self.graph, self.mask & ~other.mask)

    def _check_same(self, other):
        if self.graph != other.graph:
            raise GraphMismatchError("vertex sets over different graphs")

    def __eq__(self, other):
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.mask == other.mask and self.graph == other.graph

    def __hash__(self):
        return hash((self.graph, self.mask))

    def __repr__(self):
        return "{" + ",".join(self.sorted) + "}"


def _set_from_mask(g, mask):
    s = object.__new__(VertexSet)
    object.__setattr__(s, "graph", g)
    object.__setattr__(s, "mask", mask)
    return s


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
                m = re.match(r"^order=([0-9]+)$", parts[2])
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
    return _set_from_mask(g, g._adj_bits[g.index(v)])


def star(g, v):
    return _set_from_mask(g, g._adj_bits[g.index(v)] | 1 << g.index(v))


def _complete_mask(g, mask):
    """True iff the vertices of mask are pairwise adjacent."""
    adj = g._adj_bits
    rest = mask
    while rest:
        low = rest & -rest
        if mask & ~adj[low.bit_length() - 1] & ~low:
            return False
        rest ^= low
    return True


def is_complete(s):
    """True iff every pair of distinct members is adjacent.  The empty set
    and singletons count as complete."""
    return _complete_mask(s.graph, s.mask)


def _diagonals(adj, m):
    """The two diagonal masks of the square m: the diagonal through the
    least vertex (that vertex and the one vertex of m not adjacent to it)
    first."""
    low = m & -m
    d1 = low | (m & ~adj[low.bit_length() - 1] & ~low)
    return d1, m ^ d1


# binary digits '0' and '1' as the bytes 0 and 1, which compress() reads
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bits(mask):
    """Indices of the set bits of mask, ascending, as a list.

    A mask of L bits with more than 8 + L / 10 set bits is decoded at C
    speed: its binary digits, reversed and read as bytes 0 and 1, select
    from range(L).  A sparser mask is decoded by lowest-bit steps, one
    Python step per set bit.  The C path costs about 20 ns per bit of L,
    a step about 100-250 ns per set bit (more for longer masks).  On random
    masks the C path won from about 8-11 set bits of 8-32, 12-16 of 64-128,
    27 of 200 and 46 of 400, and had not won at 60 of 1,500 (best of 7,
    Python 3.11, 2-vCPU VM).  The first test settles the many masks of a
    few bits without reading L."""
    k = mask.bit_count()
    if k > 8 and k > 8 + mask.bit_length() // 10:
        return list(compress(range(mask.bit_length()),
                             bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)))
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# Graphs up to this many vertices list their squares in lexicographic order
# of the sorted index 4-tuple, larger ones in ascending mask order.  The two
# orders differ; both are kept because the order shows in `induced_squares`
# and in the uncovered squares of `analyze` output.
_LEX_ORDER_MAX_N = 16


def _square_pairs(g):
    """The non-adjacent pairs {x, z} that carry an induced square: a dict
    from each lower vertex x that has such a pair to a dict mapping z > x
    to F, the members of C = N(x) & N(z) with a non-neighbour in C; the
    mask of each vertex's partners in such pairs; and the number of
    squares.

    Only a z that two different neighbours of x reach can carry a pair
    with x.  One pass over the edges builds, per vertex, the mask it
    reaches through its neighbours (reach) and the part reached through
    two of them (twice); most vertices of a sparse graph have no
    non-adjacent vertex above them in twice, and get no row.  A pair with
    |C| = 2 carries a square iff the two are non-adjacent.  Each square has
    two diagonals, so the non-edges inside the C's of all pairs count
    every square twice."""
    adj = g._adj_bits
    n = len(adj)
    reach = [0] * n
    twice = [0] * n
    for x, y in g._edges:
        ay = adj[y]
        r = reach[x]
        twice[x] |= r & ay
        reach[x] = r | ay
        ax = adj[x]
        r = reach[y]
        twice[y] |= r & ax
        reach[y] = r | ax
    table = {}
    partners = [0] * n
    ends = 0            # non-edges inside the C's, each counted at both ends
    # the vertices x with a vertex above x in twice[x], selected at C speed
    for x in compress(range(n), map(rshift, twice, range(1, n + 1))):
        ax = adj[x]
        m = twice[x] & ~ax & (-2 << x)
        if not m:
            continue
        row = {}
        while m:
            low = m & -m
            m ^= low
            z = low.bit_length() - 1
            common = ax & adj[z]
            rest = common & (common - 1)
            if rest & (rest - 1) == 0:
                # two common neighbours: a square iff they are non-adjacent
                if adj[rest.bit_length() - 1] & common:
                    continue
                f = common
                ends += 2
            else:
                f = 0
                c = common
                while c:
                    b = c & -c
                    c ^= b
                    k = (common & ~adj[b.bit_length() - 1]).bit_count() - 1
                    if k:
                        f |= b
                        ends += k
                if not f:
                    continue
            row[z] = f
            partners[x] |= low
            partners[z] |= 1 << x
        if row:
            table[x] = row
    return table, partners, ends // 4


def _list_squares(adj, pairs):
    """Masks of the squares through the pairs (x, z, F), x < z, that have x
    as their least vertex, in canonical order.  Over all pairs this lists
    each square once, from its diagonal through the least vertex."""
    masks = []
    for x, z, f in pairs:
        d = (1 << x) | (1 << z)
        f &= -2 << x
        rest = f
        while rest:
            y = rest & -rest
            rest ^= y
            m = f & ~adj[y.bit_length() - 1] & -(y << 1)
            while m:
                w = m & -m
                m ^= w
                masks.append(d | y | w)
    if len(adj) <= _LEX_ORDER_MAX_N:
        masks.sort(key=lambda m: tuple(_bits(m)))
    else:
        masks.sort()
    return masks


def induced_squares(g):
    """All induced 4-cycles of g, as 4-element VertexSets in canonical order.

    Output-sensitive: each square is found once, from the diagonal through
    its least vertex x, as a non-adjacent pair (y, w) of common neighbours
    of x and a vertex z > x (see _square_pairs).

    >>> g = parse_graph("graph SQ4\\nvertex a\\nvertex b\\nvertex c\\nvertex d\\n"
    ...                 "edge a b\\nedge b c\\nedge c d\\nedge d a")
    >>> induced_squares(g)
    ({a,b,c,d},)
    """
    table = _square_pairs(g)[0]
    pairs = ((x, z, f) for x, row in table.items() for z, f in row.items())
    return tuple(_set_from_mask(g, m) for m in _list_squares(g._adj_bits, pairs))


def square_diagonals(s):
    """The two opposite (non-adjacent) pairs of an induced square,
    each pair and the pair list in canonical order."""
    if len(s) != 4:
        raise ValueError("not a 4-element vertex set")
    g, m = s.graph, s.mask
    adj = g._adj_bits
    # four vertices each with two neighbours among the others: a 4-cycle
    if any((adj[v] & m).bit_count() != 2 for v in _bits(m)):
        raise ValueError(f"{s!r} does not induce a square")
    return tuple(tuple(g.vertices[i] for i in _bits(d)) for d in _diagonals(adj, m))


def clique_number(g):
    """Size of a maximum clique (0 for the empty graph).

    A clique is searched from its least vertex v, over the later neighbours
    of v, and v is skipped unless they are enough to beat the best clique
    so far.  Each search is the ordered branch and bound of MCQ (Tomita &
    Seki, DMTCS 2003) on an explicit stack, so depth is not limited by the
    recursion limit.  The candidates P of a node are put in an order
    p1, ..., pm with numbers k1 <= ... <= km such that no clique inside
    {p1, ..., pi} has more than ki vertices.  The branch through pi takes
    the candidates {p1, ..., p(i-1)} & N(pi), so every clique of P is
    searched in exactly one branch, that of its last member, and the branch
    can reach at most size + ki.  A branch is not pushed when that cannot
    beat the best clique found when P is expanded, and it is dropped when
    popped if it cannot beat the best found by then.

    The order is a greedy colouring, class by class: a colour class is
    independent, so a clique meets each class at most once, and ki is the
    colour of pi.  Since ki <= i, this bound is never weaker than the size
    of {p1, ..., pi}, but it costs more to compute.  Measured against the
    size bound ki = i below a cut-off, colouring pays from between 8 and
    16 candidates: with a cut-off of 16 dense graphs run 8-15% slower than
    with 8, with 24 G(60, 0.9) takes 0.17 s and with 32 1.7 s, against
    0.03 s.  Below 8 the size bound would save up to a quarter of this
    function on sparse graphs, whose candidate sets mostly have one to
    three members, but that is at most 18 us a graph, 3% of `analyze`
    (best of interleaved runs, Python 3.11, 2-vCPU VM)."""
    adj = g._adj_bits
    best = 0
    for v in range(g.n):
        cand = adj[v] & (-2 << v)
        if cand.bit_count() < best:
            continue
        # (bound, size, candidates): no clique of the branch exceeds bound
        stack = [(1 + cand.bit_count(), 1, cand)]
        while stack:
            bound, size, cand = stack.pop()
            if bound <= best or size + cand.bit_count() <= best:
                continue
            if not cand:
                best = size
                continue
            need = best - size      # a branch must reach k > need
            prefix = 0
            k = 0
            uncoloured = cand
            while uncoloured:
                k += 1
                free = uncoloured
                while free:
                    low = free & -free
                    u = low.bit_length() - 1
                    free &= ~(adj[u] | low)
                    uncoloured ^= low
                    if k > need:
                        stack.append((size + k, size + 1, prefix & adj[u]))
                    prefix |= low
    return best


def _universal(g, mask):
    """Members of mask adjacent to every other member.  Such a member has
    at least |mask| - 1 neighbours, so when no vertex does, one pass over
    the degrees answers without testing the members."""
    adj = g._adj_bits
    if max(map(int.bit_count, adj), default=-1) < mask.bit_count() - 1:
        return 0
    out = 0
    for v in _bits(mask):
        if mask & ~adj[v] == 1 << v:
            out |= 1 << v
    return out


def core_decomposition(s):
    """Split s = lambda0 * lambda1 where lambda1 collects the members adjacent
    (within s) to every other member.  lambda1 is complete, the join is all of
    s, and lambda0 is never the star of one of its own vertices."""
    lam1 = _universal(s.graph, s.mask)
    return _set_from_mask(s.graph, s.mask & ~lam1), _set_from_mask(s.graph, lam1)


def is_star_of_vertex(s):
    """True iff some member's star (within s) covers all of s.
    Singletons are their own star; the empty set is not."""
    return _universal(s.graph, s.mask) != 0
