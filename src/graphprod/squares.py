"""Square-complete closures, minsquare subgraphs, and the criteria built on them.

A subset of vertices is square-complete when every induced square meeting it
in an opposite (diagonal) pair lies entirely inside it.  Closing a seed under
that rule gives the least square-complete superset; the minimal closures of
single squares are the minsquare subgraphs, the pieces behind every decision
procedure in this module (hyperbolicity of the electrification, the Morse
dichotomy, the minsquare-graph test).

Everything derived from a graph's squares lives in one per-graph square
core, held as vertex bitmasks and indexed by diagonal pairs, not by
squares: a dense graph has about n^4 induced squares but fewer than n^2 / 2
non-adjacent pairs.  For a non-adjacent pair P = {a, c}, let
C(P) = N(a) & N(c), and let F(P) be the members of C(P) that have a
non-neighbour in C(P).  P carries a square when F(P) is not empty; the
core keeps F(P) for those pairs only, in one row per lower vertex of such
a pair, and reads everything else from six facts.  A vertex that is the
lower end of no such pair has no row, and on a sparse graph that is most
vertices, so what walks the rows (the components, the closures, the
uncovered squares) does not step through the others.

1. The squares with diagonal P are the sets P | {b, d} over the
   non-adjacent pairs {b, d} inside C(P), and their union is P | F(P).
   A 4-set {a, b, c, d} with a, c non-adjacent induces a 4-cycle with
   diagonal {a, c} iff b and d are adjacent to both a and c and not to each
   other.  So a member of C(P) lies in one of them iff it has a
   non-neighbour in C(P).
2. The number of squares is half the sum, over the pairs P, of the
   non-edges inside C(P).  An induced square has exactly two non-edges, its
   diagonals, and by 1 the sum counts it once from each.
3. The components of the squares, two squares joined when they share a
   non-adjacent pair, are the components of the graph on pairs that joins
   P to every non-adjacent pair inside F(P); a component's union is the
   union of F(P) over its pairs.  The non-adjacent pairs of a square
   are its diagonals, so two squares are joined iff they share a diagonal.
   By 1, the other diagonals of the squares through P are exactly the
   non-adjacent pairs inside F(P).  So each square is an edge of the pair
   graph, between its two diagonals; two squares are joined iff their
   edges share an end, and every pair kept is the end of such an edge.
   A square with diagonals P and Q has P inside F(Q) and Q inside F(P),
   so the F(P) of a component's pairs cover the pairs themselves.
4. A set s is square-complete iff F(P) lies in s for every pair P inside
   s, because by 1 the squares with a diagonal P cover exactly P | F(P).
   So the closure of a seed is reached by adding F(P) for every pair P
   inside the current set until nothing changes: each addition is forced,
   and what is left is square-complete.
5. A square is square-complete iff it is its own component, that is, iff
   its component's union has 4 vertices.  First, a square's only
   non-adjacent pairs are its two diagonals.  Second, the squares through
   a diagonal belong to the square's component, so F of each diagonal
   lies inside the union (fact 3); when the union is the square itself,
   the square is square-complete by fact 4.  Third, the closure of any
   square absorbs every square sharing a diagonal with a square inside
   it, so it contains that square's component; a square-complete square
   is its own closure, so its union is the square.  Hence the closure of
   a square is the closure of its component's union, and a 4-vertex
   union is its own closure.  Four vertices hold only one induced square,
   so such a union is one square alone, and it is always a minimal
   closure: every closure contains a square, and the only square inside
   the union is its own.
6. The first step of `relhyp.jinf` gives back the squares iff it gives
   n_squares members of four vertices each.  Each member contains a
   component's union, so a 4-vertex member is a 4-vertex union, which is
   one square (fact 5), and n_squares distinct squares are all of them.

Squares are listed only where the output shows them: by `induced_squares`
and as the uncovered squares of `electrification_hyperbolic`, taken from
the pairs that lie in no minsquare subgraph.  Each is listed once, from its
diagonal through its least vertex.

The core is one record per graph, built whole on first use and kept on the
graph itself (``SimplicialGraph._core``): the pairs, the components of the
squares, their closures and the minsquare masks, and the square verdicts
that `report.analyze` and `report.compare` read.  So each part is computed
once per graph; there is no module-level cache.  The core holds no
reference back to the graph (public functions build VertexSets from its
masks on return), so a graph and its core are freed by reference counting
as soon as nothing refers to the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graphs import (
    _bits,
    _list_squares,
    _set_from_mask,
    _square_pairs,
    _universal,
)

__all__ = [
    "ClosureTrace",
    "ElectrificationCheck",
    "MorseDichotomy",
    "is_square_complete",
    "square_complete_closure",
    "minsquare_subgraphs",
    "is_minsquare_graph",
    "is_hyperbolic",
    "electrification_hyperbolic",
    "morse_all_hyperbolic",
    "cfs_check",
]


@dataclass(frozen=True)
class ClosureTrace:
    """Certificate of one closure run.  Each step is (added, trigger): the
    trigger is a non-adjacent pair P already inside the accumulated set,
    named in declaration order, and added is the part of F(P) not yet in
    the set, which the squares with diagonal P force in (fact 4 of the
    module docstring).  Every step adds a vertex, so a closure has at most
    n steps."""

    seed: VertexSet
    steps: tuple
    result: VertexSet


class ElectrificationCheck(NamedTuple):
    hyperbolic: bool
    uncovered: tuple  # squares lying in no minsquare subgraph


class MorseDichotomy(NamedTuple):
    all_hyperbolic: bool
    # "square-free", a (minsquare part, complete part) pair, or an explanation
    certificate: object


class _SquareCore:
    """The square data of one graph, held by diagonal pairs as bitmasks.

    pairs     a dict from each lower vertex x of a non-adjacent pair that
              carries a square to its row, a dict from z > x to F({x, z})
              over those pairs (see _square_pairs); most vertices of a
              sparse graph have no row
    partners  per vertex, the mask of vertices it forms such a pair with
    n_squares number of induced squares
    unions    vertex mask of each component of the squares (fact 3)
    closures  closure mask of each component's union, which is the closure
              of any square of the component; a 4-vertex union, one
              square alone, is its own closure and is not closed (fact 5)
    minimal   masks of the minsquare subgraphs, ascending: the minimal
              closures
    electrification_hyperbolic
              every component's closure is minimal, so every square lies
              in a minsquare subgraph (see electrification_hyperbolic)
    universal mask of the vertices adjacent to every other vertex, the
              complete factor of the core decomposition
    join_form the non-universal vertices form a minsquare subgraph: the
              graph has a square and splits as the join of a minsquare
              subgraph and a complete graph (see morse_all_hyperbolic)
    sc_order2_square
              some 4-vertex union has all orders 2: a square-complete
              square with all orders 2 (fact 5)
    """

    __slots__ = ("pairs", "partners", "n_squares", "unions", "closures",
                 "minimal", "electrification_hyperbolic", "universal",
                 "join_form", "sc_order2_square")

    def __init__(self, g):
        self.pairs, self.partners, self.n_squares = _square_pairs(g)
        self.unions = _components(self.pairs, self.partners)
        self.closures = [u if u.bit_count() == 4 else _close(self, u)[0]
                         for u in self.unions]
        # taken by size, a closure that holds another holds a minimal one
        # taken before it, and one that meets no minimal closure holds none
        closures = set(self.closures)
        minimal, covered = [], 0
        for c in sorted(closures, key=int.bit_count):
            if not c & covered or all(m & ~c for m in minimal):
                minimal.append(c)
                covered |= c
        self.minimal = tuple(sorted(minimal))
        # the minimal closures are among the distinct closures
        self.electrification_hyperbolic = len(minimal) == len(closures)
        full = (1 << g.n) - 1
        self.universal = _universal(g, full)
        self.join_form = (full & ~self.universal) in self.minimal
        self.sc_order2_square = any(
            u.bit_count() == 4 and all(g._orders_ix[i] == 2 for i in _bits(u))
            for u in self.unions)


def _components(pairs, partners):
    """The union masks of the components of the squares, found as the
    components of the pair graph of fact 3 by a depth-first search that
    keeps, per lower vertex u with a row, the mask of partners v > u whose
    pair is not yet reached.  A pair inside F(P) carries a square, so its
    lower vertex has a row; the search reads only the members of F(P) that
    have one.  Partners are non-adjacent, so every unseen partner of u
    in F(P) is the other end of a pair inside F(P)."""
    unseen = {x: partners[x] & (-2 << x) for x in pairs}
    lowers = sum(1 << x for x in pairs)
    unions = []
    for x in pairs:
        while unseen[x]:
            low = unseen[x] & -unseen[x]
            unseen[x] ^= low
            stack = [(x, low.bit_length() - 1)]
            union = 0
            while stack:
                a, c = stack.pop()
                f = pairs[a][c]
                union |= f
                rest = f & lowers
                while rest:
                    b = rest & -rest
                    rest ^= b
                    u = b.bit_length() - 1
                    new = f & unseen[u]
                    if new:
                        unseen[u] ^= new
                        while new:
                            v = new & -new
                            new ^= v
                            stack.append((u, v.bit_length() - 1))
            unions.append(union)
    return unions


def _core(g):
    """The square core of g, built on first use and kept on g."""
    core = g._core
    if core is None:
        core = _SquareCore(g)
        object.__setattr__(g, "_core", core)
    return core


def _close(core, cur):
    """(closure, steps) of the mask cur: a worklist adding F(P) for every
    pair P inside cur.  Each pair inside the result is taken once, when the
    later of its two vertices leaves the worklist; a step (v, w, new) is a
    pair {v, w} whose F(P) added the vertices new."""
    pairs, partners = core.pairs, core.partners
    todo, done = cur, 0
    steps = []
    while todo:
        low = todo & -todo
        todo ^= low
        w = low.bit_length() - 1
        m = partners[w] & done
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            new = (pairs[v][w] if v < w else pairs[w][v]) & ~cur
            if new:
                todo |= new
                cur |= new
                steps.append((v, w, new))
        done |= low
    return cur, steps


def is_square_complete(s):
    """True iff every square of the ambient graph having an opposite pair in s
    lies inside s: iff F(P) lies in s for every pair P inside s (fact 4 of
    the module docstring), that is, iff closing s takes no step.

    >>> from .graphs import parse_graph
    >>> diag = parse_graph("graph DIAG\\nvertex a\\nvertex b\\nvertex c\\nvertex d\\n"
    ...     "vertex w\\nedge a b\\nedge b c\\nedge c d\\nedge d a\\nedge w a\\nedge w c")
    >>> is_square_complete(diag.subset("abcd"))
    False
    >>> is_square_complete(diag.full_set())
    True
    """
    return not _close(_core(s.graph), s.mask)[1]


def square_complete_closure(seed):
    """Least square-complete superset of the seed, with the steps of the
    closure worklist as its trace (see ClosureTrace).  The rule is monotone
    in the seed, and running the closure on its own result adds nothing."""
    g = seed.graph
    names = g.vertices
    cur, steps = _close(_core(g), seed.mask)
    return ClosureTrace(
        seed=seed,
        steps=tuple((_set_from_mask(g, new), (names[min(v, w)], names[max(v, w)]))
                    for v, w, new in steps),
        result=_set_from_mask(g, cur))


def minsquare_subgraphs(g):
    """Inclusion-minimal square-complete subgraphs containing a square, as the
    minimal elements of the squares' closures.  Canonically sorted; empty iff
    the graph is square-free."""
    return tuple(_set_from_mask(g, m) for m in _core(g).minimal)


def is_minsquare_graph(g):
    """True iff g contains a square and its only minsquare subgraph is g itself."""
    return _core(g).minimal == ((1 << g.n) - 1,)


def is_hyperbolic(g):
    """A graph product of finite groups is hyperbolic iff its graph has no
    induced square."""
    return not _core(g).n_squares


def electrification_hyperbolic(g):
    """Whether coning off the minsquare parabolic subgroups yields a
    hyperbolic space: true iff every induced square lies inside some
    minsquare subgraph.  When false, the squares contained in no minsquare
    subgraph are returned as witnesses.

    A minsquare subgraph containing a square contains its closure, and the
    closure already contains a minsquare subgraph, so a square is covered
    iff its closure is minimal.  The uncovered squares are the squares
    through the pairs that lie in no minsquare subgraph.  If a pair P lies
    inside a minimal closure M, every square through P lies in M, because
    M is square-complete; so the closure of P's component, which is the
    closure of any of its squares, lies in M, and equals M by minimality.
    Conversely, a minimal closure holds its component's pairs.  A pair
    {x, z} lies in a minimal closure iff the closures holding x and the
    closures holding z meet, read as the masks of their indices.  A
    one-square component is always covered, since its 4-vertex union is a
    minimal closure (fact 5 of the module docstring), so the uncovered
    squares lie in components of two or more squares."""
    core = _core(g)
    if core.electrification_hyperbolic:
        return ElectrificationCheck(hyperbolic=True, uncovered=())
    inside = [0] * g.n
    for k, m in enumerate(core.minimal):
        for v in _bits(m):
            inside[v] |= 1 << k
    pairs = [(x, z, f) for x, row in core.pairs.items() for z, f in row.items()
             if not inside[x] & inside[z]]
    uncovered = tuple(_set_from_mask(g, m) for m in _list_squares(g._adj_bits, pairs))
    return ElectrificationCheck(hyperbolic=False, uncovered=uncovered)


def morse_all_hyperbolic(g):
    """Whether every infinite-index Morse subgroup of the graph product is
    hyperbolic: true iff the graph is square-free or splits as the join of a
    minsquare subgraph and a complete graph.

    The join test uses the canonical core decomposition: peel off the
    universal vertices (always a complete join factor) and ask whether the
    remainder is a minsquare subgraph.  No minsquare subgraph contains a
    universal vertex, so this is equivalent to the existential form.  The
    square core holds the verdict (join_form).
    """
    if is_hyperbolic(g):
        return MorseDichotomy(True, "square-free")
    split = _core_split(g)
    if _core(g).join_form:
        return MorseDichotomy(True, split)
    lam0, lam1 = split
    return MorseDichotomy(
        False,
        f"core {lam0!r} is not a minsquare subgraph (complete factor {lam1!r})")


def _core_split(g):
    """`graphs.core_decomposition` of the whole vertex set, read from the
    universal mask of the square core instead of computed again."""
    universal = _core(g).universal
    return (_set_from_mask(g, ((1 << g.n) - 1) & ~universal),
            _set_from_mask(g, universal))


def cfs_check(g):
    """True iff the squares of one connected component of the square-overlap
    graph (squares joined when they share a non-adjacent vertex pair, that
    is, a diagonal) cover every vertex of g."""
    core = _core(g)
    if not core.n_squares:
        return g.n == 0
    return (1 << g.n) - 1 in core.unions
