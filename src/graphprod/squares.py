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
core keeps F(P) for those pairs only, and reads everything else from six
facts.

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
5. A square is square-complete iff its component is that square alone and
   the closure of the component adds nothing.  The closure of a square
   absorbs every square sharing a diagonal with a square inside it, so it
   contains the square's component and is the closure of the component's
   union.  Four vertices hold at most one induced square, so the component
   is the square alone iff its union has four vertices.
6. The first step of `relhyp.jinf` gives back the squares iff it gives
   n_squares members of four vertices each.  Each member contains a
   component's union, hence a square, so a 4-vertex member is a square,
   and n_squares distinct squares are all of them.

Squares are listed only where the output shows them: by `induced_squares`,
in the table a traced `square_complete_closure` scans (built on its first
call), and as the uncovered squares of `electrification_hyperbolic`, taken
from the components whose closure is not minimal.  Each is listed once,
from its diagonal through its least vertex.

The core is built on first use and kept on the graph itself
(``SimplicialGraph._core``), so each part is computed at most once per
graph; there is no module-level cache.  The core holds no reference back to
the graph (public functions build VertexSets from its masks on return), so
a graph and its core are freed by reference counting as soon as nothing
refers to the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graphs import (
    _all_pairs,
    _bits,
    _list_squares,
    _set_from_mask,
    _square_pairs,
    core_decomposition,
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
    """Certificate of one closure run: each step records the square that was
    absorbed and the diagonal pair, already inside the accumulated set, that
    triggered it."""

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

    pairs     per lower vertex x, a dict from z > x to F({x, z}), over the
              non-adjacent pairs that carry a square (see _square_pairs)
    partners  per vertex, the mask of vertices it forms such a pair with
    n_squares number of induced squares
    comps     per component of the squares, its pairs (x, z)
    unions    vertex mask of each component
    closures  closure mask of each component (lazy)
    minimal   masks of the minsquare subgraphs, ascending (lazy)
    rows      (mask, diagonal 1, diagonal 2) per square in canonical order,
              the table a traced closure scans (lazy)
    """

    __slots__ = ("pairs", "partners", "n_squares", "comps", "unions",
                 "closures", "minimal", "rows")

    def __init__(self, g):
        adj = g._adj_bits
        self.pairs, self.partners, self.n_squares = _square_pairs(adj)
        self.comps, self.unions = _components(adj, self.pairs, self.partners)
        self.closures = self.minimal = self.rows = None


def _components(adj, pairs, partners):
    """The components of the squares as (pair lists, union masks), found as
    the components of the pair graph of fact 3 by a depth-first search that
    keeps, per lower vertex u, the mask of partners v > u whose pair is not
    yet reached."""
    unseen = [p & (-2 << u) for u, p in enumerate(partners)]
    comps, unions = [], []
    for x in range(len(pairs)):
        while unseen[x]:
            low = unseen[x] & -unseen[x]
            unseen[x] ^= low
            stack = [(x, low.bit_length() - 1)]
            members = []
            union = 0
            while stack:
                a, c = stack.pop()
                members.append((a, c))
                f = pairs[a][c]
                union |= f
                rest = f
                while rest:
                    b = rest & -rest
                    rest ^= b
                    u = b.bit_length() - 1
                    new = f & ~adj[u] & unseen[u]
                    if new:
                        unseen[u] ^= new
                        while new:
                            v = new & -new
                            new ^= v
                            stack.append((u, v.bit_length() - 1))
            comps.append(members)
            unions.append(union)
    return comps, unions


def _core(g):
    """The square core of g, built on first use and kept on g."""
    core = g._core
    if core is None:
        core = _SquareCore(g)
        object.__setattr__(g, "_core", core)
    return core


def _close(core, cur):
    """The closure of the mask cur: a worklist adding F(P) for every pair P
    inside cur.  Each pair inside the result is taken once, when the later
    of its two vertices leaves the worklist."""
    pairs, partners = core.pairs, core.partners
    todo, done = cur, 0
    while todo:
        low = todo & -todo
        todo ^= low
        w = low.bit_length() - 1
        m = partners[w] & done
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            f = pairs[v][w] if v < w else pairs[w][v]
            todo |= f & ~cur
            cur |= f
        done |= low
    return cur


def _closures(g):
    """The core with its closures and minsquare masks filled in.  A square
    sharing a diagonal with one inside the current set is absorbed, so the
    closure of any square contains its component; being monotone and
    idempotent, it is the closure of the component's union, run once."""
    core = _core(g)
    if core.closures is None:
        core.closures = [_close(core, u) for u in core.unions]
        closures = sorted(set(core.closures))
        core.minimal = tuple(c for c in closures
                             if not any(o != c and o & ~c == 0 for o in closures))
    return core


def _uncovered_components(core):
    """Indices of the components whose closure is not minimal: their
    squares lie in no minsquare subgraph."""
    minimal = set(core.minimal)
    return [k for k, c in enumerate(core.closures) if c not in minimal]


def _electrification_verdict(g):
    """electrification_hyperbolic(g).hyperbolic, without listing squares."""
    return not _uncovered_components(_closures(g))


def is_square_complete(s):
    """True iff every square of the ambient graph having an opposite pair in s
    lies inside s: iff F(P) lies in s for every pair P inside s (fact 4 of
    the module docstring), that is, iff closing s adds nothing.

    >>> from .graphs import parse_graph
    >>> diag = parse_graph("graph DIAG\\nvertex a\\nvertex b\\nvertex c\\nvertex d\\n"
    ...     "vertex w\\nedge a b\\nedge b c\\nedge c d\\nedge d a\\nedge w a\\nedge w c")
    >>> is_square_complete(diag.subset("abcd"))
    False
    >>> is_square_complete(diag.full_set())
    True
    """
    return _close(_core(s.graph), s.mask) == s.mask


def square_complete_closure(seed):
    """Least square-complete superset of the seed, with a step trace.

    Squares are scanned in canonical order and re-scanned until nothing is
    absorbed, so the trace is deterministic.  The rule is monotone in the
    seed, and running the closure on its own result adds nothing.  The
    square table it scans is listed on the first call.
    """
    g = seed.graph
    names = g.vertices
    core = _core(g)
    if core.rows is None:
        core.rows = _list_squares(g._adj_bits, _all_pairs(core.pairs))
    cur = seed.mask
    steps = []
    changed = True
    while changed:
        changed = False
        for sq, d1, d2 in core.rows:
            if sq & ~cur:
                if (d1 & ~cur) == 0:
                    trigger = d1
                elif (d2 & ~cur) == 0:
                    trigger = d2
                else:
                    continue
                steps.append((_set_from_mask(g, sq),
                              tuple(names[i] for i in _bits(trigger))))
                cur |= sq
                changed = True
    return ClosureTrace(seed=seed, steps=tuple(steps), result=_set_from_mask(g, cur))


def minsquare_subgraphs(g):
    """Inclusion-minimal square-complete subgraphs containing a square, as the
    minimal elements of the squares' closures.  Canonically sorted; empty iff
    the graph is square-free."""
    return tuple(_set_from_mask(g, m) for m in _closures(g).minimal)


def is_minsquare_graph(g):
    """True iff g contains a square and its only minsquare subgraph is g itself."""
    return _closures(g).minimal == ((1 << g.n) - 1,)


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
    iff its closure is minimal."""
    core = _closures(g)
    pairs = [(x, z, core.pairs[x][z])
             for k in _uncovered_components(core) for x, z in core.comps[k]]
    uncovered = tuple(_set_from_mask(g, r[0])
                      for r in _list_squares(g._adj_bits, pairs)) if pairs else ()
    return ElectrificationCheck(hyperbolic=not uncovered, uncovered=uncovered)


def morse_all_hyperbolic(g):
    """Whether every infinite-index Morse subgroup of the graph product is
    hyperbolic: true iff the graph is square-free or splits as the join of a
    minsquare subgraph and a complete graph.

    The join test uses the canonical core decomposition: peel off the
    universal vertices (always a complete join factor) and ask whether the
    remainder is a minsquare subgraph.  No minsquare subgraph contains a
    universal vertex, so this is equivalent to the existential form.
    """
    return _morse_dichotomy(g, core_decomposition(g.full_set()))


def _morse_dichotomy(g, split):
    """`morse_all_hyperbolic` given the core decomposition (lambda0, lambda1)
    of the whole vertex set, so a caller that already has it splits once."""
    if is_hyperbolic(g):
        return MorseDichotomy(True, "square-free")
    lam0, lam1 = split
    if lam0.mask in _closures(g).minimal:
        return MorseDichotomy(True, (lam0, lam1))
    return MorseDichotomy(
        False,
        f"core {lam0!r} is not a minsquare subgraph (complete factor {lam1!r})")


def cfs_check(g):
    """True iff the squares of one connected component of the square-overlap
    graph (squares joined when they share a non-adjacent vertex pair, that
    is, a diagonal) cover every vertex of g."""
    core = _core(g)
    if not core.n_squares:
        return g.n == 0
    return (1 << g.n) - 1 in core.unions
