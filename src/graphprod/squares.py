"""Square-complete closures, minsquare subgraphs, and the criteria built on them.

A subset of vertices is square-complete when every induced square meeting it
in an opposite (diagonal) pair lies entirely inside it.  Closing a seed under
that rule gives the least square-complete superset; the minimal closures of
single squares are the minsquare subgraphs, the pieces behind every decision
procedure in this module (hyperbolicity of the electrification, the Morse
dichotomy, the minsquare-graph test).

Everything derived from a graph's squares lives in one per-graph square
core: the squares with their masks and diagonals, the closure of every
square and the minsquare pieces.  It is built on first use, piece by piece,
and kept on the graph itself (``SimplicialGraph._core``), so each piece is
computed at most once per graph and is freed together with the graph; there
is no module-level cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graphs import (
    _bits,
    _merge_overlapping,
    _set_from_mask,
    core_decomposition,
    induced_squares,
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
    """The square data of one graph.

    squares    induced squares (VertexSets) in canonical order
    masks      their vertex bitmasks
    rows       (mask, diagonal 1 mask, diagonal 2 mask, diagonal 1 names,
               diagonal 2 names, square) per square, diagonals in canonical
               order: the table a closure scans
    closures   square_complete_closure result mask of each square (lazy)
    minimal    masks of the minsquare subgraphs, ascending (lazy)
    pieces     the minsquare subgraphs as VertexSets (lazy)
    """

    __slots__ = ("graph", "squares", "masks", "rows",
                 "_closures", "_minimal", "_pieces")

    def __init__(self, g):
        adj = g._adj_bits
        names = g.vertices
        self.graph = g
        self.squares = induced_squares(g)
        self.masks = tuple(q.mask for q in self.squares)
        rows = []
        for m, q in zip(self.masks, self.squares):
            # the diagonal through the least vertex is that vertex and the
            # one vertex of the square not adjacent to it
            low = m & -m
            d1 = low | (m & ~adj[low.bit_length() - 1] & ~low)
            d2 = m ^ d1
            rows.append((m, d1, d2, tuple(names[i] for i in _bits(d1)),
                         tuple(names[i] for i in _bits(d2)), q))
        self.rows = tuple(rows)
        self._closures = self._minimal = self._pieces = None

    @property
    def closures(self):
        if self._closures is None:
            self._closures = tuple(square_complete_closure(q).result.mask
                                   for q in self.squares)
        return self._closures

    @property
    def minimal(self):
        if self._minimal is None:
            closures = sorted(set(self.closures))
            self._minimal = tuple(c for c in closures
                                  if not any(o != c and o & ~c == 0 for o in closures))
        return self._minimal

    @property
    def pieces(self):
        if self._pieces is None:
            self._pieces = tuple(_set_from_mask(self.graph, m) for m in self.minimal)
        return self._pieces


def _core(g):
    """The square core of g, built on first use and kept on g."""
    core = g._core
    if core is None:
        core = _SquareCore(g)
        object.__setattr__(g, "_core", core)
    return core


def is_square_complete(s):
    """True iff every square of the ambient graph having an opposite pair in s
    lies inside s.

    >>> from .graphs import parse_graph
    >>> diag = parse_graph("graph DIAG\\nvertex a\\nvertex b\\nvertex c\\nvertex d\\n"
    ...     "vertex w\\nedge a b\\nedge b c\\nedge c d\\nedge d a\\nedge w a\\nedge w c")
    >>> is_square_complete(diag.subset("abcd"))
    False
    >>> is_square_complete(diag.full_set())
    True
    """
    mask = s.mask
    for sq, d1, d2, _, _, _ in _core(s.graph).rows:
        if sq & ~mask and ((d1 & ~mask) == 0 or (d2 & ~mask) == 0):
            return False
    return True


def square_complete_closure(seed):
    """Least square-complete superset of the seed, with a step trace.

    Squares are scanned in canonical order and re-scanned until nothing is
    absorbed, so the trace is deterministic.  The rule is monotone in the
    seed, and running the closure on its own result adds nothing.
    """
    g = seed.graph
    rows = _core(g).rows
    cur = seed.mask
    steps = []
    changed = True
    while changed:
        changed = False
        for sq, d1, d2, t1, t2, sqset in rows:
            if sq & ~cur:
                if (d1 & ~cur) == 0:
                    trigger = t1
                elif (d2 & ~cur) == 0:
                    trigger = t2
                else:
                    continue
                steps.append((sqset, trigger))
                cur |= sq
                changed = True
    return ClosureTrace(seed=seed, steps=tuple(steps), result=_set_from_mask(g, cur))


def minsquare_subgraphs(g):
    """Inclusion-minimal square-complete subgraphs containing a square, as the
    minimal elements of the squares' closures.  Canonically sorted; empty iff
    the graph is square-free."""
    return _core(g).pieces


def is_minsquare_graph(g):
    """True iff g contains a square and its only minsquare subgraph is g itself."""
    return _core(g).minimal == ((1 << g.n) - 1,)


def is_hyperbolic(g):
    """A graph product of finite groups is hyperbolic iff its graph has no
    induced square."""
    return not _core(g).masks


def electrification_hyperbolic(g):
    """Whether coning off the minsquare parabolic subgroups yields a
    hyperbolic space: true iff every induced square lies inside some
    minsquare subgraph.  When false, the squares contained in no minsquare
    subgraph are returned as witnesses.

    A minsquare subgraph containing a square contains its closure, and the
    closure already contains a minsquare subgraph, so a square is covered
    iff its closure is minimal."""
    core = _core(g)
    minimal = set(core.minimal)
    uncovered = tuple(sq for sq, c in zip(core.squares, core.closures)
                      if c not in minimal)
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
    if is_hyperbolic(g):
        return MorseDichotomy(True, "square-free")
    lam0, lam1 = core_decomposition(g.full_set())
    if lam0.mask in _core(g).minimal:
        return MorseDichotomy(True, (lam0, lam1))
    return MorseDichotomy(
        False,
        f"core {lam0!r} is not a minsquare subgraph (complete factor {lam1!r})")


def cfs_check(g):
    """True iff the squares of one connected component of the square-overlap
    graph (squares joined when they share a non-adjacent vertex pair, that
    is, a diagonal) cover every vertex of g."""
    masks = _core(g).masks
    if not masks:
        return g.n == 0
    return (1 << g.n) - 1 in _merge_overlapping(g, masks)
