"""Square-complete closures, minsquare subgraphs, and the criteria built on them.

A subset of vertices is square-complete when every induced square meeting it
in an opposite (diagonal) pair lies entirely inside it.  Closing a seed under
that rule gives the least square-complete superset; the minimal closures of
single squares are the minsquare subgraphs, the pieces behind every decision
procedure in this module (hyperbolicity of the electrification, the Morse
dichotomy, the minsquare-graph test).

Everything derived from a graph's squares lives in one per-graph square
core, held as vertex bitmasks: the squares with their diagonals, their
components in the diagonal-sharing graph, one closure per component and the
minsquare masks.  It is built on first use and kept on the graph itself
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
    _bits,
    _diagonals,
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
    """The square data of one graph, as vertex bitmasks only.

    rows      (mask, diagonal 1 mask, diagonal 2 mask) per induced square, in
              canonical order, diagonals as in square_diagonals: the table a
              closure scans
    comp      component index of each square in the diagonal-sharing graph
    unions    vertex mask of each component
    closures  square_complete_closure result mask of each component (lazy)
    minimal   masks of the minsquare subgraphs, ascending (lazy)
    """

    __slots__ = ("rows", "comp", "unions", "closures", "minimal")

    def __init__(self, g):
        masks = [q.mask for q in induced_squares(g)]
        self.rows = tuple((m, *_diagonals(g._adj_bits, m)) for m in masks)
        self.comp, self.unions = _merge_overlapping(g, masks)
        self.closures = self.minimal = None


def _core(g):
    """The square core of g, built on first use and kept on g."""
    core = g._core
    if core is None:
        core = _SquareCore(g)
        object.__setattr__(g, "_core", core)
    return core


def _closures(g):
    """The core with its closures and minsquare masks filled in.  A square
    sharing a diagonal with one inside the current set is absorbed, so the
    closure of any square contains its component; being monotone and
    idempotent, it is the closure of the component's union, run once."""
    core = _core(g)
    if core.closures is None:
        core.closures = [square_complete_closure(_set_from_mask(g, u)).result.mask
                         for u in core.unions]
        closures = sorted(set(core.closures))
        core.minimal = tuple(c for c in closures
                             if not any(o != c and o & ~c == 0 for o in closures))
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
    for sq, d1, d2 in _core(s.graph).rows:
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
    names = g.vertices
    rows = _core(g).rows
    cur = seed.mask
    steps = []
    changed = True
    while changed:
        changed = False
        for sq, d1, d2 in rows:
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
    return not _core(g).rows


def electrification_hyperbolic(g):
    """Whether coning off the minsquare parabolic subgroups yields a
    hyperbolic space: true iff every induced square lies inside some
    minsquare subgraph.  When false, the squares contained in no minsquare
    subgraph are returned as witnesses.

    A minsquare subgraph containing a square contains its closure, and the
    closure already contains a minsquare subgraph, so a square is covered
    iff its closure is minimal."""
    core = _closures(g)
    minimal = set(core.minimal)
    uncovered = tuple(_set_from_mask(g, row[0])
                      for row, k in zip(core.rows, core.comp)
                      if core.closures[k] not in minimal)
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
    if not core.rows:
        return g.n == 0
    return (1 << g.n) - 1 in core.unions
