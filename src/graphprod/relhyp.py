"""Minimal relative-hyperbolicity peripheral structure of a graph product.

Starting from the collection of induced squares, repeatedly merge members
whose intersection is not complete and pad each merged piece by the vertices
whose link meets it non-completely (one padding application per step).  The
collection stabilizes on finite graphs; the fixed point is the minimal
peripheral structure: the graph product is hyperbolic relative to the
parabolic subgroups spanned by its members.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import _bits, _complete_mask, _merge_overlapping, _set_from_mask
from .squares import _core

__all__ = ["PeripheralStructure", "cp", "jinf"]


@dataclass(frozen=True)
class PeripheralStructure:
    """Fixed point of the merge-and-pad iteration.

    members     canonically sorted vertex sets
    iterations  number of steps before the collection first stabilized
                (0 means the square collection was already stable)
    status      "hyperbolic" (no members), "trivial" (a member is the whole
                vertex set), or "proper"
    """

    members: tuple
    iterations: int
    status: str


def _cp_mask(g, mask):
    """mask padded by the union of N(a) & N(c) over the non-adjacent pairs
    {a, c} inside it.

    These are the outside vertices with a non-complete link in mask.  The
    link of a vertex v outside mask is N(v) & mask.  It is not complete iff
    it holds two non-adjacent vertices a and c, and a, c lie in N(v) iff v
    lies in N(a) & N(c); so it is not complete iff v is adjacent to both
    ends of some non-adjacent pair of mask.

    Such a v has two or more neighbours in mask.  One sweep over the
    members' neighbourhoods finds these candidates, and on sparse graphs
    there are usually none, so nothing else is read.  Each candidate's link
    is then searched for a non-adjacent pair, which costs at most the edges
    from the candidates into mask; listing the pairs of mask instead costs
    up to |mask|^2, as on a long ladder with a triangle on every rung."""
    adj = g._adj_bits
    once = twice = 0
    for u in _bits(mask):
        twice |= once & adj[u]
        once |= adj[u]
    out = mask
    for v in _bits(twice & ~mask):
        if not _complete_mask(g, adj[v] & mask):
            out |= 1 << v
    return out


def cp(s):
    """s together with every outside vertex whose link meets s non-completely.
    Applied once, not iterated."""
    return _set_from_mask(s.graph, _cp_mask(s.graph, s.mask))


def _step(g, collection):
    """One iteration: merge the connected components of the non-complete-
    intersection graph, then pad each union once.  Equal unions collapse."""
    return sorted({_cp_mask(g, m) for m in _merge_overlapping(g, collection)[1]})


def jinf(g):
    """Iterate the merge-and-pad step from the induced squares to its fixed
    point.

    >>> from .graphs import parse_graph
    >>> c5 = parse_graph("graph C5\\nvertex a\\nvertex b\\nvertex c\\nvertex d\\n"
    ...     "vertex e\\nedge a b\\nedge b c\\nedge c d\\nedge d e\\nedge e a")
    >>> jinf(c5).status
    'hyperbolic'
    """
    core = _core(g)
    if not core.n_squares:
        return PeripheralStructure(members=(), iterations=0, status="hyperbolic")
    # the first step's merge is the core's components of the squares
    collection = sorted({_cp_mask(g, m) for m in core.unions})
    # the first step gives back the squares iff it gives n_squares members
    # of 4 vertices (fact 6 of the squares module)
    iterations = 0
    if len(collection) != core.n_squares \
            or any(m.bit_count() != 4 for m in collection):
        while True:
            nxt = _step(g, collection)
            iterations += 1
            if nxt == collection:
                break
            collection = nxt
    full = (1 << g.n) - 1
    status = "trivial" if any(m == full for m in collection) else "proper"
    members = tuple(_set_from_mask(g, m) for m in collection)
    return PeripheralStructure(members=members, iterations=iterations, status=status)
