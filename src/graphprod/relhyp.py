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

from .graphs import _bits, _merge_overlapping, _set_from_mask
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


def _cp_mask(g, mask):
    adj = g._adj_bits
    out = mask
    for v in _bits(((1 << g.n) - 1) & ~mask):
        link = adj[v] & mask
        # links with fewer than two vertices are complete
        if link & (link - 1) and not _complete_mask(g, link):
            out |= 1 << v
    return out


def cp(s):
    """s together with every outside vertex whose link meets s non-completely.
    Applied once, not iterated."""
    return _set_from_mask(s.graph, _cp_mask(s.graph, s.mask))


def _step(g, collection):
    """One iteration: merge the connected components of the non-complete-
    intersection graph, then pad each union once.  Equal unions collapse."""
    return sorted({_cp_mask(g, m) for m in _merge_overlapping(g, collection)})


def jinf(g):
    """Iterate the merge-and-pad step from the induced squares to its fixed
    point.

    >>> from .graphs import parse_graph
    >>> c5 = parse_graph("graph C5\\nvertex a\\nvertex b\\nvertex c\\nvertex d\\n"
    ...     "vertex e\\nedge a b\\nedge b c\\nedge c d\\nedge d e\\nedge e a")
    >>> jinf(c5).status
    'hyperbolic'
    """
    collection = sorted(_core(g).masks)
    if not collection:
        return PeripheralStructure(members=(), iterations=0, status="hyperbolic")
    iterations = 0
    while True:
        nxt = _step(g, collection)
        if nxt == collection:
            break
        collection = nxt
        iterations += 1
    full = (1 << g.n) - 1
    status = "trivial" if any(m == full for m in collection) else "proper"
    members = tuple(_set_from_mask(g, m) for m in collection)
    return PeripheralStructure(members=members, iterations=iterations, status=status)
