"""Electrified geometry, and the hunt for its smallest non-hyperbolic example.

Coning off every minsquare parabolic coset collapses the group's flat pieces
to diameter 1.  The cone-off is hyperbolic exactly when every induced square
lies inside some minsquare subgraph, so a square that no minsquare subgraph
covers is a certificate of non-hyperbolicity.

The second half reproduces how the bundled ELEC_FALSE graph was found: walk
all graphs in a fixed enumeration order (vertex count ascending, then edge
sets as ascending bitmasks over lexicographically ordered vertex pairs),
check each with `electrification_hyperbolic` and stop at the first graph
with an uncovered square.
"""

import time
from itertools import combinations

from graphprod import (
    SimplicialGraph,
    corpus,
    electrification_hyperbolic,
    electrified_distance,
    identity,
    minsquare_subgraphs,
    parse_word,
    reduce_word,
)

edgew = corpus.load("EDGEW")
x = identity(edgew)
y = reduce_word(parse_word(edgew, "w a c a c a c w"))
plain = 8
print(f"EDGEW: the word metric puts {y} at distance {plain} from the identity,")
for r in (8, 9, 10):
    d = electrified_distance(x, y, r)
    print(f"  electrified distance at radius {r}: {d.value}")
print("  (w-edge, one cone edge across the flat coset, w-edge)\n")


print("searching for the first graph with an uncovered square ...")
t0 = time.time()
found = None
for n in range(4, 8):
    names = "abcdefg"[:n]
    pairs = list(combinations(names, 2))
    for mask in range(1 << len(pairs)):
        if mask.bit_count() < 6:  # at most one square, which is covered
            continue
        edges = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
        g = SimplicialGraph("FOUND", names, edges)
        if not electrification_hyperbolic(g).hyperbolic:
            found = (n, mask, g)
            break
    if found:
        break
    print(f"  no witness on {n} vertices")

n, mask, g = found
print(f"  first witness: {n} vertices, edge mask {mask} "
      f"({time.time() - t0:.1f}s)")

frozen = corpus.load("ELEC_FALSE")
assert set(g.edges) == set(frozen.edges), "frozen corpus graph drifted"
print("  matches the bundled ELEC_FALSE graph\n")

res = electrification_hyperbolic(frozen)
print(f"ELEC_FALSE: electrification hyperbolic = {res.hyperbolic}")
print(f"  minsquare subgraphs: {[str(m) for m in minsquare_subgraphs(frozen)]}")
print(f"  uncovered squares:   {[str(q) for q in res.uncovered]}")
