"""Wall time of `analyze` on dense random graphs.

    PYTHONPATH=src python scripts/time_dense_analyze.py [--repeat N]

Each graph G(n, p) is drawn with random.Random(1): vertices v0 .. v(n-1),
and the pair (a, b), a < b in itertools.combinations order, is an edge when
the next rng.random() is below p.  Every run analyzes a freshly built graph
object, so no square data is reused; the best of N runs is printed with the
graph's induced-square count.
"""

import argparse
import random
import time
from itertools import combinations

from graphprod.graphs import SimplicialGraph
from graphprod.report import analyze

GRAPHS = [(100, 0.3), (100, 0.7), (60, 0.9), (150, 0.5), (400, 0.1)]


def gnp(n, p):
    rng = random.Random(1)
    verts = [f"v{i}" for i in range(n)]
    edges = [(a, b) for a, b in combinations(verts, 2) if rng.random() < p]
    return SimplicialGraph(f"G{n}", verts, edges)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    for n, p in GRAPHS:
        best = float("inf")
        for _ in range(args.repeat):
            g = gnp(n, p)
            start = time.perf_counter()
            rep = analyze(g)
            best = min(best, time.perf_counter() - start)
        print(f"G({n}, {p})  {rep.n_induced_squares:>9,} squares  {best:7.3f} s")


if __name__ == "__main__":
    main()
