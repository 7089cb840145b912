"""Wall time of `analyze` on random graphs, dense and sparse, with three of
its layers.

    PYTHONPATH=src python scripts/time_dense_analyze.py [--repeat N]

Each graph G(n, p) is drawn with random.Random(1): vertices v0 .. v(n-1),
and the pair (a, b), a < b in itertools.combinations order, is an edge when
the next rng.random() is below p.  The last two rows are sparse, with mean
degree 3.  Every run analyzes a freshly built graph object, so no square
data is reused.  Printed per graph, from the run with the best analyze
total: the induced-square count, the analyze total, the time spent
building the square core (`squares._SquareCore`: the pair table, the
components of the squares and the closures of those of two or more
squares), the time spent in the `jinf` steps (`relhyp._step`, every
merge-and-pad step after the first) and the time spent in
`electrification_hyperbolic`.  Then, read off the square core after
`analyze`, the number of components of the squares and how many of them
the core closed: a component of one square is its own closure.
"""

import argparse
import random
import time
from fractions import Fraction
from itertools import combinations

import graphprod.relhyp as relhyp
import graphprod.report as report
import graphprod.squares as squares
from graphprod.graphs import SimplicialGraph

GRAPHS = [(100, "0.3"), (100, "0.7"), (60, "0.9"), (150, "0.5"), (400, "0.1"),
          (200, "3/199"), (1500, "3/1499")]


def gnp(n, p):
    """(vertices, edges) of G(n, p)."""
    rng = random.Random(1)
    verts = [f"v{i}" for i in range(n)]
    return verts, [(a, b) for a, b in combinations(verts, 2) if rng.random() < p]


def _timed(module, name, spent):
    """Replace module.name by a wrapper adding its time to spent[name]."""
    orig = getattr(module, name)

    def timed(*args):
        start = time.perf_counter()
        try:
            return orig(*args)
        finally:
            spent[name] += time.perf_counter() - start

    setattr(module, name, timed)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    spent = {"_SquareCore": 0.0, "_step": 0.0, "electrification_hyperbolic": 0.0}
    _timed(squares, "_SquareCore", spent)
    _timed(relhyp, "_step", spent)
    _timed(report, "electrification_hyperbolic", spent)
    for n, p in GRAPHS:
        verts, edges = gnp(n, float(Fraction(p)))
        best = (float("inf"),)
        for _ in range(args.repeat):
            g = SimplicialGraph(f"G{n}", verts, edges)
            for name in spent:
                spent[name] = 0.0
            start = time.perf_counter()
            rep = report.analyze(g)
            best = min(best, (time.perf_counter() - start, *spent.values()))
        total, core, steps, electrification = best
        unions = squares._core(g).unions
        print(f"{f'G({n}, {p})':<15} {rep.n_induced_squares:>9,} squares  "
              f"{total * 1e3:9.2f} ms  core {core * 1e3:8.2f} ms  "
              f"jinf steps {steps * 1e3:8.2f} ms  "
              f"electrification {electrification * 1e3:8.2f} ms  "
              f"components {len(unions):>5,} closed "
              f"{sum(u.bit_count() > 4 for u in unions):>5,}")


if __name__ == "__main__":
    main()
