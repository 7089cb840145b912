"""Wall time of `analyze` on dense random graphs, with two of its layers.

    PYTHONPATH=src python scripts/time_dense_analyze.py [--repeat N]

Each graph G(n, p) is drawn with random.Random(1): vertices v0 .. v(n-1),
and the pair (a, b), a < b in itertools.combinations order, is an edge when
the next rng.random() is below p.  Every run analyzes a freshly built graph
object, so no square data is reused.  Printed per graph, from the run with
the best analyze total: the induced-square count, the analyze total, the
time spent in the `jinf` steps (`relhyp._step`, every merge-and-pad step
after the first) and the time spent in `electrification_hyperbolic`.
"""

import argparse
import random
import time
from itertools import combinations

import graphprod.relhyp as relhyp
import graphprod.report as report
from graphprod.graphs import SimplicialGraph

GRAPHS = [(100, 0.3), (100, 0.7), (60, 0.9), (150, 0.5), (400, 0.1)]


def gnp(n, p):
    rng = random.Random(1)
    verts = [f"v{i}" for i in range(n)]
    edges = [(a, b) for a, b in combinations(verts, 2) if rng.random() < p]
    return SimplicialGraph(f"G{n}", verts, edges)


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
    spent = {"_step": 0.0, "electrification_hyperbolic": 0.0}
    _timed(relhyp, "_step", spent)
    _timed(report, "electrification_hyperbolic", spent)
    for n, p in GRAPHS:
        best = (float("inf"),)
        for _ in range(args.repeat):
            g = gnp(n, p)
            for name in spent:
                spent[name] = 0.0
            start = time.perf_counter()
            rep = report.analyze(g)
            best = min(best, (time.perf_counter() - start, *spent.values()))
        total, steps, electrification = best
        print(f"G({n}, {p})  {rep.n_induced_squares:>9,} squares  {total:7.3f} s  "
              f"jinf steps {steps * 1e3:8.2f} ms  "
              f"electrification {electrification * 1e3:8.2f} ms")


if __name__ == "__main__":
    main()
