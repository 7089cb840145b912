"""Wall time of `analyze` on random graphs, dense and sparse, with three of
its layers, after the two costs a CLI run pays before it analyzes.

    PYTHONPATH=src python scripts/time_dense_analyze.py [--repeat N]

First, the cold start: the best of 5N fresh `python -S -c "import
graphprod.cli"` starts less the best of as many bare `python -S -c pass`
starts, interleaved.  Then the best of N `parse_graph` calls on the
`serialize_graph` text of each sparse graph below.

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
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import graphprod.relhyp as relhyp
import graphprod.report as report
import graphprod.squares as squares
from graphprod.graphs import SimplicialGraph, parse_graph, serialize_graph

GRAPHS = [(100, "0.3"), (100, "0.7"), (60, "0.9"), (150, "0.5"), (400, "0.1"),
          (200, "3/199"), (1500, "3/1499")]


def gnp(n, p):
    """(vertices, edges) of G(n, p)."""
    rng = random.Random(1)
    verts = [f"v{i}" for i in range(n)]
    return verts, [(a, b) for a, b in combinations(verts, 2) if rng.random() < p]


def cold_start(starts):
    """Best wall times in seconds of a bare and of an importing start."""
    best = {"pass": float("inf"), "import graphprod.cli": float("inf")}
    for _ in range(starts):
        for code in best:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-S", "-c", code], check=True)
            best[code] = min(best[code], time.perf_counter() - start)
    return best.values()


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
    bare, cli = cold_start(5 * args.repeat)
    print(f"cold start     import graphprod.cli {(cli - bare) * 1e3:6.1f} ms "
          f"over a bare start of {bare * 1e3:.1f} ms")
    for n, p in GRAPHS:
        if "/" in p:
            g = SimplicialGraph(f"G{n}", *gnp(n, float(Fraction(p))))
            text = serialize_graph(g)
            best = float("inf")
            for _ in range(args.repeat):
                start = time.perf_counter()
                parse_graph(text)
                best = min(best, time.perf_counter() - start)
            print(f"{f'G({n}, {p})':<15} parse_graph {best * 1e3:7.2f} ms")
    spent = {"_SquareCore": 0.0, "_step": 0.0, "electrification_hyperbolic": 0.0}
    _timed(squares, "_SquareCore", spent)
    _timed(relhyp, "_step", spent)
    _timed(report, "electrification_hyperbolic", spent)
    for n, p in GRAPHS:
        verts, edges = gnp(n, float(Fraction(p)))
        best = (float("inf"),)
        for _ in range(args.repeat):
            g = SimplicialGraph(f"G{n}", verts, edges)
            rep = None  # free the last report, and its graph, before timing
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
