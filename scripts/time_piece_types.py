"""Time spent keying pieces in `compare`, on the benchmark's analyze rounds.

    PYTHONPATH=src python scripts/time_piece_types.py [--seed S] [--rounds R] [--repeat N]

Rounds 0 .. R-1 of the `analyze_sparse` and `analyze_dense` workloads
(`perfbench/workloads.py`, seed S) give the graph pairs.  Each pair is parsed
afresh and compared; `report._piece_types` (building the piece shapes,
normalising and searching them, counting the classes) is timed around its
two calls per `compare`, and the `canonical_key` searches are counted.  The
best of N runs of the mean time per `compare` is printed with the searches
per `compare`.
"""

import argparse
import sys
import time
from pathlib import Path

import graphprod.report as report
from graphprod.graphs import parse_graph

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("analyze_sparse", "analyze_dense")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    # workloads.py imports the oracles from tests/
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    import workloads

    spent, searches = [0.0], [0]
    piece_types, canonical_key = report._piece_types, report.canonical_key

    def timed(*a):
        start = time.perf_counter()
        try:
            return piece_types(*a)
        finally:
            spent[0] += time.perf_counter() - start

    def counted(*a):
        searches[0] += 1
        return canonical_key(*a)

    report._piece_types, report.canonical_key = timed, counted
    for workload in WORKLOADS:
        pairs = [p.texts for k in range(args.rounds)
                 for p in workloads.analyze_round(workload, args.seed, k)]
        best = float("inf")
        for _ in range(args.repeat):
            spent[0], searches[0] = 0.0, 0
            for texts in pairs:
                report.compare(*map(parse_graph, texts))
            best = min(best, spent[0] / len(pairs))
        print(f"{workload:<15} {len(pairs):>4} compares  "
              f"_piece_types {best * 1e6:7.1f} us/compare  "
              f"{searches[0] / len(pairs):6.2f} searches/compare")


if __name__ == "__main__":
    main()
