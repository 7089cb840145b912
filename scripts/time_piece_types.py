"""Time spent keying pieces in `compare`, on the benchmark's analyze rounds.

    PYTHONPATH=src python scripts/time_piece_types.py [--seed S] [--rounds R] [--repeat N]

Rounds 0 .. R-1 of the `analyze_sparse` and `analyze_dense` workloads
(`perfbench/workloads.py`, seed S) give the graph pairs.  Each pair is parsed
afresh and compared; `isomorphism._piece_types` (building the piece shapes,
normalising and searching them, counting the classes) is timed around its
one call per `compare`, and the shapes built (`_piece`), the normal shapes
(`_normal`) and the searches (`canonical_key`) are counted.  The best of N
runs of the mean time per `compare` is printed with the counts per
`compare`.
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

import graphprod.isomorphism as isomorphism
import graphprod.report as report
from graphprod.graphs import parse_graph

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("analyze_sparse", "analyze_dense")
COUNTED = ("_piece", "_normal", "canonical_key")


def patch(name, wrap):
    """Replace isomorphism.name by wrap(original) in every graphprod module
    that binds it, so the calls from other modules are seen too."""
    orig = getattr(isomorphism, name)
    new = wrap(orig)
    for m in list(sys.modules.values()):
        if getattr(m, "__name__", "").startswith("graphprod") \
                and getattr(m, name, None) is orig:
            setattr(m, name, new)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    # workloads.py imports the oracles from tests/
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    import workloads

    spent, counts = [0.0], Counter()

    def timed(f):
        def run(*a):
            start = time.perf_counter()
            try:
                return f(*a)
            finally:
                spent[0] += time.perf_counter() - start
        return run

    def counted(name):
        def wrap(f):
            def run(*a):
                counts[name] += 1
                return f(*a)
            return run
        return wrap

    patch("_piece_types", timed)
    for name in COUNTED:
        patch(name, counted(name))
    for workload in WORKLOADS:
        pairs = [p.texts for k in range(args.rounds)
                 for p in workloads.analyze_round(workload, args.seed, k)]
        best = float("inf")
        for _ in range(args.repeat):
            spent[0] = 0.0
            counts.clear()
            for texts in pairs:
                report.compare(*map(parse_graph, texts))
            best = min(best, spent[0] / len(pairs))
        n = len(pairs)
        print(f"{workload:<15} {n:>4} compares  "
              f"_piece_types {best * 1e6:7.1f} us/compare  "
              f"{counts['_piece'] / n:6.2f} shapes  "
              f"{counts['_normal'] / n:6.2f} normal shapes  "
              f"{counts['canonical_key'] / n:6.2f} searches per compare")


if __name__ == "__main__":
    main()
