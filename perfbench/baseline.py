"""Re-measure the baseline rows of ROADMAP.md from this harness, traced.

    python3 perfbench/baseline.py

The rows are not workloads: each is one call, timed once untraced on a graph
the process has not seen, then once traced on a renamed copy to show where
the time goes.  Import time is the median over five fresh interpreters.
Prints a Markdown table; BASELINE.md keeps the figures of one run.
"""

import os
import statistics
import subprocess
import sys
import time

import worker  # noqa: F401  (puts the sources on sys.path)
import graphprod as gp
from tracer import Tracer
from workloads import corpus_gg, path_gg


def import_seconds(samples=5):
    env = dict(os.environ, PYTHONPATH=str(worker.ROOT / "src"))
    code = ("import time; t = time.perf_counter(); import graphprod.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(samples))


def timed_and_traced(make_graph, call):
    g = make_graph("U")
    t = time.perf_counter()
    out = call(g)
    seconds = time.perf_counter() - t
    g = make_graph("T")
    tr = Tracer()
    tr.install()
    tr.begin_op(1, "baseline")
    tr.on = True
    call(g)
    tr.on = False
    tr.end_op()
    tr.uninstall()
    total = sum(a[2] for a in tr.in_op.values())
    split = ", ".join(f"{name} {100 * s / total:.0f}%" for name, _, s in tr.top_self(3))
    return out, seconds, split


def main():
    rows = []
    ball, s, split = timed_and_traced(
        lambda p: gp.parse_graph(corpus_gg("ELEC_FALSE", p + "ELEC_FALSE")),
        lambda g: gp.build_ball(g, 7))
    rows.append(("`build_ball(ELEC_FALSE, 7)`, uncached",
                 "3.42 s, 34,672 vertices, ~99 µs/vertex",
                 f"{s:.2f} s, {ball.vertex_count:,} vertices, "
                 f"{1e6 * s / ball.vertex_count:.0f} µs/vertex", split))
    rep, s, split = timed_and_traced(lambda p: gp.parse_graph(path_gg(p + "P400", 400)),
                                     gp.analyze)
    rows.append(("`analyze`, 400-vertex path (no squares)", "3.6 s",
                 f"{s:.2f} s ({rep.n_induced_squares} squares)", split))
    rows.append(("`import graphprod.cli`", "0.58 s",
                 f"{import_seconds():.2f} s (median of 5 fresh interpreters)", "-"))
    print("| row | ROADMAP (one-off) | this harness | self time, traced |")
    print("|---|---|---|---|")
    for r in rows:
        print("| " + " | ".join(r) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
