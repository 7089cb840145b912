"""graphprod benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload ball|analyze_dense|analyze_sparse \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh interpreter
(worker.py), one process with one thread, calls back to back (a closed loop
with one caller).  ``--trace 0`` measures the end-to-end metrics: set-up time
is the median over several fresh interpreters, from process start to the
first timed operation.  Like every time of a timed run, it is scaled to the
speed of a fixed reference loop (speed.py).  ``--trace 1`` runs a fixed
amount of work untraced and then traced, and reports the per-layer metrics.  Every output is checked;
the last line of standard output is the JSON result.  BENCHMARK.json and
README.md in this directory say what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NOMINAL_S, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The same names as workloads.WORKLOADS; run.py imports nothing that needs
# graphprod, so that it can fail cleanly outside a checkout.
WORKLOADS = ("ball", "analyze_dense", "analyze_sparse")
SETUP_SAMPLES = 5           # fresh interpreters that stop after set-up
SETUP_REPEATS = 5           # reference loop runs around each of them
DEADLINE_S = 170            # for all worker processes of one run together

# The names README.md gives the shared metric names on each kind of workload.
ALIASES = {
    "ball": {"op_ms": "ball_ms", "query_ms": "query_ms",
             "work_per_s": "ball_vertices_per_s"},
    "analyze": {"op_ms": "analyze_ms", "query_ms": "compare_ms",
                "work_per_s": "graphs_per_s"},
}


def alias(workload, name):
    table = ALIASES["ball" if workload == "ball" else "analyze"]
    for prefix, shown in table.items():
        if name.startswith(prefix):
            return shown + name[len(prefix):]
    return name


def worker(args, deadline, *extra):
    """Run worker.py, killed at the monotonic `deadline`; returns
    (monotonic start, stdout lines)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return start, proc.stdout.splitlines()


def setup_seconds(start, lines):
    ready = next(line for line in lines if line.startswith("READY "))
    return float(ready.split()[1]) - start


def scaled_setup(args, deadline):
    """(raw, scaled) set-up seconds of one fresh interpreter; the scale is
    taken from the reference loop timed just before and just after it."""
    before = reference_seconds(SETUP_REPEATS)
    raw = setup_seconds(*worker(args, deadline, "--setup-only"))
    after = reference_seconds(SETUP_REPEATS)
    return raw, raw * 2 * NOMINAL_S / (before + after)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "graphprod" / "__init__.py").is_file():
        print(f"run.py: no graphprod sources under {ROOT / 'src'}; "
              "run from the root of a graphprod checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            setups = [scaled_setup(args, deadline) for _ in range(SETUP_SAMPLES)]
        _, lines = worker(args, deadline, *(["--trace"] if args.trace else []))
    except (RuntimeError, subprocess.TimeoutExpired, StopIteration) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    res = json.loads(lines[-1])
    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(s for _, s in setups), "s")

    info = res["info"]
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  error_rate {failed / attempted:.6f} ratio  ({failed} of {attempted} operations)")
    for f in res["failures"]:
        print(f"  FAILED {f}")
    for name, (value, unit) in sorted(metrics.items()):
        note = ""
        if name.endswith("_tail"):
            i = info[name.split("_ms_")[0]]
            note = (f"  (p{i['tail_percentile']} of {i['samples']} samples, "
                    f"{i['beyond_tail']} beyond; raw {i['raw_ms_tail']:.6g})")
        elif name.endswith("_p50"):
            note = f"  (raw {info[name.split('_ms_')[0]]['raw_ms_p50']:.6g})"
        print(f"  {alias(args.workload, name):<46} {value:>14.6g} {unit}{note}")
    if not args.trace:
        print(f"  setup samples {', '.join(f'{s:.3f}' for _, s in setups)} s "
              f"(raw {', '.join(f'{r:.3f}' for r, _ in setups)} s)")
    for key in sorted(set(info) - {"op", "query"}):
        print(f"  info {key}: {info[key]}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
