"""Self-check of the output checks: a corrupted output must count as failed.

    python3 perfbench/selfcheck.py

Runs the first round of each workload once clean (no operation may fail) and
then once per corruption, with one output of one kind of operation altered
after it is timed and before it is checked.  Exits 0 only if every clean run
has error_rate 0 and every corrupted run has error_rate above 0, with the
failure reported on the corrupted operation.  Seed 0 has golden digests, so
the analyze corruption is one that only the goldens can see.
"""

import json
import sys

import worker  # noqa: F401  (puts the sources on sys.path)
import graphprod as gp
import ops
import workloads

SEED = 0


def _bump_iterations(text):
    d = json.loads(text)
    d["jinf_iterations"] += 1
    return json.dumps(d)


def _flip_verdict(text):
    d = json.loads(text)
    d["verdict"] = "inconclusive" if d["verdict"] == "distinguished" else "distinguished"
    return json.dumps(d)


def _off_by_one(dist):
    dist = dist.copy()
    dist[0][-1] += 1
    return dist


def _drop_one(mapping):
    mapping = dict(mapping)
    mapping.pop(next(iter(mapping)))
    return mapping


def _smaller_ball(ball):
    return gp.build_ball(ball.graph, ball.radius - 1)


def _negative_first(row):
    return [-1] + list(row[1:])


# (workload, label prefix of the corrupted operation, corruption)
CORRUPTIONS = [
    ("analyze_dense", "analyze", _bump_iterations),
    ("analyze_sparse", "compare", _flip_verdict),
    ("ball", "ball", _smaller_ball),
    ("ball", "distances_from", _off_by_one),
    ("ball", "edge_hyperplanes", _drop_one),
    ("ball", "separating_hyperplanes", lambda sep: sep[:-1]),
    ("ball", "bfs_electrified", _negative_first),
    ("ball", "multiply", lambda xy: gp.multiply(xy, xy)),
    ("ball", "is_isometric", lambda ok: False),
]


def run_round(workload, corrupt=None):
    rec = ops.Recorder(worker.load_goldens(workload, SEED), corrupt=corrupt)
    for item in workloads.make_round(workload, SEED, 0):
        ops.run_prepared(rec, ops.prepare(item, "X"))
    return rec


def main():
    ok = True
    for w in workloads.WORKLOADS:
        rec = run_round(w)
        print(f"clean {w}: {rec.failed} of {rec.attempted} failed, "
              f"{rec.golden_hits} golden checks")
        ok &= rec.failed == 0 and rec.attempted > 0
    for w, prefix, fn in CORRUPTIONS:
        fired = []

        def corrupt(label, out):
            if not fired and label.startswith(prefix + " "):
                fired.append(label)
                return fn(out)
            return out

        rec = run_round(w, corrupt)
        caught = bool(fired) and any(f.startswith(fired[0] + ":") for f in rec.failures)
        print(f"corrupt {prefix} on {w}: {rec.failed} of {rec.attempted} failed"
              f" -> {'caught' if caught else 'MISSED'}")
        ok &= caught
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
