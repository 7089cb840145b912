"""Record golden digests of analyze and compare outputs into goldens.json.

    python3 perfbench/record_goldens.py --workload analyze_dense --seed 0 --rounds 150
    python3 perfbench/record_goldens.py --workload analyze_sparse --seed 0 --rounds 40

Runs the first ``--rounds`` rounds of an analyze workload for the seed,
untimed, and stores the digest of every report and verdict (graph names and
``tool_version`` dropped).  Record them from a commit whose outputs are
trusted; a run of run.py then checks every digest it has a golden for.
"""

import argparse
import json
import sys

import worker  # noqa: F401  (puts the sources on sys.path)
import ops
import workloads


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("analyze_dense", "analyze_sparse"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    args = ap.parse_args(argv)
    path = worker.HERE / "goldens.json"
    goldens = json.loads(path.read_text()) if path.is_file() else {}
    w = args.workload
    rec = ops.Recorder()
    for k in range(args.rounds):
        for item in workloads.make_round(w, args.seed, k):
            ops.run_prepared(rec, ops.prepare(item))
    if rec.failed:
        print(f"{w}: {rec.failed} operations failed; nothing recorded", file=sys.stderr)
        return 1
    goldens.setdefault(w, {})[str(args.seed)] = rec.digests
    print(f"{w}: {len(rec.digests)} digests for seed {args.seed}")
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
