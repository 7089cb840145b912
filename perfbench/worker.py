"""One workload process, started by run.py in a fresh interpreter.

It imports ``graphprod.cli`` and prepares the first round of inputs (the
set-up), prints ``READY <monotonic clock>``, then either exits
(``--setup-only``), runs rounds for ``--seconds`` (timed run), or runs a fixed
number of rounds untraced and then traced (``--trace``).  Its last line of
output is a JSON object that run.py turns into the benchmark's result.
No library cache is cleared at any point.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
OUT = HERE / "out"


def percentile(samples, q):
    """Nearest-rank percentile."""
    s = sorted(samples)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - beta_cdf(b, a, 1.0 - x)
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    return math.exp(log_front) * _betacf(a, b, x) / a


def hd_percentile(samples, q):
    """Harrell-Davis estimate of the q-th percentile: a weighted mean of the
    order statistics, with weights from Beta((n+1)q, (n+1)(1-q)).  It
    estimates the same percentile as one order statistic does, with less
    noise when few samples lie near it."""
    s = sorted(samples)
    n, p = len(s), q / 100
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(s))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_goldens(workload, seed):
    path = HERE / "goldens.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get(workload, {}).get(str(seed), {})


def run_rounds(rec, workload, seed, first, rounds=None, seconds=None, prefix="",
               rss_after=None):
    """Run rounds 0, 1, ... until `rounds` are done or `seconds` have passed
    (checked between rounds).  Returns (rounds run, peak RSS in MB read after
    round `rss_after`, or at the end if fewer rounds ran)."""
    import ops
    import workloads

    t0 = time.perf_counter()
    k, rss = 0, None
    items = first
    while True:
        for prepared in items:
            ops.run_prepared(rec, prepared)
        k += 1
        if k == rss_after:
            rss = peak_rss_mb()
        if rounds is not None and k >= rounds:
            break
        if seconds is not None and time.perf_counter() - t0 >= seconds:
            break
        items = [ops.prepare(it, prefix) for it in workloads.make_round(workload, seed, k)]
    return k, rss if rss is not None else peak_rss_mb()


def timed_metrics(rec, workload):
    """Latency and throughput at the reference speed (speed.py), with
    Harrell-Davis percentiles; the raw nearest-rank figures go to `info`."""
    import workloads

    m, info = {}, {}
    busy = {}
    for kind in ("op", "query"):
        s, raw = rec.scaled(kind), rec.samples[kind]
        q = workloads.TAIL_PERCENTILE[(workload, kind)]
        m[f"{kind}_ms_p50"] = (1e3 * hd_percentile(s, 50), "ms")
        m[f"{kind}_ms_tail"] = (1e3 * hd_percentile(s, q), "ms")
        busy[kind] = sum(s)
        info[kind] = {"samples": len(s), "tail_percentile": q,
                      "beyond_tail": sum(1 for x in s if x > percentile(s, q)),
                      "raw_ms_p50": 1e3 * statistics.median(raw),
                      "raw_ms_tail": 1e3 * percentile(raw, q)}
    if workload == "ball":
        m["work_per_s"] = (rec.ball_vertices / busy["op"], "1/s")
    else:
        m["work_per_s"] = (rec.analyzed / (busy["op"] + busy["query"]), "1/s")
    return m, info


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t = time.perf_counter()
    import graphprod.cli  # noqa: F401  (the import a fresh `gpr` call pays)
    import_s = time.perf_counter() - t

    import ops
    import workloads
    from speed import SpeedTrack

    w, seed = args.workload, args.seed
    t = time.perf_counter()
    first = [ops.prepare(it) for it in workloads.make_round(w, seed, 0)]
    inputs_s = time.perf_counter() - t
    print(f"READY {time.monotonic():.6f}", flush=True)
    if args.setup_only:
        return 0

    goldens = load_goldens(w, seed)
    OUT.mkdir(exist_ok=True)
    if not args.trace:
        track = SpeedTrack()
        rec = ops.Recorder(goldens, speed=track)
        t = time.perf_counter()
        rounds, rss = run_rounds(rec, w, seed, first, seconds=args.seconds,
                                 rss_after=workloads.RSS_ROUNDS[w])
        wall = time.perf_counter() - t
        track.mark()
        metrics, info = timed_metrics(rec, w)
        metrics["peak_rss_mb"] = (rss, "MB")
        info.update(rounds=rounds, timed_wall_s=wall, busy_s=sum(map(sum, rec.samples.values())),
                    speed_marks=len(track.refs),
                    reference_ms=[1e3 * min(track.refs), 1e3 * statistics.median(track.refs),
                                  1e3 * max(track.refs)])
        (OUT / f"samples-{w}-{seed}.json").write_text(json.dumps(
            {"raw": rec.samples, "scaled": {k: rec.scaled(k) for k in rec.samples}}))
        recs = [rec]
    else:
        from tracer import Tracer

        k = workloads.TRACE_ROUNDS[w]
        plain = ops.Recorder(goldens, speed=SpeedTrack())
        run_rounds(plain, w, seed, first, rounds=k)
        plain.speed.mark()
        tr = Tracer()
        tr.install()
        traced = ops.Recorder(goldens, tracer=tr, speed=SpeedTrack())
        tr.on = True
        first_t = [ops.prepare(it, "T") for it in workloads.make_round(w, seed, 0)]
        run_rounds(traced, w, seed, first_t, rounds=k, prefix="T")
        tr.on = False
        tr.uninstall()
        traced.speed.mark()
        # at the reference speed, so that a drift of the machine's speed
        # between the two passes does not count as overhead
        busy = [sum(sum(r.scaled(kind)) for kind in r.samples) for r in (plain, traced)]
        metrics = tr.per_layer()
        metrics["cli.import_s"] = (import_s, "s")
        metrics["setup.inputs_s"] = (inputs_s, "s")
        metrics["trace.overhead_s"] = (busy[1] - busy[0], "s")
        spans = OUT / f"spans-{w}-{seed}.tsv"
        tr.write_spans(spans)
        info = {"rounds": k, "untraced_busy_s": busy[0], "traced_busy_s": busy[1],
                "spans": len(tr.spans), "spans_dropped": tr.dropped, "span_file": str(spans),
                "top_self_s": tr.top_self()}
        recs = [plain, traced]

    digests = {}
    for r in recs:
        digests.update(r.digests)
    if digests:
        (OUT / f"digests-{w}-{seed}.json").write_text(json.dumps(digests, indent=0, sort_keys=True))
    info.update(import_s=import_s, inputs_s=inputs_s,
                golden_checks=sum(r.golden_hits for r in recs), digests=len(digests))
    print(json.dumps({
        "attempted": sum(r.attempted for r in recs),
        "failed": sum(r.failed for r in recs),
        "failures": [f for r in recs for f in r.failures][:20],
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
