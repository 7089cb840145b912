"""Timed operations on the workload items, and the checks of their outputs.

``prepare`` turns an item's text into library objects (parsed graphs,
reduced words); it runs before the item, outside every timed interval.  Each
operation is then timed on its own with ``perf_counter`` and its output is
checked right after, outside the timed interval.  An operation that raises or
fails a check counts once in ``failed``.  While a tracer is installed it is
paused during checks, so the spans hold only the program's own work.
"""

import hashlib
import json
import time
from collections import Counter, defaultdict
from contextlib import nullcontext

import graphprod as gp
from oracles import brute_minsquare, brute_squares, growth_counts

from workloads import BallItem, FlatItem, LongWordItem, rename


class ItemAborted(Exception):
    """An operation raised, so the rest of its item cannot run."""


class Recorder:
    """Latency samples, failure counts and output digests of one run."""

    def __init__(self, goldens=None, tracer=None, corrupt=None, speed=None):
        self.samples = defaultdict(list)   # "op" or "query" -> seconds per call
        self.starts = defaultdict(list)    # perf_counter at the start of each call
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.ball_vertices = 0
        self.analyzed = 0
        self.goldens = goldens or {}
        self.golden_hits = 0
        self.digests = {}
        self.tracer = tracer
        self.corrupt = corrupt   # set only by the self-check
        self.speed = speed       # a speed.SpeedTrack in timed runs

    def op(self, kind, label, fn, *args):
        self.attempted += 1
        if self.speed is not None:
            self.speed.before()
        if self.tracer is not None:
            self.tracer.begin_op(self.attempted, label)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # an operation that raises is a failed operation
            self.fail(label, f"raised {type(exc).__name__}: {exc}")
            raise ItemAborted from exc
        finally:
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.end_op()
        self.samples[kind].append(dt)
        self.starts[kind].append(t0)
        if self.speed is not None:
            self.speed.after_op(dt)
        if self.corrupt is not None:
            out = self.corrupt(label, out)
        return out

    def scaled(self, kind):
        """Seconds per call of `kind`, scaled to the reference speed."""
        f = self.speed.factor
        return [dt * f(t0) for dt, t0 in zip(self.samples[kind], self.starts[kind])]

    def fail(self, label, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {why}")

    def check(self, label, problems):
        if problems:
            self.fail(label, "; ".join(problems[:3]))

    def paused(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def digest(self, key, payload):
        """Record a digest of a report or verdict and compare it with the
        golden one, when there is one for this key."""
        d = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
        self.digests[key] = d
        want = self.goldens.get(key)
        if want is None:
            return []
        self.golden_hits += 1
        return [] if want == d else [f"digest {d} differs from golden {want}"]


# ---------------------------------------------------------------------------
# analyze workloads


def _report_problems(rec, key, text, g, oracle_ok):
    d = json.loads(text)
    problems = []
    if d["graph_name"] != g.name or d["n_vertices"] != g.n:
        problems.append("name or vertex count do not echo the input")
    if d["square_free"] != (d["n_induced_squares"] == 0) or d["hyperbolic"] != d["square_free"]:
        problems.append("square-free and hyperbolic disagree with the square count")
    if oracle_ok:
        if d["n_induced_squares"] != len(brute_squares(g)):
            problems.append("square count differs from the 4-subset oracle")
        if g.n <= 9:
            want = sorted(sorted(s, key=g.index) for s in brute_minsquare(g))
            if sorted(m["vertices"] for m in d["minsquare_subgraphs"]) != want:
                problems.append("minsquare pieces differ from the subset oracle")
    del d["tool_version"]
    d["graph_name"] = "G"
    return problems + rec.digest(key, d)


def _verdict_problems(rec, key, text, pair):
    d = json.loads(text)
    problems = []
    if d["pair"] != list(pair):
        problems.append("pair does not echo the inputs")
    if (d["verdict"] == "distinguished") != bool(d["distinguishing_invariants"]):
        problems.append("verdict disagrees with its invariants")
    d["pair"] = ["A", "B"]
    return problems + rec.digest(key, d)


def _analyze_json(g):
    return gp.analyze(g).to_json()


def _compare_json(ga, gb):
    return gp.compare(ga, gb).to_json()


def _run_pair(rec, pair, graphs, copies):
    """analyze both graphs, then compare fresh copies of them."""
    for i, g in enumerate(graphs):
        label = f"analyze {pair.key}:{i}"
        text = rec.op("op", label, _analyze_json, g)
        rec.analyzed += 1
        with rec.paused():
            rec.check(label, _report_problems(rec, f"{pair.key}:{i}:a", text, g,
                                              pair.oracle_ok))
    label = f"compare {pair.key}"
    text = rec.op("query", label, _compare_json, *copies)
    with rec.paused():
        rec.check(label, _verdict_problems(rec, f"{pair.key}:c", text,
                                           (copies[0].name, copies[1].name)))


# ---------------------------------------------------------------------------
# ball workload


def _length(x, y):
    return gp.multiply(gp.invert(x), y).length


def _level_problems(g, ball, radius):
    got = Counter(len(v) for v in ball.verts)
    if [got.get(r, 0) for r in range(radius + 1)] != growth_counts(g, radius):
        return ["per-level vertex counts differ from the growth series"]
    return []


def _row_problems(ball, src, row):
    if len(row) != ball.vertex_count:
        return ["distance row has the wrong length"]
    xi = gp.invert(ball.verts[src])
    bad = sum(1 for y, d in zip(ball.verts, row) if gp.multiply(xi, y).length != d)
    return [f"{bad} distances differ from the word length"] if bad else []


def _electrified_problems(ball, eball, src, erow, row):
    if eball.verts != ball.verts:
        return ["electrified ball lists other vertices than the plain one"]
    if erow[src] != 0 or any(not 0 <= e <= d for e, d in zip(erow, row)):
        return ["electrified distances not within [0, plain distance]"]
    return []


def _hyperplane_problems(ball, hyp):
    if len(hyp) != ball.edge_count():
        return ["edge_hyperplanes does not cover every edge"]
    if any(hyp[(i, j)].label != lab for i, j, lab in ball.edges()):
        return ["a hyperplane label differs from its edge label"]
    return []


def _separation_problems(sep, length):
    if len(sep) != length or len(set(sep)) != length:
        return [f"{len(sep)} hyperplanes ({len(set(sep))} distinct), expected {length}"]
    return []


def _run_ball(rec, item, g):
    """Plain build, its queries, electrified build, electrified BFS."""
    r = item.radius
    label = f"ball {item.key} r={r}"
    ball = rec.op("op", label, gp.build_ball, g, r)
    rec.ball_vertices += ball.vertex_count
    with rec.paused():
        rec.check(label, _level_problems(g, ball, r))
    n = ball.vertex_count
    src, *members = (int(u * n) for u in item.picks)

    label = f"distances_from {item.key}"
    dist = rec.op("query", label, ball.distances_from, [src])
    with rec.paused():
        row = [int(d) for d in dist[0]]
        rec.check(label, _row_problems(ball, src, row))
    label = f"edge_hyperplanes {item.key}"
    hyp = rec.op("query", label, ball.edge_hyperplanes)
    with rec.paused():
        rec.check(label, _hyperplane_problems(ball, hyp))
    for a, b in zip(members[0::2], members[1::2]):
        x, y = ball.verts[a], ball.verts[b]
        label = f"separating_hyperplanes {item.key}"
        sep = rec.op("query", label, gp.separating_hyperplanes, x, y)
        with rec.paused():
            rec.check(label, _separation_problems(sep, _length(x, y)))

    label = f"electrified ball {item.key} r={r}"
    eball = rec.op("op", label, gp.build_ball, g, r, True)
    rec.ball_vertices += eball.vertex_count
    with rec.paused():
        rec.check(label, _level_problems(g, eball, r))
    label = f"bfs_electrified {item.key}"
    erow = rec.op("query", label, eball.bfs_electrified, src)
    with rec.paused():
        rec.check(label, _electrified_problems(ball, eball, src, erow, row))


def _run_long_words(rec, item, x, y, u, v):
    label = f"multiply {item.key} L={item.sep_length}"
    xy = rec.op("query", label, gp.multiply, x, y)
    with rec.paused():
        ok = gp.multiply(gp.invert(x), xy) == y and xy.length <= x.length + y.length
        rec.check(label, [] if ok else ["x^-1 (x y) is not y"])
    label = f"separating_hyperplanes {item.key} L={item.sep_length}"
    sep = rec.op("query", label, gp.separating_hyperplanes, u, v)
    with rec.paused():
        rec.check(label, _separation_problems(sep, item.sep_length))


def _flat_isometric(g, d1, d2, size):
    return gp.flat_witness(g, d1, d2, size).is_isometric()


def _run_flat(rec, item, g):
    label = f"is_isometric {item.key} size={item.size}"
    ok = rec.op("query", label, _flat_isometric, g, item.diag1, item.diag2, item.size)
    rec.check(label, [] if ok is True else ["flat grid is not isometric"])


# ---------------------------------------------------------------------------


def _words(g, texts):
    return [gp.reduce_word(gp.parse_word(g, t)) for t in texts]


def prepare(item, prefix=""):
    """Library objects for one item, as (runner, item, *arguments).  The
    prefix renames every graph, so a second pass over the same round still
    hands the library graphs it has not seen."""
    if isinstance(item, BallItem):
        return _run_ball, item, gp.parse_graph(rename(item.text, prefix))
    if isinstance(item, LongWordItem):
        g = gp.parse_graph(rename(item.text, prefix))
        x, y = _words(g, item.mul_words)
        u, w = _words(g, item.sep_words)
        return _run_long_words, item, x, y, u, gp.multiply(u, w)
    if isinstance(item, FlatItem):
        return _run_flat, item, gp.parse_graph(rename(item.text, prefix))
    graphs = [gp.parse_graph(rename(t, prefix)) for t in item.texts]
    copies = [gp.parse_graph(rename(t, prefix + "C")) for t in item.texts]
    return _run_pair, item, graphs, copies


def run_prepared(rec, prepared):
    runner, item, *args = prepared
    try:
        runner(rec, item, *args)
    except ItemAborted:
        pass
