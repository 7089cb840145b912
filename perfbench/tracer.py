"""Spans around calls into graphprod's public functions, from outside.

The library is not edited: ``install`` replaces each traced function by a
wrapper in every graphprod module that binds it (``geometry.multiply``,
``squares.induced_squares``, ``report.jinf``, ...), so calls between layers
are seen too.  A span is (id, name, start, end, parent id, operation id); the
spans stay in memory and are written out by ``write_spans`` at the end.
Self time is a span's duration minus the durations of its direct children.
Counts and self times are aggregated as spans close, separately for spans
inside a timed operation and spans outside one (input preparation).
"""

import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute) for functions, (module, class, method) for methods.
TRACED = [
    ("graphprod.words", "multiply"), ("graphprod.words", "invert"),
    ("graphprod.words", "strip_suffix"), ("graphprod.words", "head"),
    ("graphprod.words", "reduce_word"), ("graphprod.words", "parse_word"),
    ("graphprod.geometry", "build_ball"), ("graphprod.geometry", "hyperplane_of_edge"),
    ("graphprod.geometry", "separating_hyperplanes"), ("graphprod.geometry", "flat_witness"),
    ("graphprod.geometry", "CayleyBall", "distances_from"),
    ("graphprod.geometry", "CayleyBall", "bfs_electrified"),
    ("graphprod.geometry", "CayleyBall", "edge_hyperplanes"),
    ("graphprod.geometry", "FlatGrid", "is_isometric"),
    ("graphprod.graphs", "parse_graph"), ("graphprod.graphs", "induced_squares"),
    ("graphprod.graphs", "square_diagonals"), ("graphprod.graphs", "clique_number"),
    ("graphprod.graphs", "core_decomposition"),
    ("graphprod.squares", "square_complete_closure"), ("graphprod.squares", "minsquare_subgraphs"),
    ("graphprod.squares", "is_minsquare_graph"), ("graphprod.squares", "is_square_complete"),
    ("graphprod.squares", "is_hyperbolic"), ("graphprod.squares", "electrification_hyperbolic"),
    ("graphprod.squares", "morse_all_hyperbolic"), ("graphprod.squares", "cfs_check"),
    ("graphprod.relhyp", "jinf"),
    ("graphprod.isomorphism", "canonical_key"), ("graphprod.isomorphism", "fingerprint"),
    ("graphprod.isomorphism", "piece_label"),
    ("graphprod.report", "analyze"), ("graphprod.report", "compare"),
    ("graphprod.report", "AnalysisReport", "to_json"),
    ("graphprod.report", "ComparisonVerdict", "to_json"),
]

MAX_SPANS = 250_000


def _span_name(target):
    return target[0].split(".")[1] + "." + target[-1]


def _count_result(tr, name, out):
    """Work counters read off the results of a few traced calls."""
    c = tr.counters
    if name == "words.multiply":
        c["words.multiply.syllables"] += out.length
    elif name == "geometry.build_ball":
        c["geometry.ball_vertices"] += out.vertex_count
        c["geometry.ball_edges"] += out.edge_count()
        c["geometry.cone_groups"] += len(out.cone_groups)
    elif name == "squares.square_complete_closure":
        c["squares.closure_steps"] += len(out.steps)
    elif name == "relhyp.jinf":
        c["relhyp.jinf.iterations"] += out.iterations
        c["relhyp.jinf.members"] += len(out.members)
    elif name == "report.analyze":
        tr.op_squares[tr.op_id] = out.n_induced_squares


_COUNTED = {"words.multiply", "geometry.build_ball", "squares.square_complete_closure",
            "relhyp.jinf", "report.analyze"}


class Tracer:
    def __init__(self):
        self.on = False
        self.stack = []                 # [span id, time covered by children]
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.op_id = 0                  # 0 outside timed operations
        self.op_label = {}
        self.op_calls = defaultdict(Counter)   # op id -> span name -> calls
        self.op_squares = {}            # analyze op id -> squares of its graph
        self.in_op = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, total, self
        self.outside = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = Counter()
        self._restore = []
        self._ball_cache = None

    # --- installation --------------------------------------------------------

    def install(self):
        self._ball_cache = sys.modules["graphprod.geometry"].build_ball
        modules = [m for name, m in sys.modules.items()
                   if name == "graphprod" or name.startswith("graphprod.")]
        for target in TRACED:
            owner = sys.modules[target[0]]
            if len(target) == 3:
                owner = getattr(owner, target[1])
            orig = getattr(owner, target[-1])
            wrapper = self._wrap(_span_name(target), orig)
            if len(target) == 3:
                self._restore.append((owner, target[-1], orig))
                setattr(owner, target[-1], wrapper)
                continue
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        self.on = False

    def _wrap(self, name, f):
        tr = self
        counted = name in _COUNTED

        def traced(*args, **kwargs):
            if not tr.on:
                return f(*args, **kwargs)
            tr.next_id += 1
            frame = [tr.next_id, 0.0]
            stack = tr.stack
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = f(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                agg = (tr.in_op if tr.op_id else tr.outside)[name]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if tr.op_id:
                    tr.op_calls[tr.op_id][name] += 1
                if len(tr.spans) < MAX_SPANS:
                    tr.spans.append((frame[0], name, t0, t1, parent, tr.op_id))
                else:
                    tr.dropped += 1
            if counted and tr.op_id:
                _count_result(tr, name, out)
            return out

        traced.__wrapped__ = f
        traced.__name__ = getattr(f, "__name__", name)
        traced.__doc__ = getattr(f, "__doc__", None)
        return traced

    # --- operations ----------------------------------------------------------

    def begin_op(self, op_id, label):
        self.op_id = op_id
        self.op_label[op_id] = label

    def end_op(self):
        self.op_id = 0

    @contextmanager
    def paused(self):
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    # --- results -------------------------------------------------------------

    def per_layer(self):
        """Every per-layer metric, as name -> (value, unit)."""
        m = {}

        def agg(name):
            return self.in_op.get(name, (0, 0.0, 0.0))

        def calls(name):
            return agg(name)[0]

        def self_s(name):
            return agg(name)[2]

        c = self.counters
        analyze_ops = [i for i, lab in self.op_label.items() if lab.startswith("analyze")]

        def per_analyze(name):
            if not analyze_ops:
                return 0
            return statistics.median(self.op_calls[i][name] for i in analyze_ops)

        mult_calls = calls("words.multiply")
        m["words.multiply.calls"] = (mult_calls, "count")
        m["words.multiply.self_s"] = (self_s("words.multiply"), "s")
        m["words.multiply.us_per_call"] = (
            1e6 * agg("words.multiply")[1] / mult_calls if mult_calls else 0.0, "us")
        m["words.mean_syllables"] = (
            c["words.multiply.syllables"] / mult_calls if mult_calls else 0.0, "count")
        m["words.invert.self_s"] = (self_s("words.invert"), "s")
        m["words.strip_suffix.calls"] = (calls("words.strip_suffix"), "count")
        m["words.strip_suffix.self_s"] = (self_s("words.strip_suffix"), "s")
        m["words.head.self_s"] = (self_s("words.head"), "s")

        verts = c["geometry.ball_vertices"]
        m["geometry.build_ball.self_s"] = (self_s("geometry.build_ball"), "s")
        m["geometry.build_ball.us_per_vertex"] = (
            1e6 * agg("geometry.build_ball")[1] / verts if verts else 0.0, "us")
        m["geometry.ball_vertices"] = (verts, "count")
        m["geometry.ball_edges"] = (c["geometry.ball_edges"], "count")
        m["geometry.cone_groups"] = (c["geometry.cone_groups"], "count")
        m["geometry.build_ball.cache_hits"] = (self._ball_cache.cache_info().hits, "count")
        for meth in ("distances_from", "bfs_electrified", "edge_hyperplanes",
                     "separating_hyperplanes", "is_isometric"):
            m[f"geometry.{meth}.self_s"] = (self_s(f"geometry.{meth}"), "s")

        m["graphs.induced_squares.calls"] = (calls("graphs.induced_squares"), "count")
        m["graphs.induced_squares.self_s"] = (self_s("graphs.induced_squares"), "s")
        m["graphs.induced_squares.calls_per_analyze"] = (
            per_analyze("graphs.induced_squares"), "count")
        squares = sum(self.op_squares.values())
        m["graphs.squares_found"] = (squares, "count")
        m["graphs.clique_number.self_s"] = (self_s("graphs.clique_number"), "s")
        m["graphs.core_decomposition.self_s"] = (self_s("graphs.core_decomposition"), "s")
        m["graphs.parse_graph.self_s"] = (
            self_s("graphs.parse_graph") + self.outside["graphs.parse_graph"][2], "s")

        closures_in_analyze = sum(self.op_calls[i]["squares.square_complete_closure"]
                                  for i in analyze_ops)
        m["squares.square_complete_closure.calls"] = (
            calls("squares.square_complete_closure"), "count")
        m["squares.square_complete_closure.self_s"] = (
            self_s("squares.square_complete_closure"), "s")
        m["squares.closures_per_square"] = (
            closures_in_analyze / squares if squares else 0.0, "count")
        m["squares.closure_steps"] = (c["squares.closure_steps"], "count")
        m["squares.minsquare_subgraphs.calls_per_analyze"] = (
            per_analyze("squares.minsquare_subgraphs"), "count")
        for fn in ("minsquare_subgraphs", "electrification_hyperbolic", "cfs_check"):
            m[f"squares.{fn}.self_s"] = (self_s(f"squares.{fn}"), "s")

        m["relhyp.jinf.calls_per_analyze"] = (per_analyze("relhyp.jinf"), "count")
        m["relhyp.jinf.self_s"] = (self_s("relhyp.jinf"), "s")
        m["relhyp.jinf.iterations"] = (c["relhyp.jinf.iterations"], "count")
        m["relhyp.jinf.members"] = (c["relhyp.jinf.members"], "count")

        exact, fp = calls("isomorphism.canonical_key"), calls("isomorphism.fingerprint")
        m["isomorphism.canonical_key.calls"] = (exact, "count")
        m["isomorphism.canonical_key.self_s"] = (self_s("isomorphism.canonical_key"), "s")
        m["isomorphism.fingerprint.calls"] = (fp, "count")
        m["isomorphism.exact_share"] = (exact / (exact + fp) if exact + fp else 0.0, "ratio")

        m["report.analyze.self_s"] = (self_s("report.analyze"), "s")
        m["report.compare.self_s"] = (self_s("report.compare"), "s")
        m["report.to_json.self_s"] = (self_s("report.to_json"), "s")
        return m

    def top_self(self, n=8):
        """The n span names with the largest self time inside operations."""
        ranked = sorted(self.in_op.items(), key=lambda kv: -kv[1][2])[:n]
        return [(name, a[0], a[2]) for name, a in ranked]

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            base = self.spans[0][2] if self.spans else 0.0
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(f"{sid}\t{name}\t{t0 - base:.7f}\t{t1 - base:.7f}\t{parent}\t{op}\n")
