"""The hand-written `analyze` and `compare` JSON against the serializer it
replaced: the dicts in `references.report_dict` / `references.verdict_dict` passed
through `json.dumps(indent=2, sort_keys=True)`.  The bytes must be equal and
`to_dict()` must parse back to the oracle dict."""

import json

from graphprod.corpus import CORPUS_NAMES, load
from graphprod.graphs import SimplicialGraph
from graphprod.report import ComparisonVerdict, analyze, compare

from references import report_dict, verdict_dict
from test_output_digest import digest_graphs


def _dumps(d):
    return json.dumps(d, indent=2, sort_keys=True)


def _check_report(g):
    rep = analyze(g)
    d = report_dict(rep)
    assert rep.to_json() == _dumps(d), g.name
    assert rep.to_dict() == d, g.name
    return d


def _check_verdict(v):
    d = verdict_dict(v)
    assert v.to_json() == _dumps(d), v.pair
    assert v.to_dict() == d, v.pair
    return d


def _bipartite_7_7(name):
    """K_{7,7}: one minsquare piece of 14 vertices, above the exact-labelling
    cap, so `compare` keys it by fingerprint and says so in a note."""
    left = [f"l{i}" for i in range(7)]
    right = [f"r{i}" for i in range(7)]
    return SimplicialGraph(name, left + right,
                           [(u, w) for u in left for w in right])


def test_report_json_matches_oracle():
    graphs = digest_graphs() + [
        SimplicialGraph("EMPTY", []),
        SimplicialGraph("ONE", ["a"], (), {"a": 5}),
        SimplicialGraph("PATH", "abcd", [("a", "b"), ("b", "c"), ("c", "d")]),
        # a minsquare piece with orders above 2
        SimplicialGraph("SQO4", "abcd",
                        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
                        {"a": 4, "c": 7}),
        _bipartite_7_7("K77"),
    ]
    dicts = [_check_report(g) for g in graphs]

    kinds = {d["morse_all_hyperbolic"]["certificate"]["kind"] for d in dicts}
    assert kinds == {"square-free", "join", "none"}
    assert any(d["orders"] == {} and d["core"]["lambda0"] == []
               and d["core"]["lambda1"] == [] for d in dicts)
    assert any(d["n_vertices"] == 1 for d in dicts)
    assert any(d["square_free"] for d in dicts)
    assert any(d["electrification_hyperbolic"]["uncovered_squares"]
               for d in dicts)
    assert any(k > 2 for d in dicts for k in d["orders"].values())
    assert any(k > 2 for d in dicts for m in d["minsquare_subgraphs"]
               for k in m["orders"])


def test_verdict_json_matches_oracle():
    corpus = [load(name) for name in CORPUS_NAMES]
    dicts = [_check_verdict(compare(ga, gb)) for ga in corpus for gb in corpus]
    assert len(dicts) == 64
    assert any(d["distinguishing_invariants"] for d in dicts)

    big = compare(_bipartite_7_7("BIGA"), _bipartite_7_7("BIGB"))
    d = _check_verdict(big)
    assert not d["distinguishing_invariants"]
    assert any("fingerprints" in note for note in d["notes"])


def test_json_string_escapes_match():
    # strings the library never writes today, escaped as json.dumps would
    v = ComparisonVerdict(
        pair=("A", "B"),
        distinguishing_invariants=(
            ("q\"uote", "back\\slash\ttab\n", "é \U0001f600"),),
        verdict="distinguished",
        notes=("", "\x00\x1f"))
    _check_verdict(v)
    empty = ComparisonVerdict(pair=(), distinguishing_invariants=(),
                              verdict="inconclusive", notes=())
    assert _check_verdict(empty) == {"pair": [], "distinguishing_invariants": [],
                                     "verdict": "inconclusive", "notes": []}
