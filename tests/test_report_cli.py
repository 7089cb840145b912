import json
import random
import sys
from collections import Counter

import pytest

from graphprod.cli import main
from graphprod.corpus import CORPUS_NAMES, corpus_text
from graphprod.graphs import induced_squares, parse_graph
from graphprod.isomorphism import canonical_key, fingerprint, piece_label
from graphprod.relhyp import jinf
from graphprod.report import analyze, compare, render_comparison, render_report
from graphprod.squares import (
    cfs_check,
    electrification_hyperbolic,
    is_hyperbolic,
    is_minsquare_graph,
    minsquare_subgraphs,
    morse_all_hyperbolic,
)

from oracles import make_random_graph

SQ4_O3 = """\
graph SQ4O3
vertex a order=3
vertex b
vertex c
vertex d
edge a b
edge b c
edge c d
edge d a
"""


@pytest.fixture()
def corpus_files(tmp_path):
    paths = {}
    for name in CORPUS_NAMES:
        p = tmp_path / f"{name}.gg"
        p.write_text(corpus_text(name))
        paths[name] = str(p)
    p = tmp_path / "SQ4O3.gg"
    p.write_text(SQ4_O3)
    paths["SQ4O3"] = str(p)
    return paths


# --- isomorphism helpers -------------------------------------------------------


def test_canonical_key_invariance():
    rng = random.Random(3111)
    for k in range(60):
        g = make_random_graph(rng, 7, max_order=3, name=f"I{k}")
        # relabel by declaring vertices in shuffled order
        perm = list(g.vertices)
        rng.shuffle(perm)
        h = parse_graph("graph H\n"
                        + "\n".join(f"vertex {v} order={g.order(v)}" for v in perm)
                        + "\n"
                        + "\n".join(f"edge {u} {v}" for u, v in g.edges))
        assert canonical_key(g.full_set()) == canonical_key(h.full_set())
        assert fingerprint(g.full_set()) == fingerprint(h.full_set())


def test_canonical_key_separates():
    path = parse_graph("graph P\nvertex a\nvertex b\nvertex c\nvertex d\n"
                       "edge a b\nedge b c\nedge c d")
    cyc = parse_graph("graph C\nvertex a\nvertex b\nvertex c\nvertex d\n"
                      "edge a b\nedge b c\nedge c d\nedge d a")
    assert canonical_key(path.full_set()) != canonical_key(cyc.full_set())
    o3 = parse_graph("graph C\nvertex a order=3\nvertex b\nvertex c\nvertex d\n"
                     "edge a b\nedge b c\nedge c d\nedge d a")
    assert canonical_key(cyc.full_set()) != canonical_key(o3.full_set())
    assert piece_label(cyc.full_set()) == "4v4e[2,2,2,2]"


def test_fingerprint_cannot_separate_twins():
    # same (order, degree) multiset, non-isomorphic: C6 versus two triangles
    c6 = parse_graph("graph A\nvertex a\nvertex b\nvertex c\nvertex d\nvertex e\n"
                     "vertex f\nedge a b\nedge b c\nedge c d\nedge d e\nedge e f\n"
                     "edge f a")
    tt = parse_graph("graph B\nvertex a\nvertex b\nvertex c\nvertex d\nvertex e\n"
                     "vertex f\nedge a b\nedge b c\nedge c a\nedge d e\nedge e f\n"
                     "edge f d")
    assert fingerprint(c6.full_set()) == fingerprint(tt.full_set())
    assert canonical_key(c6.full_set()) != canonical_key(tt.full_set())


# --- analyze ---------------------------------------------------------------------


def test_analyze_examples(corpus_graphs):
    rep = analyze(corpus_graphs["SQ4"]).to_dict()
    assert rep["hyperbolic"] is False
    assert rep["is_minsquare_graph"] is True
    assert rep["electrification_hyperbolic"]["hyperbolic"] is True
    assert rep["morse_all_hyperbolic"]["all_hyperbolic"] is True
    assert rep["rh_status"] == "trivial"

    rep = analyze(corpus_graphs["C5"]).to_dict()
    assert rep["hyperbolic"] is True
    assert rep["minsquare_subgraphs"] == []
    assert rep["rh_status"] == "hyperbolic"

    rep = analyze(corpus_graphs["EDGEW"]).to_dict()
    assert rep["morse_all_hyperbolic"]["all_hyperbolic"] is False
    assert rep["jinf_members"] == [["a", "b", "c", "d"]]
    assert rep["rh_status"] == "proper"


def test_report_internal_consistency(corpus_graphs, random_graphs_9):
    for g in list(corpus_graphs.values()) + random_graphs_9[:60]:
        d = analyze(g).to_dict()
        flags = {d["square_free"], d["hyperbolic"],
                 d["n_induced_squares"] == 0,
                 d["minsquare_subgraphs"] == [],
                 d["rh_status"] == "hyperbolic"}
        assert len(flags) == 1


def test_report_matches_modules(corpus_graphs, random_graphs_9):
    rng = random.Random(2)
    sample = list(corpus_graphs.values()) + rng.sample(random_graphs_9, 25)
    for g in sample:
        d = analyze(g).to_dict()
        assert d["hyperbolic"] == is_hyperbolic(g)
        assert d["is_minsquare_graph"] == is_minsquare_graph(g)
        assert d["cfs"] == cfs_check(g)
        assert d["electrification_hyperbolic"]["hyperbolic"] == \
            electrification_hyperbolic(g).hyperbolic
        assert d["morse_all_hyperbolic"]["all_hyperbolic"] == \
            morse_all_hyperbolic(g).all_hyperbolic
        assert d["rh_status"] == jinf(g).status
        assert d["minsquare_subgraphs"] == [
            {"vertices": list(m.sorted),
             "orders": sorted(g.order(v) for v in m.sorted)}
            for m in minsquare_subgraphs(g)]


def _count_calls(monkeypatch, counts, module, name):
    """Wrap module.name with a call counter in every graphprod module that
    binds it, so calls between modules are counted too."""
    orig = getattr(module, name)

    def counted(*args):
        counts[name] += 1
        return orig(*args)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("graphprod") \
                and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)


def test_analyze_computes_square_data_once(monkeypatch, corpus_graphs):
    import graphprod.graphs
    import graphprod.squares

    counts = Counter()
    _count_calls(monkeypatch, counts, graphprod.graphs, "induced_squares")
    _count_calls(monkeypatch, counts, graphprod.squares, "square_complete_closure")
    rng = random.Random(55)
    graphs = [parse_graph(corpus_text(name)) for name in CORPUS_NAMES]
    graphs += [make_random_graph(rng, 12, name=f"C{k}") for k in range(20)]
    for g in graphs:
        counts.clear()
        analyze(g)
        assert counts["induced_squares"] == 1
        assert counts["square_complete_closure"] <= len(induced_squares(g))


def test_report_json_roundtrip(corpus_graphs):
    for g in corpus_graphs.values():
        text = analyze(g).to_json()
        again = json.dumps(json.loads(text), indent=2, sort_keys=True)
        assert again == text


# --- compare ---------------------------------------------------------------------


def test_compare_verdicts(corpus_graphs):
    sq4, c5, edgew = (corpus_graphs[n] for n in ("SQ4", "C5", "EDGEW"))
    sq4o3 = parse_graph(SQ4_O3)

    v = compare(sq4, c5)
    assert v.verdict == "distinguished"
    assert any(n == "hyperbolic" for n, _, _ in v.distinguishing_invariants)

    v = compare(sq4, edgew)
    assert v.verdict == "distinguished"
    assert any(n == "minsquare_join_form" for n, _, _ in v.distinguishing_invariants)

    v = compare(sq4, sq4o3)
    assert v.verdict == "distinguished"
    names = {n for n, _, _ in v.distinguishing_invariants}
    assert "square_complete_order2_square" in names
    assert "minsquare_types" in names

    v = compare(sq4, sq4)
    assert v.verdict == "inconclusive"
    assert v.distinguishing_invariants == ()
    assert v.notes  # the isomorphism-finer-than-QI caveat is always present


def test_compare_symmetric(corpus_graphs, random_graphs_9):
    rng = random.Random(6)
    graphs = list(corpus_graphs.values()) + rng.sample(random_graphs_9, 10)
    for _ in range(25):
        ga, gb = rng.sample(graphs, 2)
        v1 = compare(ga, gb)
        v2 = compare(gb, ga)
        assert v1.verdict == v2.verdict
        flipped = {(n, b, a) for n, a, b in v2.distinguishing_invariants}
        assert set(v1.distinguishing_invariants) == flipped


def test_compare_fingerprint_degrade():
    # pieces above the exact-labeling cap with equal fingerprints: the piece
    # invariants must stay silent and the notes must say why
    def big(name, cross):
        lines = [f"graph {name}"]
        left = [f"l{i}" for i in range(7)]
        right = [f"r{i}" for i in range(7)]
        for v in left + right:
            lines.append(f"vertex {v}")
        for i, u in enumerate(left):
            for j, w in enumerate(right):
                if cross(i, j):
                    lines.append(f"edge {u} {w}")
        return parse_graph("\n".join(lines))

    a = big("BIGA", lambda i, j: True)
    b = big("BIGB", lambda i, j: True)
    v = compare(a, b)
    assert v.verdict == "inconclusive"
    assert any("fingerprints" in note for note in v.notes)


# --- CLI ----------------------------------------------------------------------------


def test_cli_reduce(corpus_files, capsys):
    assert main(["reduce", corpus_files["SQ4"], "--word", "b a"]) == 0
    assert capsys.readouterr().out.strip() == "a b"


def test_cli_distance(corpus_files, capsys):
    assert main(["distance", corpus_files["SQ4"],
                 "--from", "e", "--to", "a c a c"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_cli_distance_electrified_needs_radius(corpus_files, capsys):
    assert main(["distance", corpus_files["EDGEW"],
                 "--from", "e", "--to", "a", "--electrified"]) == 1
    assert "requires --radius" in capsys.readouterr().err


def test_cli_ball(corpus_files, capsys):
    assert main(["ball", corpus_files["SQ4"], "--radius", "2",
                 "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "13"


def test_cli_ball_cap_exit_code(corpus_files, capsys):
    assert main(["ball", corpus_files["C5"], "--radius", "9",
                 "--max-vertices", "30", "--count-only"]) == 2
    assert "cap" in capsys.readouterr().err


def test_cli_flat(corpus_files, capsys):
    assert main(["flat", corpus_files["SQ4"], "--diag1", "a,c",
                 "--diag2", "b,d", "--size", "2"]) == 0
    out = capsys.readouterr().out
    assert "isometric: True" in out


def test_cli_analyze_json(corpus_files, capsys):
    assert main(["analyze", corpus_files["EDGEW"], "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["rh_status"] == "proper"
    assert d["tool_version"]


def test_cli_compare_text(corpus_files, capsys):
    assert main(["compare", corpus_files["SQ4"], corpus_files["SQ4"]]) == 0
    assert "inconclusive" in capsys.readouterr().out


def test_cli_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.gg"
    bad.write_text("vertex a\nedge a a\n")
    assert main(["analyze", str(bad)]) == 1
    assert "self-loop" in capsys.readouterr().err


def test_cli_missing_file_exit_1(capsys):
    assert main(["analyze", "/nonexistent/nope.gg"]) == 1


def test_cli_non_utf8_file_exit_1(tmp_path, capsys):
    bad = tmp_path / "latin.gg"
    bad.write_bytes(b"graph G\nvertex a\xff\n")
    assert main(["analyze", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"gpr: cannot read {bad}: ")
    assert len(err.strip().splitlines()) == 1


def test_cli_usage_error_exit_1(capsys):
    assert main(["distance", "x.gg"]) == 1  # missing --from/--to


def test_cli_bad_word_exit_1(corpus_files, capsys):
    assert main(["reduce", corpus_files["SQ4"], "--word", "q q"]) == 1
    assert "unknown vertex" in capsys.readouterr().err


def test_render_functions_smoke(corpus_graphs):
    text = render_report(analyze(corpus_graphs["CONE"]))
    assert "minsquare" in text
    text = render_comparison(compare(corpus_graphs["SQ4"], corpus_graphs["C5"]))
    assert "distinguished" in text


def test_compare_isomorphic_relabelings_inconclusive():
    # relabeled copies define isometric groups: nothing may distinguish them
    rng = random.Random(5150)
    for k in range(40):
        g = make_random_graph(rng, 8, max_order=3, name="L")
        perm = list(g.vertices)
        rng.shuffle(perm)
        rename = {v: f"x{i}" for i, v in enumerate(perm)}
        h = parse_graph(
            "graph L\n"
            + "\n".join(f"vertex {rename[v]} order={g.order(v)}" for v in perm)
            + "\n"
            + "\n".join(f"edge {rename[u]} {rename[v]}" for u, v in g.edges))
        v = compare(g, h)
        assert v.verdict == "inconclusive", (g.edges, v.distinguishing_invariants)


def test_compare_distinctions_recompute(corpus_graphs, random_graphs_9):
    # every reported distinction must be reproducible from the modules
    rng = random.Random(9000)
    graphs = list(corpus_graphs.values()) + rng.sample(random_graphs_9, 20)
    from graphprod.report import _has_join_form, _has_sc_order2_square
    for _ in range(40):
        ga, gb = rng.sample(graphs, 2)
        v = compare(ga, gb)
        for name, _, _ in v.distinguishing_invariants:
            if name == "hyperbolic":
                assert is_hyperbolic(ga) != is_hyperbolic(gb)
            elif name == "minsquare_join_form":
                assert (is_minsquare_graph(ga) and not _has_join_form(gb)) or \
                    (is_minsquare_graph(gb) and not _has_join_form(ga))
            elif name == "square_complete_order2_square":
                assert _has_sc_order2_square(ga) != _has_sc_order2_square(gb)
            elif name == "electrification_hyperbolic":
                assert electrification_hyperbolic(ga).hyperbolic != \
                    electrification_hyperbolic(gb).hyperbolic
            elif name == "minsquare_types":
                ka = sorted(canonical_key(m) for m in minsquare_subgraphs(ga))
                kb = sorted(canonical_key(m) for m in minsquare_subgraphs(gb))
                assert ka != kb
            elif name == "jinf_types":
                ka = sorted(canonical_key(m) for m in jinf(ga).members)
                kb = sorted(canonical_key(m) for m in jinf(gb).members)
                assert ka != kb
            else:
                raise AssertionError(f"unknown invariant {name}")
