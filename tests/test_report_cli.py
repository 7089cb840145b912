import gc
import json
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import pytest

from graphprod.cli import main
from graphprod.corpus import CORPUS_NAMES, corpus_text
from graphprod.graphs import SimplicialGraph, induced_squares, parse_graph
from graphprod.isomorphism import MAX_EXACT_VERTICES, canonical_key, fingerprint, piece_label
from graphprod.relhyp import jinf
from graphprod.report import (
    _FOOTNOTE,
    ComparisonVerdict,
    analyze,
    compare,
    render_comparison,
    render_report,
)
from graphprod.squares import (
    _core,
    cfs_check,
    electrification_hyperbolic,
    is_hyperbolic,
    is_minsquare_graph,
    is_square_complete,
    minsquare_subgraphs,
    morse_all_hyperbolic,
)

from references import (
    RowSquareCore,
    brute_join_split_exists,
    make_random_graph,
    pair_components,
)

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
    _count_calls(monkeypatch, counts, graphprod.graphs, "_square_pairs")
    _count_calls(monkeypatch, counts, graphprod.graphs, "induced_squares")
    _count_calls(monkeypatch, counts, graphprod.squares, "square_complete_closure")
    _count_calls(monkeypatch, counts, graphprod.graphs, "_list_squares")
    _count_calls(monkeypatch, counts, graphprod.graphs, "_universal")
    rng = random.Random(55)
    graphs = [parse_graph(corpus_text(name)) for name in CORPUS_NAMES]
    graphs += [make_random_graph(rng, 12, name=f"C{k}") for k in range(20)]
    uncovered = 0
    for g in graphs:
        counts.clear()
        rep = analyze(g)
        compare(g, g)
        # one pair table and one universal mask, shared by analyze and
        # compare; no traced closure, and squares listed only as the
        # uncovered squares analyze reports
        listed = bool(rep.electrification.uncovered)
        assert counts == Counter({"_square_pairs": 1, "_universal": 1,
                                  "_list_squares": listed})
        copy = pickle.loads(pickle.dumps(g))
        counts.clear()
        compare(copy, copy)
        assert counts == Counter({"_square_pairs": 1, "_universal": 1})
        uncovered += listed
    assert uncovered >= 1


def _square_components(g):
    """Union masks of the components of the squares of g, two squares joined
    when they share a non-adjacent vertex pair (a diagonal), by the oracle."""
    return pair_components(g, [q.mask for q in induced_squares(g)])[1]


def test_analyze_closes_each_square_component_once(monkeypatch):
    import graphprod.relhyp
    import graphprod.squares

    counts = Counter()
    _count_calls(monkeypatch, counts, graphprod.squares, "_close")
    _count_calls(monkeypatch, counts, graphprod.relhyp, "_step")
    rng = random.Random(56)
    graphs = [parse_graph(corpus_text(name)) for name in CORPUS_NAMES]
    graphs += [make_random_graph(rng, 14, name=f"C{k}") for k in range(20)]
    fewer = 0
    for g in graphs:
        counts.clear()
        rep = analyze(g)
        unions = _square_components(g)
        # a component of one square (a 4-vertex union) is its own closure
        assert counts["_close"] == sum(u.bit_count() > 4 for u in unions)
        # the core's components are the first jinf step's merge; each
        # further jinf step merges its members once
        assert counts["_step"] == rep.jinf_iterations
        fewer += len(unions) < len(induced_squares(g))
    assert fewer >= 10


def test_component_closures_match_square_closures():
    from graphprod.squares import square_complete_closure

    rng = random.Random(4041)
    for n in range(20, 41, 4):
        verts = [f"v{i}" for i in range(n)]
        p = rng.uniform(0.2, 0.4)
        g = SimplicialGraph(f"D{n}", verts, [
            (u, v) for u, v in combinations(verts, 2) if rng.random() < p])
        core = _core(g)
        closure_of = dict(zip(core.unions, core.closures))
        # each square's component, from the row core; a component's
        # closure is the closure of its union
        old = RowSquareCore(g)
        for q, k in zip(induced_squares(g), old.comp):
            assert square_complete_closure(q).result.mask == closure_of[old.unions[k]]


def test_analysis_leaves_no_cyclic_garbage():
    # a graph and its square core must be freed by reference counting alone
    texts = [corpus_text(name) for name in CORPUS_NAMES]
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            graphs = [parse_graph(t) for t in texts]
            reports = [analyze(g) for g in graphs]
            verdicts = [compare(ga, gb) for ga in graphs for gb in graphs]
            del graphs, reports, verdicts
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def test_compare_keys_each_distinct_piece_once(monkeypatch):
    # one shape per distinct piece, one normal shape per shape whose
    # fingerprint another shape of the same invariant shares, one search per
    # normal shape whose fingerprint another normal shape shares, one label
    # per class
    import graphprod.isomorphism
    from graphprod.isomorphism import _normal, _piece

    rng = random.Random(8080)
    graphs = [make_random_graph(rng, 60, max_order=2, name=f"S{k}", p=0.08)
              for k in range(12)]
    counts = Counter()
    for name in ("canonical_key", "_piece", "_normal", "_label"):
        _count_calls(monkeypatch, counts, graphprod.isomorphism, name)
    checked = skipped = 0
    for ga, gb in zip(graphs[::2], graphs[1::2]):
        sides = [minsquare_subgraphs(ga), minsquare_subgraphs(gb),
                 jinf(ga).members, jinf(gb).members]
        if any(len(p) > 12 for side in sides for p in side):
            continue
        counts.clear()
        compare(ga, gb)
        got = Counter(counts)  # the expectations below call _piece too
        normalised, searched = set(), set()
        for pieces in (sides[0] + sides[1], sides[2] + sides[3]):
            fps = {_piece(p): fingerprint(p) for p in pieces}
            per_fp = Counter(fps.values())
            shared = {shape: fp for shape, fp in fps.items() if per_fp[fp] > 1}
            normal_fp = {_normal(shape): fp for shape, fp in shared.items()}
            per_fp = Counter(normal_fp.values())
            searched |= {normal for normal, fp in normal_fp.items() if per_fp[fp] > 1}
            normalised |= set(shared)
        assert got["_normal"] == len(normalised)
        assert got["canonical_key"] == len(searched)
        masks = {(p.graph, p.mask) for side in sides for p in side}
        assert got["_piece"] == len(masks)
        # one label per distinct class of each of the four multisets
        assert got["_label"] == sum(
            len({canonical_key(p) for p in side}) for side in sides)
        checked += sum(map(len, sides)) > len(masks)  # repeats were skipped
        skipped += len(normalised) - len(searched)
    assert checked >= 5
    assert skipped > 0   # shared fingerprints that the normal shapes settled


def _reference_types(pieces, exact):
    """A piece multiset keyed one piece at a time: the canonical key of every
    piece, or the fingerprint of every piece when one side has a piece over
    the cap; shown as "k x label" with the label of the class's first piece."""
    counter, labels = Counter(), {}
    for p in pieces:
        k = canonical_key(p) if exact else fingerprint(p)
        counter[k] += 1
        labels.setdefault(k, piece_label(p))
    shown = sorted(f"{n} x {labels[k]}" for k, n in counter.items())
    return counter, "; ".join(shown) or "(none)"


def _has_sc_order2_square_reference(g):
    return any(is_square_complete(q) and all(g.order(v) == 2 for v in q)
               for q in induced_squares(g))


def _reference_compare(ga, gb):
    """compare(ga, gb) rebuilt from the public invariants of each graph."""
    diffs, notes = [], [_FOOTNOTE]
    ha, hb = is_hyperbolic(ga), is_hyperbolic(gb)
    if ha != hb:
        diffs.append(("hyperbolic", str(ha), str(hb)))
    msa, msb = is_minsquare_graph(ga), is_minsquare_graph(gb)
    ja = not ha and morse_all_hyperbolic(ga).all_hyperbolic
    jb = not hb and morse_all_hyperbolic(gb).all_hyperbolic
    if (msa and not jb) or (msb and not ja):
        diffs.append(("minsquare_join_form",
                      f"minsquare graph: {msa}; join form: {ja}",
                      f"minsquare graph: {msb}; join form: {jb}"))
    sa, sb = _has_sc_order2_square_reference(ga), _has_sc_order2_square_reference(gb)
    if sa != sb:
        diffs.append(("square_complete_order2_square", str(sa), str(sb)))
    ea = electrification_hyperbolic(ga).hyperbolic
    eb = electrification_hyperbolic(gb).hyperbolic
    if ea != eb:
        diffs.append(("electrification_hyperbolic", str(ea), str(eb)))
    for name, pa, pb in (
            ("minsquare_types", minsquare_subgraphs(ga), minsquare_subgraphs(gb)),
            ("jinf_types", jinf(ga).members, jinf(gb).members)):
        exact = all(len(p) <= MAX_EXACT_VERTICES for p in (*pa, *pb))
        (ca, da), (cb, db) = _reference_types(pa, exact), _reference_types(pb, exact)
        if ca != cb:
            diffs.append((name, da, db))
        elif not exact:
            notes.append(f"{name}: pieces above {MAX_EXACT_VERTICES} vertices "
                         "compared by degree/order fingerprints only; matching "
                         "fingerprints left this invariant inconclusive")
    return ComparisonVerdict(
        pair=(ga.name, gb.name), distinguishing_invariants=tuple(diffs),
        verdict="distinguished" if diffs else "inconclusive", notes=tuple(notes))


def _square(name, order3, declared="abcd"):
    """The square a-b-c-d with the vertices `order3` of order 3, the
    vertices declared in the order `declared`."""
    return parse_graph("\n".join(
        [f"graph {name}"]
        + [f"vertex {v}" + (" order=3" if v in order3 else "") for v in declared]
        + ["edge a b", "edge b c", "edge c d", "edge d a"]))


def test_compare_matches_per_piece_reference(corpus_graphs):
    # keying by fingerprint first and searching only shared fingerprints
    # gives the JSON of keying every piece on its own
    rng = random.Random(1515)
    pairs = [(a, b) for a in corpus_graphs.values() for b in corpus_graphs.values()]
    # every order-3 subset of a square, in two declaration orders: shapes
    # with one fingerprint and different types (random pairs rarely have them)
    squares = [_square(f"Q{k}{d}", [v for i, v in enumerate("abcd") if k >> i & 1], d)
               for k in range(16) for d in ("abcd", "cadb")]
    pairs += [(a, b) for a in squares for b in squares]
    for k in range(150):
        p = rng.choice([None, 0.15, 0.3])
        ga = make_random_graph(rng, 14, max_order=rng.randint(2, 4), name=f"A{k}", p=p)
        gb = make_random_graph(rng, 14, max_order=rng.randint(2, 4), name=f"B{k}", p=p)
        pairs += [(ga, gb), (ga, ga)]
    seen = Counter()
    for ga, gb in pairs:
        got = compare(ga, gb)
        assert got.to_json() == _reference_compare(ga, gb).to_json(), (ga, gb)
        seen["pieces"] += any(n.endswith("_types") for n, _, _ in got.distinguishing_invariants)
        seen["note"] += len(got.notes) > 1
        seen["distinguished"] += got.verdict == "distinguished"
        seen["inconclusive"] += got.verdict == "inconclusive"
    # both verdicts, piece invariants firing and the over-cap note all occur
    assert min(seen.values()) >= 5, seen


def test_compare_separates_pieces_with_equal_fingerprints(monkeypatch):
    # the two order-3 vertices of a square adjacent or opposite: one
    # fingerprint, two isomorphism types, so the search must run
    import graphprod.isomorphism
    from graphprod.isomorphism import _normal, _piece

    adjacent, opposite = _square("ADJ", "ab"), _square("OPP", "ac")
    relabelled = _square("ADJ2", "ab", declared="cadb")
    assert fingerprint(adjacent.full_set()) == fingerprint(opposite.full_set())
    counts = Counter()
    _count_calls(monkeypatch, counts, graphprod.isomorphism, "canonical_key")
    v = compare(adjacent, opposite)
    assert ("minsquare_types", "1 x 4v4e[2,2,3,3]", "1 x 4v4e[2,2,3,3]") \
        in v.distinguishing_invariants
    assert counts["canonical_key"] == 2   # each shape once, for both invariants
    counts.clear()
    # isomorphic, but declared in another order: two shapes, one normal
    # shape, so no search
    assert compare(adjacent, relabelled).verdict == "inconclusive"
    assert counts["canonical_key"] == 0
    counts.clear()
    # one shape on both sides: no search
    assert compare(adjacent, adjacent).verdict == "inconclusive"
    assert counts["canonical_key"] == 0
    # a square with one order-3 vertex, declared in an order whose normal
    # shape differs from the one declared "abcd" (the breadth-first order
    # starts at a different order-2 vertex): isomorphic shapes with one
    # fingerprint and two normal shapes, so the search runs and finds one class
    one = _square("ONE", "a")
    declared = next("".join(d) for d in permutations("abcd")
                    if _normal(_piece(_square("X", "a", "".join(d)).full_set()))
                    != _normal(_piece(one.full_set())))
    counts.clear()
    assert compare(one, _square("ONE2", "a", declared)).verdict == "inconclusive"
    assert counts["canonical_key"] == 2   # each normal shape once


def test_core_join_form_matches_brute_join_split(corpus_graphs):
    rng = random.Random(4242)
    graphs = list(corpus_graphs.values())
    graphs += [make_random_graph(rng, 10, name=f"J{k}", p=rng.uniform(0.3, 0.9))
               for k in range(300)]
    seen = Counter()
    for g in graphs:
        want = not is_hyperbolic(g) and brute_join_split_exists(g)
        assert _core(g).join_form == want, g
        seen[want] += 1
    assert seen[True] >= 10 and seen[False] >= 10, seen


def _big(name, cross):
    """A 14-vertex bipartite graph, 7 + 7, with the cross edges `cross`
    selects: one piece above the exact-labeling cap."""
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


def test_compare_fingerprint_degrade():
    # pieces above the exact-labeling cap with equal fingerprints: the piece
    # invariants must stay silent and the notes must say why
    a = _big("BIGA", lambda i, j: True)
    b = _big("BIGB", lambda i, j: True)
    v = compare(a, b)
    assert v.verdict == "inconclusive"
    assert any("fingerprints" in note for note in v.notes)


def test_compare_one_side_over_cap_keys_by_fingerprint(monkeypatch, corpus_graphs):
    # one side has a piece over the cap: both sides are keyed by
    # fingerprints from the start, so no exact key is computed
    import graphprod.isomorphism

    counts = Counter()
    _count_calls(monkeypatch, counts, graphprod.isomorphism, "canonical_key")
    big = _big("BIGA", lambda i, j: True)
    sq4 = corpus_graphs["SQ4"]
    big_piece = "1 x 14v49e[2,2,2,2,2,2,2,2,2,2,2,2,2,2]"
    sq4_piece = "1 x 4v4e[2,2,2,2]"
    for ga, gb, da, db in ((big, sq4, big_piece, sq4_piece),
                           (sq4, big, sq4_piece, big_piece)):
        v = compare(ga, gb)
        assert v.verdict == "distinguished"
        sa, sb = str(ga is sq4), str(gb is sq4)
        assert v.distinguishing_invariants == (
            ("square_complete_order2_square", sa, sb),
            ("minsquare_types", da, db),
            ("jinf_types", da, db))
        assert v.notes == (
            "piece types are matched up to isomorphism with order labels, "
            "which is finer than quasi-isometry of the pieces; matching "
            "multisets support but never prove quasi-isometry",)
        a, b = v.pair
        assert render_comparison(v) == "\n".join([
            f"{a} vs {b}: distinguished",
            "  square_complete_order2_square:",
            f"    {a}: {sa}",
            f"    {b}: {sb}",
            "  minsquare_types:",
            f"    {a}: {da}",
            f"    {b}: {db}",
            "  jinf_types:",
            f"    {a}: {da}",
            f"    {b}: {db}",
            "  note: " + v.notes[0]])
    assert counts["canonical_key"] == 0


# --- CLI ----------------------------------------------------------------------------


def test_cli_reduce(corpus_files, capsys):
    assert main(["reduce", corpus_files["SQ4"], "--word", "b a"]) == 0
    assert capsys.readouterr().out.strip() == "a b"


def test_cli_distance(corpus_files, capsys):
    assert main(["distance", corpus_files["SQ4"],
                 "--from", "e", "--to", "a c a c"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["distance", corpus_files["EDGEW"], "--from", "e",
                 "--to", "w c w", "--electrified", "--radius", "3"]) == 0
    assert capsys.readouterr().out == "3 (radius 3)\n"


def test_cli_distance_electrified_needs_radius(corpus_files, capsys):
    assert main(["distance", corpus_files["EDGEW"],
                 "--from", "e", "--to", "a", "--electrified"]) == 1
    assert "requires --radius" in capsys.readouterr().err


def test_cli_ball(corpus_files, capsys):
    assert main(["ball", corpus_files["SQ4"], "--radius", "2",
                 "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "13"
    assert main(["ball", corpus_files["SQ4"], "--radius", "1",
                 "--electrified"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "vertices 5 edges 4 cone_edges 10", "e", "a", "b", "c", "d"]


def test_cli_ball_cap_exit_code(corpus_files, capsys):
    assert main(["ball", corpus_files["C5"], "--radius", "9",
                 "--max-vertices", "30", "--count-only"]) == 2
    assert "cap" in capsys.readouterr().err


def test_cli_ball_huge_order_stops_at_cap(tmp_path, capsys):
    # a vertex group of order 10**12: radius 1 passes the cap at once
    path = tmp_path / "huge.gg"
    path.write_text("graph HUGE\nvertex a order=1000000000000\n")
    assert main(["ball", str(path), "--radius", "1", "--count-only"]) == 2
    assert "cap" in capsys.readouterr().err
    assert main(["ball", str(path), "--radius", "0", "--count-only"]) == 0
    assert capsys.readouterr().out == "1\n"


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("gpr: ") and len(err.strip().splitlines()) == 1
    return err


def test_cli_ball_negative_radius_exit_1(corpus_files, capsys):
    assert main(["ball", corpus_files["SQ4"], "--radius", "-1"]) == 1
    assert "radius must be >= 0" in _one_line_error(capsys)


def test_cli_distance_electrified_negative_radius_exit_1(corpus_files, capsys):
    assert main(["distance", corpus_files["EDGEW"], "--from", "e", "--to", "w",
                 "--electrified", "--radius", "-1"]) == 1
    assert "radius must be >= 0" in _one_line_error(capsys)


def test_cli_distance_electrified_outside_ball_exit_1(corpus_files, capsys):
    assert main(["distance", corpus_files["EDGEW"], "--from", "e",
                 "--to", "w c w", "--electrified", "--radius", "1"]) == 1
    assert "outside the radius-1 ball" in _one_line_error(capsys)


@pytest.mark.parametrize("cap", ["-5", "0"])
def test_cli_ball_nonpositive_cap_exit_1(corpus_files, capsys, cap):
    assert main(["ball", corpus_files["C5"], "--radius", "1", "--max-vertices", cap]) == 1
    assert "max_vertices must be >= 1" in _one_line_error(capsys)


def test_cli_distance_radius_without_electrified_exit_1(corpus_files, capsys):
    assert main(["distance", corpus_files["C5"], "--from", "e", "--to", "a",
                 "--radius", "3"]) == 1
    assert "--radius requires --electrified" in _one_line_error(capsys)


def _heavy_modules_loaded(code):
    """The heavy modules loaded after running `code` in a fresh interpreter:
    the test process itself may have loaded them, and -S keeps site's .pth
    files from importing modules the library does not."""
    heavy = ("numpy", "scipy", "dataclasses", "inspect", "importlib.resources")
    code += f"import sys\nprint(sorted(m for m in {heavy!r} if m in sys.modules))\n"
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    return out.stdout.strip()


def test_cli_ball_and_corpus_load_no_heavy_module():
    assert _heavy_modules_loaded(
        "import graphprod.cli\n"
        "from graphprod import build_ball, corpus\n"
        "ball = build_ball(corpus.load('SQ4'), 2, electrified=True)\n"
        "ball.distances_from([0])\n") == "[]"


def test_cli_analyze_and_compare_load_no_heavy_module():
    assert _heavy_modules_loaded(
        "import graphprod.cli\n"
        "from graphprod import analyze, compare, corpus\n"
        "g = corpus.load('SQ4')\n"
        "analyze(g).to_json()\n"
        "compare(g, corpus.load('CONE')).to_json()\n") == "[]"


def test_cli_flat(corpus_files, capsys):
    assert main(["flat", corpus_files["SQ4"], "--diag1", "a,c",
                 "--diag2", "b,d", "--size", "2"]) == 0
    out = capsys.readouterr().out
    assert "isometric: True" in out
    assert main(["flat", corpus_files["SQ4"], "--diag1", "a",
                 "--diag2", "b,d", "--size", "2"]) == 1
    assert "expected a pair u,v" in _one_line_error(capsys)


def test_cli_flat_over_the_cap_exit_1(corpus_files, capsys):
    assert main(["flat", corpus_files["SQ4"], "--diag1", "a,c",
                 "--diag2", "b,d", "--size", "99999999999"]) == 1
    assert "more than 200000" in _one_line_error(capsys)


def test_cli_analyze_json(corpus_files, capsys):
    assert main(["analyze", corpus_files["EDGEW"], "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["rh_status"] == "proper"
    assert d["tool_version"]


def test_cli_compare_text(corpus_files, capsys):
    assert main(["compare", corpus_files["SQ4"], corpus_files["SQ4"]]) == 0
    assert "inconclusive" in capsys.readouterr().out


def _gpr(*args, **kwargs):
    """`python -m graphprod.cli ARGS` in a fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.Popen([sys.executable, "-m", "graphprod.cli", *args],
                            env=dict(os.environ, PYTHONPATH=str(src)), **kwargs)


def test_cli_compare_symmetric_pieces_at_the_cap(tmp_path):
    # K6,6 is its own 12-vertex minsquare piece: an unpruned canonical
    # labelling search does not finish on it
    left = [f"l{i}" for i in range(6)]
    right = [f"r{i}" for i in range(6)]
    edges = "".join(f"edge {u} {w}\n" for u in left for w in right)
    paths = []
    interleaved = [v for pair in zip(left, right) for v in pair]
    for name, verts in (("KA", left + right), ("KB", interleaved)):
        p = tmp_path / f"{name}.gg"
        p.write_text(f"graph {name}\n" + "".join(f"vertex {v}\n" for v in verts) + edges)
        paths.append(str(p))
    proc = _gpr("compare", *paths, "--json", stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert json.loads(out)["verdict"] == "inconclusive"


def test_cli_closed_pipe_no_traceback(corpus_files):
    # about 118 kB of output: far more than a pipe buffers, so gpr is still
    # writing when the reader goes away
    proc = _gpr("ball", corpus_files["C5"], "--radius", "8",
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"vertices ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Error" not in err, err


def test_cli_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.gg"
    bad.write_text("vertex a\nedge a a\n")
    assert main(["analyze", str(bad)]) == 1
    assert "self-loop" in capsys.readouterr().err
    # an order is ASCII digits, so the parse error is the usual one line
    for order in ("\u0663", "+3", "3_0"):
        bad.write_text(f"graph X\nvertex a order={order}\n", encoding="utf-8")
        assert main(["analyze", str(bad)]) == 1
        assert capsys.readouterr().err == f"gpr: {bad}: line 2: expected order=N\n"


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
    # an exponent is ASCII digits; the error names the token as typed
    # (int() read a^1_1 as a^11)
    for word in ("a^+1", "a^\u0661", "a^1_1"):
        assert main(["reduce", corpus_files["SQ4"], "--word", word]) == 1
        assert capsys.readouterr().err == \
            f"gpr: bad word {word!r}: bad exponent in token {word!r}\n"


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
    for _ in range(40):
        ga, gb = rng.sample(graphs, 2)
        v = compare(ga, gb)
        for name, _, _ in v.distinguishing_invariants:
            if name == "hyperbolic":
                assert is_hyperbolic(ga) != is_hyperbolic(gb)
            elif name == "minsquare_join_form":
                assert (is_minsquare_graph(ga) and not _core(gb).join_form) or \
                    (is_minsquare_graph(gb) and not _core(ga).join_form)
            elif name == "square_complete_order2_square":
                assert _core(ga).sc_order2_square != _core(gb).sc_order2_square
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
