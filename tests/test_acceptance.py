"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.
Every check is exact (tolerance 0); the two timed criteria assert their
wall-clock budgets.
"""

import random
import time
from itertools import combinations

from graphprod.geometry import (
    build_ball,
    electrified_distance,
    flat_witness,
    separating_hyperplanes,
)
from graphprod.graphs import (
    induced_squares,
    is_complete,
    parse_graph,
    square_diagonals,
)
from graphprod.relhyp import _step, cp, jinf
from graphprod.report import compare
from graphprod.squares import (
    electrification_hyperbolic,
    is_hyperbolic,
    minsquare_subgraphs,
    morse_all_hyperbolic,
)
from graphprod.words import invert, multiply, project_to_parabolic

from oracles import brute_minsquare
from references import brute_join_split_exists, edge_class_partition


def _report(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _word_length_table(ball):
    """|x^-1 y| for all ball vertices, via the word engine only."""
    verts = ball.verts
    invs = [invert(x) for x in verts]
    return verts, invs


def test_criterion_1_word_vs_bfs(corpus_graphs, random_graphs_7, balls3):
    t0 = time.time()
    ok = True
    graphs = list(balls3.values()) + [build_ball(g, 3) for g in random_graphs_7]
    for ball in graphs:
        verts, invs = _word_length_table(ball)
        dmat = ball.distances_from()
        n = len(verts)
        for i in range(n):
            xinv = invs[i]
            row = dmat[i]
            for j in range(i + 1, n):
                if multiply(xinv, verts[j]).length != row[j]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    elapsed = time.time() - t0
    _report(1, "word/geometry oracle agreement", ok and elapsed < 120)
    print(f"  checked {len(graphs)} graphs in {elapsed:.1f}s")


def test_criterion_2_hyperplane_calculus(balls3):
    ok = True
    for name, ball in balls3.items():
        by_id = {}
        for e, h in ball.edge_hyperplanes().items():
            by_id.setdefault(h, set()).add(e)
        if {frozenset(s) for s in by_id.values()} != edge_class_partition(ball):
            ok = False
            break
        verts, invs = _word_length_table(ball)
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                seq = separating_hyperplanes(verts[i], verts[j])
                dist = multiply(invs[i], verts[j]).length
                if len(seq) != dist or len(set(seq)) != len(seq):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    _report(2, "hyperplane calculus", ok)


def test_criterion_3_minsquare_oracle(corpus_graphs, random_graphs_9):
    t0 = time.time()
    ok = True
    for g in list(corpus_graphs.values()) + random_graphs_9:
        if {m.members for m in minsquare_subgraphs(g)} != brute_minsquare(g):
            ok = False
            break
    elapsed = time.time() - t0
    _report(3, "minsquare correctness", ok and elapsed < 300)
    print(f"  corpus + {len(random_graphs_9)} random graphs in {elapsed:.1f}s")


def test_criterion_4_jinf_validity(corpus_graphs, random_graphs_9):
    ok = True
    for g in list(corpus_graphs.values()) + random_graphs_9:
        per = jinf(g)
        members = per.members
        for s, t in combinations(members, 2):
            if not is_complete(s.intersection(t)):
                ok = False
        for q in induced_squares(g):
            if not any(q.members <= m.members for m in members):
                ok = False
        for m in members:
            for v in g.vertices:
                if v not in m.members and \
                        not is_complete(g.subset(g.neighbors(v) & m.members)):
                    ok = False
            if cp(m) != m:
                ok = False
        masks = sorted(m.mask for m in members)
        if masks and _step(g, masks) != masks:
            ok = False
        if not ok:
            break
    _report(4, "peripheral structure validity", ok)


def test_criterion_5_dichotomy_crosscheck(corpus_graphs, random_graphs_9):
    ok = True
    for g in list(corpus_graphs.values()) + random_graphs_9:
        expected = is_hyperbolic(g) or brute_join_split_exists(g)
        if morse_all_hyperbolic(g).all_hyperbolic != expected:
            ok = False
            break
    _report(5, "Morse dichotomy cross-check", ok)


def test_criterion_6_electrification(corpus_graphs, eballs4):
    ok = True
    # (a) the frozen witness graph fails, with a certified uncovered square
    res = electrification_hyperbolic(corpus_graphs["ELEC_FALSE"])
    minimal = brute_minsquare(corpus_graphs["ELEC_FALSE"])
    if res.hyperbolic or not res.uncovered:
        ok = False
    for q in res.uncovered:
        if any(q.members <= m for m in minimal):
            ok = False

    # (b) every minsquare parabolic coset met by the radius-4 ball has
    # electrified diameter 1
    rng = random.Random(64)
    for name, ball in eballs4.items():
        g = ball.graph
        pieces = minsquare_subgraphs(g)
        for group in ball.cone_groups:
            base = ball.bfs_electrified(group[0])
            if any(base[j] != 1 for j in group[1:]):
                ok = False
            # membership is the support condition, sampled
            for _ in range(min(10, len(group))):
                i, j = rng.choice(group), rng.choice(group)
                if i == j:
                    continue
                q = multiply(invert(ball.verts[i]), ball.verts[j])
                if not any(q.support <= m.members for m in pieces):
                    ok = False

    # (c) stabilization in the radius
    for name, g in corpus_graphs.items():
        ball2 = build_ball(g, 2)
        verts = ball2.verts
        for _ in range(10):
            x = rng.choice(verts)
            y = rng.choice(verts)
            w = multiply(invert(x), y).length
            if w == 0 or w > 3:
                continue
            base = max(w, len(x), len(y))
            vals = [electrified_distance(x, y, r).value
                    for r in (base, base + 1, base + 2, base + 3)]
            if any(a < b for a, b in zip(vals, vals[1:])):
                ok = False
            if vals[-2] != vals[-1]:
                ok = False
    _report(6, "electrification", ok)


def test_criterion_7_flat_witnesses(corpus_graphs):
    ok = True
    for g in corpus_graphs.values():
        for q in induced_squares(g):
            d1, d2 = square_diagonals(q)
            grid = flat_witness(g, d1, d2, 5)
            if not grid.is_isometric():
                ok = False
    diag = corpus_graphs["DIAG"]
    grid = flat_witness(diag, ("a", "c"), ("b", "w"), 5)
    if not grid.is_isometric():
        ok = False
    if not any(not (nf.support <= set("abcd")) for nf in grid.vertical):
        ok = False
    _report(7, "flat witnesses", ok)


def test_criterion_8_projection_contract(corpus_graphs, balls4):
    ok = True
    rng = random.Random(4096)
    for name, ball in balls4.items():
        g = ball.graph
        verts = ball.verts
        small = [v for v in verts if len(v) <= 3]
        anchors = [v for v in verts if len(v) <= 1]
        pairs_done = 0
        while pairs_done < 500 and ok:
            ganchor = rng.choice(anchors)
            s = g.subset({v for v in g.vertices if rng.random() < 0.6})
            ginv = invert(ganchor)
            coset = [z for z in verts
                     if multiply(ginv, z).support <= s.members]
            coset_set = set(coset)
            for _ in range(13):
                x = rng.choice(small)
                gate = project_to_parabolic(x, ganchor, s)
                if gate not in coset_set:
                    ok = False
                    break
                xinv = invert(x)
                dgate = multiply(xinv, gate).length
                for z in coset:
                    dz = multiply(xinv, z).length
                    if dz < dgate or (dz == dgate and z != gate):
                        ok = False  # gate must be the unique nearest point
                        break
                if not ok:
                    break
                # BFS leg: nearest point in the materialized ball agrees
                drow = ball.distances_from([ball.index_of(x)])[0]
                if drow[ball.index_of(gate)] != dgate:
                    ok = False
                    break
                if any(drow[ball.index_of(z)] <= dgate for z in coset
                       if z != gate):
                    ok = False
                    break
                # 1-Lipschitz against a second random point
                y = rng.choice(small)
                py = project_to_parabolic(y, ganchor, s)
                if multiply(invert(gate), py).length > \
                        multiply(xinv, y).length:
                    ok = False
                    break
                pairs_done += 1
        if not ok:
            break
    _report(8, "projection contract", ok)


def test_criterion_9_transport_sanity(corpus_graphs):
    sq4, c5, edgew = (corpus_graphs[n] for n in ("SQ4", "C5", "EDGEW"))
    sq4o3 = parse_graph(
        "graph SQ4O3\nvertex a order=3\nvertex b\nvertex c\nvertex d\n"
        "edge a b\nedge b c\nedge c d\nedge d a")
    ok = (compare(sq4, c5).verdict == "distinguished"
          and compare(sq4, edgew).verdict == "distinguished"
          and compare(sq4, sq4o3).verdict == "distinguished"
          and compare(sq4, sq4).verdict == "inconclusive")
    _report(9, "quasi-isometry transport sanity", ok)
