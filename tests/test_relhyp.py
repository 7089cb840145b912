import random
from itertools import combinations

from graphprod import relhyp
from graphprod.graphs import SimplicialGraph, is_complete, link
from graphprod.relhyp import cp, jinf
from graphprod.squares import is_hyperbolic, minsquare_subgraphs

from oracles import brute_jinf


def test_cp_examples(corpus_graphs):
    sq4, diag, edgew = (corpus_graphs[n] for n in ("SQ4", "DIAG", "EDGEW"))
    assert cp(sq4.subset("abcd")).members == set("abcd")
    # link(w) meets the square of DIAG in the non-adjacent pair {a, c}
    assert cp(diag.subset("abcd")).members == {"a", "b", "c", "d", "w"}
    # link(w) meets the square of EDGEW in the edge {a, b}
    assert cp(edgew.subset("abcd")).members == set("abcd")


def test_jinf_examples(corpus_graphs):
    per = jinf(corpus_graphs["SQ4"])
    assert [m.members for m in per.members] == [set("abcd")]
    assert per.status == "trivial"

    per = jinf(corpus_graphs["C5"])
    assert per.members == () and per.status == "hyperbolic"
    assert per.iterations == 0

    per = jinf(corpus_graphs["EDGEW"])
    assert [m.members for m in per.members] == [set("abcd")]
    assert per.status == "proper"

    assert jinf(corpus_graphs["CONE"]).status == "trivial"
    assert jinf(corpus_graphs["DIAG"]).status == "trivial"


def _assert_peripheral_contract(g, per):
    members = per.members
    # pairwise intersections complete
    for s, t in combinations(members, 2):
        assert is_complete(s.intersection(t))
    # every induced square inside some member
    from graphprod.graphs import induced_squares
    for q in induced_squares(g):
        assert any(q.members <= m.members for m in members)
    # outside vertices have complete link inside each member
    for m in members:
        for v in g.vertices:
            if v not in m.members:
                assert is_complete(g.subset(g.neighbors(v) & m.members))


def test_jinf_contract_and_idempotence(corpus_graphs, random_graphs_9):
    from graphprod.relhyp import _step

    for g in list(corpus_graphs.values()) + random_graphs_9:
        per = jinf(g)
        _assert_peripheral_contract(g, per)
        # one further step changes nothing
        masks = sorted(m.mask for m in per.members)
        if masks:
            assert _step(g, masks) == masks
        # every member padded once stays put
        for m in per.members:
            assert cp(m) == m
        assert (per.status == "hyperbolic") == is_hyperbolic(g)


def test_jinf_matches_bruteforce(corpus_graphs, random_graphs_9):
    rng = random.Random(4711)
    sparse = []
    for k in range(12):
        n = rng.randint(12, 20)
        verts = [f"v{i}" for i in range(n)]
        sparse.append(SimplicialGraph(f"S{k}", verts, [
            e for e in combinations(verts, 2) if rng.random() < 3 / n]))
    for g in list(corpus_graphs.values()) + random_graphs_9 + sparse:
        per = jinf(g)
        members, iterations = brute_jinf(g)
        assert {m.members for m in per.members} == members
        assert per.iterations == iterations


def test_jinf_vs_minsquare(corpus_graphs, random_graphs_9):
    for g in list(corpus_graphs.values()) + random_graphs_9:
        members = jinf(g).members
        pieces = minsquare_subgraphs(g)
        for piece in pieces:
            assert any(piece.members <= m.members for m in members)
        for m in members:
            assert any(piece.members <= m.members for piece in pieces)


def test_jinf_status_trivial_iff_full(corpus_graphs, random_graphs_9):
    for g in list(corpus_graphs.values()) + random_graphs_9[:80]:
        per = jinf(g)
        if per.status == "trivial":
            assert any(m.members == set(g.vertices) for m in per.members)
        elif per.status == "proper":
            assert per.members
            assert all(m.members != set(g.vertices) for m in per.members)


def test_cp_walks_only_neighbours_of_the_mask(monkeypatch):
    # a vertex with no neighbour in the mask has an empty link, so padding
    # never looks at it
    walked = []
    bits = relhyp._bits

    def recording_bits(mask):
        walked.append(mask)
        return bits(mask)

    monkeypatch.setattr(relhyp, "_bits", recording_bits)
    rng = random.Random(902)
    far = 0
    for k in range(20):
        n = rng.randint(12, 30)
        verts = [f"v{i}" for i in range(n)]
        g = SimplicialGraph(f"W{k}", verts, [
            e for e in combinations(verts, 2) if rng.random() < 3 / n])
        for _ in range(10):
            mask = sum(1 << v for v in rng.sample(range(n), rng.randint(1, 5)))
            near = mask
            for v in range(n):
                if mask >> v & 1:
                    near |= g._adj_bits[v]
            walked.clear()
            out = relhyp._cp_mask(g, mask)
            assert all(m & ~near == 0 for m in walked)
            want = mask
            for v in range(n):
                lk = [u for u in range(n) if mask >> u & 1 and g._adj_bits[v] >> u & 1]
                if not mask >> v & 1 and any(
                        not g._adj_bits[a] >> b & 1 for a, b in combinations(lk, 2)):
                    want |= 1 << v
            assert out == want
            far += near != (1 << n) - 1
    assert far > 100
