import random
from itertools import combinations, permutations
from types import SimpleNamespace

from graphprod import relhyp
from graphprod.graphs import SimplicialGraph, induced_squares, is_complete, link
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


def test_step_joins_members_not_their_union():
    # no edges: {a, b, c} and {b, c, d} share the non-adjacent pair {b, c};
    # {a, d, e} meets each of them in one vertex, so it stays apart, though
    # it meets their union in the non-adjacent pair {a, d}
    g = SimplicialGraph("E5", list("abcde"), [])
    abc, bcd, ade = (g.subset(s).mask for s in ("abc", "bcd", "ade"))
    for order in permutations([abc, bcd, ade]):
        assert relhyp._step(g, list(order)) == sorted([abc | bcd, ade])


def test_jinf_matches_bruteforce(corpus_graphs, random_graphs_9):
    rng = random.Random(4711)
    sparse = []
    for k in range(12):
        n = rng.randint(12, 20)
        verts = [f"v{i}" for i in range(n)]
        sparse.append(SimplicialGraph(f"S{k}", verts, [
            e for e in combinations(verts, 2) if rng.random() < 3 / n]))
    # on a few of these a step's union meets a member in a non-adjacent pair
    # that no single member of the union shares with it
    medium = []
    for k in range(150):
        n = rng.randint(11, 14)
        p = rng.uniform(0.3, 0.5)
        verts = [f"v{i}" for i in range(n)]
        medium.append(SimplicialGraph(f"M{k}", verts, [
            e for e in combinations(verts, 2) if rng.random() < p]))
    for g in list(corpus_graphs.values()) + random_graphs_9 + sparse + medium:
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


def _cp_by_links(g, mask):
    """The padding by its definition: mask and every outside vertex whose
    link in mask holds a non-adjacent pair."""
    adj = g._adj_bits
    out = mask
    for v in range(g.n):
        lk = [u for u in range(g.n) if mask >> u & 1 and adj[v] >> u & 1]
        if not mask >> v & 1 and any(
                not adj[a] >> b & 1 for a, b in combinations(lk, 2)):
            out |= 1 << v
    return out


def _gnp(rng, name, n, p):
    verts = [f"v{i}" for i in range(n)]
    return SimplicialGraph(name, verts, [
        e for e in combinations(verts, 2) if rng.random() < p])


def test_cp_walks_only_neighbours_of_the_mask():
    # padding reads the neighbourhoods of members, and of the outside
    # vertices with two or more neighbours in the mask; the link of any
    # other vertex is empty or one vertex, so complete, and it is never read
    read = []

    class Recording(tuple):
        def __getitem__(self, i):
            read.append(i)
            return tuple.__getitem__(self, i)

    rng = random.Random(902)
    far = skipped = 0
    for k in range(20):
        n = rng.randint(12, 30)
        g = _gnp(rng, f"W{k}", n, 3 / n)
        recorded = SimpleNamespace(_adj_bits=Recording(g._adj_bits))
        for _ in range(10):
            mask = sum(1 << v for v in rng.sample(range(n), rng.randint(1, 5)))
            near = mask
            for v in range(n):
                if mask >> v & 1:
                    near |= g._adj_bits[v]
            read.clear()
            out = relhyp._cp_mask(recorded, mask)
            assert read and all(
                mask >> v & 1 or (g._adj_bits[v] & mask).bit_count() >= 2
                for v in read)
            assert out == _cp_by_links(g, mask)
            far += near != (1 << n) - 1
            skipped += any((g._adj_bits[v] & mask).bit_count() == 1
                           for v in range(n) if not mask >> v & 1)
    assert far > 100 and skipped > 100


def test_cp_matches_links():
    # sparse graphs, n = 100..200 at mean degree 2..4: the members and
    # square unions that jinf pads, random masks, and masks no outside
    # vertex touches (a whole component, all vertices, no vertex); then
    # random masks of dense G(n, p)
    rng = random.Random(1616)
    cases = []
    for k in range(8):
        n = rng.randint(100, 200)
        g = _gnp(rng, f"P{k}", n, rng.uniform(2, 4) / n)
        comp = 1
        while True:
            grown = comp
            for v in range(n):
                if comp >> v & 1:
                    grown |= g._adj_bits[v]
            if grown == comp:
                break
            comp = grown
        masks = [m.mask for m in jinf(g).members]
        masks += [q.mask for q in induced_squares(g)]
        masks += [sum(1 << v for v in rng.sample(range(n), rng.randint(2, 40)))
                  for _ in range(6)]
        cases += [(g, m) for m in masks + [comp, (1 << n) - 1, 0]]
    for k in range(12):
        n = rng.randint(12, 30)
        g = _gnp(rng, f"D{k}", n, rng.choice((0.3, 0.5, 0.7, 0.9)))
        cases += [(g, sum(1 << v for v in rng.sample(range(n), rng.randint(0, n))))
                  for _ in range(8)]
    padded = 0
    for g, mask in cases:
        out = relhyp._cp_mask(g, mask)
        assert out == _cp_by_links(g, mask)
        padded += out != mask
    assert padded > 100
