import random
from collections import Counter
from itertools import combinations

from graphprod import squares
from graphprod.graphs import (
    _LEX_ORDER_MAX_N,
    SimplicialGraph,
    _bits,
    _set_from_mask,
    induced_squares,
)
from graphprod.relhyp import jinf
from graphprod.squares import (
    _close,
    _core,
    cfs_check,
    electrification_hyperbolic,
    is_hyperbolic,
    is_minsquare_graph,
    is_square_complete,
    minsquare_subgraphs,
    morse_all_hyperbolic,
    square_complete_closure,
)

from oracles import brute_is_square_complete, brute_minsquare, brute_squares
from references import RowSquareCore, brute_closure, make_random_graph, row_closure


def test_is_square_complete_examples(corpus_graphs):
    diag, edgew = corpus_graphs["DIAG"], corpus_graphs["EDGEW"]
    assert is_square_complete(diag.full_set())
    # square {a,b,c,w} of DIAG meets {a,b,c,d} in the diagonal {a,c} but w is outside
    assert not is_square_complete(diag.subset("abcd"))
    # no square of EDGEW contains w
    assert is_square_complete(edgew.subset("abcd"))


def test_closure_examples(corpus_graphs):
    sq4, diag, k33 = (corpus_graphs[n] for n in ("SQ4", "DIAG", "K33"))
    tr = square_complete_closure(sq4.subset("abcd"))
    assert tr.result.members == set("abcd") and tr.steps == ()
    tr = square_complete_closure(diag.subset("abcd"))
    assert tr.result.members == {"a", "b", "c", "d", "w"}
    # the squares through the diagonal {a, c} force w in, in one step
    assert [(added.members, trigger) for added, trigger in tr.steps] == \
        [({"w"}, ("a", "c"))]
    for q in minsquare_subgraphs(k33):
        pass
    for q in induced_squares(k33):
        assert square_complete_closure(q).result.members == set("abcxyz")


def test_closure_trace_is_sound(corpus_graphs, random_graphs_9):
    for g in list(corpus_graphs.values()) + random_graphs_9[:60]:
        squares = brute_squares(g)
        for q in induced_squares(g):
            tr = square_complete_closure(q)
            acc = set(tr.seed.members)
            for added, trigger in tr.steps:
                # each step is forced: the trigger is a diagonal inside the
                # set, and the step adds exactly what its squares add
                a, c = trigger
                assert a in acc and c in acc and not g.adjacent(a, c)
                assert g.index(a) < g.index(c)
                through = set().union(*(sq for sq in squares if a in sq and c in sq))
                assert added.members and added.members == through - acc
                acc |= added.members
            assert acc == tr.result.members
            assert len(tr.steps) <= g.n
            assert is_square_complete(tr.result)
            # fixed point
            again = square_complete_closure(tr.result)
            assert again.result == tr.result and again.steps == ()


def test_closure_matches_bruteforce(corpus_graphs, random_graphs_9):
    for g in list(corpus_graphs.values()) + random_graphs_9:
        for q in induced_squares(g):
            assert square_complete_closure(q).result.members == \
                brute_closure(g, q.members)


def test_closure_arbitrary_seeds_and_monotone():
    rng = random.Random(31)
    for k in range(40):
        g = make_random_graph(rng, 8, name=f"M{k}")
        verts = list(g.vertices)
        small = {v for v in verts if rng.random() < 0.4}
        big = small | {v for v in verts if rng.random() < 0.4}
        c_small = square_complete_closure(g.subset(small)).result
        c_big = square_complete_closure(g.subset(big)).result
        assert c_small.members <= c_big.members
        assert c_small.members == brute_closure(g, small)
        assert is_square_complete(c_small)


def test_square_completeness_matches_bruteforce(random_graphs_9):
    rng = random.Random(99)
    for g in random_graphs_9[:60]:
        for _ in range(5):
            subset = {v for v in g.vertices if rng.random() < 0.5}
            assert is_square_complete(g.subset(subset)) == \
                brute_is_square_complete(g, subset)


def test_minsquare_examples(corpus_graphs):
    sq4, cone, c5, k33 = (corpus_graphs[n] for n in ("SQ4", "CONE", "C5", "K33"))
    assert [m.members for m in minsquare_subgraphs(sq4)] == [set("abcd")]
    # w lies in no induced square of CONE
    assert [m.members for m in minsquare_subgraphs(cone)] == [set("abcd")]
    assert minsquare_subgraphs(c5) == ()
    assert is_minsquare_graph(sq4)
    assert is_minsquare_graph(k33)
    assert not is_minsquare_graph(cone)
    assert not is_minsquare_graph(c5)


def test_minsquare_matches_bruteforce(corpus_graphs, random_graphs_9):
    for g in list(corpus_graphs.values()) + random_graphs_9:
        got = {m.members for m in minsquare_subgraphs(g)}
        assert got == brute_minsquare(g)


def test_minsquare_never_contains_universal_vertex(corpus_graphs, random_graphs_9):
    for g in list(corpus_graphs.values()) + random_graphs_9:
        universal = {v for v in g.vertices
                     if set(g.vertices) - {v} <= g.neighbors(v)}
        for m in minsquare_subgraphs(g):
            assert not (m.members & universal)


def test_overlapping_minsquare_pieces_allowed():
    # two squares sharing one (corner) vertex close independently
    g = SimplicialGraph(
        "TWO", "abcdefg",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
         ("d", "e"), ("e", "f"), ("f", "g"), ("g", "d")])
    pieces = {m.members for m in minsquare_subgraphs(g)}
    assert pieces == {frozenset("abcd"), frozenset("defg")}
    assert frozenset("abcd") & frozenset("defg")


def test_hyperbolicity(corpus_graphs):
    assert is_hyperbolic(corpus_graphs["C5"])
    assert is_hyperbolic(corpus_graphs["K4"])
    assert not is_hyperbolic(corpus_graphs["SQ4"])


def test_electrification_examples(corpus_graphs):
    assert electrification_hyperbolic(corpus_graphs["SQ4"]).hyperbolic
    assert electrification_hyperbolic(corpus_graphs["DIAG"]).hyperbolic
    res = electrification_hyperbolic(corpus_graphs["ELEC_FALSE"])
    assert not res.hyperbolic
    assert res.uncovered
    assert {"a", "c", "f", "g"} in [q.members for q in res.uncovered]


def test_electrification_uncovered_certified(corpus_graphs, random_graphs_9):
    for g in list(corpus_graphs.values()) + random_graphs_9[:60]:
        res = electrification_hyperbolic(g)
        minimal = brute_minsquare(g)
        for q in res.uncovered:
            assert not any(q.members <= m for m in minimal)


def test_morse_examples(corpus_graphs):
    assert morse_all_hyperbolic(corpus_graphs["C5"]) == (True, "square-free")
    ok, cert = morse_all_hyperbolic(corpus_graphs["CONE"])
    assert ok and cert[0].members == set("abcd") and cert[1].members == {"w"}
    ok, cert = morse_all_hyperbolic(corpus_graphs["EDGEW"])
    assert not ok and isinstance(cert, str)


def test_morse_dichotomy_consistency(corpus_graphs, random_graphs_9):
    for g in list(corpus_graphs.values()) + random_graphs_9:
        if is_minsquare_graph(g) or is_hyperbolic(g):
            assert morse_all_hyperbolic(g).all_hyperbolic


def test_cfs_examples(corpus_graphs):
    assert cfs_check(corpus_graphs["SQ4"])
    assert not cfs_check(corpus_graphs["C5"])
    assert cfs_check(corpus_graphs["K33"])
    # squares must cover every vertex, including cone points outside squares
    assert not cfs_check(corpus_graphs["CONE"])


def test_cfs_matches_direct_search(random_graphs_9):
    # independent route: path-connect squares sharing a non-adjacent pair,
    # then ask for a component covering everything
    from itertools import combinations
    from oracles import brute_squares

    for g in random_graphs_9[:60]:
        squares = sorted(brute_squares(g), key=sorted)
        comp = list(range(len(squares)))

        def root(i):
            while comp[i] != i:
                i = comp[i]
            return i

        for i, j in combinations(range(len(squares)), 2):
            shared = squares[i] & squares[j]
            if any(not g.adjacent(u, v)
                   for u, v in combinations(sorted(shared), 2)):
                comp[root(i)] = root(j)
        covered = {}
        for i, q in enumerate(squares):
            covered.setdefault(root(i), set()).update(q)
        expected = any(c == set(g.vertices) for c in covered.values()) \
            if squares else g.n == 0
        assert cfs_check(g) == expected


def _gnp_10_40():
    """Two seeded G(n, p) graphs for each even n from 10 to 40, p 0.2-0.7,
    about a third of the vertices with order 3."""
    rng = random.Random(2612)
    out = []
    for n in range(10, 41, 2):
        for k in range(2):
            verts = [f"v{i}" for i in range(n)]
            p = rng.uniform(0.2, 0.7)
            edges = [(u, v) for u, v in combinations(verts, 2) if rng.random() < p]
            orders = {v: 3 for v in verts if rng.random() < 0.3}
            out.append(SimplicialGraph(f"G{n}_{k}", verts, edges, orders))
    return out


def _sparse_100_200():
    """Twenty seeded sparse graphs, n from 100 to 200 and mean degree 2 to
    4, drawn by edges: most have isolated and degree-1 vertices, and most
    of their lower vertices carry no square pair."""
    rng = random.Random(2301)
    out = []
    for k in range(20):
        n = rng.randint(100, 200)
        verts = [f"v{i}" for i in range(n)]
        m = int(n * rng.uniform(1, 2))
        edges = set()
        while len(edges) < m:
            a, b = rng.sample(range(n), 2)
            edges.add((verts[min(a, b)], verts[max(a, b)]))
        out.append(SimplicialGraph(f"S{k}", verts, sorted(edges)))
    return out


def _row_pairs(old):
    """The pair table the rows imply: per lower vertex x of a diagonal
    {x, z}, F({x, z}) is the union of the other diagonals of its squares;
    and per vertex, the mask of the vertices it shares a diagonal with."""
    table, partners = {}, Counter()
    for m, d1, d2 in old.rows:
        for d, other in ((d1, d2), (d2, d1)):
            x, z = _bits(d)
            row = table.setdefault(x, {})
            row[z] = row.get(z, 0) | other
            partners[x] |= 1 << z
            partners[z] |= 1 << x
    return table, partners


def test_pair_core_matches_row_core(corpus_graphs, random_graphs_9):
    rng = random.Random(1212)
    seen = Counter()
    edgeless = SimplicialGraph("EMPTY", "abcdef")
    one_edge = SimplicialGraph("ONE", "abc", [("a", "b")])
    for g in (list(corpus_graphs.values()) + random_graphs_9 + _gnp_10_40()
              + _sparse_100_200() + [edgeless, one_edge]):
        old = RowSquareCore(g)
        new = _core(g)
        assert new.n_squares == len(old.rows)
        # rows exist only for the lower vertices that carry a pair
        table, partners = _row_pairs(old)
        assert new.pairs == table
        assert new.partners == [partners[v] for v in range(g.n)]
        if g.n >= 100:
            degrees = Counter(a.bit_count() for a in g._adj_bits)
            seen["isolated vertex"] += degrees[0] > 0
            seen["degree-1 vertex"] += degrees[1] > 0
            seen["most vertices rowless"] += len(new.pairs) < g.n // 4
        # the two cores' components, each with its closure, are the same
        assert sorted(zip(new.unions, new.closures)) == sorted(zip(old.unions, old.closures))
        assert new.minimal == old.minimal
        # a 4-vertex union is one square, its own closure and a minimal one
        for u in new.unions:
            if u.bit_count() == 4:
                assert _close(new, u)[0] == u and u in new.minimal
        seen["component of two or more squares"] += any(u.bit_count() > 4 for u in new.unions)
        assert new.electrification_hyperbolic == (not old.uncovered)
        # the non-adjacent pairs inside a square are its diagonals, so it is
        # square-complete iff no other square has either of them as a diagonal
        orders = g._orders_ix
        shared = Counter(d for _, d1, d2 in old.rows for d in (d1, d2))
        assert new.sc_order2_square == any(
            shared[d1] == shared[d2] == 1 and all(orders[i] == 2 for i in _bits(m))
            for m, d1, d2 in old.rows)
        res = electrification_hyperbolic(g)
        assert [q.mask for q in res.uncovered] == old.uncovered
        assert res.hyperbolic == (not old.uncovered)
        members, iterations = old.jinf()
        per = jinf(g)
        assert [m.mask for m in per.members] == members
        assert per.iterations == iterations
        for _ in range(4):
            mask = rng.getrandbits(g.n)
            s = _set_from_mask(g, mask)
            assert is_square_complete(s) == old.is_square_complete(mask)
            want = row_closure(old.rows, mask)
            assert _close(new, mask)[0] == want
            assert square_complete_closure(s).result.mask == want
        if old.rows:
            masks = [row[0] for row in old.rows]
            assert [q.mask for q in induced_squares(g)] == masks
            if sorted(masks) != sorted(masks, key=lambda m: tuple(_bits(m))):
                seen["lex order" if g.n <= _LEX_ORDER_MAX_N else "mask order"] += 1
            seen["jinf step 0"] += iterations == 0
            seen["uncovered"] += bool(old.uncovered)
            seen["jinf steps"] += iterations > 0
    for case in ("lex order", "mask order", "jinf step 0", "uncovered", "jinf steps",
                 "isolated vertex", "degree-1 vertex", "most vertices rowless",
                 "component of two or more squares"):
        assert seen[case] >= 3, (case, seen)


def test_core_closes_only_components_of_two_or_more_squares(
        corpus_graphs, random_graphs_9, monkeypatch):
    close = squares._close
    closed = []

    def counted(core, mask):
        closed.append(mask)
        return close(core, mask)

    monkeypatch.setattr(squares, "_close", counted)
    seen = Counter()
    for g in list(corpus_graphs.values()) + random_graphs_9 + _sparse_100_200():
        closed.clear()
        core = squares._SquareCore(g)
        assert closed == [u for u in core.unions if u.bit_count() > 4]
        seen["one-square component"] += any(u.bit_count() == 4 for u in core.unions)
        seen["closed"] += bool(closed)
    assert seen["one-square component"] >= 3 and seen["closed"] >= 3, seen
