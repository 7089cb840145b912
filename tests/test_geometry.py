import gc
import random
import tracemalloc
import weakref
from itertools import combinations, product

import pytest

from graphprod import geometry, words
from graphprod.geometry import (
    DEFAULT_VERTEX_CAP,
    BallCapExceeded,
    ElectrifiedDistance,
    FlatGrid,
    build_ball,
    electrified_distance,
    flat_witness,
    hyperplane_of_edge,
    is_essential,
    separating_hyperplanes,
    transverse,
)
from graphprod.graphs import (
    GraphMismatchError,
    SimplicialGraph,
    induced_squares,
    parse_graph,
    square_diagonals,
)
from graphprod.squares import minsquare_subgraphs
from graphprod.words import (
    Word,
    format_word,
    identity,
    invert,
    multiply,
    parse_word,
    reduce_word,
)

from oracles import growth_counts
from references import (
    brute_ball,
    brute_cone_edges,
    brute_edge_hyperplanes,
    brute_is_isometric,
    brute_separating_hyperplanes,
    edge_class_partition,
    make_random_graph,
)


def rw(g, text):
    return reduce_word(parse_word(g, text))


def random_element(rng, g, length):
    """The normal form of `length` random syllables (shorter after reduction)."""
    sylls = [(v, rng.randint(1, g.order(v) - 1))
             for v in (rng.choice(g.vertices) for _ in range(length))]
    return reduce_word(Word(g, sylls))


# --- balls -------------------------------------------------------------------


def test_ball_counts(corpus_graphs):
    sq4 = corpus_graphs["SQ4"]
    assert build_ball(sq4, 1).vertex_count == 5
    assert build_ball(sq4, 2).vertex_count == 13
    v3 = parse_graph("vertex v order=3")
    ball = build_ball(v3, 1)
    assert ball.vertex_count == 3
    # the three elements of one vertex group form a clique
    assert ball.edge_count() == 3


def test_ball_radius_zero(corpus_graphs):
    ball = build_ball(corpus_graphs["C5"], 0)
    assert ball.vertex_count == 1 and ball.edge_count() == 0


def test_ball_saturates_at_finite_group_order(corpus_graphs):
    # complete defining graphs give direct products: the ball stops growing
    # at the product of the vertex-group orders
    assert build_ball(corpus_graphs["K4"], 10).vertex_count == 2 ** 4
    tri = parse_graph("graph T\nvertex a order=2\nvertex b order=3\n"
                      "vertex c order=4\nedge a b\nedge a c\nedge b c")
    assert build_ball(tri, 10).vertex_count == 2 * 3 * 4


def test_ball_growth_matches_series(corpus_graphs):
    rng = random.Random(2024)
    graphs = list(corpus_graphs.values()) + \
        [make_random_graph(rng, 6, name=f"GR{k}") for k in range(10)]
    for g in graphs:
        ball = build_ball(g, 3)
        counts = growth_counts(g, 3)
        by_level = [0, 0, 0, 0]
        for nf in ball.verts:
            by_level[len(nf)] += 1
        assert by_level == counts[:4]


def test_ball_levels_match_lengths(balls3, balls4, eballs4):
    # BFS distance from the identity equals normal-form length out to radius
    # 4; on electrified balls distances_from still counts plain edges only
    for balls in (balls3, balls4, eballs4):
        for ball in balls.values():
            d = ball.distances_from([0])[0]
            for i, nf in enumerate(ball.verts):
                assert type(d[i]) is int
                assert d[i] == len(nf)


def test_ball_generator_cliques(balls3):
    # u-labelled edges at an interior vertex close into cliques of size order(u)
    for ball in balls3.values():
        g = ball.graph
        adjset = [set(nb) for nb in ball.adj]
        for i, x in enumerate(ball.verts):
            if len(x) >= ball.radius:
                continue
            for u in g.vertices:
                clique = [ball.index_of(multiply(x, rw(g, f"{u}^{e}")))
                          for e in range(1, g.order(u))]
                for a in clique:
                    for b in clique:
                        if a != b:
                            assert b in adjset[a]


def test_ball_cap(corpus_graphs):
    with pytest.raises(BallCapExceeded) as exc:
        build_ball(corpus_graphs["C5"], 9, max_vertices=40)
    assert exc.value.radius_reached == 2


def test_ball_cap_checked_before_listing_generators():
    # past the cap on the identity's neighbours, and at radius 0, the sweep
    # lists none of the 200,000 generators
    g = SimplicialGraph("BIG", ["a"], orders={"a": 200_001})
    tracemalloc.start()
    try:
        with pytest.raises(BallCapExceeded) as exc:
            build_ball(g, 1, max_vertices=10)
        assert build_ball(g, 0, max_vertices=10).vertex_count == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.radius_reached == 0
    assert peak < 1 << 20
    # at either side of the cap, the outcome is the product-by-product one
    for order in (10, 11, 12):
        small = SimplicialGraph("SMALL", ["a", "b"], orders={"a": order})
        for radius in range(3):
            assert _ball_outcome(build_ball, small, radius, False, 11) == \
                _ball_outcome(brute_ball, small, radius, False, 11)


def _ball_outcome(build, g, radius, electrified, cap):
    """Everything a build leaves behind, dict orders included, or the cap
    it hit."""
    try:
        b = build(g, radius, electrified, cap)
    except BallCapExceeded as exc:
        return ("cap", exc.cap, exc.radius_reached, str(exc))
    return (b.verts, list(b._edge_label.items()), list(b._index.items()),
            b.adj, b.cone_groups)


def _graphs_with_pieces(rng, count):
    """Seeded graphs with at least two minsquare pieces and every vertex of
    order 3 or 4, so balls have edges inside a level and overlapping
    cosets of different pieces."""
    out = []
    for _ in range(5000):
        n = rng.randint(5, 7)
        verts = [f"v{i}" for i in range(n)]
        edges = [(u, v) for u, v in combinations(verts, 2) if rng.random() < 0.5]
        g = SimplicialGraph(f"MP{len(out)}", verts, edges,
                            {v: rng.randint(3, 4) for v in verts})
        if len(minsquare_subgraphs(g)) >= 2:
            out.append(g)
            if len(out) == count:
                break
    return out


def test_ball_matches_sweep_over_all_products(corpus_graphs):
    rng = random.Random(4404)
    cases = [(g, r) for g in corpus_graphs.values() for r in range(5)]
    cases += [(make_random_graph(rng, 8, max_order=4, name=f"BB{k}"), r)
              for k in range(60) for r in range(4)]
    cases += [(g, r) for g in _graphs_with_pieces(rng, 24) for r in range(3)]
    with_pieces = 0
    for g, r in cases:
        for cap in (1, 7, 40, DEFAULT_VERTEX_CAP):
            want = {electrified: _ball_outcome(brute_ball, g, r, electrified, cap)
                    for electrified in (False, True)}
            # cold: an electrified build with nothing cached
            build_ball.cache_clear()
            assert _ball_outcome(build_ball, g, r, True, cap) == want[True], \
                (g, r, True, cap, "cold")
            # warm: a plain build (or one that hits the cap) followed by an
            # electrified build over the same sweep
            for electrified in (False, True):
                got = _ball_outcome(build_ball, g, r, electrified, cap)
                assert got == want[electrified], (g, r, electrified, cap, "warm")
        ball = build_ball(g, r, True)
        flat = any(ball.level(i) == ball.level(j) for i, j, _ in ball.edges())
        if flat and len(minsquare_subgraphs(g)) >= 2:
            with_pieces += 1
    assert with_pieces >= 20


def _all_labelled_graphs(max_n, orders):
    """Every graph on the vertices a, b, ... (at most max_n of them) with
    each vertex order drawn from `orders`."""
    for n in range(1, max_n + 1):
        verts = "abcde"[:n]
        pairs = list(combinations(verts, 2))
        for bits in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
            for ks in product(orders, repeat=n):
                name = f"L{n}_{bits}_{''.join(map(str, ks))}"
                yield SimplicialGraph(name, verts, edges, dict(zip(verts, ks)))


def test_ball_matches_sweep_over_all_products_on_every_small_graph():
    graphs = list(_all_labelled_graphs(5, (2,))) + list(_all_labelled_graphs(4, (2, 3)))
    assert len(graphs) == 1099 + 1098
    in_level = coned = 0
    for g in graphs:
        want = brute_ball(g, 2, True)
        plain = build_ball(g, 2)
        ball = build_ball(g, 2, True)
        for b in (plain, ball):
            assert (b.verts, list(b._edge_label.items()), b.adj) == \
                (want.verts, list(want._edge_label.items()), want.adj), g
        assert plain.cone_groups == () and plain.cone_edge_count() == 0, g
        assert ball.cone_groups == want.cone_groups, g
        assert ball.cone_edge_count() == sum(1 for _ in brute_cone_edges(want)), g
        in_level += any(ball.level(i) == ball.level(j) for i, j, _ in ball.edges())
        coned += bool(ball.cone_groups)
    assert in_level > 0 and coned > 0


def test_ball_sweep_computes_only_products_in_the_ball(monkeypatch, corpus_graphs):
    # every product the sweep computes is one `_push`; each edge between two
    # levels is computed once, from its shorter end, and each edge inside a
    # level (an amalgamation, only at orders above 2) once from either end
    lengths = []
    push = words._push

    def counting_push(g, out, s):
        push(g, out, s)
        lengths.append(len(out))

    monkeypatch.setattr(words, "_push", counting_push)
    monkeypatch.setattr(geometry, "_push", counting_push, raising=False)
    rng = random.Random(5505)
    cases = [(g, 4) for g in corpus_graphs.values()]
    cases += [(make_random_graph(rng, 8, max_order=order, name=f"BW{k}"), 3)
              for order in (2, 4) for k in range(15)]
    for g, r in cases:
        lengths.clear()
        build_ball.cache_clear()
        ball = build_ball(g, r)
        assert max(lengths, default=0) <= r
        flat = sum(1 for i, j, _ in ball.edges() if ball.level(i) == ball.level(j))
        assert len(lengths) == ball.edge_count() + flat
        if max(g._orders_ix) == 2:
            assert len(lengths) == ball.edge_count()
        else:
            assert len(lengths) <= 2 * ball.edge_count()


def test_ball_sweep_scans_outer_level_only_for_amalgamations(monkeypatch, corpus_graphs):
    # an outermost vertex only amalgamates, which needs a vertex of order
    # above 2: it reads its last letters at those vertices alone, and a graph
    # with all orders 2 never scans its outermost level
    scans = []
    scan = words._last_syllables

    def counting_scan(g, sylls, allowed_mask):
        scans.append((len(sylls), allowed_mask))
        return scan(g, sylls, allowed_mask)

    monkeypatch.setattr(geometry, "_last_syllables", counting_scan)
    for g in corpus_graphs.values():
        assert max(g._orders_ix) == 2
        for r in range(5):
            scans.clear()
            build_ball.cache_clear()
            ball = build_ball(g, r)
            assert len(scans) == sum(1 for x in ball.verts if len(x) < r), (g, r)
            assert all(length < r for length, _ in scans), (g, r)
    rng = random.Random(6606)
    with_big = 0
    for k in range(60):
        g = make_random_graph(rng, 7, max_order=3 + k % 2, name=f"BO{k}")
        every = (1 << g.n) - 1
        big = sum(1 << v for v, o in enumerate(g._orders_ix) if o > 2)
        with_big += big != 0
        for r in range(4):
            scans.clear()
            build_ball.cache_clear()
            ball = build_ball(g, r)
            outer = sum(1 for x in ball.verts if len(x) == r) if big else 0
            assert [m for length, m in scans if length == r] == [big] * outer, (g, r)
            assert [m for length, m in scans if length < r] == \
                [every] * sum(1 for x in ball.verts if len(x) < r), (g, r)
    assert with_big >= 30


def test_ball_spellings_share_one_sweep(monkeypatch):
    # positional, keyword and default spellings name one cache entry, and an
    # electrified build reuses the plain sweep and its structures
    pushes = []
    push = words._push

    def counting_push(g, out, s):
        push(g, out, s)
        pushes.append(s)

    monkeypatch.setattr(geometry, "_push", counting_push)
    g = SimplicialGraph("SPELL", list("abcd"),
                        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], {"a": 3})
    ball = build_ball(g, 5)
    swept = len(pushes)
    assert swept == ball.edge_count() + sum(
        1 for i, j, _ in ball.edges() if ball.level(i) == ball.level(j))
    assert build_ball(g, radius=5) is ball
    assert build_ball(g, 5, False) is ball
    assert build_ball(g, 5, max_vertices=DEFAULT_VERTEX_CAP) is ball
    eball = build_ball(g, 5, electrified=True)
    assert build_ball(g, 5, True) is eball
    assert eball.electrified and not ball.electrified
    assert eball.verts is ball.verts and eball.adj is ball.adj
    assert eball._index is ball._index and eball._edge_label is ball._edge_label
    # the whole graph is one minsquare piece: one cone covers the ball
    assert eball.cone_groups == (tuple(range(ball.vertex_count)),)
    assert electrified_distance(identity(g), ball.verts[-1], 5).value == 1
    assert len(pushes) == swept


def test_ball_cache_keeps_only_the_last_ball():
    # a plain and an electrified ball of one graph, then a ball of another:
    # once their users drop them, the first graph's balls are freed
    sq = SimplicialGraph("KEEP1", list("abcd"),
                         [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    other = SimplicialGraph("KEEP2", list("abc"), [("a", "b")], {"c": 3})
    build_ball.cache_clear()
    ball = build_ball(sq, 4)
    eball = build_ball(sq, 4, electrified=True)
    assert eball.verts is ball.verts
    assert build_ball.cache_info().hits == 1  # the plain sweep was reused
    refs = [weakref.ref(ball), weakref.ref(eball)]
    kept = build_ball(other, 3)
    del ball, eball
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert build_ball(other, 3) is kept
    assert build_ball.cache_info().currsize == 1


def test_cone_edges_match_seen_set(eballs4):
    rng = random.Random(3303)
    balls = list(eballs4.values())
    balls += [build_ball(g, 2, True) for g in _graphs_with_pieces(rng, 10)]
    balls += [build_ball(make_random_graph(rng, 8, name=f"CE{k}"), 3, True)
              for k in range(20)]
    repeats = 0
    for ball in balls:
        want = list(brute_cone_edges(ball))
        assert list(ball.cone_edges()) == want, ball
        repeats += sum(len(c) * (len(c) - 1) // 2 for c in ball.cone_groups) - len(want)
    # cosets of two pieces share pairs, so some pairs are skipped as repeats
    assert repeats > 0


def test_cone_edge_count_matches_listed_pairs(eballs4):
    rng = random.Random(3404)
    balls = list(eballs4.values())
    balls += [build_ball(g, r, True)
              for g in _graphs_with_pieces(rng, 12) for r in (1, 2)]
    balls += [build_ball(make_random_graph(rng, 8, name=f"CC{k}"), 3, True)
              for k in range(20)]
    shared = 0
    for ball in balls:
        assert ball.cone_edge_count() == sum(1 for _ in ball.cone_edges()), ball
        shared += sum(1 for gov in ball._groups_of_vertex if len(gov) >= 2)
    # vertices in cosets of two pieces take the union branch
    assert shared > 0


def test_cone_edges_keep_no_pairs(corpus_graphs):
    ball = build_ball(corpus_graphs["SQ4"], 30, electrified=True)
    n = ball.vertex_count
    tracemalloc.start()
    try:
        count = sum(1 for _ in ball.cone_edges())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == n * (n - 1) // 2 == ball.cone_edge_count()
    # a set of every pair would take over 100 MB here
    assert peak < 1 << 20


def test_ball_membership_queries(balls3):
    ball = balls3["SQ4"]
    g = ball.graph
    assert rw(g, "a c a") in ball
    assert rw(g, "a c a c") not in ball
    with pytest.raises(ValueError):
        ball.index_of(rw(g, "a c a c"))


def test_ball_refuses_forms_of_another_graph(corpus_graphs):
    # `a b` over C5 has the syllables of `a b` over SQ4, a ball vertex
    ball = build_ball(corpus_graphs["SQ4"], 2)
    x = rw(corpus_graphs["C5"], "a b")
    assert x.sylls in ball._index
    assert x not in ball
    with pytest.raises(GraphMismatchError):
        ball.index_of(x)
    assert issubclass(GraphMismatchError, ValueError)


# --- hyperplanes --------------------------------------------------------------


def test_hyperplane_examples(corpus_graphs):
    sq4 = corpus_graphs["SQ4"]
    e = identity(sq4)
    h1 = hyperplane_of_edge(e, "a")
    assert (h1.label, format_word(h1.coset)) == ("a", "e")
    # an id is the plain tuple (label, coset)
    assert h1 == ("a", e) and hash(h1) == hash(("a", e))
    assert repr(h1) == "Hyp(a|e)"
    # (b, ba) crosses the same hyperplane: opposite sides of the square
    h2 = hyperplane_of_edge(rw(sq4, "b"), "a")
    assert h2 == h1
    # (c, ca) crosses a different translate
    h3 = hyperplane_of_edge(rw(sq4, "c"), "a")
    assert h3 != h1 and format_word(h3.coset) == "c"
    with pytest.raises(ValueError):
        hyperplane_of_edge(e, "zz")


def test_separating_hyperplanes_examples(corpus_graphs):
    sq4 = corpus_graphs["SQ4"]
    e = identity(sq4)
    assert separating_hyperplanes(e, e) == ()
    seq = separating_hyperplanes(e, rw(sq4, "a c"))
    assert [(h.label, format_word(h.coset)) for h in seq] == \
        [("a", "e"), ("c", "a")]
    assert len(set(seq)) == len(seq) == 2


def test_separating_set_invariant_under_shuffles():
    rng = random.Random(640)
    for k in range(40):
        g = make_random_graph(rng, 6, name=f"SEP{k}")
        sylls = [(v, rng.randint(1, g.order(v) - 1))
                 for v in (rng.choice(g.vertices) for _ in range(6))]
        y = reduce_word(Word(g, sylls))
        base = set(separating_hyperplanes(identity(g), y))
        word = list(y.syllables)
        for _ in range(20):
            if len(word) < 2:
                break
            i = rng.randrange(len(word) - 1)
            u, v = word[i].vertex, word[i + 1].vertex
            if u != v and g.adjacent(u, v):
                word[i], word[i + 1] = word[i + 1], word[i]
                # walking any reduced word gives the same hyperplane set
                seq = []
                cur = identity(g)
                for s in word:
                    seq.append(hyperplane_of_edge(cur, s.vertex))
                    cur = multiply(cur, reduce_word(Word(g, [s])))
                assert set(seq) == base
                assert len(set(seq)) == len(seq)


def test_separating_hyperplanes_match_per_syllable_oracle():
    # long reduced words, where the carriers come from early-stopping splits
    rng = random.Random(1203)
    lengths = []
    for k in range(60):
        g = make_random_graph(rng, 7, max_order=4, name=f"SL{k}")
        x = random_element(rng, g, rng.randint(0, 120))
        y = random_element(rng, g, rng.randint(0, 120))
        sep = separating_hyperplanes(x, y)
        assert sep == brute_separating_hyperplanes(x, y)
        lengths.append(len(sep))
    assert max(lengths) >= 60


@pytest.fixture
def products(monkeypatch):
    """A list that gains one entry per `geometry.multiply` call."""
    calls = []
    mult = geometry.multiply

    def counting_multiply(x, y):
        calls.append(1)
        return mult(x, y)

    monkeypatch.setattr(geometry, "multiply", counting_multiply)
    return calls


def test_separating_hyperplanes_one_product(products):
    # the walk pushes syllables; x^-1 y is the only full product
    rng = random.Random(1204)
    for k in range(20):
        g = make_random_graph(rng, 6, max_order=4, name=f"SP{k}")
        x, y = random_element(rng, g, 30), random_element(rng, g, 30)
        products.clear()
        sep = separating_hyperplanes(x, y)
        assert len(products) == 1
        assert len(sep) == multiply(invert(x), y).length


def _hyperplane_cases(corpus_graphs):
    """Corpus balls at radius 0..4, seeded random graphs with vertex orders
    2..4 at radius 0..3 and graphs with two or more pieces at radius 0..2,
    each plain and electrified."""
    rng = random.Random(6606)
    cases = [(g, r) for g in corpus_graphs.values() for r in range(5)]
    cases += [(make_random_graph(rng, 7, max_order=4, name=f"EH{k}"), r)
              for k in range(40) for r in range(4)]
    cases += [(g, r) for g in _graphs_with_pieces(rng, 6) for r in range(3)]
    return [build_ball(g, r, electrified)
            for g, r in cases for electrified in (False, True)]


def test_edge_hyperplanes_match_per_edge_oracle(corpus_graphs):
    flat = 0
    for ball in _hyperplane_cases(corpus_graphs):
        assert (list(ball.edge_hyperplanes().items())
                == list(brute_edge_hyperplanes(ball).items())), ball
        if any(ball.level(i) == ball.level(j) for i, j, _ in ball.edges()):
            flat += 1
    # edges inside a level (amalgamations, at orders above 2) were covered
    assert flat >= 20


def test_edge_hyperplanes_build_no_coset_rep(monkeypatch, corpus_graphs):
    calls = []
    coset_rep = geometry._coset_rep

    def counting_coset_rep(x, mask):
        calls.append(mask)
        return coset_rep(x, mask)

    monkeypatch.setattr(geometry, "_coset_rep", counting_coset_rep)
    monkeypatch.setattr(words, "_coset_rep", counting_coset_rep)
    rng = random.Random(7707)
    graphs = list(corpus_graphs.values())
    graphs += [make_random_graph(rng, 7, max_order=4, name=f"NC{k}") for k in range(10)]
    for g in graphs:
        # a fresh ball, so its hyperplanes are computed here
        build_ball.cache_clear()
        ball = build_ball(g, 3)
        hyp = ball.edge_hyperplanes()
        assert calls == []
        # one id per hyperplane, and its carrier is a ball vertex
        assert len({id(h) for h in hyp.values()}) == len(set(hyp.values()))
        assert all(h.coset in ball for h in hyp.values())


def _count_coset_heads(monkeypatch):
    """Count calls to geometry._coset_heads from here on."""
    calls = []
    coset_heads = geometry._coset_heads

    def counting_coset_heads(ball, masks):
        calls.append(len(masks))
        return coset_heads(ball, masks)

    monkeypatch.setattr(geometry, "_coset_heads", counting_coset_heads)
    return calls


def test_one_coset_head_pass_per_structure(monkeypatch):
    # one pass serves all minsquare pieces, and one all stars
    calls = _count_coset_heads(monkeypatch)
    for g in _graphs_with_pieces(random.Random(9909), 6):
        build_ball.cache_clear()
        build_ball(g, 2, electrified=True)
        assert calls == [len(minsquare_subgraphs(g))]
        calls.clear()
        build_ball(g, 2).edge_hyperplanes()
        assert calls == [g.n]
        calls.clear()


def test_hyperplane_matches_edge_classes(balls3):
    # algebraic ids against union-find over triangles and opposite square sides
    rng = random.Random(8808)
    balls = list(balls3.values())
    balls += [build_ball(make_random_graph(rng, 6, max_order=4, name=f"HC{k}"), r)
              for k in range(12) for r in (2, 3)]
    for ball in balls:
        by_id = {}
        for e, h in ball.edge_hyperplanes().items():
            by_id.setdefault(h, set()).add(e)
        got = {frozenset(s) for s in by_id.values()}
        assert got == edge_class_partition(ball)


def test_transverse_examples(corpus_graphs, balls3):
    sq4 = corpus_graphs["SQ4"]
    e = identity(sq4)
    ja = hyperplane_of_edge(e, "a")
    jb = hyperplane_of_edge(e, "b")
    jca = hyperplane_of_edge(rw(sq4, "c"), "a")
    ball = balls3["SQ4"]
    assert transverse(ja, jb, ball)
    assert not transverse(ja, jca, ball)
    assert not transverse(ja, ja, ball)
    cone = corpus_graphs["CONE"]
    cball = balls3["CONE"]
    assert transverse(hyperplane_of_edge(identity(cone), "a"),
                      hyperplane_of_edge(identity(cone), "w"), cball)
    with pytest.raises(ValueError):
        # carrier coset c a c <star(a)> keeps every edge outside radius 3
        far = hyperplane_of_edge(rw(sq4, "c a c"), "a")
        transverse(ja, far, ball)
    with pytest.raises(ValueError, match="has no edge inside the ball"):
        transverse(far, ja, ball)


def test_transverse_checks_ids_before_comparing_them(corpus_graphs, balls3):
    # a hyperplane with no edge in the ball is refused also when paired
    # with itself
    sq4 = corpus_graphs["SQ4"]
    far = hyperplane_of_edge(rw(sq4, "c a c"), "a")
    with pytest.raises(ValueError, match="has no edge inside the ball"):
        transverse(far, far, balls3["SQ4"])


def test_transverse_labels_adjacent(balls3):
    # transverse hyperplanes carry adjacent labels; check over all id pairs
    for name in ("SQ4", "CONE", "K4"):
        ball = balls3[name]
        g = ball.graph
        ids = sorted(set(ball.edge_hyperplanes().values()),
                     key=lambda h: (h.label, h.coset.sylls))
        for i, j1 in enumerate(ids):
            for j2 in ids[i + 1:]:
                if transverse(j1, j2, ball):
                    assert j1.label != j2.label
                    assert g.adjacent(j1.label, j2.label)


# --- flat grids -----------------------------------------------------------------


def test_flat_grid_examples(corpus_graphs):
    sq4 = corpus_graphs["SQ4"]
    grid = flat_witness(sq4, ("a", "c"), ("b", "d"), 3)
    assert grid.size == (3, 3)
    assert len(grid.horizontal) == 4 and len(grid.vertical) == 4
    assert grid.is_isometric()
    tiny = flat_witness(sq4, ("a", "c"), ("b", "d"), 0)
    assert tiny.vertex(0, 0) == identity(sq4)


def test_flat_grid_preconditions(corpus_graphs):
    sq4 = corpus_graphs["SQ4"]
    with pytest.raises(ValueError):
        flat_witness(sq4, ("a", "b"), ("c", "d"), 2)  # adjacent diagonal
    with pytest.raises(ValueError):
        flat_witness(sq4, ("a", "c"), ("a", "c"), 2)
    c5 = corpus_graphs["C5"]
    with pytest.raises(ValueError):
        flat_witness(c5, ("a", "c"), ("b", "d"), 2)  # no square in C5
    with pytest.raises(ValueError, match="size must be >= 0"):
        flat_witness(sq4, ("a", "c"), ("b", "d"), -1)


def test_flat_grid_over_the_cap_builds_no_prefix(monkeypatch, corpus_graphs):
    built = []
    monkeypatch.setattr(geometry, "_alternating_prefixes",
                        lambda g, u, v, count: built.append(count) or [])
    sq4 = corpus_graphs["SQ4"]
    # 447^2 = 199,809 vertices is within the cap, 448^2 is not
    flat_witness(sq4, ("a", "c"), ("b", "d"), 446)
    assert built == [446, 446]
    for size in (447, 99999999999):
        with pytest.raises(ValueError, match="more than 200000"):
            flat_witness(sq4, ("a", "c"), ("b", "d"), size)
    assert built == [446, 446]


def test_flat_grid_diag_witness(corpus_graphs):
    # DIAG: {b,w} and {a,c} span a square; the w-ray leaves <a,b,c,d>
    diag = corpus_graphs["DIAG"]
    grid = flat_witness(diag, ("a", "c"), ("b", "w"), 3)
    assert grid.is_isometric()
    ray_supports = {nf.support for nf in grid.vertical}
    assert any(not (s <= set("abcd")) for s in ray_supports)


def test_is_isometric_matches_pairwise_oracle(corpus_graphs):
    rng = random.Random(1205)
    graphs = list(corpus_graphs.values())
    while len(graphs) < len(corpus_graphs) + 30:
        g = make_random_graph(rng, 7, max_order=4, name=f"FG{len(graphs)}")
        if induced_squares(g):
            graphs.append(g)
    witnesses = []
    for g in graphs:
        squares = induced_squares(g)
        for q in rng.sample(squares, min(3, len(squares))):
            d1, d2 = square_diagonals(q)
            origin = random_element(rng, g, rng.randint(0, 6))
            witnesses.append(flat_witness(g, d1, d2, rng.randint(0, 6), origin))
    assert len(witnesses) >= 60
    for grid in witnesses:
        assert grid.is_isometric() is brute_is_isometric(grid) is True
    # hand-built grids with arbitrary normal forms on both axes: mostly not
    # flat, so the walk's early exits are checked against the oracle too
    answers = []
    for _ in range(300):
        g = rng.choice(graphs)
        p, q = rng.randint(0, 4), rng.randint(0, 4)
        axis = [random_element(rng, g, rng.randint(0, 3)) for _ in range(p + q + 2)]
        grid = FlatGrid(origin=random_element(rng, g, rng.randint(0, 4)),
                        horizontal=tuple(axis[:p + 1]), vertical=tuple(axis[p + 1:]),
                        size=(p, q))
        answers.append(grid.is_isometric())
        assert answers[-1] is brute_is_isometric(grid)
    assert answers.count(False) >= 200 and answers.count(True) >= 10
    # order-3 vertices with axes u^e1 v^e2 u^e3 ..., exponents drawn from
    # {1, 2}: steps that invert exponents, and row starts that seldom
    # repeat, so most rows are walked in full.  Over a square the grids are
    # flat; over a path the same axes span no square.
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    square = SimplicialGraph("SQ_O3", list("abcd"), edges, {v: 3 for v in "abcd"})
    path = SimplicialGraph("P_O3", list("abcd"), edges[:3], {v: 3 for v in "abcd"})
    for g, sizes, want in ((square, (3, 6, 9), True), (path, (3, 6), False)):
        for size in sizes:
            axes = []
            for u, v in (("a", "c"), ("b", "d")):
                sylls = [((u, v)[k % 2], rng.randint(1, 2)) for k in range(size)]
                axes.append(tuple(reduce_word(Word(g, sylls[:k])) for k in range(size + 1)))
            grid = FlatGrid(origin=random_element(rng, g, 3), horizontal=axes[0],
                            vertical=axes[1], size=(size, size))
            assert grid.is_isometric() is brute_is_isometric(grid) is want, (g, size)


def test_is_isometric_multiplies_per_step_not_per_pair(products, corpus_graphs):
    # at size 6 (V = 49) the pairwise check made V(V-1)/2 + 2V products
    grid = flat_witness(corpus_graphs["SQ4"], ("a", "c"), ("b", "d"), 6)
    products.clear()
    assert grid.is_isometric()
    assert len(products) <= 4 * 49


def test_is_isometric_walks_each_row_start_once(monkeypatch, corpus_graphs):
    # a witness grid alternates its axes, so each column meets at most 2p
    # row starts: about size^3 pushes (4,680), where walking every start
    # took 14,196
    pushes = []
    push = words._push

    def counting_push(g, out, s):
        pushes.append(s)
        push(g, out, s)

    grid = flat_witness(corpus_graphs["SQ4"], ("a", "c"), ("b", "d"), 12)
    monkeypatch.setattr(geometry, "_push", counting_push)
    assert grid.is_isometric()
    assert len(pushes) <= 3 * 13 ** 3


# --- electrification ---------------------------------------------------------------


def test_electrified_distance_examples(corpus_graphs):
    sq4 = corpus_graphs["SQ4"]
    # the whole graph is the minsquare piece: one coset covers the group
    ball = build_ball(sq4, 2, electrified=True)
    d = ball.bfs_electrified(0)
    assert all(dd == (0 if i == 0 else 1) for i, dd in enumerate(d))

    edgew = corpus_graphs["EDGEW"]
    x = identity(edgew)
    y = rw(edgew, "w a c a c a c w")
    assert electrified_distance(x, x, 4).value == 0
    res = electrified_distance(x, y, 9)
    assert (res.value, res.radius) == (3, 9)
    # equal to its value as an int, and to another distance only at the
    # same radius
    assert res == 3 and res != 2 and int(res) == 3
    assert res == ElectrifiedDistance(3, 9) and res != ElectrifiedDistance(3, 8)
    assert repr(res) == "ElectrifiedDistance(3, radius=9)"


def test_electrified_distance_monotone_in_radius(corpus_graphs):
    edgew = corpus_graphs["EDGEW"]
    x = identity(edgew)
    y = rw(edgew, "w a c a c a c w")
    vals = [electrified_distance(x, y, r).value for r in (8, 9, 10)]
    assert vals[0] >= vals[1] >= vals[2]


def test_electrified_endpoints_must_be_in_ball(corpus_graphs):
    edgew = corpus_graphs["EDGEW"]
    with pytest.raises(ValueError):
        electrified_distance(identity(edgew), rw(edgew, "w c w"), 2)


def test_cone_edges_are_exactly_minsquare_cosets(corpus_graphs):
    rng = random.Random(11)
    for name in ("EDGEW", "DIAG", "ELEC_FALSE"):
        g = corpus_graphs[name]
        ball = build_ball(g, 3, electrified=True)
        pieces = minsquare_subgraphs(g)
        group_pairs = set()
        for gi, group in enumerate(ball.cone_groups):
            for a in group:
                for b in group:
                    if a < b:
                        group_pairs.add((a, b))
        verts = ball.verts
        for _ in range(400):
            i, j = rng.randrange(len(verts)), rng.randrange(len(verts))
            if i == j:
                continue
            a, b = min(i, j), max(i, j)
            q = multiply(invert(verts[a]), verts[b])
            in_coset = any(q.support <= m.members for m in pieces)
            assert ((a, b) in group_pairs) == in_coset


def test_is_essential(corpus_graphs):
    assert is_essential(corpus_graphs["SQ4"])
    assert not is_essential(corpus_graphs["CONE"])
    assert not is_essential(parse_graph("vertex v"))
    assert not is_essential(corpus_graphs["K4"])
