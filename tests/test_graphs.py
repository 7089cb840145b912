import random
from itertools import combinations

import pytest

from graphprod.graphs import (
    GGParseError,
    SimplicialGraph,
    clique_number,
    core_decomposition,
    induced_squares,
    is_complete,
    is_star_of_vertex,
    link,
    parse_graph,
    serialize_graph,
    square_diagonals,
    star,
)

from oracles import brute_clique_number, brute_squares, make_random_graph


# --- parsing ----------------------------------------------------------------

SQ4_SRC = """\
graph SQ4
vertex a
vertex b
vertex c
vertex d
edge a b
edge b c
edge c d
edge d a
"""


def test_parse_basic(corpus_graphs):
    g = parse_graph(SQ4_SRC)
    assert g.name == "SQ4"
    assert g.vertices == ("a", "b", "c", "d")
    assert g.adjacent("a", "b") and not g.adjacent("a", "c")
    assert g == corpus_graphs["SQ4"]


def test_parse_order_readback():
    g = parse_graph("vertex a order=3")
    assert g.order("a") == 3
    assert g.order("a") != 2


def test_parse_comments_and_blank_lines():
    g = parse_graph("# leading comment\n\ngraph X\nvertex a  # trailing\nvertex b\nedge a b\n")
    assert g.adjacent("a", "b")


@pytest.mark.parametrize("src,fragment,line", [
    ("vertex a\nedge a a", "self-loop", 2),
    ("vertex a\nvertex a", "duplicate vertex", 2),
    ("vertex a\nedge a b", "undeclared", 2),
    ("vertex a order=1", "order 1 < 2", 1),
    ("vertex a order=x", "order=N", 1),
    ("frobnicate a", "unknown directive", 1),
    ("graph A\ngraph B", "duplicate graph", 2),
    ("vertex a\ngraph B", "must come first", 2),
    ("vertex 1bad", "invalid vertex", 1),
])
def test_parse_errors(src, fragment, line):
    with pytest.raises(GGParseError) as exc:
        parse_graph(src)
    assert fragment in str(exc.value)
    assert exc.value.line == line


def test_roundtrip_stability(corpus_graphs):
    for g in corpus_graphs.values():
        text = serialize_graph(g)
        assert parse_graph(text) == g
        assert serialize_graph(parse_graph(text)) == text


def test_roundtrip_random():
    rng = random.Random(5)
    for k in range(50):
        g = make_random_graph(rng, 9, max_order=5, name=f"RT{k}")
        assert parse_graph(serialize_graph(g)) == g


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        SimplicialGraph("G", ["a", "a"])
    with pytest.raises(ValueError):
        SimplicialGraph("G", ["a"], [("a", "a")])
    with pytest.raises(ValueError):
        SimplicialGraph("G", ["a", "b"], orders={"a": 1})


def test_graph_is_immutable(corpus_graphs):
    g = corpus_graphs["SQ4"]
    with pytest.raises(AttributeError):
        g.name = "other"


# --- link / star / completeness ----------------------------------------------


def test_link_examples(corpus_graphs):
    sq4, k4 = corpus_graphs["SQ4"], corpus_graphs["K4"]
    assert link(sq4, "a").members == {"b", "d"}
    assert star(sq4, "a").members == {"a", "b", "d"}
    assert link(k4, "a").members == {"b", "c", "d"}
    lonely = SimplicialGraph("L", ["a", "b"], [])
    assert link(lonely, "a").members == set()
    with pytest.raises(ValueError):
        link(sq4, "zz")


def test_is_complete(corpus_graphs):
    sq4 = corpus_graphs["SQ4"]
    assert is_complete(sq4.subset({"a", "b"}))
    assert not is_complete(sq4.subset({"a", "c"}))
    assert is_complete(sq4.subset(set()))
    assert is_complete(sq4.subset({"a"}))
    assert is_complete(corpus_graphs["K4"].full_set())


# --- squares ------------------------------------------------------------------


def test_square_examples(corpus_graphs):
    assert [q.members for q in induced_squares(corpus_graphs["SQ4"])] == \
        [{"a", "b", "c", "d"}]
    assert induced_squares(corpus_graphs["C5"]) == ()
    assert induced_squares(corpus_graphs["K4"]) == ()
    # complete bipartite 3+3: one square per pair-of-pairs choice
    assert len(induced_squares(corpus_graphs["K33"])) == \
        len(brute_squares(corpus_graphs["K33"])) == 9


def test_squares_match_bruteforce(corpus_graphs, random_graphs_9):
    for g in list(corpus_graphs.values()) + random_graphs_9:
        got = {q.members for q in induced_squares(g)}
        assert got == brute_squares(g)


def test_square_enumeration_order_matches_oracle(random_graphs_9):
    # up to 16 vertices: lexicographic by sorted index tuple
    for g in random_graphs_9:
        want = sorted(brute_squares(g), key=lambda q: sorted(map(g.index, q)))
        assert [q.members for q in induced_squares(g)] == want
    # above 16 vertices: ascending vertex bitmask
    rng = random.Random(1730)
    for n in range(17, 31):
        for p in (0.3, 0.7):
            verts = [f"v{i}" for i in range(n)]
            g = SimplicialGraph(f"M{n}", verts, [
                e for e in combinations(verts, 2) if rng.random() < p])
            want = sorted(brute_squares(g), key=lambda q: sum(1 << g.index(v) for v in q))
            assert [q.members for q in induced_squares(g)] == want


def test_square_diagonals(corpus_graphs, random_graphs_9):
    for g in list(corpus_graphs.values()) + random_graphs_9[:60]:
        for q in induced_squares(g):
            d1, d2 = square_diagonals(q)
            assert set(d1) | set(d2) == q.members
            assert not g.adjacent(*d1) and not g.adjacent(*d2)
            for u in d1:
                for v in d2:
                    assert g.adjacent(u, v)
    with pytest.raises(ValueError):
        square_diagonals(corpus_graphs["K4"].full_set())


# --- cliques ------------------------------------------------------------------


def test_clique_number(corpus_graphs):
    assert clique_number(corpus_graphs["SQ4"]) == 2
    assert clique_number(corpus_graphs["K4"]) == 4
    assert clique_number(corpus_graphs["CONE"]) == 3
    assert clique_number(SimplicialGraph("E", [], [])) == 0


def test_clique_number_matches_bruteforce(random_graphs_9):
    for g in random_graphs_9:
        assert clique_number(g) == brute_clique_number(g)


def test_clique_number_deep_search_needs_no_recursion():
    g = SimplicialGraph("EMPTY1200", [f"v{i}" for i in range(1200)], [])
    assert clique_number(g) == 1


# --- core decomposition ---------------------------------------------------------


def test_core_decomposition_examples(corpus_graphs):
    sq4, k4, cone = (corpus_graphs[n] for n in ("SQ4", "K4", "CONE"))
    lam0, lam1 = core_decomposition(sq4.full_set())
    assert (lam0.members, lam1.members) == ({"a", "b", "c", "d"}, set())
    lam0, lam1 = core_decomposition(k4.full_set())
    assert (lam0.members, lam1.members) == (set(), {"a", "b", "c", "d"})
    lam0, lam1 = core_decomposition(cone.full_set())
    assert (lam0.members, lam1.members) == ({"a", "b", "c", "d"}, {"w"})


def test_core_decomposition_properties(corpus_graphs, random_graphs_9):
    from graphprod.graphs import is_complete as ic
    for g in list(corpus_graphs.values()) + random_graphs_9[:80]:
        s = g.full_set()
        lam0, lam1 = core_decomposition(s)
        assert lam0.members | lam1.members == s.members
        assert not lam0.members & lam1.members
        assert ic(lam1)
        for u in lam0:
            for v in lam1:
                assert g.adjacent(u, v)
        # fixed point: the core has no universal vertex left
        again0, again1 = core_decomposition(lam0)
        assert again0 == lam0 and len(again1) == 0


def test_is_star_of_vertex(corpus_graphs):
    sq4, cone = corpus_graphs["SQ4"], corpus_graphs["CONE"]
    assert not is_star_of_vertex(sq4.full_set())
    assert is_star_of_vertex(cone.full_set())
    assert is_star_of_vertex(sq4.subset({"a"}))
    assert not is_star_of_vertex(sq4.subset(set()))
