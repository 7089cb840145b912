import copy
import random
from itertools import combinations

import pytest

import graphprod.graphs as graphs_module
from graphprod.corpus import corpus_text
from graphprod.graphs import (
    _bits,
    _universal,
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

from oracles import brute_squares
from references import brute_clique_number, lowest_bits, make_random_graph


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


def test_corpus_text_rejects_unknown_name():
    with pytest.raises(KeyError, match="no corpus graph named 'NOPE'"):
        corpus_text("NOPE")


def test_parse_basic(corpus_graphs):
    g = parse_graph(SQ4_SRC)
    assert g.name == "SQ4"
    assert g.vertices == ("a", "b", "c", "d")
    assert g.adjacent("a", "b") and not g.adjacent("a", "c")
    assert g == corpus_graphs["SQ4"]
    assert g != "SQ4" and g != SQ4_SRC
    assert repr(g) == "SimplicialGraph('SQ4', 4 vertices, 4 edges)"


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
    # orders are ASCII digits: no other decimal digits, sign or underscore
    ("vertex a order=\u0663", "order=N", 1),
    ("vertex a order=\uff13", "order=N", 1),
    ("vertex a order=+3", "order=N", 1),
    ("vertex a order=3_0", "order=N", 1),
    ("frobnicate a", "unknown directive", 1),
    ("graph A\ngraph B", "duplicate graph", 2),
    ("vertex a\ngraph B", "must come first", 2),
    ("vertex 1bad", "invalid vertex", 1),
    ("graph", "expected: graph NAME", 1),
    ("graph 1X", "invalid graph name", 1),
    ("vertex", "expected: vertex ID", 1),
    ("vertex a\nedge a", "expected: edge ID ID", 2),
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
    with pytest.raises(ValueError, match="invalid graph name"):
        SimplicialGraph("1G", ["a"])
    with pytest.raises(ValueError, match="invalid graph name"):
        SimplicialGraph(5, ["a"])
    with pytest.raises(ValueError, match="invalid vertex identifier"):
        SimplicialGraph("G", ["a", "1b"])
    with pytest.raises(ValueError, match=r"invalid vertex identifier \['b'\]"):
        SimplicialGraph("G", ["a", ["b"]], orders={"a": 3})
    with pytest.raises(ValueError, match="order given for unknown vertex 'b'"):
        SimplicialGraph("G", ["a"], orders={"b": 3})
    with pytest.raises(ValueError, match="edge endpoint 'b' undeclared"):
        SimplicialGraph("G", ["a"], [("a", "b")])
    with pytest.raises(ValueError, match="edge endpoint 'b' undeclared"):
        SimplicialGraph("G", ["a"], [("b", "a")])
    # a trailing newline is not part of an identifier: serialize_graph would
    # write text that parse_graph rejects
    with pytest.raises(ValueError, match=r"invalid graph name 'G\\n'"):
        SimplicialGraph("G\n", ["a", "b"])
    with pytest.raises(ValueError, match=r"invalid vertex identifier 'a\\n'"):
        SimplicialGraph("G", ["a\n", "b"], [("a\n", "b")])


def _random_declarations(rng):
    """(kind, a, b) declarations of a graph in the constructor's order: a
    graph line, vertices with an order or None, then edges among them.
    Six draws in seven break one rule, each of the six rules as often."""
    names = rng.sample(["a", "b", "c", "d", "f", "x_1", "_y", "Z9"], rng.randint(1, 6))
    n = len(names)
    decls = [("graph", "G", None)]
    decls += [("vertex", v, rng.choice([None, 2, 3, 5])) for v in names]
    decls += [("edge", u, v) for u, v in combinations(names, 2) if rng.random() < 0.4]
    v = rng.choice(names)
    broken = rng.choice(["none", "name", "identifier", "duplicate", "order",
                         "loop", "undeclared"])
    if broken == "name":
        decls[0] = ("graph", rng.choice(["1G", "G-1", "\u00e9"]), None)
    elif broken == "identifier":
        i = rng.randint(1, n)
        decls[i] = ("vertex", rng.choice(["1a", "a-b", "\u00fc"]), decls[i][2])
    elif broken == "duplicate":
        decls.insert(rng.randint(2, n + 1), ("vertex", v, None))
    elif broken == "order":
        i = rng.randint(1, n)
        decls[i] = ("vertex", decls[i][1], rng.choice([0, 1]))
    elif broken == "loop":
        decls.insert(rng.randint(n + 1, len(decls)), ("edge", v, v))
    elif broken == "undeclared":
        pair = rng.sample([v, "q"], 2)
        decls.insert(rng.randint(n + 1, len(decls)), ("edge", *pair))
    return decls


def test_parser_and_constructor_apply_one_rule_set():
    """On the same declarations, parse_graph and the constructor build
    equal graphs or fail with the same message, the parser's carrying the
    line of the declaration that breaks the rule."""
    rng = random.Random(2801)
    failures = 0
    for _ in range(400):
        decls = _random_declarations(rng)
        lines = [f"{kind} {a}" if b is None else
                 f"vertex {a} order={b}" if kind == "vertex" else f"{kind} {a} {b}"
                 for kind, a, b in decls]
        vertices = [a for kind, a, _ in decls if kind == "vertex"]
        orders = {a: b for kind, a, b in decls if kind == "vertex" and b is not None}
        edges = [(a, b) for kind, a, b in decls if kind == "edge"]
        try:
            parsed = parse_graph("\n".join(lines))
        except GGParseError as exc:
            parsed = exc
        try:
            built = SimplicialGraph(decls[0][1], vertices, edges, orders)
        except ValueError as exc:
            built = exc
        if isinstance(built, ValueError):
            failures += 1
            assert isinstance(parsed, GGParseError), lines
            assert getattr(built, "line", None) is None
            assert str(parsed) == f"line {parsed.line}: {built}", lines
        else:
            assert parsed == built, lines
    assert 250 < failures < 400


def test_parse_matches_each_identifier_once(monkeypatch):
    """The identifier pattern runs once per declared name, not once in the
    parser and again in the constructor."""
    matched = []
    pattern = graphs_module._ID_RE

    class Counting:
        def __getattr__(self, method):
            def counted(text, *args):
                matched.append(text)
                return getattr(pattern, method)(text, *args)
            return counted

    monkeypatch.setattr(graphs_module, "_ID_RE", Counting())
    parse_graph(SQ4_SRC)
    assert sorted(matched) == ["SQ4", "a", "b", "c", "d"]


def test_graph_is_immutable(corpus_graphs):
    g = corpus_graphs["SQ4"]
    with pytest.raises(AttributeError):
        g.name = "other"


def test_vertex_set_matches_frozenset_semantics(random_graphs_9):
    rng = random.Random(909)
    for g in random_graphs_9[:40]:
        for _ in range(5):
            a = frozenset(rng.sample(g.vertices, rng.randint(0, g.n)))
            b = frozenset(rng.sample(g.vertices, rng.randint(0, g.n)))
            sa, sb = g.subset(a), g.subset(sorted(b, reverse=True))
            assert sa.members == a and len(sa) == len(a)
            assert sa.sorted == tuple(v for v in g.vertices if v in a) == tuple(sa)
            assert all((v in sa) == (v in a) for v in g.vertices + ("zz",))
            assert (sa <= sb) == (a <= b)
            assert sa.union(sb).members == a | b
            assert sa.intersection(sb).members == a & b
            assert sa.difference(sb).members == a - b
            assert (sa == sb) == (a == b)
            assert sa == g.subset(list(a) + list(a)) and hash(sa) == hash(g.subset(a))
            assert copy.copy(sa) == sa
    g = random_graphs_9[0]
    with pytest.raises(ValueError, match="unknown vertex 'zz'"):
        g.subset(["zz"])
    with pytest.raises(AttributeError):
        g.full_set().mask = 0


def test_bits_matches_lowest_bit_reference():
    """`_bits` picks a C-speed decode for masks with many set bits and
    lowest-bit steps for the rest; either way it gives the reference's
    list.  The popcounts swept below reach past the crossover wherever the
    length allows."""
    rng = random.Random(2302)
    masks = [0] + [1 << i for i in range(601)]
    for length in (2, 8, 9, 30, 64, 150, 600, 1500):
        for count in range(1, min(length, 12 + length // 10) + 1):
            rest = rng.sample(range(length - 1), count - 1)
            masks.append(sum(1 << i for i in rest) | 1 << (length - 1))
    for _ in range(300):
        count = rng.randint(4, 300)
        length = rng.randint(count, 4 * count)
        masks.append(sum(1 << i for i in rng.sample(range(length), count)))
    for m in masks:
        got = _bits(m)
        assert type(got) is list and got == lowest_bits(m), hex(m)


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
    # four vertices that are not a 4-cycle: P4, K1,3, a triangle plus an
    # isolated vertex, and a triangle with a pendant edge (four edges)
    g = SimplicialGraph("NS", "abcdefghijklmnop", [
        ("a", "b"), ("b", "c"), ("c", "d"),
        ("e", "f"), ("e", "g"), ("e", "h"),
        ("i", "j"), ("j", "k"), ("k", "i"),
        ("m", "n"), ("n", "o"), ("o", "m"), ("o", "p")])
    for quad in ("abcd", "efgh", "ijkl", "mnop"):
        s = g.subset(quad)
        with pytest.raises(ValueError, match=f"^{{{','.join(quad)}}} does not "
                                             "induce a square$"):
            square_diagonals(s)
    # 3- and 5-element sets, including ones holding a square
    cone, k33 = corpus_graphs["CONE"], corpus_graphs["K33"]
    for s in (cone.subset("abc"), cone.subset("abw"), cone.full_set(),
              k33.subset("abx"), k33.subset("abcxy")):
        with pytest.raises(ValueError, match="^not a 4-element vertex set$"):
            square_diagonals(s)


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


def test_clique_number_with_isolated_and_universal_vertices():
    # up to 12 vertices, with isolated or universal vertices at random
    # places in the vertex order
    rng = random.Random(1212)
    graphs = [SimplicialGraph("K12", [f"v{i}" for i in range(12)],
                              combinations([f"v{i}" for i in range(12)], 2)),
              SimplicialGraph("E12", [f"v{i}" for i in range(12)], [])]
    for k in range(60):
        n = rng.randint(1, 12) if k % 3 == 0 else 12
        verts = [f"v{i}" for i in range(n)]
        p = rng.choice((0.2, 0.5, 0.8, 0.95))
        edges = {e for e in combinations(verts, 2) if rng.random() < p}
        special = rng.sample(verts, rng.randint(0, min(2, n)))
        if k % 2:
            edges = {e for e in edges if not set(e) & set(special)}
        else:
            edges |= {tuple(sorted((u, v), key=verts.index))
                      for u in special for v in verts if u != v}
        graphs.append(SimplicialGraph(f"IU{k}", verts, edges))
    for g in graphs:
        assert clique_number(g) == brute_clique_number(g)


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


def _universal_by_definition(g, mask):
    members = [v for v in range(g.n) if mask >> v & 1]
    return sum(1 << v for v in members
               if all(g._adj_bits[v] >> u & 1 for u in members if u != v))


def test_universal_matches_definition(corpus_graphs):
    rng = random.Random(1313)
    graphs = [corpus_graphs[name] for name in ("CONE", "K4", "SQ4", "C5", "K33")]
    for k in range(20):
        # the join of two random graphs: every vertex of one side adjacent
        # to every vertex of the other
        a, b = (make_random_graph(rng, 6, name=f"J{k}{side}") for side in "ab")
        verts = [f"a{v}" for v in a.vertices] + [f"b{v}" for v in b.vertices]
        edges = [(f"a{u}", f"a{v}") for u, v in a.edges]
        edges += [(f"b{u}", f"b{v}") for u, v in b.edges]
        edges += [(f"a{u}", f"b{v}") for u in a.vertices for v in b.vertices]
        graphs += [SimplicialGraph(f"J{k}", verts, edges), a]
    full_hits = 0
    for g in graphs:
        full = (1 << g.n) - 1
        masks = [full, 0] + [rng.randrange(1 << g.n) for _ in range(6)]
        for mask in masks:
            assert _universal(g, mask) == _universal_by_definition(g, mask)
        full_hits += _universal(g, full) != 0
    assert 10 < full_hits < len(graphs)


def test_is_star_of_vertex(corpus_graphs):
    sq4, cone = corpus_graphs["SQ4"], corpus_graphs["CONE"]
    assert not is_star_of_vertex(sq4.full_set())
    assert is_star_of_vertex(cone.full_set())
    assert is_star_of_vertex(sq4.subset({"a"}))
    assert not is_star_of_vertex(sq4.subset(set()))
