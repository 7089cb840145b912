import copy
import os
import pickle
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from graphprod.geometry import build_ball, electrified_distance, hyperplane_of_edge
from graphprod.graphs import GraphMismatchError, SimplicialGraph, parse_graph
from graphprod.words import (
    Word,
    _coset_prefix,
    _split_suffix,
    WordParseError,
    format_word,
    generator,
    head,
    identity,
    invert,
    multiply,
    parabolic_membership,
    parse_word,
    project_to_parabolic,
    reduce_word,
    strip_suffix,
)

from references import brute_canonical, brute_reduce, brute_split_suffix, make_random_graph


def rw(g, text):
    return reduce_word(parse_word(g, text))


# --- parsing and formatting ---------------------------------------------------


def test_parse_word(corpus_graphs):
    sq4 = corpus_graphs["SQ4"]
    w = parse_word(sq4, "a b^1 c")
    assert [s.vertex for s in w.syllables] == ["a", "b", "c"]
    assert parse_word(sq4, "e").syllables == ()
    with pytest.raises(WordParseError):
        parse_word(sq4, "zz")
    # the constructor checks the vertices, for parse_word and every caller
    with pytest.raises(WordParseError, match="unknown vertex 'zz'"):
        Word(sq4, [("a", 1), ("zz", 1)])
    with pytest.raises(WordParseError):
        parse_word(sq4, "a^2")  # order 2: exponents live in [0, 2)
    with pytest.raises(WordParseError):
        parse_word(sq4, "a^x")
    v3 = parse_graph("vertex v order=3")
    # exponents are ASCII digits; int() read the first four as 1, 1, 1, 11
    for tok in ("v^+1", "v^\u0661", "v^\uff11", "v^1_1", "v^-1", "v^"):
        with pytest.raises(WordParseError, match="bad exponent in token"):
            parse_word(v3, tok)
    assert rw(v3, "v^2 v^2").sylls == ((0, 1),)
    # unreduced words are equal and hash alike exactly when their syllables
    # and graphs are
    assert w == parse_word(sq4, "a b c") and hash(w) == hash(parse_word(sq4, "a b c"))
    assert w != parse_word(sq4, "a c b") and w != "a b c"
    assert w != parse_word(corpus_graphs["C5"], "a b c")
    assert repr(w) == "Word('a b c')"


def test_format_roundtrip(corpus_graphs):
    sq4 = corpus_graphs["SQ4"]
    for text in ("e", "a", "a b", "a c a"):
        assert format_word(rw(sq4, text)) == text


def _graphs_with_vertex_e(rng, count):
    """Seeded random graphs on 3..7 vertices, one of them named e, declared
    in shuffled order, about a third of the vertices with order 3 or 4."""
    out = []
    for k in range(count):
        verts = rng.sample("abcdfgh", rng.randint(2, 6)) + ["e"]
        rng.shuffle(verts)
        edges = [(u, v) for u, v in combinations(verts, 2) if rng.random() < 0.5]
        orders = {v: rng.randint(3, 4) for v in verts if rng.random() < 0.3}
        out.append(SimplicialGraph(f"E{k}", verts, edges, orders))
    return out


def test_format_parse_roundtrip_every_ball_vertex(corpus_graphs):
    # "e" alone is the empty word, so a syllable at a vertex named e must be
    # written e^1 to read back
    graphs = list(corpus_graphs.values()) + _graphs_with_vertex_e(random.Random(5150), 30)
    assert sum("e" in g.vertices for g in graphs) >= 32
    for g in graphs:
        for x in build_ball(g, 2).verts:
            text = format_word(x)
            assert reduce_word(parse_word(g, text)) == x, (g.name, text)
    c5 = corpus_graphs["C5"]
    assert format_word(rw(c5, "e^1")) == "e^1"
    assert format_word(rw(c5, "a e")) == "a"
    assert format_word(rw(c5, "a e^1")) == "a e^1"


# --- reduction ------------------------------------------------------------------


def test_reduce_examples(corpus_graphs):
    sq4 = corpus_graphs["SQ4"]
    assert rw(sq4, "a a") == identity(sq4)
    assert format_word(rw(sq4, "b a")) == "a b"
    assert rw(sq4, "a c a").length == 3
    v3 = parse_graph("vertex v order=3")
    assert format_word(rw(v3, "v^1 v^1")) == "v^2"
    assert generator(sq4, "b") == reduce_word(Word(sq4, [("b", 1)]))
    assert generator(v3, "v", 2) == reduce_word(Word(v3, [("v", 2)]))


def test_reduce_zero_exponent_cancels(corpus_graphs):
    sq4 = corpus_graphs["SQ4"]
    assert rw(sq4, "a^0") == identity(sq4)
    assert format_word(rw(sq4, "a b^0 c")) == "a c"


def test_reduce_shuffled_cancellation():
    g = parse_graph("graph G\nvertex a\nvertex b\nvertex c\n"
                    "edge a b\nedge b c")
    # a commutes with b, so b a b collapses
    assert format_word(rw(g, "b a b")) == "a"
    # a and c do not commute: the middle collapses but c..c survives
    assert format_word(rw(g, "c b a b c")) == "c a c"
    assert format_word(rw(g, "c b c b a")) == "a"


def test_reduce_idempotent_random():
    rng = random.Random(4242)
    for k in range(200):
        g = make_random_graph(rng, 8, max_order=4, name=f"W{k}")
        for _ in range(5):
            sylls = [(rng.choice(g.vertices), 0) for _ in range(rng.randint(0, 12))]
            sylls = [(v, rng.randint(0, g.order(v) - 1)) for v, _ in sylls]
            nf = reduce_word(Word(g, sylls))
            assert reduce_word(nf.word) == nf


def test_canonical_form_is_least_in_class(corpus_graphs):
    # canonicity: re-reducing after any single legal shuffle returns the
    # same normal form, and support and length never change
    rng = random.Random(7)
    for k in range(150):
        g = make_random_graph(rng, 7, max_order=3, name=f"C{k}")
        sylls = [(rng.choice(g.vertices), 1) for _ in range(rng.randint(2, 10))]
        nf = reduce_word(Word(g, [(v, min(e, g.order(v) - 1)) for v, e in sylls]))
        base = list(nf.syllables)
        for i in range(len(base) - 1):
            u, v = base[i].vertex, base[i + 1].vertex
            if u != v and g.adjacent(u, v):
                shuffled = base[:i] + [base[i + 1], base[i]] + base[i + 2:]
                again = reduce_word(Word(g, shuffled))
                assert again == nf
                assert again.support == nf.support
                assert again.length == nf.length


def test_random_shuffles_preserve_class():
    rng = random.Random(13)
    for k in range(60):
        g = make_random_graph(rng, 7, name=f"S{k}")
        sylls = [(v, rng.randint(1, g.order(v) - 1))
                 for v in (rng.choice(g.vertices) for _ in range(8))]
        nf = reduce_word(Word(g, sylls))
        word = list(nf.syllables)
        for _ in range(30):
            if len(word) < 2:
                break
            i = rng.randrange(len(word) - 1)
            u, v = word[i].vertex, word[i + 1].vertex
            if u != v and g.adjacent(u, v):
                word[i], word[i + 1] = word[i + 1], word[i]
        assert reduce_word(Word(g, word)) == nf


def test_alternating_words_do_not_collapse(corpus_graphs):
    # negative control: for non-adjacent u, v the word (uv)^n is geodesic
    sq4 = corpus_graphs["SQ4"]
    for n in range(1, 9):
        w = Word(sq4, [("a", 1), ("c", 1)] * n)
        assert reduce_word(w).length == 2 * n


# --- group operations -------------------------------------------------------------


def test_multiply_invert_examples(corpus_graphs):
    sq4 = corpus_graphs["SQ4"]
    a = rw(sq4, "a")
    assert multiply(a, a) == identity(sq4)
    # a, c non-adjacent: the inverse reverses and cannot shuffle back
    assert format_word(invert(rw(sq4, "a c"))) == "c a"
    assert format_word(~rw(sq4, "a c")) == "c a"
    v3 = parse_graph("vertex v order=3")
    assert format_word(invert(rw(v3, "v"))) == "v^2"


def test_group_axioms_random():
    rng = random.Random(1001)
    graphs = [make_random_graph(rng, 7, max_order=4, name=f"G{k}") for k in range(20)]
    count = 0
    while count < 500:
        g = graphs[count % len(graphs)]
        def rand_nf():
            sylls = [(v, rng.randint(1, g.order(v) - 1))
                     for v in (rng.choice(g.vertices) for _ in range(rng.randint(0, 8)))]
            return reduce_word(Word(g, sylls))
        x, y, z = rand_nf(), rand_nf(), rand_nf()
        assert multiply(x, invert(x)) == identity(g)
        assert multiply(invert(x), x) == identity(g)
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
        assert multiply(x, identity(g)) == x
        count += 1


def test_graph_mismatch_raises(corpus_graphs):
    sq4, c5 = corpus_graphs["SQ4"], corpus_graphs["C5"]
    with pytest.raises(GraphMismatchError):
        multiply(identity(sq4), identity(c5))
    with pytest.raises(GraphMismatchError):
        parabolic_membership(identity(sq4), c5.full_set())
    with pytest.raises(GraphMismatchError):
        head(identity(sq4), c5.full_set())
    with pytest.raises(GraphMismatchError):
        electrified_distance(identity(sq4), identity(c5), 1)
    with pytest.raises(GraphMismatchError):
        strip_suffix(identity(sq4), c5.full_set())
    with pytest.raises(GraphMismatchError):
        project_to_parabolic(identity(sq4), identity(sq4), c5.full_set())
    a, b = sq4.full_set(), c5.full_set()
    for op in (a.union, a.intersection, a.difference, a.__le__):
        with pytest.raises(GraphMismatchError):
            op(b)


# --- membership, head, projection ---------------------------------------------------


def test_parabolic_membership(corpus_graphs):
    sq4 = corpus_graphs["SQ4"]
    assert parabolic_membership(rw(sq4, "a c"), sq4.subset({"a", "c"}))
    assert not parabolic_membership(rw(sq4, "a b"), sq4.subset({"a", "c"}))
    assert parabolic_membership(identity(sq4), sq4.subset(set()))


def test_head_examples(corpus_graphs):
    sq4 = corpus_graphs["SQ4"]
    hd, tl = head(rw(sq4, "a b"), sq4.subset({"a"}))
    assert (format_word(hd), format_word(tl)) == ("a", "b")
    # a and c both shuffle past b
    hd, tl = head(rw(sq4, "b a c"), sq4.subset({"a", "c"}))
    assert (format_word(hd), format_word(tl)) == ("a c", "b")
    x = rw(sq4, "b a c a")
    hd, tl = head(x, sq4.full_set())
    assert hd == x and tl == identity(sq4)


def test_head_contract_random():
    rng = random.Random(52)
    for k in range(120):
        g = make_random_graph(rng, 7, max_order=3, name=f"H{k}")
        s = g.subset({v for v in g.vertices if rng.random() < 0.5})
        sylls = [(v, rng.randint(1, g.order(v) - 1))
                 for v in (rng.choice(g.vertices) for _ in range(rng.randint(0, 9)))]
        x = reduce_word(Word(g, sylls))
        hd, tl = head(x, s)
        assert multiply(hd, tl) == x
        assert hd.support <= s.members
        assert hd.length + tl.length == x.length
        # greedy fixed point: nothing s-supported can be pulled off the tail
        hd2, _ = head(tl, s)
        assert hd2 == identity(g)


def test_strip_suffix_is_min_coset_representative(corpus_graphs):
    rng = random.Random(88)
    sq4 = corpus_graphs["SQ4"]
    for g in [sq4, corpus_graphs["EDGEW"], corpus_graphs["K33"]]:
        verts = list(g.vertices)
        for _ in range(60):
            s = g.subset({v for v in verts if rng.random() < 0.5})
            sylls = [(v, rng.randint(1, g.order(v) - 1))
                     for v in (rng.choice(verts) for _ in range(rng.randint(0, 6)))]
            x = reduce_word(Word(g, sylls))
            rep, suf = strip_suffix(x, s)
            assert multiply(rep, suf) == x
            assert suf.support <= s.members
            assert rep.length + suf.length == x.length
            # mirrored fixed point
            _, suf2 = strip_suffix(rep, s)
            assert suf2 == identity(g)


def test_split_suffix_early_stop_matches_full_scan():
    # every vertex mask, the empty and the full one included
    rng = random.Random(89)
    for k in range(40):
        g = make_random_graph(rng, 7, max_order=4, name=f"SS{k}")
        for length in (0, 3, 12, 40):
            sylls = [(v, rng.randint(1, g.order(v) - 1))
                     for v in (rng.choice(g.vertices) for _ in range(length))]
            x = reduce_word(Word(g, sylls)).sylls
            for mask in range(1 << g.n):
                pre, suf = _split_suffix(g, x, mask)
                full_pre, full_suf = brute_split_suffix(g, x, mask)
                assert (pre, suf) == (tuple(full_pre), full_suf)
                assert _coset_prefix(g, x, mask) == pre


def test_projection_examples(corpus_graphs):
    sq4 = corpus_graphs["SQ4"]
    x = rw(sq4, "b a c")
    assert format_word(project_to_parabolic(x, identity(sq4), sq4.subset("ac"))) == "a c"
    # member of the coset projects to itself
    m = rw(sq4, "a c")
    assert project_to_parabolic(m, identity(sq4), sq4.subset("ac")) == m
    # empty parabolic: unique coset point
    assert project_to_parabolic(x, identity(sq4), sq4.subset(set())) == identity(sq4)


def test_normal_form_hashing(corpus_graphs):
    sq4 = corpus_graphs["SQ4"]
    seen = {rw(sq4, "a b"), rw(sq4, "b a"), rw(sq4, "a c")}
    assert len(seen) == 2


# --- differential test against the brute-force re-sort -------------------------------


def _brute_nf(g, sylls):
    return tuple(brute_canonical(g, brute_reduce(g, list(sylls))))


def _subsequence_of(part, x):
    """The syllables of `part` must be tuple objects of x, in x's order; the
    canonical order of that subsequence is what `part` must hold."""
    ids = {id(sy) for sy in part.sylls}
    assert len(ids) == part.length
    picked = [sy for sy in x.sylls if id(sy) in ids]
    assert len(picked) == part.length
    return tuple(brute_canonical(part.graph, picked))


def _geodesic_word(g, rng, length):
    """A raw word of up to `length` syllables with no reduction at all: each
    random syllable is kept only if it makes the element longer."""
    word, x = [], identity(g)
    for _ in range(4 * length):
        if len(word) == length:
            break
        v = rng.choice(g.vertices)
        syl = (v, rng.randint(1, g.order(v) - 1))
        y = multiply(x, reduce_word(Word(g, [syl])))
        if y.length > x.length:
            word.append(syl)
            x = y
    return word


def test_canonical_forms_match_brute_oracle():
    # raw random words exercise cancellation and amalgamation, geodesic words
    # the long forms (up to 120 syllables) of the ball workload
    rng = random.Random(3141)
    for k in range(24):
        g = make_random_graph(rng, 8, max_order=4, name=f"B{k}")
        ix, ords = g._index, g._orders_ix
        raw = [[(v, rng.randint(0, g.order(v) - 1))
                for v in (rng.choice(g.vertices) for _ in range(rng.randint(0, 120)))]
               for _ in range(2)]
        words = raw + [_geodesic_word(g, rng, rng.randint(0, 120)) for _ in range(2)]
        elts = []
        for w in words:
            x = reduce_word(Word(g, w))
            assert x.sylls == _brute_nf(g, [(ix[v], e) for v, e in w])
            elts.append(x)
        for x, y in zip(elts, elts[1:] + elts[:1]):
            assert multiply(x, y).sylls == _brute_nf(g, x.sylls + y.sylls)
            inv = [(v, ords[v] - e) for v, e in reversed(x.sylls)]
            assert invert(x).sylls == _brute_nf(g, inv)
            s = g.subset({v for v in g.vertices if rng.random() < 0.5})
            for split in (head, strip_suffix):
                first, second = split(x, s)
                assert first.sylls == _subsequence_of(first, x)
                assert second.sylls == _subsequence_of(second, x)
                assert first.length + second.length == x.length
            hd, _ = head(multiply(invert(y), x), s)
            assert project_to_parabolic(x, y, s).sylls == _brute_nf(g, y.sylls + hd.sylls)


# --- properties (hypothesis) -------------------------------------------------------------

_PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=150,
                              deadline=None)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 6))
    verts = [f"v{i}" for i in range(n)]
    pairs = list(combinations(verts, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    orders = {v: draw(st.integers(2, 4)) for v in verts}
    return SimplicialGraph("P", verts, [p for p, k in zip(pairs, keep) if k], orders)


def _raw_words(g, max_len=16):
    syll = st.tuples(st.sampled_from(g.vertices), st.integers(0, 3))
    return st.lists(syll, max_size=max_len).map(
        lambda sylls: [(v, e % g.order(v)) for v, e in sylls])


def _elements(draw, g):
    return reduce_word(Word(g, draw(_raw_words(g))))


@_PROPERTY_SETTINGS
@given(st.data())
def test_group_axioms_property(data):
    g = data.draw(small_graphs())
    x, y, z = (_elements(data.draw, g) for _ in range(3))
    e = identity(g)
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
    assert multiply(x, e) == x == multiply(e, x)
    assert multiply(x, ~x) == e == multiply(~x, x)


@_PROPERTY_SETTINGS
@given(st.data())
def test_reduce_of_normal_form_word_property(data):
    g = data.draw(small_graphs())
    nf = _elements(data.draw, g)
    assert reduce_word(nf.word) == nf


@_PROPERTY_SETTINGS
@given(st.data())
def test_commuting_transposition_keeps_normal_form_property(data):
    g = data.draw(small_graphs())
    word = data.draw(_raw_words(g))
    swaps = [i for i in range(len(word) - 1)
             if word[i][0] != word[i + 1][0] and g.adjacent(word[i][0], word[i + 1][0])]
    if not swaps:
        return
    i = data.draw(st.sampled_from(swaps))
    swapped = word[:i] + [word[i + 1], word[i]] + word[i + 2:]
    assert reduce_word(Word(g, swapped)) == reduce_word(Word(g, word))


# --- copying and pickling -----------------------------------------------------


def _mixed_graph():
    return SimplicialGraph("MIX", ["a", "b", "c", "d"],
                           [("a", "b"), ("b", "c"), ("c", "d")], {"b": 3, "d": 4})


def test_copy_and_pickle_round_trip():
    g = _mixed_graph()
    objects = [g, g.subset(["b", "d"]), rw(g, "a b^2 d^3 c a"),
               hyperplane_of_edge(rw(g, "a b^2 d^3 c a"), "b")]
    for obj in objects:
        for clone in (copy.copy(obj), copy.deepcopy(obj),
                      pickle.loads(pickle.dumps(obj))):
            assert type(clone) is type(obj)
            assert clone == obj and hash(clone) == hash(obj)
    clone = pickle.loads(pickle.dumps(g))
    assert (clone.vertices, clone.edges, clone.orders) == (g.vertices, g.edges, g.orders)
    assert multiply(pickle.loads(pickle.dumps(objects[2])), objects[2]) == \
        multiply(objects[2], objects[2])


def test_normal_form_hashes_on_first_use():
    # a ball indexes its vertices by their syllables, so a build hashes none
    # of them; once hashed, equal normal forms from every source hash equal
    # and find each other
    g = _mixed_graph()
    build_ball.cache_clear()
    ball = build_ball(g, 3)
    assert not any(hasattr(v, "_hash") for v in ball.verts)
    x = rw(g, "a b^2 d^3")
    forms = [ball.verts[ball.index_of(x)], x,
             reduce_word(Word(g, [("b", 2), ("a", 1), ("d", 3)])),
             multiply(rw(g, "a b"), rw(g, "b d^3")),
             copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]
    assert len({id(y) for y in forms}) == len(forms)
    assert len({hash(y) for y in forms}) == 1
    for y in forms:
        table, members = {y: "found"}, {y}
        assert all(table[z] == "found" and z in members for z in forms)


def test_unpickled_normal_form_hashes_in_another_process():
    # the hash is recomputed on unpickling, so a normal form pickled under one
    # PYTHONHASHSEED is found as a dict key in a process with another
    x = rw(_mixed_graph(), "a b^2 d^3 c a")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = (
        "import pickle, sys\n"
        "from graphprod.graphs import SimplicialGraph\n"
        "from graphprod.words import parse_word, reduce_word\n"
        "g = SimplicialGraph('MIX', ['a', 'b', 'c', 'd'],\n"
        "                    [('a', 'b'), ('b', 'c'), ('c', 'd')], {'b': 3, 'd': 4})\n"
        "x = reduce_word(parse_word(g, 'a b^2 d^3 c a'))\n"
        "assert hash(x) != int(sys.argv[1]), 'same hash seed in both processes'\n"
        "y = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
        "print({x: 'found'}[y])\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code, str(hash(x))],
                         input=pickle.dumps(x).hex(), capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src),
                                             PYTHONHASHSEED=seed))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "found"
