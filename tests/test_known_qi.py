"""Known quasi-isometric pairs: a graph product and the kernel of one of its
retractions onto a vertex group (`references.retraction_kernel`), a subgroup of
finite index that is again a graph product.  No invariant that `compare`
calls transported by quasi-isometry may tell such a pair apart.

The piece-type invariants (`minsquare_types`, `jinf_types`) compare pieces up
to isomorphism, which is finer than quasi-isometry, so they are left out here
until the verdict drops them (ROADMAP item 1)."""

import random
from itertools import combinations

from graphprod.corpus import CORPUS_NAMES, load
from graphprod.graphs import SimplicialGraph
from graphprod.report import compare
from graphprod.squares import _core, is_hyperbolic
from graphprod.words import identity

from references import retraction_kernel, retraction_kernel_images

PIECE_TYPES = {"minsquare_types", "jinf_types"}
MAX_KERNEL = 16


def _kernel_size(g, v):
    link = len(g.neighbors(v))
    return link + g.order(v) * (g.n - 1 - link)


def _seeded_graphs(seed, count):
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.randint(4, 8)
        verts = [f"v{i}" for i in range(n)]
        p = rng.uniform(0.3, 0.8)
        edges = [(a, b) for a, b in combinations(verts, 2) if rng.random() < p]
        orders = {u: rng.randint(2, 4) for u in verts if rng.random() < 0.4}
        out.append(SimplicialGraph(f"G{seed}_{k}", verts, edges, orders))
    return out


def _kernel_pairs(graphs):
    return [(g, v) for g in graphs for v in g.vertices
            if _kernel_size(g, v) <= MAX_KERNEL]


def _pairs():
    return _kernel_pairs([load(name) for name in CORPUS_NAMES]
                         + _seeded_graphs(0, 400))


def test_retraction_kernel_shapes(corpus_graphs):
    # a cone vertex: the kernel is the graph without it
    ker = retraction_kernel(corpus_graphs["CONE"], "w")
    assert ker.vertices == ("a", "b", "c", "d")
    assert ker.edges == corpus_graphs["SQ4"].edges
    # a free product A * B at v = A: |A| copies of B
    free = SimplicialGraph("F", "ab", (), {"a": 3, "b": 4})
    ker = retraction_kernel(free, "a")
    assert ker.vertices == ("b_0", "b_1", "b_2") and ker.edges == ()
    assert ker.orders == {"b_0": 4, "b_1": 4, "b_2": 4}
    # the square at a: lk(a) = {b, d} joined to both copies of c, a square again
    ker = retraction_kernel(corpus_graphs["SQ4"], "a")
    assert ker.vertices == ("b", "d", "c_0", "c_1")
    assert set(ker.edges) == {("b", "c_0"), ("b", "c_1"), ("d", "c_0"), ("d", "c_1")}


def test_retraction_kernel_relations():
    """Under copy k of u -> v^k u v^-k, each kernel generator has its vertex
    order exactly, lies in the kernel of the retraction, and two generators
    commute iff they are adjacent in the kernel graph."""
    pairs = _pairs()
    assert len(pairs) >= 2000
    for g, v in pairs[::4]:
        ker = retraction_kernel(g, v)
        images = retraction_kernel_images(g, v)
        assert set(images) == set(ker.vertices)
        one = identity(g)
        iv = g.index(v)
        for x, img in images.items():
            assert sum(e for u, e in img.sylls if u == iv) % g.order(v) == 0
            power = img
            for _ in range(ker.order(x) - 1):
                assert power != one, (g.name, v, x)
                power = power * img
            assert power == one, (g.name, v, x)
        for x, y in combinations(ker.vertices, 2):
            commute = images[x] * images[y] == images[y] * images[x]
            assert commute == ker.adjacent(x, y), (g.name, v, x, y)


def test_compare_never_distinguishes_a_finite_index_kernel():
    pairs = _pairs()
    fired = set()
    # graphs on which each sound invariant has a non-default value, so the
    # property is not met by every invariant reading the same on both sides
    seen = {"non-hyperbolic": 0, "join form": 0, "order-2 square": 0,
            "electrification not hyperbolic": 0}
    for g, v in pairs:
        verdict = compare(g, retraction_kernel(g, v))
        names = {name for name, _, _ in verdict.distinguishing_invariants}
        assert names <= PIECE_TYPES, (g.name, v, verdict.distinguishing_invariants)
        fired |= names
        core = _core(g)
        seen["non-hyperbolic"] += not is_hyperbolic(g)
        seen["join form"] += core.join_form
        seen["order-2 square"] += core.sc_order2_square
        seen["electrification not hyperbolic"] += not core.electrification_hyperbolic
    assert fired == PIECE_TYPES
    assert min(seen.values()) >= 10, seen
