import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from graphprod import isomorphism
from graphprod.graphs import SimplicialGraph
from graphprod.isomorphism import MAX_EXACT_VERTICES, canonical_key
from graphprod.relhyp import jinf
from graphprod.squares import minsquare_subgraphs

from references import brute_canonical_key, dict_piece, make_random_graph
from test_output_digest import digest_graphs


def complete_bipartite(m, n):
    left = [f"l{i}" for i in range(m)]
    right = [f"r{j}" for j in range(n)]
    return SimplicialGraph("K", left + right, [(u, w) for u in left for w in right])


def cycle(n):
    verts = [f"v{i}" for i in range(n)]
    return SimplicialGraph("C", verts, [(verts[i], verts[(i + 1) % n]) for i in range(n)])


def edgeless(n):
    return SimplicialGraph("E", [f"v{i}" for i in range(n)])


def complete(n):
    verts = [f"v{i}" for i in range(n)]
    return SimplicialGraph("Q", verts, list(combinations(verts, 2)))


def _mixed_orders(rng, verts):
    return {v: rng.randint(2, 3) for v in verts if rng.random() < 0.5}


def _sparse_graph(rng, name, n):
    verts = [f"v{i}" for i in range(n)]
    edges = set()
    m = int(n * rng.uniform(1, 3))  # mean degree 2..6
    while len(edges) < m:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    orders = {v: rng.randint(2, 3) for v in verts if rng.random() < 0.3}
    return SimplicialGraph(name, verts, [(verts[a], verts[b]) for a, b in sorted(edges)],
                           orders)


# --- piece shapes -----------------------------------------------------------------


def test_piece_matches_dict_reference():
    """`_piece` numbers a member by the popcount of the piece mask below it;
    the dict-based version it replaced is the reference, on every minsquare
    piece and `jinf` member of the digest graphs and of seeded sparse
    graphs."""
    rng = random.Random(2303)
    graphs = digest_graphs() + [_sparse_graph(rng, f"S{k}", rng.randint(100, 200))
                                for k in range(20)]
    pieces = [p for g in graphs for p in minsquare_subgraphs(g) + jinf(g).members]
    # whole-graph members of up to 200 vertices decode their masks at C speed
    assert len(pieces) > 1000 and max(len(p) for p in pieces) > 100
    for p in pieces:
        assert isomorphism._piece(p) == dict_piece(p), p


# --- the pruned search against the unpruned one ---------------------------------


def test_canonical_key_matches_brute_oracle():
    rng = random.Random(5551)
    pieces = [make_random_graph(rng, 8, max_order=3, name=f"R{k}").full_set()
              for k in range(300)]
    families = ([complete_bipartite(m, n) for m in range(1, 5) for n in range(m, 5)]
                + [cycle(n) for n in range(3, 9)]
                + [edgeless(n) for n in range(1, 7)]
                + [complete(n) for n in range(1, 7)])
    for g in families:
        pieces.append(g.full_set())
        mixed = SimplicialGraph(g.name, g.vertices, g.edges, _mixed_orders(rng, g.vertices))
        pieces.append(mixed.full_set())
    sparse = []
    for k in range(12):
        g = _sparse_graph(rng, f"S{k}", rng.randint(100, 200))
        sparse += [p for p in minsquare_subgraphs(g) + jinf(g).members
                   if len(p) <= MAX_EXACT_VERTICES]
    assert len(sparse) > 500 and max(len(p) for p in sparse) > 6
    pieces += sparse
    for p in pieces:
        assert canonical_key(p) == brute_canonical_key(p), p
    with pytest.raises(ValueError, match="piece too large"):
        canonical_key(edgeless(MAX_EXACT_VERTICES + 1).full_set())


# --- the factorial cliff --------------------------------------------------------

# Unpruned, both pieces below take over 100,000 refinements; with automorphism
# pruning K6,6 takes 156 and the edgeless graph 298.
REFINE_BUDGET = 2_000


@pytest.mark.parametrize("g", [complete_bipartite(6, 6), edgeless(12)],
                         ids=["K6,6", "edgeless12"])
def test_symmetric_pieces_at_the_cap_stay_polynomial(monkeypatch, g):
    assert g.n == MAX_EXACT_VERTICES
    real = isomorphism._refine
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > REFINE_BUDGET:
            raise AssertionError(f"more than {REFINE_BUDGET} refinements")
        return real(*args)

    monkeypatch.setattr(isomorphism, "_refine", counted)
    orders, bits = canonical_key(g.full_set())
    assert orders == (2,) * g.n
    assert bits.bit_count() == len(g.edges)
    # interleaving the vertices relabels the graph; the key must not move
    shuffled = SimplicialGraph(g.name, g.vertices[::2] + g.vertices[1::2], g.edges)
    assert canonical_key(shuffled.full_set()) == (orders, bits)


# --- properties (hypothesis) ----------------------------------------------------

_PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=150,
                              deadline=None)


@st.composite
def labelled_graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    verts = [f"v{i}" for i in range(n)]
    pairs = list(combinations(verts, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    orders = {v: draw(st.integers(2, 4)) for v in verts}
    return SimplicialGraph("P", verts, [p for p, k in zip(pairs, keep) if k], orders)


def _relabelled(g, order):
    return SimplicialGraph(g.name, order, g.edges, g.orders)


def _isomorphic(g, h):
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    for image in permutations(h.vertices):
        f = dict(zip(g.vertices, image))
        if all(g.order(v) == h.order(f[v]) for v in g.vertices) and \
                all(h.adjacent(f[u], f[v]) for u, v in g.edges):
            return True
    return False


@_PROPERTY_SETTINGS
@given(st.data())
def test_canonical_key_ignores_declaration_order_property(data):
    g = data.draw(labelled_graphs(7))
    order = data.draw(st.permutations(g.vertices))
    assert canonical_key(_relabelled(g, order).full_set()) == canonical_key(g.full_set())


@_PROPERTY_SETTINGS
@given(st.data())
def test_canonical_key_equal_iff_isomorphic_property(data):
    g = data.draw(labelled_graphs(5))
    # half the time a relabelled copy with at most one edit, so both
    # outcomes are drawn often
    if data.draw(st.booleans()):
        h = data.draw(labelled_graphs(5))
    else:
        order = data.draw(st.permutations(g.vertices))
        edges = set(g.edges)
        orders = g.orders
        edit = data.draw(st.sampled_from(["none", "edge", "order"]))
        if edit == "edge" and g.n > 1:
            # g.edges lists each pair in declaration order, as combinations does
            edges ^= {data.draw(st.sampled_from(list(combinations(g.vertices, 2))))}
        elif edit == "order":
            v = data.draw(st.sampled_from(g.vertices))
            orders = {**orders, v: data.draw(st.integers(2, 4))}
        h = SimplicialGraph("P", order, sorted(edges), orders)
    same = canonical_key(g.full_set()) == canonical_key(h.full_set())
    assert same == _isomorphic(g, h)


# --- the normal shape -----------------------------------------------------------


def _random_shape(rng, n):
    """(orders, adjacency bitmasks) of a seeded random graph on n vertices."""
    p = rng.uniform(0.1, 0.9)
    adj = [0] * n
    for a, b in combinations(range(n), 2):
        if rng.random() < p:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return tuple(rng.randint(2, 4) for _ in range(n)), tuple(adj)


def _relabelled_shape(shape, image):
    """The shape with vertex i renamed image[i]."""
    orders, adj = shape
    new_orders, new_adj = [0] * len(orders), [0] * len(orders)
    for i, bits in enumerate(adj):
        new_orders[image[i]] = orders[i]
        new_adj[image[i]] = sum(1 << image[j] for j in range(len(adj)) if bits >> j & 1)
    return tuple(new_orders), tuple(new_adj)


def test_normal_keeps_the_invariants():
    rng = random.Random(1717)
    for _ in range(300):
        shape = _random_shape(rng, rng.randint(1, MAX_EXACT_VERTICES))
        normal = isomorphism._normal(shape)
        assert sorted(normal[0]) == sorted(shape[0])
        assert isomorphism._fingerprint(normal) == isomorphism._fingerprint(shape)
        assert isomorphism._canon(*normal) == isomorphism._canon(*shape)


def test_normal_is_a_relabelling():
    rng = random.Random(1718)
    for _ in range(200):
        shape = _random_shape(rng, rng.randint(1, 7))
        normal = isomorphism._normal(shape)
        assert any(_relabelled_shape(shape, image) == normal
                   for image in permutations(range(len(shape[0])))), shape


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_normal_of_a_cycle_ignores_declaration_order(n):
    for order in (2, 3):
        cycle = ((order,) * n,
                 tuple((1 << (i - 1) % n) | (1 << (i + 1) % n) for i in range(n)))
        normals = {isomorphism._normal(_relabelled_shape(cycle, image))
                   for image in permutations(range(n))}
        assert len(normals) == 1
