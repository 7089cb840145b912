"""Independent brute-force oracles used to check the library.

Everything here is deliberately written against the definitions, not against
the library's algorithms: squares by scanning all 4-subsets, closures by
intersecting all square-complete supersets, minsquare pieces by enumerating
every subset, hyperplanes by union-find over ball edges, and ball growth by
an exact rational generating function over the clique complex.
"""

from fractions import Fraction
from itertools import combinations

from graphprod.graphs import SimplicialGraph


# ---------------------------------------------------------------------------
# squares and square-completeness from scratch


def brute_squares(g):
    """Induced 4-cycles as frozensets, by checking every 4-subset."""
    out = set()
    for quad in combinations(g.vertices, 4):
        deg = {v: 0 for v in quad}
        edges = 0
        for u, v in combinations(quad, 2):
            if g.adjacent(u, v):
                edges += 1
                deg[u] += 1
                deg[v] += 1
        if edges == 4 and all(d == 2 for d in deg.values()):
            out.add(frozenset(quad))
    return out


def brute_clique_number(g):
    """Size of a largest pairwise-adjacent vertex subset, by trying every
    subset from the largest size down."""
    for size in range(g.n, 0, -1):
        if any(all(g.adjacent(u, v) for u, v in combinations(sub, 2))
               for sub in combinations(g.vertices, size)):
            return size
    return 0


def brute_is_square_complete(g, subset, squares=None):
    subset = frozenset(subset)
    for quad in (squares if squares is not None else brute_squares(g)):
        if quad <= subset:
            continue
        # any two non-adjacent vertices of a square are opposite in it
        inside = quad & subset
        if any(not g.adjacent(u, v) for u, v in combinations(sorted(inside), 2)):
            return False
    return True


def brute_square_complete_sets(g):
    """(all square-complete subsets, those containing at least one square)."""
    squares = brute_squares(g)
    sc = []
    sc_with_square = []
    for bits in range(1 << g.n):
        subset = frozenset(v for i, v in enumerate(g.vertices) if (bits >> i) & 1)
        if brute_is_square_complete(g, subset, squares):
            sc.append(subset)
            if any(q <= subset for q in squares):
                sc_with_square.append(subset)
    return sc, sc_with_square


def brute_closure(g, seed):
    """Least square-complete superset of seed = intersection of all
    square-complete supersets (square-completeness is intersection-closed)."""
    seed = frozenset(seed)
    sc, _ = brute_square_complete_sets(g)
    supersets = [s for s in sc if seed <= s]
    out = frozenset(g.vertices)
    for s in supersets:
        out &= s
    return out


def brute_minsquare(g):
    """Inclusion-minimal square-complete subsets containing a square."""
    _, with_sq = brute_square_complete_sets(g)
    return {s for s in with_sq
            if not any(o != s and o <= s for o in with_sq)}


def brute_jinf(g):
    """(members as frozensets, iterations) of the merge-and-pad iteration,
    from the definition: merge every pair of members whose intersection
    has two non-adjacent vertices, transitively, then add each outside
    vertex whose link meets a merged set in two non-adjacent vertices."""
    def complete(s):
        return all(g.adjacent(u, v) for u, v in combinations(sorted(s), 2))

    collection = set(brute_squares(g))
    iterations = 0
    while collection:
        groups = [{m} for m in collection]
        merged = True
        while merged:
            merged = False
            for a, b in combinations(range(len(groups)), 2):
                if any(not complete(x & y) for x in groups[a] for y in groups[b]):
                    groups[a] |= groups.pop(b)
                    merged = True
                    break
        nxt = set()
        for grp in groups:
            union = frozenset().union(*grp)
            nxt.add(union | {v for v in g.vertices if v not in union
                             and not complete(g.neighbors(v) & union)})
        if nxt == collection:
            break
        collection = nxt
        iterations += 1
    return collection, iterations


def brute_join_split_exists(g):
    """Does g split as M * K with M a minsquare subgraph, K complete, and
    every M-vertex adjacent to every K-vertex?  Checked over all splits."""
    minsquare = brute_minsquare(g)
    allv = set(g.vertices)
    for bits in range(1 << g.n):
        k = {v for i, v in enumerate(g.vertices) if (bits >> i) & 1}
        m = allv - k
        if frozenset(m) not in minsquare:
            continue
        if any(not g.adjacent(u, v) for u, v in combinations(sorted(k), 2)):
            continue
        if all(g.adjacent(u, v) for u in m for v in k):
            return True
    return False


# ---------------------------------------------------------------------------
# hyperplanes as edge classes on a ball


def edge_class_partition(ball):
    """Partition of the ball's edges into hyperplanes, from the definition:
    two edges are equivalent when they lie in a common triangle or are
    opposite sides of an induced square (transitive closure)."""
    edges = sorted((i, j) for (i, j, _) in ball.edges())
    eid = {e: k for k, e in enumerate(edges)}
    parent = list(range(len(edges)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def unite(a, b):
        parent[find(a)] = find(b)

    adjset = [set(nb) for nb in ball.adj]

    def key(a, b):
        return eid[(a, b) if a < b else (b, a)]

    for (x, y) in edges:
        for z in adjset[x] & adjset[y]:
            unite(key(x, y), key(x, z))
            unite(key(x, y), key(y, z))
    for (x, y) in edges:
        for z in adjset[y]:
            if z == x or z in adjset[x]:
                continue
            for w in adjset[x] & adjset[z]:
                if w == y or w in adjset[y]:
                    continue
                unite(key(x, y), key(w, z))  # opposite sides x-y and w-z
    classes = {}
    for e in edges:
        classes.setdefault(find(eid[e]), set()).add(e)
    return {frozenset(c) for c in classes.values()}


# ---------------------------------------------------------------------------
# exact ball growth from the clique complex


def _series_mul(a, b, deg):
    out = [Fraction(0)] * (deg + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > deg:
                break
            out[i + j] += ai * bj
    return out


def _series_inv(a, deg):
    assert a[0] != 0
    out = [Fraction(0)] * (deg + 1)
    out[0] = 1 / Fraction(a[0])
    for k in range(1, deg + 1):
        s = Fraction(0)
        for i in range(1, k + 1):
            if i < len(a):
                s += a[i] * out[k - i]
        out[k] = -s * out[0]
    return out


def _cliques(g):
    adj = g._adj_bits
    out = []

    def grow(cur, cand):
        out.append(cur)
        c = cand
        while c:
            low = c & -c
            v = low.bit_length() - 1
            c ^= low
            grow(cur + [v], cand & adj[v] & ~((low << 1) - 1))

    grow([], (1 << g.n) - 1)
    return out


def growth_counts(g, radius):
    """Number of group elements of each word length 0..radius, via the exact
    generating function: the reciprocal of the growth series is the
    alternating clique sum of prod (o_v - 1) t / (1 + (o_v - 1) t)."""
    deg = radius
    total = [Fraction(0)] * (deg + 1)
    for clique in _cliques(g):
        term = [Fraction(1)] + [Fraction(0)] * deg
        for v in clique:
            a = g._orders_ix[v] - 1
            inv = [Fraction((-a) ** k) for k in range(deg + 1)]  # 1/(1+at)
            factor = _series_mul([Fraction(0), Fraction(-a)], inv, deg)
            term = _series_mul(term, factor, deg)
        total = [x + y for x, y in zip(total, term)]
    series = _series_inv(total, deg)
    counts = [int(c) for c in series]
    assert all(Fraction(c) == s for c, s in zip(counts, series))
    return counts


# ---------------------------------------------------------------------------
# random graphs


def make_random_graph(rng, max_n, max_order=3, name="R", p=None):
    n = rng.randint(3, max_n)
    verts = [f"v{i}" for i in range(n)]
    prob = p if p is not None else rng.uniform(0.25, 0.7)
    edges = [(u, v) for u, v in combinations(verts, 2) if rng.random() < prob]
    orders = {v: rng.randint(2, max_order) for v in verts if rng.random() < 0.3}
    return SimplicialGraph(name, verts, edges, orders)
