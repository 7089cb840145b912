"""Independent brute-force references used only by the tests.

Everything here is deliberately written against the definitions, not against
the library's algorithms: clique numbers, closures and the `jinf` iteration
by brute force, the square core by one row per square (the design the
diagonal-pair core replaced), hyperplanes by union-find over ball edges and
by one coset representative per edge or per syllable of a geodesic, flat
grids by one product per pair of vertices, balls by multiplying every vertex
by every generator, canonical normal forms by a greedy re-sort of the whole
word, set bits one lowest bit at a time, piece shapes through a dict of
local indices, canonical graph keys by an individualization-refinement
search with no pruning, the `analyze` and `compare` JSON by a dict for
`json.dumps`, and finite-index subgroups by the Reidemeister-Schreier
presentation of a retraction's kernel.

The benchmark never imports this module: the checks it runs live in
`oracles.py`, which stays small because the benchmark pays for its size in
peak memory.  New references go here, and may import from `oracles`.
"""

from itertools import combinations

from graphprod.geometry import (
    DEFAULT_VERTEX_CAP,
    BallCapExceeded,
    CayleyBall,
    HyperplaneId,
)
from graphprod.graphs import (
    _LEX_ORDER_MAX_N,
    SimplicialGraph,
    _bits,
    _diagonals,
)
from graphprod.relhyp import _cp_mask
from graphprod.squares import minsquare_subgraphs
from graphprod.words import (
    NormalForm,
    Word,
    _coset_rep,
    _split_head,
    identity,
    invert,
    multiply,
    reduce_word,
)

from oracles import brute_minsquare, brute_square_complete_sets, brute_squares


# ---------------------------------------------------------------------------
# squares and square-completeness from scratch


def brute_clique_number(g):
    """Size of a largest pairwise-adjacent vertex subset, by trying every
    subset from the largest size down."""
    for size in range(g.n, 0, -1):
        if any(all(g.adjacent(u, v) for u, v in combinations(sub, 2))
               for sub in combinations(g.vertices, size)):
            return size
    return 0


def brute_closure(g, seed):
    """Least square-complete superset of seed = intersection of all
    square-complete supersets (square-completeness is intersection-closed)."""
    seed = frozenset(seed)
    sc, _ = brute_square_complete_sets(g)
    return frozenset(g.vertices).intersection(*(s for s in sc if seed <= s))


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


# ---------------------------------------------------------------------------
# the row-based square core: one row per induced square


def row_squares(g):
    """Square masks of g in canonical order: each square listed once, from
    the diagonal through its least vertex x, as a non-adjacent pair of
    common neighbours above x of x and a vertex z > x at distance 2."""
    adj = g._adj_bits
    masks = []
    for x in range(g.n):
        above = -1 << (x + 1)
        nbrs = adj[x] & above
        reach = 0
        for y in _bits(nbrs):
            reach |= adj[y]
        for z in _bits(reach & above & ~adj[x]):
            common = nbrs & adj[z]
            pair = (1 << x) | (1 << z)
            for y in _bits(common):
                for w in _bits(common & ~adj[y] & (-1 << (y + 1))):
                    masks.append(pair | (1 << y) | (1 << w))
    if g.n <= _LEX_ORDER_MAX_N:
        masks.sort(key=lambda m: tuple(_bits(m)))
    else:
        masks.sort()
    return masks


def row_closure(rows, seed):
    """The closure of seed, by scanning the square rows (mask, diagonal 1,
    diagonal 2) in order, again and again until nothing is absorbed."""
    cur = seed
    changed = True
    while changed:
        changed = False
        for sq, d1, d2 in rows:
            if sq & ~cur and (d1 & ~cur == 0 or d2 & ~cur == 0):
                cur |= sq
                changed = True
    return cur


def union_find(n, joins):
    """Class of each of n items, numbered by first item, under the
    equivalence the item pairs in joins generate."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in joins:
        parent[find(a)] = find(b)
    slot = {}
    return [slot.setdefault(find(i), len(slot)) for i in range(n)]


def pair_components(g, masks):
    """(component of each mask, union of each component), masks joined
    when they share a non-adjacent pair, keyed by the pair's mask: on
    squares, by their diagonals, in time linear in the squares."""
    adj = g._adj_bits
    first = {}
    comp = union_find(len(masks), (
        (i, first.setdefault(1 << u | 1 << v, i))
        for i, m in enumerate(masks) for u in _bits(m)
        for v in _bits(m & ~adj[u] & (-2 << u))))
    unions = [0] * (max(comp, default=-1) + 1)
    for k, m in zip(comp, masks):
        unions[k] |= m
    return comp, unions


class RowSquareCore:
    """The square data of a graph held as one row per induced square.

    rows      (mask, diagonal 1, diagonal 2) per square, in canonical order
    comp      component index of each square (see pair_components)
    unions    vertex mask of each component
    closures  row_closure result of each component's union
    minimal   the minimal closures, ascending
    uncovered square masks whose closure is not minimal, in row order
    """

    def __init__(self, g):
        self.graph = g
        masks = row_squares(g)
        self.rows = [(m, *_diagonals(g._adj_bits, m)) for m in masks]
        self.comp, self.unions = pair_components(g, masks)
        self.closures = [row_closure(self.rows, u) for u in self.unions]
        closures = sorted(set(self.closures))
        self.minimal = tuple(c for c in closures
                             if not any(o != c and o & ~c == 0 for o in closures))
        minimal = set(self.minimal)
        self.uncovered = [row[0] for row, k in zip(self.rows, self.comp)
                          if self.closures[k] not in minimal]

    def is_square_complete(self, mask):
        return not any(sq & ~mask and (d1 & ~mask == 0 or d2 & ~mask == 0)
                       for sq, d1, d2 in self.rows)

    def jinf(self):
        """(member masks, iterations) of the merge-and-pad iteration started
        from the sorted square masks."""
        g = self.graph
        collection, iterations = sorted(row[0] for row in self.rows), 0
        while collection:
            nxt = sorted({_cp_mask(g, u) for u in pair_components(g, collection)[1]})
            if nxt == collection:
                break
            collection, iterations = nxt, iterations + 1
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
    adjset = [set(nb) for nb in ball.adj]

    def key(a, b):
        return eid[(a, b) if a < b else (b, a)]

    joins = []
    for (x, y) in edges:
        for z in adjset[x] & adjset[y]:
            joins += [(key(x, y), key(x, z)), (key(x, y), key(y, z))]
    for (x, y) in edges:
        for z in adjset[y]:
            if z == x or z in adjset[x]:
                continue
            for w in adjset[x] & adjset[z]:
                if w == y or w in adjset[y]:
                    continue
                joins.append((key(x, y), key(w, z)))  # opposite sides x-y and w-z
    classes = {}
    for e, k in zip(edges, union_find(len(edges), joins)):
        classes.setdefault(k, set()).add(e)
    return {frozenset(c) for c in classes.values()}


def _star_masks(g):
    """Vertex name -> bitmask of its star (the vertex and its neighbours)."""
    adj = g._adj_bits
    return {name: adj[v] | 1 << v for v, name in enumerate(g.vertices)}


def brute_edge_hyperplanes(ball):
    """`CayleyBall.edge_hyperplanes` one edge at a time: the carrier coset
    of each edge's hyperplane from `_coset_rep` of its lower end."""
    verts = ball.verts
    masks = _star_masks(ball.graph)
    return {
        (i, j): HyperplaneId(lab, _coset_rep(verts[i], masks[lab]))
        for (i, j), lab in ball._edge_label.items()}


def brute_separating_hyperplanes(x, y):
    """`geometry.separating_hyperplanes` with one `multiply` per syllable:
    walk the canonical geodesic as normal forms and take each carrier from
    `_coset_rep` of the current vertex."""
    w = multiply(invert(x), y)
    g = x.graph
    names = g.vertices
    masks = _star_masks(g)
    out = []
    cur = x
    for s in w.sylls:
        name = names[s[0]]
        out.append(HyperplaneId(name, _coset_rep(cur, masks[name])))
        cur = multiply(cur, NormalForm(g, (s,)))
    return tuple(out)


def brute_split_suffix(g, sylls, allowed_mask):
    """`words._split_suffix` as the full mirror scan of `_split_head` over
    the reversed list, with no early stop."""
    suf, pre = _split_head(g, sylls[::-1], allowed_mask)
    return pre[::-1], suf[::-1]


# ---------------------------------------------------------------------------
# flat grids pair by pair


def brute_is_isometric(grid):
    """`FlatGrid.is_isometric` by one full product x^-1 y for every pair of
    grid vertices."""
    rows = grid.all_vertices()
    flat = [(i, j, nf) for i, row in enumerate(rows) for j, nf in enumerate(row)]
    for a in range(len(flat)):
        i1, j1, x = flat[a]
        xinv = invert(x)
        for b in range(a + 1, len(flat)):
            i2, j2, y = flat[b]
            if multiply(xinv, y).length != abs(i1 - i2) + abs(j1 - j2):
                return False
    return True


# ---------------------------------------------------------------------------
# balls by every product


def brute_ball(graph, radius, electrified=False, max_vertices=DEFAULT_VERTEX_CAP):
    """`geometry.build_ball` as a sweep over all products: every vertex is
    multiplied by every generator through `multiply`, and the products past
    the radius are discarded.  An edge is recorded when it is first met,
    and each vertex lists its neighbours in the order of the edges."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if max_vertices < 1:
        raise ValueError("max_vertices must be >= 1")
    ident = identity(graph)
    verts = [ident]
    index = {ident.sylls: 0}
    edge_label = {}
    gens = [(graph.vertices[v], NormalForm(graph, ((v, e),)))
            for v in range(graph.n) for e in range(1, graph._orders_ix[v])]
    for ix, x in enumerate(verts):
        for name, s in gens:
            y = multiply(x, s)
            if len(y.sylls) > radius:
                continue
            iy = index.get(y.sylls)
            if iy is None:
                if len(verts) >= max_vertices:
                    raise BallCapExceeded(max_vertices, x.length)
                iy = len(verts)
                verts.append(y)
                index[y.sylls] = iy
            key = (ix, iy) if ix < iy else (iy, ix)
            edge_label.setdefault(key, name)
    adj = [[] for _ in verts]
    for (i, j) in edge_label:
        adj[i].append(j)
        adj[j].append(i)
    cone_groups = ()
    if electrified:
        groups = {}
        for mi, lam in enumerate(minsquare_subgraphs(graph)):
            mask = lam.mask
            for i, x in enumerate(verts):
                rep = _coset_rep(x, mask)
                groups.setdefault((mi, rep.sylls), []).append(i)
        cone_groups = tuple(tuple(g) for g in groups.values() if len(g) >= 2)
    return CayleyBall(graph, radius, tuple(verts), index,
                      tuple(map(tuple, adj)), edge_label, electrified, cone_groups)


def brute_cone_edges(ball):
    """`CayleyBall.cone_edges` as the pairs of every group, each kept where
    it first appears."""
    return iter(dict.fromkeys(e for group in ball.cone_groups
                              for e in combinations(group, 2)))


# ---------------------------------------------------------------------------
# reduced words move by move, canonical forms by greedy re-sorting


def brute_reduce(g, sylls):
    """Reduce a syllable list by the elementary moves, one at a time until
    none applies: drop identity syllables, and merge two syllables at one
    vertex whenever every syllable between them commutes with it."""
    adj = g._adj_bits
    w = [s for s in sylls if s[1]]
    moved = True
    while moved:
        moved = False
        for j in range(len(w)):
            v = w[j][0]
            for i in range(j - 1, -1, -1):
                u = w[i][0]
                if u == v:
                    e = (w[i][1] + w[j][1]) % g._orders_ix[v]
                    w[i:j + 1] = ([(v, e)] if e else []) + w[i + 1:j]
                    moved = True
                    break
                if not (adj[u] >> v) & 1:
                    break
            if moved:
                break
    return w


def brute_canonical(g, sylls):
    """Lexicographically least shuffle of a reduced syllable list: repeatedly
    emit the least-vertex syllable among those not blocked by an earlier
    non-commuting one."""
    adj = g._adj_bits
    rest = list(sylls)
    out = []
    while rest:
        free = [i for i, (v, _) in enumerate(rest)
                if all(u != v and (adj[u] >> v) & 1 for u, _ in rest[:i])]
        out.append(rest.pop(min(free, key=lambda i: rest[i][0])))
    return out


# ---------------------------------------------------------------------------
# report serialization as it was: a dict for json.dumps(indent=2, sort_keys=True)


def report_dict(rep):
    """The `analyze` JSON schema as a dict, built field by field from an
    AnalysisReport (the body `AnalysisReport.to_dict` had before the report
    wrote its JSON by hand)."""
    lam0, lam1 = rep.core
    cert = rep.morse.certificate
    if isinstance(cert, str) and cert == "square-free":
        cert_d = {"kind": "square-free"}
    elif isinstance(cert, tuple):
        cert_d = {"kind": "join",
                  "minsquare_part": list(cert[0].sorted),
                  "complete_part": list(cert[1].sorted)}
    else:
        cert_d = {"kind": "none", "explanation": str(cert)}
    g = lam0.graph
    return {
        "graph_name": rep.graph_name,
        "n_vertices": rep.n_vertices,
        "orders": dict(rep.orders),
        "clique_number": rep.clique_number,
        "square_free": rep.square_free,
        "hyperbolic": rep.hyperbolic,
        "essential": rep.essential,
        "core": {"lambda0": list(lam0.sorted), "lambda1": list(lam1.sorted)},
        "n_induced_squares": rep.n_induced_squares,
        "minsquare_subgraphs": [
            {"vertices": list(m.sorted),
             "orders": sorted(g.order(v) for v in m.sorted)}
            for m in rep.minsquare_subgraphs],
        "is_minsquare_graph": rep.is_minsquare_graph,
        "cfs": rep.cfs,
        "electrification_hyperbolic": {
            "hyperbolic": rep.electrification.hyperbolic,
            "uncovered_squares": [list(q.sorted)
                                  for q in rep.electrification.uncovered]},
        "morse_all_hyperbolic": {
            "all_hyperbolic": rep.morse.all_hyperbolic,
            "certificate": cert_d},
        "jinf_members": [list(m.sorted) for m in rep.jinf_members],
        "jinf_iterations": rep.jinf_iterations,
        "rh_status": rep.rh_status,
        "tool_version": rep.tool_version,
    }


def verdict_dict(verdict):
    """The `compare` JSON schema as a dict (the body
    `ComparisonVerdict.to_dict` had before)."""
    return {
        "pair": list(verdict.pair),
        "distinguishing_invariants": [
            {"invariant": n, "a": a, "b": b}
            for n, a, b in verdict.distinguishing_invariants],
        "verdict": verdict.verdict,
        "notes": list(verdict.notes),
    }


# ---------------------------------------------------------------------------
# random graphs


def make_random_graph(rng, max_n, max_order=3, name="R", p=None):
    n = rng.randint(3, max_n)
    verts = [f"v{i}" for i in range(n)]
    prob = p if p is not None else rng.uniform(0.25, 0.7)
    edges = [(u, v) for u, v in combinations(verts, 2) if rng.random() < prob]
    orders = {v: rng.randint(2, max_order) for v in verts if rng.random() < 0.3}
    return SimplicialGraph(name, verts, edges, orders)


# ---------------------------------------------------------------------------
# finite-index subgroups that are graph products again


def retraction_kernel(g, v):
    """The graph whose graph product is the kernel K of the retraction
    r: C(g) -> G_v that kills every vertex group but G_v; K has index
    n = |G_v|, so C(g) and C(kernel) are quasi-isometric.

    The kernel graph has lk(v) once, n copies u_0 .. u_{n-1} of each vertex
    u of g - st(v), and keeps every order.  u_k and w_k are adjacent when u
    and w are, a link vertex is adjacent to u_k when it is to u, and copies
    with different k are never adjacent.  A free product A * B at v = A
    gives |A| copies of B (Kurosh); a cone vertex v gives g - v.

    Proof (Reidemeister-Schreier).  C(g) is presented by the generators x
    of the vertices, the relators x^{o(x)}, and [x, y] for every edge.  Take
    the Schreier transversal T = {1, v, ..., v^{n-1}} of K; r(v^k x) = v^k
    for x != v.  The Schreier generators t x (rep of t x)^{-1} are trivial
    for x = v, and are u_k := v^k u v^{-k} for x = u != v.  Rewriting t R
    t^{-1} for each t = v^k and relator R gives:
      * v^n: the trivial relator;
      * u^{o(u)}: u_k^{o(u)};
      * [u, w] for an edge uw missing v: [u_k, w_k];
      * [u, v] for u in lk(v): v^k u v u^{-1} v^{-(k+1)} = u_k u_{k+1}^{-1},
        so u_0 = u_1 = ... = u_{n-1} = u, one generator per link vertex.
    What is left is the presentation of the graph product of the graph
    above: the copies of a link vertex merge, and [u_k, w_k] joins the
    k-th copies, each to the link as in g.
    """
    n = g.order(v)
    link = g.neighbors(v)
    inside = [u for u in g.vertices if u in link]
    outside = [u for u in g.vertices if u != v and u not in link]

    def copies(u):
        return [u] if u in link else [f"{u}_{k}" for k in range(n)]

    edges = []
    for a, b in g.edges:
        if v in (a, b):
            continue
        if a in link and b in link:
            edges.append((a, b))
        elif a in link or b in link:
            edges += [(x, y) for x in copies(a) for y in copies(b)]
        else:
            edges += zip(copies(a), copies(b))
    verts = inside + [c for k in range(n) for c in (f"{u}_{k}" for u in outside)]
    orders = {c: g.order(u) for u in inside + outside for c in copies(u)}
    return SimplicialGraph(f"{g.name}_ker_{v}", verts, edges, orders)


def retraction_kernel_images(g, v):
    """Kernel vertex name -> its element of C(g): a link vertex is itself,
    copy k of u is v^k u v^{-k} (the map of `retraction_kernel`'s proof)."""
    n = g.order(v)
    link = g.neighbors(v)
    out = {}
    for u in g.vertices:
        if u == v:
            continue
        if u in link:
            out[u] = reduce_word(Word(g, [(u, 1)]))
            continue
        for k in range(n):
            out[f"{u}_{k}"] = reduce_word(Word(g, [(v, k), (u, 1), (v, -k % n)]))
    return out


# ---------------------------------------------------------------------------
# bit decoding and piece shapes, one step per bit


def lowest_bits(mask):
    """Indices of the set bits of mask, ascending, found one lowest bit at
    a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def dict_piece(s):
    """(orders, adjacency bitmasks) of the induced subgraph as tuples, local
    index i being the i-th member in declaration order, renumbered through
    a dict from graph index to local index: the version of
    `isomorphism._piece` that the popcount numbering replaced."""
    g, mask = s.graph, s.mask
    ix = tuple(lowest_bits(mask))
    local = {gi: li for li, gi in enumerate(ix)}
    adj = []
    for gi in ix:
        bits = 0
        for gj in lowest_bits(g._adj_bits[gi] & mask):
            bits |= 1 << local[gj]
        adj.append(bits)
    return tuple(g._orders_ix[gi] for gi in ix), tuple(adj)


# ---------------------------------------------------------------------------
# canonical labelling by plain individualization-refinement, no pruning


def _brute_piece(s):
    g = s.graph
    verts = s.sorted
    pos = {v: i for i, v in enumerate(verts)}
    orders = [g.order(v) for v in verts]
    adj = [0] * len(verts)
    for u, v in combinations(verts, 2):
        if g.adjacent(u, v):
            adj[pos[u]] |= 1 << pos[v]
            adj[pos[v]] |= 1 << pos[u]
    return orders, adj


def _refine(orders, adj, colors):
    n = len(orders)
    while True:
        sig = []
        for i in range(n):
            nb = sorted(colors[j] for j in range(n) if (adj[i] >> j) & 1)
            sig.append((colors[i], tuple(nb)))
        ranks = {s: r for r, s in enumerate(sorted(set(sig)))}
        new = [ranks[s] for s in sig]
        if new == colors:
            return colors
        colors = new


def _canon(orders, adj, colors):
    n = len(orders)
    colors = _refine(orders, adj, colors)
    classes = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(i)
    target = next((classes[c] for c in sorted(classes) if len(classes[c]) > 1), None)
    if target is None:
        perm = sorted(range(n), key=lambda i: colors[i])
        bits = sum(1 << k for k, (a, b) in enumerate(combinations(perm, 2))
                   if (adj[a] >> b) & 1)
        return tuple(orders[p] for p in perm), bits
    # individualize each vertex of the target cell: forced least colour
    return min(_canon(orders, adj, [-1 if j == i else c for j, c in enumerate(colors)])
               for i in target)


def brute_canonical_key(s):
    """Least leaf key of the whole individualization-refinement tree of the
    induced subgraph, every branch explored (factorial on symmetric pieces)."""
    orders, adj = _brute_piece(s)
    return _canon(orders, adj, list(orders))
