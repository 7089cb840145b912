"""The brute-force oracles that the benchmark runs as output checks.

Each is written against the definitions, not against the library's
algorithms: squares by scanning all 4-subsets, square-completeness by
testing every square, minsquare pieces by enumerating every subset, and
ball growth by an exact rational generating function over the clique
complex.

`perfbench/ops.py` and `perfbench/workloads.py` import this module, and
the benchmark reads its peak memory in the same process, so every line here
is charged to `peak_rss_mb`.  It therefore holds only the three checks the
benchmark runs (`brute_squares`, `brute_minsquare`, `growth_counts`) and
their helpers, and imports only the standard library.  Every other oracle
lives in `references.py`, which may import from here but never the
reverse.
"""

from fractions import Fraction
from itertools import combinations


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


def brute_minsquare(g):
    """Inclusion-minimal square-complete subsets containing a square."""
    _, with_sq = brute_square_complete_sets(g)
    return {s for s in with_sq
            if not any(o != s and o <= s for o in with_sq)}


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
            # -at / (1 + at)
            factor = [Fraction(0)] + [Fraction((-a) ** k) for k in range(1, deg + 1)]
            term = _series_mul(term, factor, deg)
        total = [x + y for x, y in zip(total, term)]
    series = _series_inv(total, deg)
    counts = [int(c) for c in series]
    assert all(Fraction(c) == s for c, s in zip(counts, series))
    return counts
