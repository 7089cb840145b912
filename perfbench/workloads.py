"""Seeded inputs of the three workloads.

A workload is an endless stream of rounds.  Round k is generated from
``random.Random(f"{seed}:{workload}:{k}")`` just before it runs, so the same
seed always gives the same inputs and every operation sees graphs the process
has never seen (each graph gets a fresh name, which is part of its identity
and therefore of every library cache key).  Sizes are stratified with a
low-discrepancy sequence over the round index instead of drawn at random, so
the mix of small and large inputs in a run hardly depends on the seed; the
seed changes the graphs themselves.

The library receives only what a user would hand it: ``.gg`` text parsed with
``parse_graph``, and words built with ``parse_word`` and ``reduce_word``.
"""

import random
import re
from itertools import combinations
from math import comb

import graphprod as gp
from oracles import growth_counts

WORKLOADS = ("ball", "analyze_dense", "analyze_sparse")

# Fixed tail percentile per (workload, sample kind).  Each leaves at least
# ten samples beyond it in every 30-second run at the seed commit; among
# those, the ones chosen were the steadiest across seeds.  It is fixed rather
# than picked per run so that a faster commit, which collects more samples,
# is compared on the same percentile.
TAIL_PERCENTILE = {
    ("ball", "op"): 85, ("ball", "query"): 90,
    ("analyze_dense", "op"): 90, ("analyze_dense", "query"): 95,
    ("analyze_sparse", "op"): 80, ("analyze_sparse", "query"): 75,
}

# Rounds run by a traced invocation (fixed work, so per-layer totals compare
# across commits; about 10 s untraced at the seed commit) and the round after
# which peak memory is read (fixed work, so a faster commit is not charged
# for the extra rounds it fits in; about half a 30-second run).
TRACE_ROUNDS = {"ball": 8, "analyze_dense": 24, "analyze_sparse": 8}
RSS_ROUNDS = {"ball": 10, "analyze_dense": 32, "analyze_sparse": 8}

# separating_hyperplanes queries between seeded members of each ball.  They
# are the cheap, homogeneous majority of the ball queries, so the query
# median falls inside them rather than on the gap to the costlier kinds.
SEPARATION_PAIRS = 8

_PHI = 0.6180339887498949


def _stratum(k):
    """Low-discrepancy point in [0, 1) for index k."""
    return (k * _PHI) % 1.0


def gg_text(name, n, edges, orders):
    lines = [f"graph {name}"]
    lines += [f"vertex v{i}" + (f" order={orders[i]}" if orders.get(i, 2) != 2 else "")
              for i in range(n)]
    lines += [f"edge v{a} v{b}" for a, b in edges]
    return "\n".join(lines) + "\n"


def corpus_gg(corpus_name, name):
    return re.sub(r"^graph \S+", f"graph {name}", gp.corpus.corpus_text(corpus_name),
                  count=1, flags=re.M)


def _random_orders(rng, n, hi):
    """About 30% of vertices get an order from 2 to hi, the rest keep 2."""
    return {i: rng.randint(2, hi) for i in range(n) if rng.random() < 0.3}


def gnp_gg(rng, name, n, p, max_order):
    """Uniform random graph with round(p * n(n-1)/2) edges (G(n, m) with the
    edge count of G(n, p)), so the cost varies less between seeds."""
    pairs = list(combinations(range(n), 2))
    edges = sorted(rng.sample(pairs, round(p * len(pairs))))
    return gg_text(name, n, edges, _random_orders(rng, n, max_order))


def expected_squares(n, p):
    """Expected number of induced 4-cycles of G(n, p): 3 C(n, 4) p^4 (1-p)^2."""
    return 3 * comb(n, 4) * p ** 4 * (1 - p) ** 2


def count_squares(text):
    """Induced 4-cycles of .gg text, counted over their diagonal pairs."""
    _, adj, _ = _structure(text)
    n, twice = len(adj), 0
    for a, b in combinations(range(n), 2):
        if (adj[a] >> b) & 1:
            continue
        common = [v for v in range(n) if (adj[a] & adj[b]) >> v & 1]
        twice += sum(1 for u, v in combinations(common, 2) if not (adj[u] >> v) & 1)
    return twice // 2


def typical_gnp_gg(rng, name, n, p, max_order):
    """A G(n, m) graph as gnp_gg, accepted when its induced-square count is
    within SQUARE_WINDOW of the expected count of G(n, p).  The cost of
    analyze grows with the square count, which varies by about a third
    between random graphs of one shape; drawing near the expectation keeps
    the seed from moving the cost of the largest graphs, and so the tails.
    After 400 draws the closest graph is taken."""
    want = expected_squares(n, p)
    best = None
    for _ in range(400):
        text = gnp_gg(rng, name, n, p, max_order)
        miss = abs(count_squares(text) - want) / want
        if miss <= SQUARE_WINDOW:
            return text
        if best is None or miss < best[0]:
            best = (miss, text)
    return best[1]


def sparse_gg(rng, name, n, mean_degree):
    m = int(n * mean_degree / 2)
    edges = set()
    while len(edges) < m:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return gg_text(name, n, sorted(edges), {})


def path_gg(name, n):
    return gg_text(name, n, [(i, i + 1) for i in range(n - 1)], {})


# ---------------------------------------------------------------------------
# analyze workloads: each item is a pair (ga, gb); both are analyzed, then
# fresh copies of both are compared.


class Pair:
    def __init__(self, key, texts, oracle_ok):
        self.key = key
        self.texts = texts          # two .gg texts
        self.oracle_ok = oracle_ok  # small enough for the brute-force oracles


# G(n, p) shapes ordered by their expected number of induced squares,
# 3 C(n, 4) p^4 (1 - p)^2, which sets the cost of analyze.  A stratified
# position in this list gives a cost that rises smoothly with the position;
# squaring the position samples the cheap shapes more often, so a run holds
# more G(n, p) graphs and its tail is steadier.
_GNP_SHAPES = sorted(((n, p) for n in range(12, 25) for p in (0.35, 0.5, 0.65)),
                     key=lambda s: expected_squares(*s))
SQUARE_WINDOW = 0.05


def _dense_round(rng, k):
    """1 corpus graph + 7 tiny graphs (n = 5..9) + 2 G(n, p) graphs with
    n = 12..24 and p in {0.35, 0.5, 0.65}.  Four of the five compare pairs
    are tiny, so the medians fall inside the tiny group and the tails inside
    the G(n, p) group, not on the gap between them."""
    name = f"D{k}_"
    texts = [corpus_gg(gp.corpus.CORPUS_NAMES[k % 8], name + "0")]
    for i in range(1, 8):
        texts.append(gnp_gg(rng, name + str(i), 5 + int(5 * _stratum(7 * k + i)), 0.5, 4))
    for j in range(2):
        n, p = _GNP_SHAPES[int(len(_GNP_SHAPES) * _stratum(2 * k + j) ** 2)]
        texts.append(typical_gnp_gg(rng, name + str(8 + j), n, p, 4))
    return texts


def _sparse_round(rng, k):
    """5 sparse graphs, n = 100..200 skewed towards 100, mean degree 2..4,
    plus one path on 100..140 vertices."""
    name = f"S{k}_"
    texts = []
    for i in range(5):
        n = int(100 * 2 ** (_stratum(5 * k + i) ** 3))
        texts.append(sparse_gg(rng, name + str(i), n, 2 + 2 * _stratum(7 * k + i + 1)))
    texts.append(path_gg(name + "5", 100 + int(40 * _stratum(k))))
    return texts


def analyze_round(workload, seed, k):
    rng = random.Random(f"{seed}:{workload}:{k}")
    texts = (_dense_round if workload == "analyze_dense" else _sparse_round)(rng, k)
    return [Pair(f"{k}:{i // 2}", texts[i:i + 2], workload == "analyze_dense")
            for i in range(0, len(texts) - 1, 2)]


def rename(text, prefix):
    return re.sub(r"^graph (\S+)", rf"graph {prefix}\1", text, count=1, flags=re.M)


# ---------------------------------------------------------------------------
# ball workload


class BallItem:
    def __init__(self, key, text, radius, picks):
        self.key = key
        self.text = text
        self.radius = radius
        self.picks = picks    # fractions in [0, 1) that choose ball members:
                              # a BFS source, then pairs to separate


class LongWordItem:
    def __init__(self, key, text, mul_words, sep_words, sep_length):
        self.key = key
        self.text = text
        self.mul_words = mul_words    # two word texts, lengths adding to L
        self.sep_words = sep_words    # x and w with |x| = L/2, |w| = L
        self.sep_length = sep_length


class FlatItem:
    def __init__(self, key, text, diag1, diag2, size):
        self.key = key
        self.text = text
        self.diag1 = diag1
        self.diag2 = diag2
        self.size = size


_BALL_CORPUS = ("C5", "K33", "DIAG", "EDGEW", "ELEC_FALSE")
_FLAT_CORPUS = ("SQ4", "K33", "CONE", "DIAG", "EDGEW", "ELEC_FALSE")


def _structure(text):
    """(vertex names, adjacency bitmasks, orders by index) of .gg text."""
    names, orders, edges = [], {}, []
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if parts[:1] == ["vertex"]:
            if len(parts) == 3:
                orders[len(names)] = int(parts[2].split("=")[1])
            names.append(parts[1])
        elif parts[:1] == ["edge"]:
            edges.append((parts[1], parts[2]))
    index = {v: i for i, v in enumerate(names)}
    adj = [0] * len(names)
    for a, b in edges:
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]
    return names, adj, orders


# Random ball graphs: (least n, greatest n, least p, greatest p) per radius.
# Larger radii need slower growth, so they draw smaller or denser graphs;
# this only makes the size window below cheaper to hit.
_BALL_FAMILIES = {4: (6, 9, 0.15, 0.5), 5: (5, 9, 0.25, 0.6),
                  6: (4, 8, 0.3, 0.7), 7: (4, 7, 0.35, 0.8)}


def _random_ball_graph(rng, name, radius):
    n_lo, n_hi, p_lo, p_hi = _BALL_FAMILIES[radius]
    n = rng.randint(n_lo, n_hi)
    p = rng.uniform(p_lo, p_hi)
    edges = [(a, b) for a, b in combinations(range(n), 2) if rng.random() < p]
    return gg_text(name, n, edges, _random_orders(rng, n, 3))


def _ball_work(text):
    """Ball vertices times generators (about the number of multiply calls of
    a build) at radius 0..8, from the growth-series oracle."""
    g = gp.parse_graph(text)
    gens = sum(g.order(v) - 1 for v in g.vertices)
    out, total = [], 0
    for c in growth_counts(g, 8):
        total += c
        out.append(total * gens)
    return out


def _pick_ball(rng, name, j):
    """A graph and a radius for ball item j.  The build's work, ball vertices
    times generators, is log-stratified over 3600..14400 and the radius of
    random graphs cycles over 4..7, so the mix of sizes and word lengths in a
    run hardly depends on the seed.  A random graph is accepted when its work
    at that radius is 0.8..1 of the target.  Every other item uses a corpus
    graph at the largest radius in 4..8 within the target; those builds are
    the same for every seed."""
    target = 3600 * 4 ** _stratum(j)
    if j % 2 == 0:
        text = corpus_gg(_BALL_CORPUS[(j // 2) % len(_BALL_CORPUS)], name)
        work = _ball_work(text)
        return text, max([r for r in range(4, 9) if work[r] <= target] or [4])
    r = 4 + (j // 2) % 4
    for _ in range(5000):
        text = _random_ball_graph(rng, name, r)
        if 0.8 * target <= _ball_work(text)[r] <= target:
            return text, r
    raise RuntimeError(f"no random graph with radius-{r} work near {target:.0f}")


def _random_reduced_word(rng, n, adj, orders, length):
    """Syllables (vertex, exponent) of a reduced word of exactly `length`
    syllables: a vertex is refused when the trailing run of syllables that
    commute with it contains the same vertex (it would amalgamate).  None if
    the walk gets stuck."""
    out = []
    while len(out) < length:
        allowed = []
        for v in range(n):
            ok = True
            for u, _ in reversed(out):
                if u == v:
                    ok = False
                    break
                if not (adj[u] >> v) & 1:
                    break
            if ok:
                allowed.append(v)
        if not allowed:
            return None
        v = rng.choice(allowed)
        out.append((v, rng.randint(1, orders.get(v, 2) - 1)))
    return out


def _long_words(rng, text, length):
    """Word texts x, y with |x| + |y| = length, and u, w with |u| = length/2
    and |w| = length."""
    names, adj, orders = _structure(text)
    half = length // 2
    for _ in range(100):
        parts = [_random_reduced_word(rng, len(names), adj, orders, m)
                 for m in (half, length - half, half, length)]
        if all(p is not None for p in parts):
            # always "v^k": a bare "e" would be read as the empty word
            return [" ".join(f"{names[v]}^{e}" for v, e in p) for p in parts]
    return None


def _find_square(text):
    """Diagonal pairs of some induced 4-cycle, or None."""
    names, adj, _ = _structure(text)
    for a, b, c, d in combinations(range(len(names)), 4):
        for p1, p2, r1, r2 in ((a, b, c, d), (a, c, b, d), (a, d, b, c)):
            if (adj[p1] >> p2) & 1 or (adj[r1] >> r2) & 1:
                continue
            if all((adj[x] >> y) & 1 for x in (p1, p2) for y in (r1, r2)):
                return (names[p1], names[p2]), (names[r1], names[r2])
    return None


def ball_round(seed, k):
    """Two ball items, one long-word item and one flat-grid item."""
    rng = random.Random(f"{seed}:ball:{k}")
    items = []
    for i in range(2):
        j = 2 * k + i
        text, r = _pick_ball(rng, f"B{k}_{i}", j)
        items.append(BallItem(f"{k}:{i}", text, r,
                              [rng.random() for _ in range(1 + 2 * SEPARATION_PAIRS)]))
    length = 20 + int(101 * _stratum(k))
    for cand in (items[1].text, items[0].text, corpus_gg("ELEC_FALSE", "E")):
        words = _long_words(rng, cand, length)
        if words is not None:
            text = rename(cand, f"W{k}_")
            break
    items.append(LongWordItem(f"{k}:w", text, words[:2], words[2:], length))
    size = 4 + k % 5
    for it in items[:2]:
        diags = _find_square(it.text)
        if diags is not None:
            items.append(FlatItem(f"{k}:f", rename(it.text, f"F{k}_"), *diags, size))
            break
    else:
        text = corpus_gg(_FLAT_CORPUS[k % len(_FLAT_CORPUS)], f"F{k}")
        items.append(FlatItem(f"{k}:f", text, *_find_square(text), size))
    return items


def make_round(workload, seed, k):
    if workload == "ball":
        return ball_round(seed, k)
    return analyze_round(workload, seed, k)
