"""Cost of a plain `build_ball` per ball vertex, with the sweep's work counts.

    PYTHONPATH=src python scripts/time_ball.py [--seed S] [--repeat N]

The cases are the corpus graph ELEC_FALSE at radius 7 (all orders 2) and,
for each radius 4 .. 7, one random graph drawn with random.Random(S): n
vertices v0 .. v(n-1), each pair an edge with probability p (n and p drawn
from ranges that shrink n and raise p as the radius grows), each vertex of
order 3 with probability 0.3 and 2 otherwise.  A draw is kept when it has a
vertex of order 3 and its ball holds 5,000 .. 40,000 vertices.

Printed per case: the ball's vertices and edges, its inner vertices (shorter
than the radius) and outermost ones, the `words._push` and
`words._last_syllables` calls of one build (counted in a separate run), the
best of N uncached builds in microseconds per ball vertex, and, for the
electrified ball, its cone groups and cone edges, the best of N
electrified builds over the plain ball (`geometry._electrify`, what
`build_ball` runs when the plain ball is cached) with the head-table
writes of its `geometry._coset_heads` pass over the minsquare pieces, and
the best of N `cone_edge_count` calls, both in milliseconds.  A second row
per case times the ball's queries: the best of N `edge_hyperplanes`
computations in milliseconds, with the head-table writes of its
`_coset_heads` pass over the stars and the edges that feed every star
table in it (those whose lower end lies below level R - 1, R the radius;
later edges feed only the tables of vertices of order above 2) against
all edges, and `separating_hyperplanes` in microseconds per call, best of
N runs over PAIRS member pairs drawn with random.Random(S).

Last come the flat grids: `FlatGrid.is_isometric` on the `flat_witness`
grid over the square a, b, c, d of SQ4 at each size in FLAT_SIZES, with
its `words._push` calls and the best of N checks in milliseconds.
"""

import argparse
import random
import time
from itertools import combinations

import graphprod.geometry as geometry
from graphprod.corpus import load
from graphprod.geometry import (
    BallCapExceeded,
    build_ball,
    flat_witness,
    separating_hyperplanes,
)
from graphprod.graphs import SimplicialGraph
from graphprod.squares import minsquare_subgraphs

# radius -> (least n, greatest n, least p, greatest p)
FAMILIES = {4: (6, 9, 0.15, 0.5), 5: (5, 9, 0.25, 0.6),
            6: (4, 8, 0.3, 0.7), 7: (4, 7, 0.35, 0.8)}
SIZES = (5_000, 40_000)
PAIRS = 200
FLAT_SIZES = (8, 20, 40)


def random_case(rng, radius):
    """A graph drawn from the radius's family whose ball fits SIZES."""
    n_lo, n_hi, p_lo, p_hi = FAMILIES[radius]
    for k in range(1000):
        n = rng.randint(n_lo, n_hi)
        p = rng.uniform(p_lo, p_hi)
        verts = [f"v{i}" for i in range(n)]
        edges = [(a, b) for a, b in combinations(verts, 2) if rng.random() < p]
        orders = {v: 3 for v in verts if rng.random() < 0.3}
        if not orders:
            continue
        g = SimplicialGraph(f"R{radius}_{k}", verts, edges, orders)
        build_ball.cache_clear()
        try:
            size = build_ball(g, radius, max_vertices=SIZES[1]).vertex_count
        except BallCapExceeded:
            continue
        if size >= SIZES[0]:
            return g
    raise RuntimeError(f"no graph with a radius-{radius} ball in {SIZES}")


def counted(name, counts):
    """Replace geometry.name by a wrapper counting its calls; return the
    original."""
    orig = getattr(geometry, name)

    def run(*args):
        counts[name] += 1
        return orig(*args)

    setattr(geometry, name, run)
    return orig


def table_writes(ball, masks, read_outer):
    """The head-table writes of a `geometry._coset_heads` pass over these
    masks and flags: an edge whose lower end lies below level R - 1 writes
    into every table whose mask holds its label, a later edge only into
    the flagged ones among them."""
    g = ball.graph
    writes = 0
    for i, _, lab in ball.edges():
        v = g.index(lab)
        inner = ball.level(i) < ball.radius - 1
        writes += sum(1 for m, late in zip(masks, read_outer)
                      if m >> v & 1 and (inner or late))
    return writes


def fresh_hyperplanes(ball):
    """The ball's edge hyperplanes, computed again rather than read from
    its cache."""
    ball._edge_hyp = None
    return ball.edge_hyperplanes()


def separate_all(pairs):
    for x, y in pairs:
        separating_hyperplanes(x, y)


def best_of(repeat, run):
    """The least of `repeat` wall times of run(), in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    cases = [(load("ELEC_FALSE"), 7)] + [(random_case(rng, r), r) for r in FAMILIES]
    for g, r in cases:
        counts = {"_push": 0, "_last_syllables": 0}
        originals = {name: counted(name, counts) for name in counts}
        build_ball.cache_clear()
        ball = build_ball(g, r)
        for name, orig in originals.items():
            setattr(geometry, name, orig)
        best = float("inf")
        for _ in range(args.repeat):
            build_ball.cache_clear()
            start = time.perf_counter()
            build_ball(g, r)
            best = min(best, time.perf_counter() - start)
        eball = geometry._electrify(ball)
        electrify = best_of(args.repeat, lambda: geometry._electrify(ball))
        count = best_of(args.repeat, eball.cone_edge_count)
        pieces = [lam.mask for lam in minsquare_subgraphs(g)]
        cone_writes = table_writes(ball, pieces, [True] * len(pieces))
        stars = [g._adj_bits[v] | 1 << v for v in range(g.n)]
        star_writes = table_writes(ball, stars, [k > 2 for k in g._orders_ix])
        outer = sum(1 for x in ball.verts if len(x) == r)
        orders = "".join(str(k) for k in g._orders_ix)
        print(f"{g.name:<11} r={r} orders {orders:<9} "
              f"vertices {ball.vertex_count:>6,} edges {ball.edge_count():>6,}  "
              f"inner {ball.vertex_count - outer:>6,} outer {outer:>6,}  "
              f"pushes {counts['_push']:>6,} scans {counts['_last_syllables']:>6,}  "
              f"{best / ball.vertex_count * 1e6:6.2f} us/vertex  "
              f"groups {len(eball.cone_groups):>5,} cone edges {eball.cone_edge_count():>9,}  "
              f"electrify {electrify * 1e3:6.2f} ms ({cone_writes:>7,} writes) "
              f"count {count * 1e3:6.2f} ms")
        hyp = best_of(args.repeat, lambda: fresh_hyperplanes(ball))
        fed = sum(1 for i, _, _ in ball.edges() if ball.level(i) < r - 1)
        verts = ball.verts
        pairs = [(rng.choice(verts), rng.choice(verts)) for _ in range(PAIRS)]
        sep = best_of(args.repeat, lambda: separate_all(pairs))
        print(f"{'':<11} queries: hyperplanes {len(set(ball.edge_hyperplanes().values())):>6,}  "
              f"edge_hyperplanes {hyp * 1e3:6.2f} ms ({star_writes:>7,} writes; "
              f"all stars fed by {fed:>6,} of {ball.edge_count():>6,} edges)  "
              f"separating_hyperplanes {sep / PAIRS * 1e6:6.2f} us/call")
    sq4 = load("SQ4")
    for size in FLAT_SIZES:
        grid = flat_witness(sq4, ("a", "c"), ("b", "d"), size)
        counts = {"_push": 0}
        orig = counted("_push", counts)
        assert grid.is_isometric()
        geometry._push = orig
        check = best_of(args.repeat, grid.is_isometric)
        print(f"SQ4 flat size {size:>2}  pushes {counts['_push']:>9,}  "
              f"is_isometric {check * 1e3:8.2f} ms")


if __name__ == "__main__":
    main()
