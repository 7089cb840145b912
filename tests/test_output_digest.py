"""One digest over the library's observable output on a seeded graph set.

Refactors must keep every output byte-identical; this test pins them all at
once: `analyze` JSON, `compare` JSON and text for every ordered corpus pair,
closure traces and square diagonals; a second digest pins the `analyze`
text of `render_report` over the same graphs.  A change that alters output
on purpose re-records EXPECTED (or RENDER_EXPECTED) and says why in
CHANGES.md; the new values are printed by
`DIGEST_PRINT=1 pytest -s tests/test_output_digest.py`.
"""

import hashlib
import os
import random
from itertools import combinations

from graphprod.corpus import CORPUS_NAMES, load
from graphprod.graphs import SimplicialGraph, induced_squares, square_diagonals
from graphprod.report import analyze, compare, render_comparison, render_report
from graphprod.squares import square_complete_closure

EXPECTED = "8110b06bac272969c2c2efa332f75103c37706778175ada5d5bd5fb823102089"
RENDER_EXPECTED = "d2c3da6e1fba23e7254324315935afe0afe0f8a6d9769abd1a3514371609f98d"

def _gnp(rng, name, n, p, max_order=3):
    verts = [f"v{i}" for i in range(n)]
    edges = [(u, v) for u, v in combinations(verts, 2) if rng.random() < p]
    orders = {v: rng.randint(2, max_order) for v in verts if rng.random() < 0.3}
    return SimplicialGraph(name, verts, edges, orders)


def _sparse(rng, name, n, mean_degree):
    verts = [f"v{i}" for i in range(n)]
    edges = set()
    while len(edges) < n * mean_degree // 2:
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((verts[i], verts[j]))
    return SimplicialGraph(name, verts, sorted(edges))


def digest_graphs():
    rng = random.Random(20261018)
    graphs = [load(name) for name in CORPUS_NAMES]
    graphs += [_gnp(rng, f"S{k}", rng.randint(3, 12), rng.uniform(0.25, 0.7))
               for k in range(60)]
    graphs += [_gnp(rng, f"D{n}", n, rng.uniform(0.35, 0.6))
               for n in range(12, 31, 2)]
    graphs += [_sparse(rng, f"P{n}", n, rng.randint(2, 5))
               for n in range(100, 201, 25)]
    return graphs


def _closure_lines(g):
    """Closure traces of the first, middle and last squares and of the union
    of the first two (tracing every square of a dense graph would dominate
    the run time), then the diagonals of every square."""
    squares = induced_squares(g)
    if not squares:
        return
    seeds = [squares[i] for i in sorted({0, len(squares) // 2, len(squares) - 1})]
    if len(squares) > 1:
        seeds.append(squares[0].union(squares[1]))
    for seed in seeds:
        tr = square_complete_closure(seed)
        yield f"closure {seed!r} {tr.steps!r} {tr.result!r}"
    for q in squares:
        yield f"diag {q!r} {square_diagonals(q)!r}"


def output_digest():
    h = hashlib.sha256()

    def put(text):
        h.update(text.encode())
        h.update(b"\0")

    for g in digest_graphs():
        put(analyze(g).to_json())
        for line in _closure_lines(g):
            put(line)
    corpus = [load(name) for name in CORPUS_NAMES]
    for ga in corpus:
        for gb in corpus:
            v = compare(ga, gb)
            put(v.to_json())
            put(render_comparison(v))
    return h.hexdigest()


def test_output_digest():
    got = output_digest()
    if os.environ.get("DIGEST_PRINT"):
        print(got)
    assert got == EXPECTED, (
        "library output changed; if on purpose, re-record EXPECTED and say "
        "why in CHANGES.md")


def render_digest():
    h = hashlib.sha256()
    for g in digest_graphs():
        h.update(render_report(analyze(g)).encode())
        h.update(b"\0")
    return h.hexdigest()


def test_render_report_digest():
    got = render_digest()
    if os.environ.get("DIGEST_PRINT"):
        print(got)
    assert got == RENDER_EXPECTED, (
        "render_report output changed; if on purpose, re-record "
        "RENDER_EXPECTED and say why in CHANGES.md")
