"""One digest over the geometry module's observable output.

The companion of `test_output_digest.py` for balls, hyperplanes and flats:
refactors of `geometry.py` must keep every value below byte-identical.  It
covers the corpus at radius 3 and seeded random graphs (vertex orders 2..4)
at radius 2, each plain and electrified: the formatted vertices, the edges,
the cone groups and their edge count, the edge hyperplanes, plain and
electrified distances from the identity and the separating hyperplanes of
seeded vertex pairs; and, for every induced square of the corpus, the
size-3 flat grid over its diagonals and whether it is isometric.  A change
that alters output on purpose re-records EXPECTED and says why in
CHANGES.md; the new value is printed by
`DIGEST_PRINT=1 pytest -s tests/test_geometry_digest.py`.
"""

import hashlib
import os
import random

from graphprod.corpus import CORPUS_NAMES, load
from graphprod.geometry import build_ball, flat_witness, separating_hyperplanes
from graphprod.graphs import induced_squares, square_diagonals
from graphprod.words import format_word

from references import make_random_graph

EXPECTED = "e6eafad4fac68c7c701ed874352daedf35b6b261efcf5fb1baeabb73a570c884"

PAIRS_PER_BALL = 8


def digest_cases():
    rng = random.Random(20261018)
    cases = [(load(name), 3) for name in CORPUS_NAMES]
    cases += [(make_random_graph(rng, 6, max_order=4, name=f"GD{k}"), 2)
              for k in range(20)]
    return cases


def _ball_lines(ball, rng):
    verts = ball.verts
    yield f"ball {ball!r}"
    yield "verts " + " ".join(format_word(x) for x in verts)
    yield f"edges {list(ball.edges())!r}"
    yield f"cones {ball.cone_groups!r} {ball.cone_edge_count()}"
    yield f"hyp {[f'{e} {h!r}' for e, h in ball.edge_hyperplanes().items()]!r}"
    yield f"dist {ball.distances_from([0])!r}"
    yield f"edist {ball.bfs_electrified(0)!r}"
    n = len(verts)
    for _ in range(PAIRS_PER_BALL):
        x, y = verts[rng.randrange(n)], verts[rng.randrange(n)]
        yield (f"sep {format_word(x)} {format_word(y)} "
               f"{separating_hyperplanes(x, y)!r}")


def _flat_lines(g):
    for q in induced_squares(g):
        diag1, diag2 = square_diagonals(q)
        grid = flat_witness(g, diag1, diag2, 3)
        rows = [[format_word(x) for x in row] for row in grid.all_vertices()]
        yield f"flat {q!r} {rows!r} {grid.is_isometric()}"


def geometry_digest():
    h = hashlib.sha256()

    def put(text):
        h.update(text.encode())
        h.update(b"\0")

    rng = random.Random(4242)
    for g, radius in digest_cases():
        for electrified in (False, True):
            for line in _ball_lines(build_ball(g, radius, electrified), rng):
                put(line)
    for name in CORPUS_NAMES:
        for line in _flat_lines(load(name)):
            put(line)
    return h.hexdigest()


def test_geometry_digest():
    got = geometry_digest()
    if os.environ.get("DIGEST_PRINT"):
        print(got)
    assert got == EXPECTED, (
        "geometry output changed; if on purpose, re-record EXPECTED and say "
        "why in CHANGES.md")
