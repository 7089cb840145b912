"""`analyze` and `compare` ignore the order in which vertices are declared.

Every bitmask in the library indexes vertices by declaration order, so a
fast path that leans on that order (a lowest bit taken as a canonical
choice, a mask compared as a number) would show here: each graph is rebuilt
with its vertices shuffled and must give the same answers.  Lists in the
`analyze` JSON follow declaration order, so they are compared sorted, and so
are the vertex sets written inside the Morse explanation string.
"""

import json
import random
import re

from graphprod.corpus import all_graphs
from graphprod.graphs import SimplicialGraph
from graphprod.report import analyze, compare

from references import make_random_graph

_VERTEX_SET = re.compile(r"\{([^{}]*)\}")


def _shuffled(g, rng):
    verts = list(g.vertices)
    rng.shuffle(verts)
    return SimplicialGraph(g.name, verts, g.edges, g.orders)


def _normal(x):
    """x with every list sorted and every `{a,b}` inside a string sorted."""
    if isinstance(x, dict):
        return {k: _normal(v) for k, v in x.items()}
    if isinstance(x, list):
        return sorted((_normal(v) for v in x), key=json.dumps)
    if isinstance(x, str):
        return _VERTEX_SET.sub(
            lambda m: "{" + ",".join(sorted(m[1].split(","))) + "}", x)
    return x


def _graph_pairs():
    rng = random.Random(4242)
    graphs = list(all_graphs().values())
    graphs += [make_random_graph(rng, 9, name=f"R{k}") for k in range(300)]
    return [(g, _shuffled(g, rng)) for g in graphs]


def test_analyze_ignores_vertex_order():
    moved = 0
    pairs = _graph_pairs()
    for g, h in pairs:
        a, b = analyze(g).to_json(), analyze(h).to_json()
        moved += a != b
        assert _normal(json.loads(a)) == _normal(json.loads(b)), g
    # the normalising is needed: most shuffles reorder some list
    assert moved > len(pairs) // 2


def test_compare_ignores_vertex_order():
    pairs = _graph_pairs()
    rng = random.Random(4243)
    for _ in range(400):
        (ga, ha), (gb, hb) = rng.sample(pairs, 2)
        assert compare(ga, gb) == compare(ha, hb), (ga, gb)
