import random

import pytest

from graphprod import build_ball, corpus

from references import make_random_graph


@pytest.fixture(scope="session")
def corpus_graphs():
    return corpus.all_graphs()


@pytest.fixture(scope="session")
def random_graphs_9():
    """200 seeded random graphs on at most 9 vertices (orders up to 3)."""
    rng = random.Random(90210)
    return [make_random_graph(rng, 9, name=f"R9_{k}") for k in range(200)]


@pytest.fixture(scope="session")
def random_graphs_7():
    """50 seeded random graphs on at most 7 vertices, orders up to 3, with
    radius-3 balls kept below 450 vertices so all-pairs checks stay fast."""
    rng = random.Random(777)
    out = []
    while len(out) < 50:
        g = make_random_graph(rng, 7, name=f"R7_{len(out)}")
        ball = build_ball(g, 3)
        if ball.vertex_count <= 450:
            out.append(g)
    return out


@pytest.fixture(scope="session")
def balls3(corpus_graphs):
    return {name: build_ball(g, 3) for name, g in corpus_graphs.items()}


@pytest.fixture(scope="session")
def balls4(corpus_graphs):
    return {name: build_ball(g, 4) for name, g in corpus_graphs.items()}


@pytest.fixture(scope="session")
def eballs4(corpus_graphs):
    return {name: build_ball(g, 4, electrified=True)
            for name, g in corpus_graphs.items()}
