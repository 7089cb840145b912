"""The bundled example graphs used throughout the tests and demos.

SQ4         4-cycle
C5          5-cycle (square-free)
K4          complete graph on 4 vertices (square-free)
K33         complete bipartite 3+3
CONE        SQ4 plus a universal vertex
DIAG        SQ4 plus a vertex adjacent to the diagonal pair {a, c}
EDGEW       SQ4 plus a vertex adjacent to the edge {a, b}
ELEC_FALSE  smallest graph whose electrification is not hyperbolic
"""

import os

from .graphs import parse_graph

__all__ = ["CORPUS_NAMES", "corpus_text", "load", "all_graphs"]

CORPUS_NAMES = ("SQ4", "C5", "K4", "K33", "CONE", "DIAG", "EDGEW", "ELEC_FALSE")


def corpus_text(name):
    if name not in CORPUS_NAMES:
        raise KeyError(f"no corpus graph named {name!r}")
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.gg")
    with open(path, encoding="utf-8") as f:
        return f.read()


def load(name):
    return parse_graph(corpus_text(name))


def all_graphs():
    return {name: load(name) for name in CORPUS_NAMES}
