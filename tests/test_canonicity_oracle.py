"""Brute-force checks of the canonical-form and coset-representative claims.

The whole shuffle class of a reduced word is enumerated by BFS over adjacent
commuting transpositions; the canonical form must be its lexicographically
least member (by vertex declaration index, then exponent), the head must be
the longest s-supported prefix any member achieves, and the stored coset
representative must be the unique shortest element of its coset in the ball.
"""

import random
from collections import deque

from graphprod.geometry import build_ball, hyperplane_of_edge
from graphprod.graphs import star
from graphprod.words import Word, head, invert, multiply, reduce_word

from references import make_random_graph


def shuffle_class(g, sylls):
    """All words reachable from `sylls` by swapping adjacent commuting
    syllables, as tuples of (vertex index, exponent)."""
    start = tuple(sylls)
    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for i in range(len(w) - 1):
            (u, e), (v, f) = w[i], w[i + 1]
            if u != v and g.adjacent(g.vertices[u], g.vertices[v]):
                nxt = w[:i] + ((v, f), (u, e)) + w[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen


def random_reduced(g, rng, max_len=8):
    sylls = [(v, rng.randint(1, g.order(v) - 1))
             for v in (rng.choice(g.vertices) for _ in range(max_len))]
    return reduce_word(Word(g, sylls))


def test_canonical_is_least_in_shuffle_class():
    rng = random.Random(1729)
    for k in range(60):
        g = make_random_graph(rng, 6, name=f"LEX{k}")
        x = random_reduced(g, rng)
        cls = shuffle_class(g, x.sylls)
        assert x.sylls == min(cls)


def test_head_is_maximal_over_shuffle_class():
    rng = random.Random(2930)
    for k in range(40):
        g = make_random_graph(rng, 6, name=f"HD{k}")
        s = g.subset({v for v in g.vertices if rng.random() < 0.5})
        allowed = {g.index(v) for v in s.members}
        x = random_reduced(g, rng)
        hd, _ = head(x, s)
        best = 0
        for w in shuffle_class(g, x.sylls):
            n = 0
            while n < len(w) and w[n][0] in allowed:
                n += 1
            best = max(best, n)
        assert hd.length == best


def test_hyperplane_coset_rep_is_unique_shortest():
    rng = random.Random(31337)
    for k in range(12):
        g = make_random_graph(rng, 5, max_order=3, name=f"CS{k}")
        ball = build_ball(g, 3)
        for _ in range(20):
            x = rng.choice(ball.verts)
            u = rng.choice(g.vertices)
            rep = hyperplane_of_edge(x, u).coset
            stf = star(g, u)
            xinv = invert(x)
            members = [z for z in ball.verts
                       if multiply(xinv, z).support <= stf.members]
            assert rep in members
            shortest = [z for z in members
                        if len(z) == min(len(m) for m in members)]
            assert shortest == [rep]
