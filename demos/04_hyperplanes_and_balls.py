"""Cayley balls, hyperplanes, and flat grids.

Balls around the identity are finite certificates for the group's geometry:
BFS distance equals reduced-word length, hyperplanes (edge classes under
triangles and opposite square sides) match their algebraic identifiers, and
geodesics cross each hyperplane exactly once.
"""

from graphprod import (
    build_ball,
    corpus,
    flat_witness,
    format_word,
    hyperplane_of_edge,
    identity,
    parse_word,
    reduce_word,
    separating_hyperplanes,
    transverse,
)

sq4 = corpus.load("SQ4")
for r in range(4):
    print(f"ball of radius {r} in SQ4: {build_ball(sq4, r).vertex_count} vertices")

ball = build_ball(sq4, 3)
print(f"\nd(identity, x) from BFS equals |x| for all {ball.vertex_count} vertices:",
      ball.distances_from([0])[0] == [len(v) for v in ball.verts])

print(f"\nhyperplane classes among the {ball.edge_count()} edges:",
      len(set(ball.edge_hyperplanes().values())))

e = identity(sq4)
x = reduce_word(parse_word(sq4, "a c"))
print(f"\nhyperplanes separating identity from {x}:")
for h in separating_hyperplanes(e, x):
    print(f"  label {h.label}, carrier coset of {format_word(h.coset)!r}")

ja = hyperplane_of_edge(e, "a")
jb = hyperplane_of_edge(e, "b")
jca = hyperplane_of_edge(reduce_word(parse_word(sq4, "c")), "a")
print(f"\n{ja} transverse to {jb}: {transverse(ja, jb, ball)} "
      "(adjacent labels, crossing flats)")
print(f"{ja} transverse to {jca}: {transverse(ja, jca, ball)} "
      "(parallel translates of the same wall)")

print("\nA flat grid spanned by the two diagonals of the square, "
      "distances all l1:")
grid = flat_witness(sq4, ("a", "c"), ("b", "d"), 3)
for row in grid.all_vertices():
    print("  " + " | ".join(f"{format_word(v):7}" for v in row))
print("isometric:", grid.is_isometric())

print("\nDIAG: the same construction over diagonals {a,c} and {b,w} walks")
print("out of the subgroup on {a,b,c,d}, witnessing that this subgroup")
print("is not Morse there:")
diag = corpus.load("DIAG")
grid = flat_witness(diag, ("a", "c"), ("b", "w"), 3)
print("vertical ray:", [format_word(v) for v in grid.vertical])
print("isometric:", grid.is_isometric())
