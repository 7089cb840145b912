"""The minimal peripheral structure of a graph product.

Start from the induced squares, repeatedly merge members whose intersection
is not complete, and pad each merged piece by every vertex whose link meets
it in a non-complete set.  The fixed point is the smallest collection of
parabolic subgroups the group can be hyperbolic relative to: empty means the
group is hyperbolic outright; a member equal to the whole graph means no
proper peripheral structure exists.
"""

from graphprod import corpus, induced_squares, jinf
from graphprod.relhyp import _step
from graphprod.graphs import _set_from_mask


def show_iteration(g):
    collection = sorted(q.mask for q in induced_squares(g))
    step = 0
    print(f"  J^0 = {[_set_from_mask(g, m) for m in collection] or '()'}")
    while collection:
        nxt = _step(g, collection)
        if nxt == collection:
            break
        step += 1
        collection = nxt
        print(f"  J^{step} = {[_set_from_mask(g, m) for m in collection]}")
    print(f"  stable after {step} merge-and-pad steps")


for name in ("C5", "SQ4", "EDGEW", "DIAG", "CONE", "ELEC_FALSE"):
    g = corpus.load(name)
    print(f"{name}:")
    show_iteration(g)
    per = jinf(g)
    print(f"  status: {per.status}")
    if per.status == "proper":
        members = ", ".join(str(m) for m in per.members)
        print(f"  the group is hyperbolic relative to the parabolics on: {members}")
    print()
