"""Square-complete closures, minsquare subgraphs, and the Morse dichotomy.

An induced square in the defining graph is the footprint of a flat plane in
the group.  Closing a square under "absorb any square that meets the current
set in an opposite pair" yields the smallest square-complete subgraph around
it; the minimal such closures (the minsquare subgraphs) span exactly the
subgroups every quasi-isometry must respect.
"""

from graphprod import (
    corpus,
    induced_squares,
    is_minsquare_graph,
    minsquare_subgraphs,
    morse_all_hyperbolic,
    square_complete_closure,
)

diag = corpus.load("DIAG")
print("DIAG is the 4-cycle a,b,c,d plus w joined to the diagonal pair {a,c}.")
seed = diag.subset("abcd")
trace = square_complete_closure(seed)
print(f"closing the square {seed}:")
for added, trigger in trace.steps:
    print(f"  forced in {added} by the squares through its diagonal {trigger}")
print(f"  result: {trace.result}\n")

edgew = corpus.load("EDGEW")
print("EDGEW attaches w along the edge {a,b} instead: no square meets the")
print(f"4-cycle in a diagonal, so the closure stalls immediately:")
trace = square_complete_closure(edgew.subset("abcd"))
print(f"  result: {trace.result}, {len(trace.steps)} steps\n")

print(f"{'graph':12} {'squares':>8} {'minsquare pieces':<24} "
      f"{'minsquare graph':>16}")
for name in corpus.CORPUS_NAMES:
    g = corpus.load(name)
    pieces = "; ".join(str(m) for m in minsquare_subgraphs(g)) or "(none)"
    print(f"{name:12} {len(induced_squares(g)):>8} {pieces:<24} "
          f"{str(is_minsquare_graph(g)):>16}")

print("\nWhen is every infinite-index Morse subgroup hyperbolic?")
print("Exactly when the graph is square-free or splits as")
print("(minsquare piece) * (complete graph):")
for name in corpus.CORPUS_NAMES:
    verdict = morse_all_hyperbolic(corpus.load(name))
    cert = verdict.certificate
    if isinstance(cert, tuple):
        cert = f"join {cert[0]} * {cert[1]}"
    print(f"  {name:12} {str(verdict.all_hyperbolic):5}  {cert}")
