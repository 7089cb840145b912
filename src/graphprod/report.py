"""Full invariant reports and pairwise quasi-isometry comparison.

`analyze` computes every decision procedure in the library for one graph and
packages the results; `compare` confronts two graphs on hyperbolicity, the
minsquare-graph/join-form condition, existence of a square-complete square
with all orders 2, hyperbolicity of the electrification, and the isomorphism
types (with order labels) of the minsquare subgraphs and of the peripheral
members.  The piece types are not quasi-isometry invariants: isomorphism is
finer than quasi-isometry, so two quasi-isometric groups can have pieces of
different types, and a verdict that rests only on `minsquare_types` or
`jinf_types` proves nothing (the note `_FOOTNOTE` says so in every verdict).
Matching on all counts is reported as "inconclusive", never as a positive
quasi-isometry claim.  The `graphprod.isomorphism` module docstring says
how pieces are sorted into types.
"""

from __future__ import annotations

from json import loads
from json.encoder import encode_basestring_ascii as _str
from typing import NamedTuple

from . import __version__
from .isomorphism import MAX_EXACT_VERTICES, _piece_types
from .relhyp import jinf
from .squares import (
    _core,
    _core_split,
    cfs_check,
    electrification_hyperbolic,
    is_hyperbolic,
    is_minsquare_graph,
    minsquare_subgraphs,
    morse_all_hyperbolic,
)
from .graphs import _bits, clique_number

__all__ = ["AnalysisReport", "ComparisonVerdict", "analyze", "compare",
           "render_report", "render_comparison"]

# The JSON of both classes is written by hand, laid out byte for byte as
# json.dumps(indent=2, sort_keys=True) lays out the same values: keys in
# sorted order, a newline and two spaces per level before each item, a
# container closing at the indentation of the level above, ASCII string
# escapes.  The fixed part of each layout is a template below; the lists
# are joined into it.
_REPORT_JSON = """{
  "cfs": %s,
  "clique_number": %d,
  "core": {
    "lambda0": %s,
    "lambda1": %s
  },
  "electrification_hyperbolic": {
    "hyperbolic": %s,
    "uncovered_squares": %s
  },
  "essential": %s,
  "graph_name": %s,
  "hyperbolic": %s,
  "is_minsquare_graph": %s,
  "jinf_iterations": %d,
  "jinf_members": %s,
  "minsquare_subgraphs": %s,
  "morse_all_hyperbolic": {
    "all_hyperbolic": %s,
    "certificate": %s
  },
  "n_induced_squares": %d,
  "n_vertices": %d,
  "orders": %s,
  "rh_status": %s,
  "square_free": %s,
  "tool_version": %s
}"""
_PIECE_JSON = """{
      "orders": %s,
      "vertices": %s
    }"""
_SQUARE_FREE_JSON = """{
      "kind": "square-free"
    }"""
_JOIN_JSON = """{
      "complete_part": %s,
      "kind": "join",
      "minsquare_part": %s
    }"""
_NO_JOIN_JSON = """{
      "explanation": %s,
      "kind": "none"
    }"""
_VERDICT_JSON = """{
  "distinguishing_invariants": %s,
  "notes": %s,
  "pair": %s,
  "verdict": %s
}"""
_DIFF_JSON = """{
      "a": %s,
      "b": %s,
      "invariant": %s
    }"""
_I1, _I2, _I3 = ("\n" + "  " * d for d in range(1, 4))


def _array(items, ind, opening="[", closing="]"):
    """A JSON array of written items that closes at indentation `ind` (a
    newline and the spaces); an object when given braces."""
    if not items:
        return opening + closing
    inner = ind + "  "
    return opening + inner + ("," + inner).join(items) + ind + closing


def _vertex_list(names, mask, ind):
    return _array([names[i] for i in _bits(mask)], ind)


def _bool(x):
    return "true" if x else "false"


_FOOTNOTE = ("piece types are matched up to isomorphism with order labels, "
             "which is finer than quasi-isometry of the pieces; matching "
             "multisets support but never prove quasi-isometry")


class AnalysisReport(NamedTuple):
    graph_name: str
    n_vertices: int
    orders: dict
    clique_number: int
    square_free: bool
    hyperbolic: bool
    essential: bool
    core: tuple  # (lambda0, lambda1) vertex sets
    n_induced_squares: int
    minsquare_subgraphs: tuple
    is_minsquare_graph: bool
    cfs: bool
    electrification: object  # ElectrificationCheck
    morse: object            # MorseDichotomy
    jinf_members: tuple
    jinf_iterations: int
    rh_status: str
    tool_version: str

    def to_json(self):
        """The report as `json.dumps(..., indent=2, sort_keys=True)` would
        write its dict.  Vertex lists are read off the masks through one
        table of encoded vertex names; `orders` are the graph's."""
        lam0, lam1 = self.core
        g = lam0.graph
        names = list(map(_str, g.vertices))
        orders = g._orders_ix

        cert = self.morse.certificate
        if isinstance(cert, str) and cert == "square-free":
            cert_json = _SQUARE_FREE_JSON
        elif isinstance(cert, tuple):
            cert_json = _JOIN_JSON % (_vertex_list(names, cert[1].mask, _I3),
                                      _vertex_list(names, cert[0].mask, _I3))
        else:
            cert_json = _NO_JOIN_JSON % _str(str(cert))
        pieces = []
        for m in self.minsquare_subgraphs:
            ix = _bits(m.mask)
            pieces.append(_PIECE_JSON % (
                _array([str(k) for k in sorted(orders[i] for i in ix)], _I3),
                _array([names[i] for i in ix], _I3)))
        order_items = [f"{e}: {k}" for _, e, k in
                       sorted(zip(g.vertices, names, orders))]

        return _REPORT_JSON % (
            _bool(self.cfs),
            self.clique_number,
            _vertex_list(names, lam0.mask, _I2),
            _vertex_list(names, lam1.mask, _I2),
            _bool(self.electrification.hyperbolic),
            _array([_vertex_list(names, q.mask, _I3)
                    for q in self.electrification.uncovered], _I2),
            _bool(self.essential),
            _str(self.graph_name),
            _bool(self.hyperbolic),
            _bool(self.is_minsquare_graph),
            self.jinf_iterations,
            _array([_vertex_list(names, m.mask, _I2)
                    for m in self.jinf_members], _I1),
            _array(pieces, _I1),
            _bool(self.morse.all_hyperbolic),
            cert_json,
            self.n_induced_squares,
            self.n_vertices,
            _array(order_items, _I1, "{", "}"),
            _str(self.rh_status),
            _bool(self.square_free),
            _str(self.tool_version))

    def to_dict(self):
        return loads(self.to_json())


def analyze(g):
    per = jinf(g)
    sq = _core(g)
    n_squares = sq.n_squares
    return AnalysisReport(
        graph_name=g.name,
        n_vertices=g.n,
        orders=g.orders,
        clique_number=clique_number(g),
        square_free=n_squares == 0,
        hyperbolic=is_hyperbolic(g),
        # is_essential's test: no vertex is adjacent to all the others
        essential=not sq.universal,
        core=_core_split(g),
        n_induced_squares=n_squares,
        minsquare_subgraphs=minsquare_subgraphs(g),
        is_minsquare_graph=is_minsquare_graph(g),
        cfs=cfs_check(g),
        electrification=electrification_hyperbolic(g),
        morse=morse_all_hyperbolic(g),
        jinf_members=per.members,
        jinf_iterations=per.iterations,
        rh_status=per.status,
        tool_version=__version__,
    )


def render_report(report):
    """The report as text; vertex sets print as `{a,b}` in declaration
    order."""
    r = report
    cert = r.morse.certificate
    if isinstance(cert, tuple):
        cert = f"join of {cert[0]} and {cert[1]}"
    rows = [
        ("clique number", r.clique_number),
        ("hyperbolic (square-free)", r.hyperbolic),
        ("essential", r.essential),
        ("core split", " * ".join(map(str, r.core))),
        ("induced squares", r.n_induced_squares),
        ("minsquare subgraphs",
         "; ".join(map(str, r.minsquare_subgraphs)) or "(none)"),
        ("minsquare graph", r.is_minsquare_graph),
        ("CFS", r.cfs),
        ("electrification hyperbolic", r.electrification.hyperbolic),
        ("morse subgroups all hyperbolic", f"{r.morse.all_hyperbolic} ({cert})"),
        ("peripheral members",
         "; ".join(map(str, r.jinf_members)) or "(none)"),
        ("relative hyperbolicity", r.rh_status),
    ]
    width = max(len(k) for k, _ in rows)
    lines = [f"graph {r.graph_name}: {r.n_vertices} vertices, "
             f"orders {r.orders}"]
    lines += [f"  {k:<{width}}  {v}" for k, v in rows]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# comparison


class ComparisonVerdict(NamedTuple):
    pair: tuple
    distinguishing_invariants: tuple  # (name, value_a, value_b) triples
    verdict: str                      # "distinguished" | "inconclusive"
    notes: tuple

    def to_json(self):
        """Written as `AnalysisReport.to_json` writes, sorted keys first."""
        diffs = [_DIFF_JSON % (_str(a), _str(b), _str(name))
                 for name, a, b in self.distinguishing_invariants]
        return _VERDICT_JSON % (
            _array(diffs, _I1),
            _array([_str(t) for t in self.notes], _I1),
            _array([_str(t) for t in self.pair], _I1),
            _str(self.verdict))

    def to_dict(self):
        return loads(self.to_json())


def compare(ga, gb):
    """Confront two graphs on the quasi-isometry invariants of their graph
    products.  A difference in any invariant distinguishes the groups;
    agreement on all of them is inconclusive (these are necessary conditions
    only)."""
    diffs = []
    notes = [_FOOTNOTE]

    ha, hb = is_hyperbolic(ga), is_hyperbolic(gb)
    if ha != hb:
        diffs.append(("hyperbolic", str(ha), str(hb)))

    ca, cb = _core(ga), _core(gb)
    msa, msb = is_minsquare_graph(ga), is_minsquare_graph(gb)
    ja, jb = ca.join_form, cb.join_form
    if (msa and not jb) or (msb and not ja):
        diffs.append(("minsquare_join_form",
                      f"minsquare graph: {msa}; join form: {ja}",
                      f"minsquare graph: {msb}; join form: {jb}"))

    sa, sb = ca.sc_order2_square, cb.sc_order2_square
    if sa != sb:
        diffs.append(("square_complete_order2_square", str(sa), str(sb)))

    ea, eb = ca.electrification_hyperbolic, cb.electrification_hyperbolic
    if ea != eb:
        diffs.append(("electrification_hyperbolic", str(ea), str(eb)))

    invariants = {
        "minsquare_types": (minsquare_subgraphs(ga), minsquare_subgraphs(gb)),
        "jinf_types": (jinf(ga).members, jinf(gb).members)}
    for name, (exact, (ca, da), (cb, db)) in zip(
            invariants, _piece_types(invariants.values())):
        if ca != cb:
            diffs.append((name, da, db))
        elif not exact:
            notes.append(f"{name}: pieces above {MAX_EXACT_VERTICES} vertices "
                         "compared by degree/order fingerprints only; matching "
                         "fingerprints left this invariant inconclusive")

    return ComparisonVerdict(
        pair=(ga.name, gb.name),
        distinguishing_invariants=tuple(diffs),
        verdict="distinguished" if diffs else "inconclusive",
        notes=tuple(notes),
    )


def render_comparison(verdict):
    a, b = verdict.pair
    lines = [f"{a} vs {b}: {verdict.verdict}"]
    for name, va, vb in verdict.distinguishing_invariants:
        lines.append(f"  {name}:")
        lines.append(f"    {a}: {va}")
        lines.append(f"    {b}: {vb}")
    for note in verdict.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)
