"""Full invariant reports and pairwise quasi-isometry comparison.

`analyze` computes every decision procedure in the library for one graph and
packages the results; `compare` confronts two graphs on the invariants that
are actually transported by quasi-isometries of the groups: hyperbolicity,
the minsquare-graph/join-form condition, existence of a square-complete
square with all orders 2, hyperbolicity of the electrification, and the
isomorphism types (with order labels) of the minsquare subgraphs and of the
peripheral members.  Matching on all counts is reported as "inconclusive",
never as a positive quasi-isometry claim.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from . import __version__
from .isomorphism import MAX_EXACT_VERTICES, canonical_key, fingerprint, piece_label
from .geometry import is_essential
from .relhyp import jinf
from .squares import (
    _core,
    cfs_check,
    electrification_hyperbolic,
    is_hyperbolic,
    is_minsquare_graph,
    minsquare_subgraphs,
    morse_all_hyperbolic,
)
from .graphs import clique_number, core_decomposition

__all__ = ["AnalysisReport", "ComparisonVerdict", "analyze", "compare",
           "render_report", "render_comparison"]

_FOOTNOTE = ("piece types are matched up to isomorphism with order labels, "
             "which is finer than quasi-isometry of the pieces; matching "
             "multisets support but never prove quasi-isometry")


@dataclass(frozen=True)
class AnalysisReport:
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

    def to_dict(self):
        lam0, lam1 = self.core
        cert = self.morse.certificate
        if isinstance(cert, str) and cert == "square-free":
            cert_d = {"kind": "square-free"}
        elif isinstance(cert, tuple):
            cert_d = {"kind": "join",
                      "minsquare_part": list(cert[0].sorted),
                      "complete_part": list(cert[1].sorted)}
        else:
            cert_d = {"kind": "none", "explanation": str(cert)}
        g = lam0.graph
        return {
            "graph_name": self.graph_name,
            "n_vertices": self.n_vertices,
            "orders": dict(self.orders),
            "clique_number": self.clique_number,
            "square_free": self.square_free,
            "hyperbolic": self.hyperbolic,
            "essential": self.essential,
            "core": {"lambda0": list(lam0.sorted), "lambda1": list(lam1.sorted)},
            "n_induced_squares": self.n_induced_squares,
            "minsquare_subgraphs": [
                {"vertices": list(m.sorted),
                 "orders": sorted(g.order(v) for v in m.sorted)}
                for m in self.minsquare_subgraphs],
            "is_minsquare_graph": self.is_minsquare_graph,
            "cfs": self.cfs,
            "electrification_hyperbolic": {
                "hyperbolic": self.electrification.hyperbolic,
                "uncovered_squares": [list(q.sorted)
                                      for q in self.electrification.uncovered]},
            "morse_all_hyperbolic": {
                "all_hyperbolic": self.morse.all_hyperbolic,
                "certificate": cert_d},
            "jinf_members": [list(m.sorted) for m in self.jinf_members],
            "jinf_iterations": self.jinf_iterations,
            "rh_status": self.rh_status,
            "tool_version": self.tool_version,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def analyze(g):
    per = jinf(g)
    n_squares = len(_core(g).squares)
    return AnalysisReport(
        graph_name=g.name,
        n_vertices=g.n,
        orders=g.orders,
        clique_number=clique_number(g),
        square_free=n_squares == 0,
        hyperbolic=is_hyperbolic(g),
        essential=is_essential(g),
        core=core_decomposition(g.full_set()),
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
    d = report.to_dict()
    lines = [f"graph {d['graph_name']}: {d['n_vertices']} vertices, "
             f"orders {d['orders']}"]
    lam = d["core"]
    ms = d["minsquare_subgraphs"]
    ec = d["electrification_hyperbolic"]
    mo = d["morse_all_hyperbolic"]
    cert = mo["certificate"]
    if cert["kind"] == "join":
        cert_s = (f"join of {{{','.join(cert['minsquare_part'])}}} and "
                  f"{{{','.join(cert['complete_part'])}}}")
    elif cert["kind"] == "square-free":
        cert_s = "square-free"
    else:
        cert_s = cert["explanation"]
    rows = [
        ("clique number", d["clique_number"]),
        ("hyperbolic (square-free)", d["hyperbolic"]),
        ("essential", d["essential"]),
        ("core split", f"{{{','.join(lam['lambda0'])}}} * {{{','.join(lam['lambda1'])}}}"),
        ("induced squares", d["n_induced_squares"]),
        ("minsquare subgraphs",
         "; ".join("{" + ",".join(m["vertices"]) + "}" for m in ms) or "(none)"),
        ("minsquare graph", d["is_minsquare_graph"]),
        ("CFS", d["cfs"]),
        ("electrification hyperbolic", ec["hyperbolic"]),
        ("morse subgroups all hyperbolic", f"{mo['all_hyperbolic']} ({cert_s})"),
        ("peripheral members",
         "; ".join("{" + ",".join(m) + "}" for m in d["jinf_members"]) or "(none)"),
        ("relative hyperbolicity", d["rh_status"]),
    ]
    width = max(len(k) for k, _ in rows)
    lines += [f"  {k:<{width}}  {v}" for k, v in rows]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# comparison


@dataclass(frozen=True)
class ComparisonVerdict:
    pair: tuple
    distinguishing_invariants: tuple  # (name, value_a, value_b) triples
    verdict: str                      # "distinguished" | "inconclusive"
    notes: tuple

    def to_dict(self):
        return {
            "pair": list(self.pair),
            "distinguishing_invariants": [
                {"invariant": n, "a": a, "b": b}
                for n, a, b in self.distinguishing_invariants],
            "verdict": self.verdict,
            "notes": list(self.notes),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _has_join_form(g):
    return not is_hyperbolic(g) and morse_all_hyperbolic(g).all_hyperbolic


def _has_sc_order2_square(g):
    # a square is square-complete iff its closure adds nothing
    core = _core(g)
    return any(c == m and all(g.order(v) == 2 for v in q)
               for q, m, c in zip(core.squares, core.masks, core.closures))


def _piece_multiset(pieces, exact=True):
    """(Counter keyed by isomorphism class, display string, exact flag).
    Keys are exact canonical keys when `exact` is set and every piece is
    small enough, degree/order fingerprints otherwise."""
    exact = exact and all(len(p) <= MAX_EXACT_VERTICES for p in pieces)
    keyfn = canonical_key if exact else fingerprint
    counter = Counter()
    labels = {}
    for p in pieces:
        k = keyfn(p)
        counter[k] += 1
        labels.setdefault(k, piece_label(p))
    shown = sorted(f"{counter[k]} x {labels[k]}" for k in counter)
    return counter, ("; ".join(shown) or "(none)"), exact


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

    msa, msb = is_minsquare_graph(ga), is_minsquare_graph(gb)
    ja, jb = _has_join_form(ga), _has_join_form(gb)
    if (msa and not jb) or (msb and not ja):
        diffs.append(("minsquare_join_form",
                      f"minsquare graph: {msa}; join form: {ja}",
                      f"minsquare graph: {msb}; join form: {jb}"))

    sa, sb = _has_sc_order2_square(ga), _has_sc_order2_square(gb)
    if sa != sb:
        diffs.append(("square_complete_order2_square", str(sa), str(sb)))

    ea, eb = electrification_hyperbolic(ga).hyperbolic, \
        electrification_hyperbolic(gb).hyperbolic
    if ea != eb:
        diffs.append(("electrification_hyperbolic", str(ea), str(eb)))

    for name, pieces_a, pieces_b in (
            ("minsquare_types", minsquare_subgraphs(ga), minsquare_subgraphs(gb)),
            ("jinf_types", jinf(ga).members, jinf(gb).members)):
        ca, da, exa = _piece_multiset(pieces_a)
        cb, db, exb = _piece_multiset(pieces_b)
        if exa != exb:
            # one side degraded: compare both by fingerprints for soundness
            ca, da, exa = _piece_multiset(pieces_a, exact=False)
            cb, db, exb = _piece_multiset(pieces_b, exact=False)
        if ca != cb:
            diffs.append((name, da, db))
        elif not exa:
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
