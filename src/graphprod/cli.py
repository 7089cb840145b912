"""Command-line front end.

    gpr analyze FILE [--json]
    gpr compare A B [--json]
    gpr reduce FILE --word W
    gpr distance FILE --from W --to W [--electrified --radius N]
    gpr ball FILE --radius N [--count-only] [--electrified] [--max-vertices N]
    gpr flat FILE --diag1 u,v --diag2 a,b --size N

Words are whitespace-separated tokens ``v`` or ``v^k``; ``e`` is the empty
word.  Exit codes: 0 success, 1 usage, parse or bad-argument error, 2
resource cap hit; errors are one line on stderr.  When the reader of
standard output goes away before everything is written (``gpr ball ... |
head -1``), gpr stops quietly with exit code 1.  ``gpr flat`` caps its grid
at 200,000 vertices, which bounds memory, not time: checking the grid
(``FlatGrid.is_isometric``) takes about size^3 steps on the grids it
builds, and up to about size^4 on a grid whose rows do not repeat, with
no cap.
``gpr analyze`` has no work bound either: its exact maximum-clique search
(``graphs.clique_number``) takes exponential time in the worst case, about
0.8 s on a 100-vertex graph of edge density 0.9.
"""

from __future__ import annotations

import argparse
import os
import sys

from .geometry import (
    BallCapExceeded,
    DEFAULT_VERTEX_CAP,
    build_ball,
    electrified_distance,
    flat_witness,
)
from .graphs import GGParseError, parse_graph
from .report import analyze, compare, render_comparison, render_report
from .words import WordParseError, format_word, invert, multiply, parse_word, reduce_word

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    def _fail(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _build_parser():
    p = _Parser(prog="gpr", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pa = sub.add_parser("analyze", help="full invariant report for one graph")
    pa.add_argument("file")
    pa.add_argument("--json", action="store_true")

    pc = sub.add_parser("compare", help="confront two graphs on QI invariants")
    pc.add_argument("file_a")
    pc.add_argument("file_b")
    pc.add_argument("--json", action="store_true")

    pr = sub.add_parser("reduce", help="canonical normal form of a word")
    pr.add_argument("file")
    pr.add_argument("--word", required=True)

    pd = sub.add_parser("distance", help="word-metric or electrified distance")
    pd.add_argument("file")
    pd.add_argument("--from", dest="from_", required=True, metavar="W")
    pd.add_argument("--to", required=True, metavar="W")
    pd.add_argument("--electrified", action="store_true")
    pd.add_argument("--radius", type=int)

    pb = sub.add_parser("ball", help="materialize a Cayley ball")
    pb.add_argument("file")
    pb.add_argument("--radius", type=int, required=True)
    pb.add_argument("--count-only", action="store_true")
    pb.add_argument("--electrified", action="store_true")
    pb.add_argument("--max-vertices", type=int, default=DEFAULT_VERTEX_CAP)

    pf = sub.add_parser("flat", help="flat grid spanned by two square diagonals")
    pf.add_argument("file")
    pf.add_argument("--diag1", required=True, metavar="u,v")
    pf.add_argument("--diag2", required=True, metavar="a,b")
    pf.add_argument("--size", type=int, required=True)
    return p


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"gpr: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
    try:
        return parse_graph(text)
    except (GGParseError, ValueError) as exc:
        print(f"gpr: {path}: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


def _word(g, text):
    try:
        return reduce_word(parse_word(g, text))
    except WordParseError as exc:
        print(f"gpr: bad word {text!r}: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


def _pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        print(f"gpr: expected a pair u,v (got {text!r})", file=sys.stderr)
        raise SystemExit(1)
    return parts[0].strip(), parts[1].strip()


def _checked(call, *args, **kwargs):
    """Run a library call whose ValueError means a bad argument: a negative
    radius or size, a point outside the ball, diagonals spanning no square,
    a flat grid over the vertex cap."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        print(f"gpr: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        code = _dispatch(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BallCapExceeded as exc:
        print(f"gpr: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader is gone; send what is still buffered to devnull so
        # the interpreter's final flush raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def _dispatch(args):
    cmd = args.command
    if cmd == "analyze":
        rep = analyze(_load(args.file))
        print(rep.to_json() if args.json else render_report(rep))
        return 0
    if cmd == "compare":
        verdict = compare(_load(args.file_a), _load(args.file_b))
        print(verdict.to_json() if args.json else render_comparison(verdict))
        return 0
    if cmd == "reduce":
        g = _load(args.file)
        print(format_word(_word(g, args.word)))
        return 0
    if cmd == "distance":
        g = _load(args.file)
        x = _word(g, args.from_)
        y = _word(g, args.to)
        if args.electrified:
            if args.radius is None:
                print("gpr: --electrified requires --radius", file=sys.stderr)
                return 1
            d = _checked(electrified_distance, x, y, args.radius)
            print(f"{d.value} (radius {d.radius})")
        elif args.radius is not None:
            print("gpr: --radius requires --electrified", file=sys.stderr)
            return 1
        else:
            print(multiply(invert(x), y).length)
        return 0
    if cmd == "ball":
        g = _load(args.file)
        ball = _checked(build_ball, g, args.radius,
                        electrified=args.electrified,
                        max_vertices=args.max_vertices)
        if args.count_only:
            print(ball.vertex_count)
        else:
            print(f"vertices {ball.vertex_count} edges {ball.edge_count()}"
                  + (f" cone_edges {ball.cone_edge_count()}" if args.electrified else ""))
            for nf in ball.verts:
                print(format_word(nf))
        return 0
    if cmd == "flat":
        g = _load(args.file)
        grid = _checked(flat_witness, g, _pair(args.diag1),
                        _pair(args.diag2), args.size)
        for row in grid.all_vertices():
            print(" | ".join(format_word(nf) for nf in row))
        print(f"isometric: {grid.is_isometric()}")
        return 0
    raise AssertionError(f"unhandled command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
