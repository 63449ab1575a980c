"""Command-line front end.

All numeric I/O is exact-rational strings ("p/q"); brackets print as
"[lo, hi]".  --json switches to machine-readable reports, --approx K adds a
K-digit decimal column to human-readable output.  Exit codes: 0 success,
1 domain error, 2 parse/usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .config import load_valuation
from .errors import BadParameter, CakeError, ParseError
from .foundations import cantor_iterate, disjoint_union_witness, removed_mass
from .intervals import parse_interval_set, parse_rational, render_interval_set, total_length
from .protocols import (
    Player,
    check_envy_free,
    check_proportional,
    cut_and_choose,
    last_diminisher,
    moving_knife,
)
from .valuation import CdfValue, cdf, cut, evaluate, slice_valuation

PROTOCOLS = {
    "cut_and_choose": cut_and_choose,
    "last_diminisher": last_diminisher,
    "moving_knife": moving_knife,
}


def _decimal(x: Fraction, digits: int) -> str:
    scaled = round(x * 10**digits)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


def _fmt_value(v: CdfValue, approx: int | None) -> str:
    text = str(v)
    if approx:
        text += f" ≈ {_decimal(v.midpoint, approx)}"
    return text


def _json_value(v: CdfValue):
    if v.is_exact:
        return str(v.value)
    return {"lo": str(v.lo), "hi": str(v.hi)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cakecalc",
        description="Exact interval algebra, cake valuations, and fair division.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument(
        "--tol", default="1/1099511627776", help="tolerance p/q (default 1/2^40)"
    )
    parser.add_argument(
        "--approx", type=int, default=0, metavar="K", help="add a K-digit decimal column"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="value of an interval set")
    p.add_argument("config")
    p.add_argument("set_expr")

    p = sub.add_parser("cdf", help="distribution function F(x)")
    p.add_argument("config")
    p.add_argument("x")
    p.add_argument("--side", choices=("at", "left_limit"), default="at")

    p = sub.add_parser("cut", help="prefix piece worth alpha of v(A)")
    p.add_argument("config")
    p.add_argument("set_expr")
    p.add_argument("alpha")

    p = sub.add_parser("slice", help="split the cake into pieces of value <= epsilon")
    p.add_argument("config")
    p.add_argument("epsilon")

    p = sub.add_parser("protocol", help="run a fair-division protocol")
    p.add_argument("name", choices=sorted(PROTOCOLS))
    p.add_argument("configs", nargs="+")

    p = sub.add_parser("cantor", help="table of Cantor iterates")
    p.add_argument("p")
    p.add_argument("n_max", type=int)

    p = sub.add_parser("witness", help="n-component disjoint union witness")
    p.add_argument("n", type=int)

    return parser


def _run_protocol(args, tol, out):
    if len(args.configs) < 2:
        raise ParseError("protocol needs at least 2 config files")
    players = [
        Player(i, load_valuation(path)) for i, path in enumerate(args.configs)
    ]
    if args.name == "cut_and_choose":
        if len(players) != 2:
            raise ParseError("cut_and_choose needs exactly 2 players")
        alloc = cut_and_choose(players[0], players[1], tol)
    else:
        alloc = PROTOCOLS[args.name](players, tol)
    prop = check_proportional(alloc, players, tol)
    envy = check_envy_free(alloc, players, tol)
    if args.json:
        report = {
            "protocol": alloc.protocol,
            "pieces": {str(i): render_interval_set(s) for i, s in alloc.pieces.items()},
            "values": {
                str(i): {str(j): _json_value(envy["values"][(i, j)]) for j in alloc.pieces}
                for i in alloc.pieces
            },
            "proportional": prop["proportional"],
            "envy_free": envy["envy_free"],
            "trace": alloc.trace,
        }
        json.dump(report, out, ensure_ascii=False)
        out.write("\n")
        return
    print(f"protocol: {alloc.protocol}", file=out)
    for i in sorted(alloc.pieces):
        own = envy["values"][(i, i)]
        print(
            f"player {i}: {render_interval_set(alloc.pieces[i])}"
            f"  value {_fmt_value(own, args.approx)}",
            file=out,
        )
    print(f"proportional: {prop['proportional']}", file=out)
    print(f"envy_free: {envy['envy_free']}", file=out)


def run(argv=None, out=None) -> int:
    if out is None:
        out = sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    tol = parse_rational(args.tol)

    if args.command == "evaluate":
        v = load_valuation(args.config)
        a = parse_interval_set(args.set_expr)
        val = evaluate(v, a, tol)
        if args.json:
            json.dump({"command": "evaluate", "set": render_interval_set(a),
                       "value": _json_value(val)}, out, ensure_ascii=False)
            out.write("\n")
        else:
            print(_fmt_value(val, args.approx), file=out)

    elif args.command == "cdf":
        v = load_valuation(args.config)
        x = parse_rational(args.x)
        val = cdf(v, x, args.side, tol)
        if args.json:
            json.dump({"command": "cdf", "x": str(x), "side": args.side,
                       "value": _json_value(val)}, out, ensure_ascii=False)
            out.write("\n")
        else:
            print(_fmt_value(val, args.approx), file=out)

    elif args.command == "cut":
        v = load_valuation(args.config)
        a = parse_interval_set(args.set_expr)
        piece = cut(v, a, parse_rational(args.alpha), tol)
        if args.json:
            json.dump({"command": "cut", "piece": render_interval_set(piece)},
                      out, ensure_ascii=False)
            out.write("\n")
        else:
            print(render_interval_set(piece), file=out)

    elif args.command == "slice":
        v = load_valuation(args.config)
        pieces = slice_valuation(v, parse_rational(args.epsilon), tol)
        values = [evaluate(v, s, tol) for s in pieces]
        if args.json:
            json.dump({"command": "slice",
                       "pieces": [render_interval_set(s) for s in pieces],
                       "values": [_json_value(val) for val in values]},
                      out, ensure_ascii=False)
            out.write("\n")
        else:
            for s, val in zip(pieces, values):
                print(f"{render_interval_set(s)}  value {_fmt_value(val, args.approx)}",
                      file=out)

    elif args.command == "protocol":
        _run_protocol(args, tol, out)

    elif args.command == "cantor":
        p = parse_rational(args.p)
        if args.n_max < 0:
            raise BadParameter(f"n_max {args.n_max} must be >= 0")
        rows = []
        for n in range(args.n_max + 1):
            it = cantor_iterate(p, n)
            rows.append({
                "n": n,
                "components": len(it.set),
                "remaining": str(total_length(it.set)),
                "removed": str(removed_mass(p, n)),
            })
        if args.json:
            json.dump({"command": "cantor", "p": str(p), "rows": rows},
                      out, ensure_ascii=False)
            out.write("\n")
        else:
            print(f"{'n':>4} {'components':>12} {'remaining':>16} {'removed':>16}",
                  file=out)
            for r in rows:
                print(f"{r['n']:>4} {r['components']:>12} {r['remaining']:>16} "
                      f"{r['removed']:>16}", file=out)

    elif args.command == "witness":
        w = disjoint_union_witness(args.n)
        if args.json:
            json.dump({"command": "witness", "n": args.n,
                       "set": render_interval_set(w), "components": len(w)},
                      out, ensure_ascii=False)
            out.write("\n")
        else:
            print(f"{render_interval_set(w)}", file=out)
            print(f"components: {len(w)}", file=out)

    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CakeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
