"""Command-line front end.

All numeric I/O is exact-rational strings ("p/q"); brackets print as
"[lo, hi]".  --json switches to machine-readable reports, --approx K adds a
K-digit decimal column to human-readable output.  Exit codes: 0 success,
1 domain error, 2 parse/usage error.

Each command is a handler in COMMANDS: handler(args, tol) returns the JSON
report and the human text as lines of cells, both holding library values
(CdfValue, IntervalSet, Fraction) as they are, and `run` renders one of them.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .config import load_valuation
from .errors import BadParameter, CakeError, ParseError
from .foundations import cantor_iterate, disjoint_union_witness, removed_mass
from .intervals import IntervalSet, parse_interval_set, parse_rational, total_length
from .protocols import (
    Player,
    check_envy_free,
    check_proportional,
    cut_and_choose,
    last_diminisher,
    moving_knife,
)
from .valuation import CdfValue, cdf, cut, evaluate, slice_valuation

PROTOCOLS = {f.__name__: f for f in (cut_and_choose, last_diminisher, moving_knife)}


@cache  # parse_args leaves the parser as it was, so one serves every run
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

    def command(name, help, *positional):
        p = sub.add_parser(name, help=help)
        for arg in positional:
            p.add_argument(arg)
        return p

    command("evaluate", "value of an interval set", "config", "set_expr")
    command("cdf", "distribution function F(x)", "config", "x").add_argument(
        "--side", choices=("at", "left_limit"), default="at"
    )
    command("cut", "prefix piece worth alpha of v(A)", "config", "set_expr", "alpha")
    command("slice", "split the cake into pieces of value <= epsilon", "config", "epsilon")
    p = command("protocol", "run a fair-division protocol")
    p.add_argument("name", choices=sorted(PROTOCOLS))
    p.add_argument("configs", nargs="+")
    command("cantor", "table of Cantor iterates", "p").add_argument("n_max", type=int)
    command("witness", "n-component disjoint union witness").add_argument("n", type=int)
    return parser


def _evaluate(args, tol):
    v = load_valuation(args.config)
    a = parse_interval_set(args.set_expr)
    value = evaluate(v, a, tol)
    return {"command": "evaluate", "set": a, "value": value}, [[value]]


def _cdf(args, tol):
    v = load_valuation(args.config)
    x = parse_rational(args.x)
    value = cdf(v, x, args.side, tol)
    return {"command": "cdf", "x": x, "side": args.side, "value": value}, [[value]]


def _cut(args, tol):
    v = load_valuation(args.config)
    a = parse_interval_set(args.set_expr)
    piece = cut(v, a, parse_rational(args.alpha), tol)
    return {"command": "cut", "piece": piece}, [[piece]]


def _slice(args, tol):
    v = load_valuation(args.config)
    pieces = slice_valuation(v, parse_rational(args.epsilon), tol)
    values = [evaluate(v, s, tol) for s in pieces]
    report = {"command": "slice", "pieces": pieces, "values": values}
    return report, [[s, "  value ", val] for s, val in zip(pieces, values)]


def _protocol(args, tol):
    if len(args.configs) < 2:
        raise ParseError("protocol needs at least 2 config files")
    players = [Player(i, load_valuation(path)) for i, path in enumerate(args.configs)]
    if args.name == "cut_and_choose":
        if len(players) != 2:
            raise ParseError("cut_and_choose needs exactly 2 players")
        alloc = cut_and_choose(players[0], players[1], tol)
    else:
        alloc = PROTOCOLS[args.name](players, tol)
    proportional = check_proportional(alloc, players, tol)["proportional"]
    envy = check_envy_free(alloc, players, tol)
    values = envy["values"]
    report = {
        "protocol": alloc.protocol,
        "pieces": alloc.pieces,
        "values": {i: {j: values[i, j] for j in alloc.pieces} for i in alloc.pieces},
        "proportional": proportional,
        "envy_free": envy["envy_free"],
        "trace": alloc.trace,
    }
    lines = [[f"protocol: {alloc.protocol}"]]
    lines += [
        [f"player {i}: ", alloc.pieces[i], "  value ", values[i, i]]
        for i in sorted(alloc.pieces)
    ]
    lines += [[f"proportional: {proportional}"], [f"envy_free: {envy['envy_free']}"]]
    return report, lines


_CANTOR_ROW = "{:>4} {:>12} {:>16} {:>16}"


def _cantor(args, tol):
    p = parse_rational(args.p)
    if args.n_max < 0:
        raise BadParameter(f"n_max {args.n_max} must be >= 0")
    rows = []
    for n in range(args.n_max + 1):
        s = cantor_iterate(p, n).set
        rows.append({"n": n, "components": 2**n, "remaining": total_length(s),
                     "removed": removed_mass(p, n)})
    lines = [[_CANTOR_ROW.format("n", "components", "remaining", "removed")]]
    lines += [[_CANTOR_ROW.format(*map(str, r.values()))] for r in rows]
    return {"command": "cantor", "p": p, "rows": rows}, lines


def _witness(args, tol):
    w = disjoint_union_witness(args.n)
    report = {"command": "witness", "n": args.n, "set": w, "components": len(w)}
    return report, [[w], [f"components: {len(w)}"]]


COMMANDS = {
    "evaluate": _evaluate, "cdf": _cdf, "cut": _cut, "slice": _slice,
    "protocol": _protocol, "cantor": _cantor, "witness": _witness,
}


def _jsonable(x):
    """The report with library values as JSON: an exact value is "p/q", a
    bracket {"lo", "hi"}, and interval sets and rationals their text."""
    # containers first: Fraction's isinstance check is an ABC's, and slow
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_jsonable(v) for v in x]
    if isinstance(x, CdfValue):
        return str(x) if x.is_exact else {"lo": str(x.lo), "hi": str(x.hi)}
    if isinstance(x, (IntervalSet, Fraction)):
        return str(x)
    return x


def _decimal(x: Fraction, digits: int) -> str:
    scaled = round(x * 10**digits)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


def _cell(x, approx: int) -> str:
    """Human text of one cell; --approx K appends a value's K-digit decimal."""
    if isinstance(x, CdfValue) and approx:
        return f"{x} ≈ {_decimal(x.midpoint, approx)}"
    return str(x)


def run(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    args = build_parser().parse_args(argv)
    if args.approx < 0:
        raise ParseError(f"--approx {args.approx} must be >= 0")
    # Python's cap on the digits of an int turned into text, 0 for none
    # (Pythons before 3.10.7 have neither the cap nor its getter)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if 0 < limit < args.approx:
        raise ParseError(f"--approx {args.approx} exceeds Python's {limit}-digit int-to-str limit")
    tol = parse_rational(args.tol)
    report, lines = COMMANDS[args.command](args, tol)
    if args.json:
        # dumps, unlike dump, takes the C encoder
        out.write(json.dumps(_jsonable(report), ensure_ascii=False) + "\n")
    else:
        for cells in lines:
            print("".join(_cell(c, args.approx) for c in cells), file=out)
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
