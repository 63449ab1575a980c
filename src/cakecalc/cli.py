"""Command-line front end.

All numeric I/O is exact-rational strings ("p/q"); brackets print as
"[lo, hi]".  --json switches to machine-readable reports, --approx K adds a
K-digit decimal column to human-readable output.  Exit codes: 0 success,
1 domain error, 2 parse/usage error.

Each command is a handler in COMMANDS: handler(args, tol) returns the JSON
report and the human text as lines of cells, holding library values as
they are, and `run` renders one of them whole and writes it at once, so no
partial text comes before an error; `json.dumps` calls `_json_default`
only for a library value.  `slice` writes each cut point
once, and `slice` and `protocol` write their values from integer triples,
so a `CdfValue` is built only for a line that is printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from itertools import chain

from .config import load_valuation
from .errors import BadParameter, CakeError, ParseError
from .foundations import disjoint_union_witness, removed_mass
from .intervals import IntervalSet, parse_interval_set, parse_rational, rational_text
from .protocols import Player, cut_and_choose, last_diminisher, moving_knife
from .protocols import _verdicts
from .valuation import CdfValue, _slice as slice_with_values, cdf, cut, evaluate
from .valuation import _cdf_value, _value_ints, _value_matrix

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
    pieces, values = slice_with_values(v, parse_rational(args.epsilon), tol)
    # the slicer knows the value of a piece it cut off the table; evaluate the rest
    values = [_value_ints(v, s, tol) if val is None else val for s, val in zip(pieces, values)]
    # each piece is one interval that starts at the point where the one before
    # it ends, so the text of every cut point is written once, from its end key
    first = pieces[0]
    points = [rational_text(first.keys[0] >> 1, first.den)]
    points += [rational_text(s.keys[1] >> 1, s.den) for s in pieces]
    texts = [f"{'(' if s.keys[0] & 1 else '['}{a},{b}{']' if s.keys[1] & 1 else ')'}"
             for s, a, b in zip(pieces, points, points[1:])]
    written = {val: _value_json(*val) for val in set(values)}  # ε once, not once a piece
    report = {"command": "slice", "pieces": texts, "values": [written[val] for val in values]}
    cell = cache(lambda val: _cell(_cdf_value(*val), args.approx))  # once a value, as `written`
    return report, ([s, "  value ", cell(val)] for s, val in zip(texts, values))


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
    # integer triples, for both verdicts
    values = _value_matrix({pl.id: pl.valuation for pl in players}, alloc.pieces, tol)
    ok, envy = _verdicts(values, players, alloc.pieces, tol)
    proportional, envy_free = all(ok.values()), not envy
    report = {
        "protocol": alloc.protocol,
        "pieces": alloc.pieces,
        "values": {i: {j: _value_json(*values[i, j]) for j in alloc.pieces} for i in alloc.pieces},
        "proportional": proportional,
        "envy_free": envy_free,
        "trace": alloc.trace,
    }
    # built only if the text is printed
    lines = chain(
        [[f"protocol: {alloc.protocol}"]],
        ([f"player {i}: ", alloc.pieces[i], "  value ", _cdf_value(*values[i, i])]
         for i in sorted(alloc.pieces)),
        [[f"proportional: {proportional}"], [f"envy_free: {envy_free}"]],
    )
    return report, lines


_CANTOR_ROW = "{:>4} {:>12} {:>16} {:>16}"


def _cantor(args, tol):
    p = parse_rational(args.p)
    if args.n_max < 0:
        raise BadParameter(f"n_max {args.n_max} must be >= 0")
    rows = []
    for n in range(args.n_max + 1):
        removed = removed_mass(p, n)
        rows.append({"n": n, "components": 2**n, "remaining": 1 - removed, "removed": removed})
    lines = [[_CANTOR_ROW.format("n", "components", "remaining", "removed")]]
    lines += [[_CANTOR_ROW.format(*map(rational_text, r.values()))] for r in rows]
    return {"command": "cantor", "p": p, "rows": rows}, lines


def _witness(args, tol):
    w = disjoint_union_witness(args.n)
    report = {"command": "witness", "n": args.n, "set": w, "components": len(w)}
    return report, [[w], [f"components: {len(w)}"]]


COMMANDS = {
    "evaluate": _evaluate, "cdf": _cdf, "cut": _cut, "slice": _slice,
    "protocol": _protocol, "cantor": _cantor, "witness": _witness,
}


def _json_default(x):
    """A library value of a report as JSON: an exact value is "p/q", a
    bracket {"lo", "hi"}, and interval sets and rationals their text."""
    if isinstance(x, CdfValue):
        return _value_json(x.lo, x.hi)
    if isinstance(x, IntervalSet):
        return str(x)
    if isinstance(x, Fraction):
        return rational_text(x)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _value_json(lo, hi, den: int = 1):
    """[lo/den, hi/den] as JSON, for ints over den or rationals over 1."""
    text = rational_text(lo, den)
    return text if lo == hi else {"lo": text, "hi": rational_text(hi, den)}


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
        out.write(json.dumps(report, ensure_ascii=False, default=_json_default) + "\n")
    else:
        approx = args.approx
        out.write("".join(["".join([_cell(c, approx) for c in cells]) + "\n" for cells in lines]))
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
