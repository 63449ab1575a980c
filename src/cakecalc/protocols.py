"""Classical fair-division protocols on top of the valuation engine.

All protocols hand out prefix pieces (remaining cake ∩ [0,c]), so every
intermediate piece stays a finite union of intervals.  Tie-breaking is
fixed everywhere (lowest player id; left piece on equal value), which makes
runs deterministic.  Valuations with atoms are rejected up front: exact
halving cuts need a continuous distribution function.

The protocols talk to a valuation only through Robertson–Webb queries:
eval (`evaluate`) and cut (`cut`, `prefix_with_value`).  A moving-knife
mark is a cut query that builds no piece (`valuation._prefix_end`); only
the winner's piece is built.  Values are compared as their brackets'
midpoints would be, without building the midpoints.

The envy check reads the value matrix `_values`: each player without a
Cantor part reads F once per allocation, at the pieces' merged cuts, and
a player with one evaluates each piece.  The CLI takes its proportionality
verdict from the same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import AtomObstruction, BadParameter
from .foundations import CantorIterateSet
from .intervals import FULL, IntervalSet, _scaled, difference, rational_text
from .valuation import DEFAULT_TOL, CdfValue, Valuation, cut, evaluate, prefix_with_value
from .valuation import _cdf_value, _check_tol, _prefix, _prefix_end, _table_at_keys


@dataclass(frozen=True)
class Player:
    id: int
    valuation: Valuation


@dataclass
class Allocation:
    protocol: str
    pieces: dict[int, IntervalSet]
    trace: list[dict] = field(default_factory=list)


def _check_players(players: Sequence[Player], minimum: int) -> None:
    if len(players) < minimum:
        raise BadParameter(f"need at least {minimum} players, got {len(players)}")
    ids = [p.id for p in players]
    if sorted(ids) != list(range(len(players))):
        raise BadParameter(f"player ids must be 0..{len(players) - 1}, got {ids}")
    for p in players:
        if p.valuation.has_atoms:
            raise AtomObstruction(list(p.valuation.atoms))


def _above(value: CdfValue, x: Fraction) -> bool:
    """Whether the midpoint of the (usually exact) bracket `value` exceeds x."""
    return value.lo > x if value.is_exact else value.lo + value.hi > 2 * x


def _choose_and_cut(
    cutter: Player, chooser: Player, cake: IntervalSet, tol, trace: list
) -> dict[int, IntervalSet]:
    """Cutter halves `cake` by their own measure; chooser takes the weakly
    better piece (tie -> left)."""
    left = cut(cutter.valuation, cake, Fraction(1, 2), tol)
    right = difference(cake, left)
    trace.append({"event": "cut", "player": cutter.id, "piece": str(left)})
    r, l = evaluate(chooser.valuation, right, tol), evaluate(chooser.valuation, left, tol)
    takes_right = r.lo + r.hi > l.lo + l.hi  # by midpoint
    chosen, rest = (right, left) if takes_right else (left, right)
    trace.append({"event": "choose", "player": chooser.id, "piece": str(chosen)})
    return {chooser.id: chosen, cutter.id: rest}


def cut_and_choose(p1: Player, p2: Player, tol=DEFAULT_TOL) -> Allocation:
    _check_players([p1, p2] if p1.id < p2.id else [p2, p1], 2)
    trace: list[dict] = []
    pieces = _choose_and_cut(p1, p2, FULL, tol, trace)
    return Allocation("cut_and_choose", pieces, trace)


def last_diminisher(players: Sequence[Player], tol=DEFAULT_TOL) -> Allocation:
    """Banach–Knaster rounds: trim a prefix piece down to exactly 1/n (by the
    diminisher's measure); the last diminisher exits with it; the final two
    players split the remainder by cut-and-choose."""
    _check_players(players, 2)
    n = len(players)
    share = Fraction(1, n)
    trace: list[dict] = []
    pieces: dict[int, IntervalSet] = {}
    remaining = FULL
    active = sorted(players, key=lambda p: p.id)

    while len(active) > 2:
        cutter = active[0]
        piece, pos = prefix_with_value(cutter.valuation, remaining, share, tol)
        trace.append({"event": "cut", "player": cutter.id, "position": rational_text(pos)})
        holder = cutter
        for pl in active[1:]:
            if _above(evaluate(pl.valuation, piece, tol), share):
                piece, pos = prefix_with_value(pl.valuation, piece, share, tol)
                trace.append(
                    {"event": "diminish", "player": pl.id, "position": rational_text(pos)}
                )
                holder = pl
        pieces[holder.id] = piece
        trace.append({"event": "take", "player": holder.id, "piece": str(piece)})
        remaining = difference(remaining, piece)
        active = [p for p in active if p.id != holder.id]

    pieces.update(_choose_and_cut(active[0], active[1], remaining, tol, trace))
    return Allocation("last_diminisher", pieces, trace)


def moving_knife(players: Sequence[Player], tol=DEFAULT_TOL) -> Allocation:
    """Dubins–Spanier discretization: everyone marks the smallest c where the
    remaining prefix is worth 1/n of the whole cake to them; the smallest mark
    (tie -> lowest id) wins the prefix; the last player takes the rest.  A
    mark is a cut query; only the winner's piece is built."""
    _check_players(players, 2)
    n = len(players)
    share = Fraction(1, n)
    trace: list[dict] = []
    pieces: dict[int, IntervalSet] = {}
    remaining = FULL
    active = sorted(players, key=lambda p: p.id)

    while len(active) > 1:
        pos, winner_id = min((_prefix_end(pl.valuation, remaining, share, tol), pl.id)
                             for pl in active)
        trace.append({"event": "claim", "player": winner_id, "position": rational_text(pos)})
        piece = pieces[winner_id] = _prefix(remaining, pos)
        remaining = difference(remaining, piece)
        active = [p for p in active if p.id != winner_id]

    pieces[active[0].id] = remaining
    trace.append({"event": "take_rest", "player": active[0].id, "piece": str(remaining)})
    return Allocation("moving_knife", pieces, trace)


# --- fairness verification ---------------------------------------------------


def _values(
    alloc: Allocation, players: Sequence[Player], tol
) -> dict[tuple[int, int], CdfValue]:
    """The value matrix {(i, j): v_i(X_j)}, each value equal to
    `evaluate(v_i, X_j, tol)`.  The pieces' keys are rescaled to the lcm L
    of their dens and merged into one sorted run, so a player without a
    Cantor part reads G once, by one `_table_at_keys` sweep over the run,
    and each value is a signed sum over its piece's positions in it.  A
    player with a Cantor part evaluates each piece, since a bracket's walk
    depth depends on the piece's own key count; so does every player for a
    Cantor iterate, which `evaluate` reads by descent without its keys."""
    tol = _check_tol(tol)
    swept = {j: s for j, s in alloc.pieces.items() if not isinstance(s, CantorIterateSet)}
    L = lcm(*(s.den for s in swept.values()))
    scaled = {j: _scaled(s.keys, L // s.den) for j, s in swept.items()}
    merged = sorted({k for keys in scaled.values() for k in keys})
    at = {k: n for n, k in enumerate(merged)}
    positions = {j: ([at[k] for k in keys[::2]], [at[k] for k in keys[1::2]])
                 for j, keys in scaled.items()}
    values = {}
    for pl in players:
        v = pl.valuation
        if v._parts:
            values.update(((pl.id, j), evaluate(v, s, tol)) for j, s in alloc.pieces.items())
            continue
        g, q = _table_at_keys(v._table, L, merged)
        g_at = g.__getitem__
        for j, s in alloc.pieces.items():
            if j in positions:
                starts, ends = positions[j]
                total = sum(map(g_at, ends)) - sum(map(g_at, starts))
                values[pl.id, j] = _cdf_value(total, total, q)
            else:
                values[pl.id, j] = evaluate(v, s, tol)
    return values


def _proportional(values: dict, players: Sequence[Player], tol) -> dict:
    """`check_proportional`'s report from the values (i, i) of `values`."""
    share = Fraction(1, len(players))
    verdicts = {}
    for pl in players:
        val = values[pl.id, pl.id]
        verdicts[pl.id] = {"value": val, "ok": val.lo >= share - tol}
    return {
        "threshold": share,
        "players": verdicts,
        "proportional": all(v["ok"] for v in verdicts.values()),
    }


def check_proportional(
    alloc: Allocation, players: Sequence[Player], tol=DEFAULT_TOL
) -> dict:
    """Each player must value their own piece at >= 1/n - tol.  The slack
    applies to every value, exact ones too, not only where singular parts
    force brackets (see ROADMAP item 5).  Only the n own pieces are read,
    so each is evaluated; a whole value matrix would cost more."""
    own = {(pl.id, pl.id): evaluate(pl.valuation, alloc.pieces[pl.id], tol) for pl in players}
    return _proportional(own, players, tol)


def check_envy_free(
    alloc: Allocation, players: Sequence[Player], tol=DEFAULT_TOL
) -> dict:
    """No player may value another piece above their own."""
    values = _values(alloc, players, tol)
    envy = []
    for i in players:
        bound = values[i.id, i.id].hi + tol
        envy += [(i.id, j) for j in alloc.pieces if j != i.id and values[i.id, j].lo > bound]
    return {"values": values, "envy": envy, "envy_free": not envy}
