"""Classical fair-division protocols on top of the valuation engine.

All protocols hand out prefix pieces (remaining cake ∩ [0,c]), so every
intermediate piece stays a finite union of intervals.  Tie-breaking is
fixed everywhere (lowest player id; left piece on equal value), which makes
runs deterministic.  Valuations with atoms are rejected up front: exact
halving cuts need a continuous distribution function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import AtomObstruction, BadParameter
from .intervals import FULL, IntervalSet, difference
from .valuation import DEFAULT_TOL, Valuation, cut, evaluate, prefix_with_value


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


def _value(player: Player, piece: IntervalSet, tol) -> Fraction:
    """Midpoint of the (usually exact) value bracket; used for comparisons."""
    return evaluate(player.valuation, piece, tol).midpoint


def _choose_and_cut(
    cutter: Player, chooser: Player, cake: IntervalSet, tol, trace: list
) -> dict[int, IntervalSet]:
    """Cutter halves `cake` by their own measure; chooser takes the weakly
    better piece (tie -> left)."""
    left = cut(cutter.valuation, cake, Fraction(1, 2), tol)
    right = difference(cake, left)
    trace.append({"event": "cut", "player": cutter.id, "piece": str(left)})
    takes_right = _value(chooser, right, tol) > _value(chooser, left, tol)
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
        trace.append({"event": "cut", "player": cutter.id, "position": str(pos)})
        holder = cutter
        for pl in active[1:]:
            if _value(pl, piece, tol) > share:
                piece, pos = prefix_with_value(pl.valuation, piece, share, tol)
                trace.append(
                    {"event": "diminish", "player": pl.id, "position": str(pos)}
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
    (tie -> lowest id) wins the prefix; the last player takes the rest."""
    _check_players(players, 2)
    n = len(players)
    share = Fraction(1, n)
    trace: list[dict] = []
    pieces: dict[int, IntervalSet] = {}
    remaining = FULL
    active = sorted(players, key=lambda p: p.id)

    while len(active) > 1:
        marks = []
        for pl in active:
            piece, pos = prefix_with_value(pl.valuation, remaining, share, tol)
            marks.append((pos, pl.id, piece))
        pos, winner_id, piece = min(marks, key=lambda m: (m[0], m[1]))
        trace.append(
            {"event": "claim", "player": winner_id, "position": str(pos)}
        )
        pieces[winner_id] = piece
        remaining = difference(remaining, piece)
        active = [p for p in active if p.id != winner_id]

    pieces[active[0].id] = remaining
    trace.append({"event": "take_rest", "player": active[0].id, "piece": str(remaining)})
    return Allocation("moving_knife", pieces, trace)


# --- fairness verification ---------------------------------------------------


def check_proportional(
    alloc: Allocation, players: Sequence[Player], tol=DEFAULT_TOL
) -> dict:
    """Each player must value their own piece at >= 1/n (within tol when
    singular parts force brackets)."""
    n = len(players)
    share = Fraction(1, n)
    verdicts = {}
    for pl in players:
        val = evaluate(pl.valuation, alloc.pieces[pl.id], tol)
        verdicts[pl.id] = {"value": val, "ok": val.lo >= share - tol}
    return {
        "threshold": share,
        "players": verdicts,
        "proportional": all(v["ok"] for v in verdicts.values()),
    }


def check_envy_free(
    alloc: Allocation, players: Sequence[Player], tol=DEFAULT_TOL
) -> dict:
    """No player may value another piece above their own."""
    values = {
        (i.id, j): evaluate(i.valuation, alloc.pieces[j], tol)
        for i in players
        for j in alloc.pieces
    }
    envy = [
        (i.id, j)
        for i in players
        for j in alloc.pieces
        if j != i.id and values[(i.id, j)].lo > values[(i.id, i.id)].hi + tol
    ]
    return {"values": values, "envy": envy, "envy_free": not envy}
