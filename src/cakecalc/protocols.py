"""Classical fair-division protocols on top of the valuation engine.

All protocols hand out prefix pieces (remaining cake ∩ [0,c]), so every
intermediate piece stays a finite union of intervals.  Tie-breaking is
fixed everywhere (lowest player id; left piece on equal value), which makes
runs deterministic.  Valuations with atoms are rejected up front: exact
halving cuts need a continuous distribution function.

A protocol asks a player only Robertson–Webb eval and cut queries, which
`valuation` answers in integers; midpoints and marks are compared by
cross-multiplication, and a `CdfValue` is built only for a value that a
check returns.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import AtomObstruction, BadParameter
from .intervals import FULL, IntervalSet, _split, _Value, difference, rational_text
from .valuation import DEFAULT_TOL, Valuation, cut
from .valuation import _cdf_value, _check_tol, _prefix_end, _value_ints, _value_matrix


class Player(_Value):
    _fields = ("id", "valuation")

    def __init__(self, id: int, valuation: Valuation):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "valuation", valuation)


class Allocation(_Value):
    """A protocol's pieces by player id and its trace; mutable and unhashable."""

    _fields = ("protocol", "pieces", "trace")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, protocol: str, pieces: dict[int, IntervalSet], trace: list | None = None):
        self.protocol = protocol
        self.pieces = pieces
        self.trace = [] if trace is None else trace


def _check_players(players: Sequence[Player], minimum: int) -> None:
    if len(players) < minimum:
        raise BadParameter(f"need at least {minimum} players, got {len(players)}")
    ids = [p.id for p in players]
    if sorted(ids) != list(range(len(players))):
        raise BadParameter(f"player ids must be 0..{len(players) - 1}, got {ids}")
    for p in players:
        if p.valuation.has_atoms:
            raise AtomObstruction(list(p.valuation.atoms))


def _above(value: tuple[int, int, int], n: int, d: int) -> bool:
    """Whether the midpoint of [lo/q, hi/q], `value` = (lo, hi, q), exceeds n/d > 0."""
    return (value[0] + value[1]) * d > 2 * n * value[2]


def _choose_and_cut(
    cutter: Player, chooser: Player, cake: IntervalSet, tol, trace: list
) -> dict[int, IntervalSet]:
    """Cutter halves `cake` by their own measure; chooser takes the weakly
    better piece (tie -> left)."""
    left = cut(cutter.valuation, cake, Fraction(1, 2), tol)
    right = difference(cake, left)
    trace.append({"event": "cut", "player": cutter.id, "piece": str(left)})
    lo, hi, d = _value_ints(chooser.valuation, left, tol)
    takes_right = _above(_value_ints(chooser.valuation, right, tol), lo + hi, 2 * d)
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
    tol = _check_tol(tol)
    n = len(players)
    trace: list[dict] = []
    pieces: dict[int, IntervalSet] = {}
    remaining = FULL
    active = sorted(players, key=lambda p: p.id)

    while len(active) > 2:
        holder = active[0]
        pos = _prefix_end(holder.valuation, remaining, 1, n, tol)
        trace.append({"event": "cut", "player": holder.id, "position": rational_text(*pos)})
        piece, rest = _split(remaining, *pos)
        for pl in active[1:]:
            if _above(_value_ints(pl.valuation, piece, tol), 1, n):
                # the mark lies in the piece, so it cuts the remaining cake there too
                pos = _prefix_end(pl.valuation, piece, 1, n, tol)
                trace.append(
                    {"event": "diminish", "player": pl.id, "position": rational_text(*pos)}
                )
                piece, rest = _split(remaining, *pos)
                holder = pl
        pieces[holder.id] = piece
        trace.append({"event": "take", "player": holder.id, "piece": str(piece)})
        remaining = rest
        active = [p for p in active if p.id != holder.id]

    pieces.update(_choose_and_cut(active[0], active[1], remaining, tol, trace))
    return Allocation("last_diminisher", pieces, trace)


def moving_knife(players: Sequence[Player], tol=DEFAULT_TOL) -> Allocation:
    """Dubins–Spanier discretization: everyone marks the smallest c where the
    remaining prefix is worth 1/n of the whole cake to them; the smallest mark
    (tie -> lowest id) wins the prefix; the last player takes the rest.  A
    mark is a cut query; only the winner's piece is built."""
    _check_players(players, 2)
    tol = _check_tol(tol)
    n = len(players)
    trace: list[dict] = []
    pieces: dict[int, IntervalSet] = {}
    remaining = FULL
    active = sorted(players, key=lambda p: p.id)

    while len(active) > 1:
        pos = None
        for pl in active:  # the smallest mark, by cross-multiplication; tie -> lowest id
            cn, cd = _prefix_end(pl.valuation, remaining, 1, n, tol)
            if pos is None or cn * pos[1] < pos[0] * cd:
                pos, winner_id = (cn, cd), pl.id
        trace.append({"event": "claim", "player": winner_id, "position": rational_text(*pos)})
        pieces[winner_id], remaining = _split(remaining, *pos)
        active = [p for p in active if p.id != winner_id]

    pieces[active[0].id] = remaining
    trace.append({"event": "take_rest", "player": active[0].id, "piece": str(remaining)})
    return Allocation("moving_knife", pieces, trace)


# --- fairness verification ---------------------------------------------------


def _verdicts(values: dict, players: Sequence[Player], pieces, tol):
    """Whether each player i values X_i at 1/n - tol or more, and the pairs
    (i, j), j in `pieces`, where v_i(X_j) exceeds v_i(X_i) + tol, from the
    triples of `values` by one rule: x/dx > y/dy + tn/td iff x·dy·td >
    (y·td + tn·dy)·dx, on 1/n and lo_ii, and on lo_ij and hi_ii."""
    tol = _check_tol(tol)
    tn, td, n = tol.numerator, tol.denominator, len(players)
    ok, envy = {}, []
    for i in (pl.id for pl in players):
        lo, hi, d = values[i, i]
        ok[i] = lo * n * td >= (td - n * tn) * d
        bound = hi * td + tn * d  # (hi/d + tol)·d·td
        envy += [(i, j) for j in pieces
                 if j != i and values[i, j][0] * td * d > bound * values[i, j][2]]
    return ok, envy


def check_proportional(
    alloc: Allocation, players: Sequence[Player], tol=DEFAULT_TOL
) -> dict:
    """Each player must value their own piece at >= 1/n - tol.  The slack
    applies to every value, exact ones too, not only where singular parts
    force brackets (see ROADMAP item 5).  Only the n own pieces are read,
    so each is evaluated; a whole value matrix would cost more."""
    own = {(pl.id, pl.id): _value_ints(pl.valuation, alloc.pieces[pl.id], tol) for pl in players}
    ok, _ = _verdicts(own, players, (), tol)
    verdicts = {i: {"value": _cdf_value(*own[i, i]), "ok": ok[i]} for i in ok}
    return {"threshold": Fraction(1, len(players)), "players": verdicts,
            "proportional": all(ok.values())}


def check_envy_free(
    alloc: Allocation, players: Sequence[Player], tol=DEFAULT_TOL
) -> dict:
    """No player may value another piece above their own plus tol."""
    values = _value_matrix({pl.id: pl.valuation for pl in players}, alloc.pieces, tol)
    _, envy = _verdicts(values, players, alloc.pieces, tol)
    values = {pair: _cdf_value(*value) for pair, value in values.items()}
    return {"values": values, "envy": envy, "envy_free": not envy}
