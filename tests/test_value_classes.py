"""The value classes behave as the `@dataclass` classes they replace.

Each reference below is the dataclass definition the package used before,
copied as it was (methods left out).  For equal field values, a new class
and its reference must agree on `repr`, `==`, `hash`, attribute
assignment and deletion, keyword construction and defaults, and pickle
and copy round trips."""

import copy
import dataclasses
import pickle
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from cakecalc import FULL, CantorComponent, CdfValue, Interval, Valuation, make_valuation
from cakecalc.foundations import CantorIterate, CantorIterateSet, cantor_iterate
from cakecalc.intervals import FrozenInstanceError, IntervalSet, interval_set
from cakecalc.protocols import Allocation, Player
from cakecalc.valuation import _Table

F = Fraction


@dataclass(frozen=True, slots=True)
class RefInterval:
    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool


@dataclass(frozen=True)
class RefCdfValue:
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class RefCantorComponent:
    support: Interval
    p: Fraction
    weight: Fraction


@dataclass(frozen=True)
class RefValuation:
    atoms: tuple[tuple[Fraction, Fraction], ...]
    density: tuple[tuple[Interval, Fraction], ...]
    cantor: tuple[CantorComponent, ...]
    _table: _Table = field(compare=False, repr=False)
    _parts: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)


@dataclass(frozen=True)
class RefCantorIterate:
    p: Fraction
    n: int
    set: CantorIterateSet


@dataclass(frozen=True)
class RefPlayer:
    id: int
    valuation: Valuation


@dataclass
class RefAllocation:
    protocol: str
    pieces: dict[int, IntervalSet]
    trace: list[dict] = field(default_factory=list)


def mix():
    return make_valuation(
        atoms=[(F(1, 2), F(1, 4))],
        density=[(Interval(F(0), F(1, 2), True, False), F(1, 2))],
        cantor_parts=[CantorComponent(Interval(F(1, 2), F(1), True, True), F(1, 4), F(1, 2))],
    )


def examples():
    """(new class, reference, field values) for each class."""
    v, A = mix(), cantor_iterate(F(1, 3), 3)
    return [
        (Interval, RefInterval, (F(1, 3), F(1, 2), True, False)),
        (CdfValue, RefCdfValue, (F(1, 3), F(1, 2))),
        (CantorComponent, RefCantorComponent, (v.cantor[0].support, F(1, 4), F(1, 2))),
        (Valuation, RefValuation, (v.atoms, v.density, v.cantor, v._table, v._parts)),
        (CantorIterate, RefCantorIterate, (A.p, A.n, A.set)),
        (Player, RefPlayer, (1, v)),
        (Allocation, RefAllocation,
         ("cut_and_choose", {0: FULL, 1: interval_set((0, "1/2"))}, [{"event": "cut"}])),
    ]


EXAMPLES = examples()
CASES = pytest.mark.parametrize("cls, ref, values", EXAMPLES,
                                ids=[cls.__name__ for cls, _, _ in EXAMPLES])


@CASES
def test_repr_and_eq_as_the_dataclass(cls, ref, values):
    new, old = cls(*values), ref(*values)
    assert repr(new) == repr(old).replace("Ref", "", 1)
    assert new == cls(*values) and old == ref(*values)
    for other in (values, old):  # a tuple, and another class with the same fields
        assert new != other and other != new
        assert new.__eq__(other) is NotImplemented


@CASES
def test_hash_as_the_dataclass(cls, ref, values):
    new, old = cls(*values), ref(*values)
    if cls is Allocation:  # mutable, so unhashable
        for obj in (new, old):
            with pytest.raises(TypeError):
                hash(obj)
    else:
        assert hash(new) == hash(old)


@CASES
def test_frozen_as_the_dataclass(cls, ref, values):
    new, old = cls(*values), ref(*values)
    name = dataclasses.fields(ref)[0].name
    if cls is Allocation:
        for obj in (new, old):
            setattr(obj, name, "other")
            assert getattr(obj, name) == "other"
        assert new == cls("other", *values[1:])
        return
    for act in (lambda obj: setattr(obj, name, None), lambda obj: delattr(obj, name)):
        with pytest.raises(AttributeError) as got:
            act(new)
        with pytest.raises(dataclasses.FrozenInstanceError) as want:
            act(old)
        assert type(got.value).__name__ == "FrozenInstanceError"
        assert isinstance(got.value, FrozenInstanceError)
        assert str(got.value) == str(want.value)
    assert new == cls(*values)


@CASES
def test_keyword_construction(cls, ref, values):
    names = [f.name for f in dataclasses.fields(ref)]
    assert cls(**dict(zip(names, values))) == cls(*values)


def test_each_allocation_gets_its_own_trace():
    a, b = Allocation("p", {}), Allocation(pieces={}, protocol="p")
    assert a.trace == [] and a.trace is not b.trace
    a.trace.append({"event": "cut"})
    assert b.trace == [] and a != b
    assert a == Allocation("p", {}, [{"event": "cut"}]) and repr(a) == repr(
        RefAllocation("p", {}, [{"event": "cut"}])).replace("Ref", "", 1)


@CASES
def test_pickle_and_copy_round_trips(cls, ref, values):
    new = cls(*values)
    for back in (pickle.loads(pickle.dumps(new)), copy.copy(new), copy.deepcopy(new)):
        assert type(back) is cls and back == new and repr(back) == repr(new)
        if cls is not Allocation:
            assert hash(back) == hash(new)
        if cls is Valuation:
            assert back._table == new._table and back._parts == new._parts


def test_interval_set_raises_the_same_error():
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'den'"):
        FULL.den = 2
