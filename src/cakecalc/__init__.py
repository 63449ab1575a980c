"""Exact-arithmetic interval algebra, cake valuations, and fair division."""

from .errors import (
    AtomObstruction,
    BadIndex,
    BadParameter,
    BadPartition,
    BadTolerance,
    CakeError,
    InvalidInterval,
    NotNormalized,
    NotSliceable,
    OutOfCake,
    ParseError,
    TooManyDigits,
    ZeroMass,
    ZeroPiece,
)
from .intervals import (
    EMPTY,
    FULL,
    Interval,
    IntervalSet,
    complement,
    contains,
    difference,
    intersect,
    interval_set,
    normalize,
    parse_interval_set,
    total_length,
    union,
)
from .valuation import (
    DEFAULT_TOL,
    CantorComponent,
    CdfValue,
    Valuation,
    cantor_valuation,
    cdf,
    cut,
    decomposition_masses,
    dirac_valuation,
    evaluate,
    make_box_valuation,
    make_valuation,
    prefix_with_value,
    slice_valuation,
    uniform_valuation,
)
from .foundations import (
    CantorIterate,
    cantor_iterate,
    disjoint_union_witness,
    relative_frequency,
    removed_mass,
)
from .protocols import (
    Allocation,
    Player,
    check_envy_free,
    check_proportional,
    cut_and_choose,
    last_diminisher,
    moving_knife,
)
from .config import bundled_config_path, load_valuation, valuation_from_dict

__version__ = "0.1.0"
