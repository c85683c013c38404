"""Exact computation around numbers with bounded partial quotients.

Gap structure of the multiples of theta modulo one, the sharp constant
governing N times the largest gap, best inhomogeneous approximation
with explicit error bounds, and the diversity of characteristic bit
sequences, all in exact arithmetic.
"""

from .cf import (
    CFSpec,
    Convergent,
    GOLDEN,
    SQRT2_MINUS_1,
    bounded_quotient_extrema,
    choose_surrogate,
    convergent_pairs,
    convergent_residual,
    convergents,
    dist_to_int,
    eval_theta,
    expand_quadratic,
    preset,
    reversal_identity_check,
    tail_and_reversal,
)
from .errors import (
    CoincidentPointsError,
    DomainError,
    SequenceLengthError,
    VerificationError,
)
from .gaps import (
    ExtremalWitness,
    GapSet,
    RegimeTag,
    classify_regime,
    extremal_witness,
    gap_constant,
    gap_constant_bounds,
    gap_set,
    predicted_gap_values,
    verify_regime,
)
from .kronecker import KroneckerSolution, legacy_bound, solve
from .oracle import OracleReport, run_suite
from .quadratic import QuadraticNumber
from .render import decimal_str
from .sturmian import (
    CrossingCell,
    DiversityRow,
    DiversityWitness,
    FibLucasPair,
    FractionalGrids,
    RatioReport,
    WitnessReport,
    agreement,
    characteristic_bits,
    crossing_cell,
    crossing_unique,
    diversity_scan,
    fib_lucas,
    fractional_grids,
    lower_bound_witness,
    witness_ratio_report,
)

__version__ = "0.1.0"

__all__ = [
    "CFSpec",
    "CoincidentPointsError",
    "Convergent",
    "CrossingCell",
    "DiversityRow",
    "DiversityWitness",
    "DomainError",
    "ExtremalWitness",
    "FibLucasPair",
    "FractionalGrids",
    "GOLDEN",
    "GapSet",
    "KroneckerSolution",
    "OracleReport",
    "QuadraticNumber",
    "RatioReport",
    "RegimeTag",
    "SQRT2_MINUS_1",
    "SequenceLengthError",
    "VerificationError",
    "WitnessReport",
    "agreement",
    "bounded_quotient_extrema",
    "characteristic_bits",
    "choose_surrogate",
    "classify_regime",
    "crossing_cell",
    "crossing_unique",
    "convergent_pairs",
    "convergent_residual",
    "convergents",
    "decimal_str",
    "dist_to_int",
    "diversity_scan",
    "eval_theta",
    "expand_quadratic",
    "extremal_witness",
    "fib_lucas",
    "fractional_grids",
    "gap_constant",
    "gap_constant_bounds",
    "gap_set",
    "legacy_bound",
    "lower_bound_witness",
    "predicted_gap_values",
    "preset",
    "reversal_identity_check",
    "run_suite",
    "solve",
    "tail_and_reversal",
    "verify_regime",
    "witness_ratio_report",
]
