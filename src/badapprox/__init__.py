"""Exact computation around numbers with bounded partial quotients.

Gap structure of the multiples of theta modulo one, the sharp constant
governing N times the largest gap, best inhomogeneous approximation
with explicit error bounds, and the diversity of characteristic bit
sequences, all in exact arithmetic.

`import badapprox` registers each library submodule (all but `cli`) in
`sys.modules` through `importlib.util.LazyLoader` and runs none: a
submodule's code runs on its first attribute access, and each public name
is looked up in its submodule on first access (PEP 562). A program pays
only for the modules it uses, while code that looks modules up in
`sys.modules`, such as perfbench's tracer, finds every one.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_NAMES = {
    "cf": (
        "CFSpec",
        "Convergent",
        "GOLDEN",
        "SQRT2_MINUS_1",
        "bounded_quotient_extrema",
        "choose_surrogate",
        "convergent_pairs",
        "convergent_residual",
        "convergents",
        "dist_to_int",
        "eval_theta",
        "expand_quadratic",
        "preset",
        "reversal_identity_check",
        "tail_and_reversal",
    ),
    "errors": ("CoincidentPointsError", "DomainError", "SequenceLengthError", "VerificationError"),
    "gaps": (
        "ExtremalWitness",
        "GapSet",
        "RegimeTag",
        "classify_regime",
        "extremal_witness",
        "gap_constant",
        "gap_constant_bounds",
        "gap_set",
        "predicted_gap_values",
        "verify_regime",
    ),
    "kronecker": ("KroneckerSolution", "legacy_bound", "solve"),
    "oracle": ("OracleReport", "run_suite"),
    "quadratic": ("QuadraticNumber",),
    "render": ("decimal_str",),
    "sturmian": (
        "CrossingCell",
        "DiversityRow",
        "DiversityWitness",
        "FibLucasPair",
        "FractionalGrids",
        "RatioReport",
        "WitnessReport",
        "agreement",
        "characteristic_bits",
        "crossing_cell",
        "crossing_unique",
        "diversity_scan",
        "fib_lucas",
        "fractional_grids",
        "lower_bound_witness",
        "witness_ratio_report",
    ),
}
_SOURCE = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_SOURCE)


def _register(module: str):
    """A module object for submodule `module`, in `sys.modules`, whose code
    runs on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    loader = spec.loader = importlib.util.LazyLoader(spec.loader)
    sys.modules[spec.name] = lazy = importlib.util.module_from_spec(spec)
    loader.exec_module(lazy)
    return lazy


globals().update({module: _register(module) for module in _NAMES})


def __getattr__(name: str):
    """Look a public name up in its submodule and bind it here for later
    reads."""
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
