import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import badapprox
from badapprox import GOLDEN, SQRT2_MINUS_1, CFSpec, OracleReport, run_suite
from badapprox.errors import SequenceLengthError
from badapprox.oracle import (
    brute_agreement,
    brute_bits,
    brute_gap_points,
    brute_kronecker,
    high_precision_value,
)


def test_high_precision_value():
    golden = high_precision_value(GOLDEN)
    assert abs(float(golden) - 0.6180339887498949) < 1e-15
    rational = high_precision_value(CFSpec(0, (2, 3), ()))
    assert abs(float(rational) - 3 / 7) < 1e-15


def test_brute_gap_points_golden():
    pts, distinct = brute_gap_points(high_precision_value(GOLDEN), 3)
    assert len(pts) == 5
    assert [round(float(g), 6) for g in distinct] == [0.145898, 0.236068, 0.381966]


def test_brute_kronecker_frozen():
    golden = high_precision_value(GOLDEN)
    n, p, err = brute_kronecker(golden, Fraction(1, 2), 3)
    assert (n, p) == (1, 0)
    assert abs(float(err) - 0.1180339887) < 1e-9
    sqrt2 = high_precision_value(SQRT2_MINUS_1)
    n, p, err = brute_kronecker(sqrt2, Fraction(9, 10), 4)
    assert (n, p) == (2, 0)
    assert abs(float(err) - 0.0715728753) < 1e-9


def test_brute_bits_golden():
    bits = brute_bits(high_precision_value(GOLDEN), 10)
    assert bits == [1, 0, 1, 1, 0, 1, 0, 1, 1, 0]


def test_brute_agreement_paths():
    golden_bits = brute_bits(high_precision_value(GOLDEN), 40)
    assert brute_agreement(golden_bits, 2, 0, 1, 5) == 0
    # without max_k the scan runs to bit exhaustion
    assert brute_agreement([0] * 100, 3, 0, 2) is None
    assert brute_agreement([0] * 99 + [1], 10, 0, 9) == 9
    with pytest.raises(SequenceLengthError):
        brute_agreement([0, 1, 0], 2, 0, 1, 10)


def test_report_ok_flag():
    assert OracleReport(1, 1, 1, ()).ok
    assert not OracleReport(1, 1, 1, ("boom",)).ok


def test_run_suite_clean():
    rep = run_suite(cases=25)
    assert rep.ok, rep.failures
    assert rep.gap_cases == 25
    assert rep.kronecker_cases == 25
    assert rep.agreement_cases == 25


def test_import_does_not_load_mpmath():
    code = "import sys, badapprox; print('mpmath' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(badapprox.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
