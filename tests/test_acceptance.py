"""Acceptance gate: ten end-to-end criteria, one pass line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines. Every
tolerance and time limit is pinned here; the random corpora use fixed
seeds so reruns are reproducible.
"""

import random
import time
from fractions import Fraction

from badapprox import (
    GOLDEN,
    QuadraticNumber,
    agreement,
    crossing_cell,
    crossing_unique,
    decimal_str,
    diversity_scan,
    extremal_witness,
    fib_lucas,
    fractional_grids,
    gap_constant,
    gap_constant_bounds,
    gap_set,
    lower_bound_witness,
    run_suite,
    solve,
    witness_ratio_report,
)
from badapprox.oracle import brute_kronecker, high_precision_value, random_beta, random_cf

SEED = 20260822


def test_criterion_01_constant_table_and_envelope():
    t0 = time.monotonic()
    frozen = [
        "1.894427191",
        "2.154700538",
        "2.309307341",
        "2.590990258",
        "2.788854382",
        "3.065591118",
        "3.279211529",
        "3.551551815",
        "3.773500981",
        "4.042555317",
    ]
    assert [decimal_str(gap_constant(b)) for b in range(1, 11)] == frozen
    assert gap_constant(1) == 1 + Fraction(2) / QuadraticNumber.sqrt(5)
    assert gap_constant(2) == 1 + Fraction(2) / QuadraticNumber.sqrt(3)
    assert gap_constant(3) == 1 + Fraction(6) / QuadraticNumber.sqrt(21)
    assert gap_constant(4) == 1 + Fraction(9) / (2 * QuadraticNumber.sqrt(8))
    for b in range(1, 1001):
        lo, hi = gap_constant_bounds(b)
        f = gap_constant(b)
        assert lo < f, b
        if b == 1:
            assert f == hi
        else:
            assert f < hi, b
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 1: constant table to 10 digits, four exact closed "
        f"forms, envelope exact for bounds 1..1000 with equality only at 1 "
        f"({elapsed:.2f}s < 1s)"
    )


def test_criterion_02_gap_structure_random_corpus():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    for _ in range(500):
        cf = random_cf(rng)
        N = rng.randint(1, 2000)
        f = gap_constant(cf.bound())
        min_radius = None
        for _ in range(6):
            gs = gap_set(cf, N, min_radius=min_radius)
            assert 2 <= len(gs.gap_nums) <= 3
            if len(gs.gap_nums) == 3:
                a, b, c = (g for g, _ in gs.gap_nums)
                assert c == a + b  # exact, in integers over one denominator
            assert sum(g * m for g, m in gs.gap_nums) == gs.denominator
            slack = N * N * gs.radius
            if gs.product + slack < f:
                break
            assert not gs.product - slack > f, (cf, N)
            min_radius = gs.radius / 2**40
        else:
            raise AssertionError(f"strict comparison stayed undecidable for {cf}, {N}")
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        f"PASS criterion 2: 500 random gap sets (bounds <= 10, N <= 2000) show "
        f"2-3 gaps, exact sum identity, exact cover, and N*H certified below "
        f"the constant ({elapsed:.2f}s < 60s)"
    )


def test_criterion_03_witness_convergence():
    t0 = time.monotonic()
    deep = Fraction(1, 10**34)
    for bound in (1, 2, 3):
        f = gap_constant(bound)
        prev = None
        prev_slack = None
        for stage in range(1, 11):
            w = extremal_witness(bound, stage, min_radius=deep)
            slack = w.count * w.count * w.radius
            if prev is not None:
                assert w.product - slack > prev + prev_slack, (bound, stage)
            prev, prev_slack = w.product, slack
        # stage 10 sits within 1e-2 of the constant, certified
        assert f - w.product < Fraction(1, 100) - slack, bound
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(
        f"PASS criterion 3: witness products rise toward the constant from "
        f"below for bounds 1..3, within 1e-2 at stage 10 ({elapsed:.2f}s < 10s)"
    )


def test_criterion_04_approximation_corpus_with_oracle():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    for _ in range(1000):
        cf = random_cf(rng)
        N = rng.randint(1, 1000)
        beta = random_beta(rng)
        sol = solve(cf, beta, N)
        assert sol.within_bound, (cf, beta, N)
        assert 0 <= sol.n <= N
        assert abs(sol.p) <= N
        assert sol.achieved <= sol.bound
        bn, bp, _ = brute_kronecker(high_precision_value(cf), beta, N)
        assert (sol.n, sol.p) == (bn, bp), (cf, beta, N)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        f"PASS criterion 4: 1000 random targets solved within C(B)/(2N) with "
        f"0 <= n <= N, |p| <= N, each minimizer confirmed globally by brute "
        f"scan ({elapsed:.2f}s < 60s)"
    )


def test_criterion_05_sharpness_at_the_witness():
    t0 = time.monotonic()
    w = extremal_witness(1, 10)
    N = w.count
    deep = Fraction(1, 10**30)
    gs = gap_set(w.theta, N, min_radius=deep)
    lo, hi = gs.largest_gap_span()
    sol = solve(w.theta, (lo + hi) / 2, N)
    floor = gap_constant(1) * Fraction(19, 20) / (2 * N)  # 0.95 * C(1)/(2N)
    assert sol.achieved > floor  # the exact error, so no slack
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(
        f"PASS criterion 5: midpoint target at the stage-10 witness "
        f"(N = {N}) forces error above 0.95 * C(1)/(2N) ({elapsed:.2f}s < 5s)"
    )


def test_criterion_06_agreement_bound_golden():
    t0 = time.monotonic()
    rows = diversity_scan(GOLDEN, 1, 30)
    assert len(rows) == 29
    for row in rows:
        assert row.passed, row
        assert row.max_agreement is not None
        assert row.max_agreement <= 18 * row.r * row.r
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        f"PASS criterion 6: golden bits, every step r <= 30 and every offset "
        f"pair first disagree within 18*r^2 ({elapsed:.2f}s < 60s)"
    )


def test_criterion_07_crossing_witness_adjudicated():
    t0 = time.monotonic()
    for stage, low, high in ((2, 28, 30), (3, 219, 224)):
        rep = lower_bound_witness(stage)
        k = rep.witness.first_mismatch
        assert (rep.candidate_low, rep.candidate_high) == (low, high)
        assert k >= rep.candidate_low - 2, (stage, k)
        assert rep.matches == "low", (stage, k)  # scan picks the lower closed form
        assert rep.mismatch_bits == (0, 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(
        f"PASS criterion 7: stage 2 and 3 scans hit 28 (not 30) and 219 (not "
        f"224), matching the lower closed form, mismatch bits (0,1) "
        f"({elapsed:.2f}s < 30s)"
    )


def test_criterion_08_exact_golden_machinery():
    t0 = time.monotonic()
    for n in range(51):
        fib_lucas(n)  # power-sum and shift identities re-verified inside
    for n in range(2, 6):
        fractional_grids(n)  # closed forms, positive steps, ends and size identity inside
        assert crossing_unique(n)
    for n in range(2, 7):
        crossing_cell(n)  # closed forms, brackets, and index identity inside
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(
        f"PASS criterion 8: power sums exact to index 50, grids exact for "
        f"stages 2..5 with a unique crossing cell, bracket and index "
        f"identities exact for stages 2..6 ({elapsed:.2f}s < 30s)"
    )


def test_criterion_09_ratio_limit():
    t0 = time.monotonic()
    rep = witness_ratio_report(2, 8)
    target = QuadraticNumber(Fraction(1, 2), Fraction(1, 10), 5)
    other = QuadraticNumber(1, Fraction(1, 10), 5)
    assert rep.candidates == (target, other)
    last = rep.rows[-1][1]
    assert abs(target - last) < Fraction(1, 1000)
    assert abs(other - last) > Fraction(1, 4)
    assert rep.approached == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        f"PASS criterion 9: index ratio approaches (5+sqrt(5))/10 within 1e-3 "
        f"by stage 8 and visibly not (10+sqrt(5))/10; both candidates "
        f"recorded ({elapsed:.2f}s < 1s)"
    )


def test_criterion_10_oracle_suite():
    t0 = time.monotonic()
    rep = run_suite(cases=200, seed=SEED)
    assert rep.ok, rep.failures
    assert rep.gap_cases == 200
    assert rep.kronecker_cases == 200
    assert rep.agreement_cases == 200
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        f"PASS criterion 10: 200 cases per oracle family agree (gap values to "
        f"1e-40, minimizers and agreement indices exactly) ({elapsed:.2f}s < "
        f"120s)"
    )
