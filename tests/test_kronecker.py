import random
import time
from fractions import Fraction

import mpmath
import pytest

import badapprox.kronecker as kronecker_module
from badapprox import (
    GOLDEN,
    SQRT2_MINUS_1,
    CFSpec,
    DomainError,
    VerificationError,
    decimal_str,
    extremal_witness,
    gap_constant,
    gap_set,
    legacy_bound,
    solve,
)
from badapprox.cf import CERT_ROUNDS
from badapprox.cli import _display_radius
from badapprox.oracle import high_precision_value

DEEP = Fraction(1, 10**30)


def test_frozen_golden_half():
    sol = solve(GOLDEN, Fraction(1, 2), 3, min_radius=DEEP)
    assert (sol.n, sol.p) == (1, 0)
    assert decimal_str(sol.achieved) == "0.1180339887"
    assert decimal_str(sol.bound) == "0.3157378652"
    assert sol.legacy_bound == 27
    assert sol.within_bound


def test_frozen_sqrt2():
    sol = solve(SQRT2_MINUS_1, Fraction(9, 10), 4, min_radius=DEEP)
    assert (sol.n, sol.p) == (2, 0)
    assert decimal_str(sol.achieved) == "0.07157287525"
    assert decimal_str(sol.bound) == "0.2693375673"
    assert sol.legacy_bound == 64
    assert sol.bound == gap_constant(2) / 8
    assert legacy_bound(2, 4) == 64


def test_edge_targets():
    at_zero = solve(GOLDEN, Fraction(0), 5)
    assert (at_zero.n, at_zero.p, at_zero.achieved) == (0, 0, Fraction(0))
    near_one = solve(GOLDEN, Fraction(99, 100), 1)
    assert (near_one.n, near_one.p) == (0, -1)
    assert near_one.achieved == Fraction(1, 100)


def test_exact_hit_recovers_the_multiple():
    gs = gap_set(GOLDEN, 20, min_radius=DEEP)
    num = int(gs.nums[5])
    n0 = gs.order_of(num)
    sol = solve(GOLDEN, Fraction(num, gs.denominator), 20, min_radius=DEEP)
    assert sol.achieved == 0
    assert sol.n == n0
    # n*theta - p lands exactly on the target
    assert sol.n * gs.numerator - sol.p * gs.denominator == num


def test_midpoint_of_largest_gap_is_worst_case():
    for cf, N in ((GOLDEN, 30), (SQRT2_MINUS_1, 45), (CFSpec(0, (), (3, 1)), 60)):
        gs = gap_set(cf, N, min_radius=DEEP)
        lo, hi = gs.largest_gap_span()
        sol = solve(cf, (lo + hi) / 2, N, min_radius=DEEP)
        assert sol.achieved == gs.largest / 2
        assert sol.within_bound  # even the worst target stays under C(B)/(2N)


def test_rational_theta():
    sol = solve(CFSpec(0, (2, 3), ()), Fraction(1, 3), 5)
    assert sol.within_bound
    assert 0 <= sol.n <= 5 and abs(sol.p) <= 5
    assert sol.achieved == abs(sol.n * Fraction(3, 7) - sol.p - Fraction(1, 3))


def test_domain_errors():
    with pytest.raises(DomainError):
        solve(GOLDEN, Fraction(1), 3)
    with pytest.raises(DomainError):
        solve(GOLDEN, Fraction(-1, 10), 3)
    with pytest.raises(DomainError):
        solve(GOLDEN, Fraction(1, 2), 0)
    with pytest.raises(DomainError):
        solve(CFSpec(1, (), (1,)), Fraction(1, 2), 3)
    with pytest.raises(DomainError):
        legacy_bound(0, 5)


def test_deterministic():
    a = solve(SQRT2_MINUS_1, Fraction(355, 1130), 50)
    b = solve(SQRT2_MINUS_1, Fraction(355, 1130), 50)
    assert a == b


def test_random_corpus_within_bound():
    rng = random.Random(20260822)
    for _ in range(150):
        period = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 4)))
        prefix = tuple(rng.randint(1, 8) for _ in range(rng.randint(0, 3)))
        cf = CFSpec(0, prefix, period)
        if cf.is_integer:
            continue
        N = rng.randint(1, 400)
        beta = Fraction(rng.randint(0, 999), 1000)
        sol = solve(cf, beta, N)
        assert sol.within_bound
        assert 0 <= sol.n <= N
        assert abs(sol.p) <= N
        assert sol.achieved <= sol.bound


def test_long_rational_at_a_full_cycle():
    """3000 quotients, N = q - 1: the points are every k/q."""
    cf = CFSpec(0, (1,) * 2999 + (2,), ())
    v = cf.value()
    p, q = v.numerator, v.denominator
    sol = solve(cf, Fraction(1, 3), q - 1)
    k = (q + 1) // 3  # the nearest k/q to 1/3, left on a tie
    assert sol.achieved == abs(Fraction(k, q) - Fraction(1, 3))
    assert sol.n == k * pow(p, -1, q) % q
    assert sol.n * p - sol.p * q == k
    assert sol.within_bound


def test_solve_at_a_billion_points_builds_none():
    N = 10**9
    start = time.perf_counter()
    sol = solve(GOLDEN, Fraction(1, 3), N, min_radius=_display_radius(40, N))
    assert time.perf_counter() - start < 1.0
    assert sol.within_bound and 0 <= sol.n <= N
    theta = high_precision_value(GOLDEN)
    with mpmath.workdps(80):
        err = abs(sol.n * theta - sol.p - mpmath.mpf(1) / 3)
        assert abs(err - mpmath.mpf(sol.achieved.numerator) / sol.achieved.denominator) < mpmath.mpf(10) ** -45
    assert sol.achieved < 1 / N


def test_solve_gives_up_when_the_surrogate_never_deepens(monkeypatch):
    # Beta in the middle of the extremal witness's largest gap leaves the
    # error within the policy surrogate's slack of C(B)/(2N).
    w = extremal_witness(3, 8)
    lo, hi = gap_set(w.theta, w.count).largest_gap_span()
    beta = (lo + hi) / 2
    real = kronecker_module.gap_set
    radii = []

    def never_deeper(cf, N, min_radius=None):
        radii.append(min_radius)
        return real(cf, N)

    monkeypatch.setattr(kronecker_module, "gap_set", never_deeper)
    with pytest.raises(VerificationError) as err:
        solve(w.theta, beta, w.count)
    # Each retry asks for 2**-40 of the radius the last attempt used.
    used = real(w.theta, w.count).radius
    assert radii == [None] + [used / 2**40] * (CERT_ROUNDS - 1)
    message = str(err.value)
    assert message.startswith("could not certify the error against C(B)/(2N)")
    assert f"cf = {w.theta}, N = {w.count}, beta = {beta}" in message
    # Deepening for real decides it, inside the bound.
    monkeypatch.undo()
    assert solve(w.theta, beta, w.count).within_bound
