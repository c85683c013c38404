import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from badapprox import (
    GOLDEN,
    SQRT2_MINUS_1,
    CFSpec,
    DomainError,
    Walk,
    decimal_str,
    eval_theta,
    extremal_witness,
    gap_constant,
    gap_set,
    legacy_bound,
    solve,
)
from badapprox.gaps import _surrogate
from badapprox.kronecker import _neighbours
from badapprox.oracle import high_precision_value, random_beta, random_cf
from badapprox.quadratic import QuadraticNumber

DEEP = Fraction(1, 10**30)


def test_frozen_golden_half():
    sol = solve(GOLDEN, Fraction(1, 2), 3)
    assert (sol.n, sol.p) == (1, 0)
    assert decimal_str(sol.achieved) == "0.1180339887"
    assert decimal_str(sol.bound) == "0.3157378652"
    assert sol.legacy_bound == 27
    assert sol.within_bound


def test_frozen_sqrt2():
    sol = solve(SQRT2_MINUS_1, Fraction(9, 10), 4)
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


def _error(cf, sol, beta):
    """|n*theta - p - beta| for the exact theta."""
    return abs(sol.n * eval_theta(cf) - sol.p - beta)


def _multiple(gs, num):
    """The n whose point is num/denominator, n*numerator = num mod
    denominator; the endpoints 0 and 1 both belong to n = 0."""
    return num * pow(gs.numerator, -1, gs.denominator) % gs.denominator


def test_exact_hit_recovers_the_multiple():
    # On a rational theta every point is exact, so a point hits.
    cf = CFSpec(0, (1, 2, 3, 4, 5), ())
    gs = gap_set(cf, 100)
    num = int(gs.nums[37])
    sol = solve(cf, Fraction(num, gs.denominator), 100)
    assert sol.achieved == 0
    assert sol.n == _multiple(gs, num)
    assert sol.n * gs.numerator - sol.p * gs.denominator == num
    # A deep surrogate's point lies within 20*DEEP of golden's, far nearer
    # than any other point, so it recovers the same multiple.
    gs = gap_set(GOLDEN, 20, min_radius=DEEP)
    num = int(gs.nums[5])
    beta = Fraction(num, gs.denominator)
    sol = solve(GOLDEN, beta, 20)
    assert sol.n == _multiple(gs, num)
    assert sol.n * gs.numerator - sol.p * gs.denominator == num
    assert sol.achieved == _error(GOLDEN, sol, beta) != 0


def test_midpoint_of_largest_gap_is_worst_case():
    w = extremal_witness(3, 8)
    cases = ((GOLDEN, 30), (SQRT2_MINUS_1, 45), (CFSpec(0, (), (3, 1)), 60),
             (CFSpec(0, (1, 2, 3, 4, 5), ()), 150), (w.theta, w.count))
    for cf, N in cases:
        gs = gap_set(cf, N, min_radius=DEEP)
        lo, hi = gs.largest_gap_span()
        beta = (lo + hi) / 2
        sol = solve(cf, beta, N)
        if cf.is_rational:
            assert sol.achieved == gs.largest / 2
        else:
            # The exact error at whichever end of the gap is nearer.
            ends = [_multiple(gs, int(v * gs.denominator)) for v in (lo, hi)]
            theta = eval_theta(cf)
            points = [n * theta - math.floor(n * theta) for n in ends]
            points[1] += hi == 1  # the endpoint 1 belongs to n = 0
            errors = [abs(x - beta) for x in points]
            assert sol.n in ends
            assert sol.achieved == min(errors) == _error(cf, sol, beta)
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
    beta = Fraction(1, 3)
    start = time.perf_counter()
    sol = solve(GOLDEN, beta, N)
    assert time.perf_counter() - start < 1.0
    assert sol.within_bound and 0 <= sol.n <= N
    assert sol.achieved == _error(GOLDEN, sol, beta)
    theta = high_precision_value(GOLDEN)
    with mpmath.workdps(80):
        err = abs(sol.n * theta - sol.p - mpmath.mpf(1) / 3)
        assert abs(err - mpmath.mpf(decimal_str(sol.achieved, 60))) < mpmath.mpf(10) ** -45
    assert sol.achieved < Fraction(1, N)


def _brute_nearest(cf, beta, N):
    """(n, p, error) of the nearest point to beta, by an exact scan of every
    0 <= n <= N with p the integer nearest n*theta - beta; the first
    strict improvement is kept."""
    theta = eval_theta(cf)
    best = None
    for n in range(N + 1):
        x = n * theta - beta
        p = math.floor(x + Fraction(1, 2))
        err = abs(x - p)
        if best is None or err < best[2]:
            best = n, p, err
    return best


# At its default surrogate, the solver once returned a multiple that is
# not the nearest on each of these: the surrogate's error decided.
@pytest.mark.parametrize(
    "cf, beta, N, want",
    [
        (CFSpec(0, (4,), (2, 1)), Fraction(57, 500), 1, (0, 0)),
        (CFSpec(0, (1, 1), (1, 1, 1, 1)), Fraction(33, 50), 240, (103, 63)),
        (CFSpec(0, (1, 1), (1, 1, 1)), Fraction(49, 250), 235, (44, 27)),
        (CFSpec(0, (), (1, 1, 1, 1, 1)), Fraction(291, 500), 96, (43, 26)),
    ],
)
def test_solve_returns_the_nearest_multiple_where_the_surrogate_misled(cf, beta, N, want):
    sol = solve(cf, beta, N)
    assert (sol.n, sol.p) == want
    assert (sol.n, sol.p, sol.achieved) == _brute_nearest(cf, beta, N)
    assert sol.achieved == _error(cf, sol, beta)
    if want == (0, 0):
        assert sol.achieved == Fraction(57, 500)


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    bound=st.sampled_from([2, 10, 1000]),
    N=st.integers(1, 300),
)
def test_solve_is_the_exact_brute_force_nearest(seed, bound, N):
    rng = random.Random(seed)
    cf = random_cf(rng, bound)
    beta = random_beta(rng)
    sol = solve(cf, beta, N)
    assert (sol.n, sol.p, sol.achieved) == _brute_nearest(cf, beta, N)
    assert sol.within_bound == (sol.achieved < gap_constant(cf.bound()) / (2 * N))


def _min_abs_selection(cf, beta, N):
    """(n, p, achieved, within_bound) chosen as solve chose them before it
    decided on integer numerators: the smaller of the two neighbours'
    abs(n*theta - p - beta), the left one on a tie."""
    num, q, _, _ = _surrogate(Walk(cf), N)
    theta = eval_theta(cf)
    errors = [(abs(n * theta - p - beta), n, p) for n, p in _neighbours(num, q, N, beta)]
    achieved, n, p = min(errors, key=lambda e: e[0])
    return n, p, achieved, achieved < gap_constant(cf.bound()) / (2 * N)


def _normal_form(v):
    """The type of an exact value and the integers that store it."""
    if isinstance(v, QuadraticNumber):
        return QuadraticNumber, (v._x, v._y, v._z, v._d)
    return type(v), (v.numerator, v.denominator)


def _tie_cases(rng):
    """Rational theta with beta at the midpoint of two neighbouring points,
    where both neighbours are equally near."""
    cases = []
    for _ in range(150):
        quotients = [rng.randint(2, 9)] + [rng.randint(1, 9) for _ in range(rng.randint(0, 3))]
        cf = CFSpec(0, tuple(quotients), ())
        theta = cf.value()
        N = rng.randint(1, theta.denominator - 1)
        pts = sorted({n * theta % 1 for n in range(N + 1)} | {Fraction(1)})
        i = rng.randrange(len(pts) - 1)
        cases.append((cf, (pts[i] + pts[i + 1]) / 2, N))
    return cases


def test_solve_selection_matches_the_min_over_absolute_errors():
    rng = random.Random(35)
    cases = []
    for bound in (2, 10, 1000):
        for _ in range(700):
            cf = random_cf(rng, bound)
            N = rng.randint(1, 2000)
            beta = Fraction(0) if rng.random() < 0.05 else random_beta(rng)
            cases.append((cf, beta, N))
    cases += [(GOLDEN, Fraction(99, 100), 1), (SQRT2_MINUS_1, Fraction(0), 7)]
    cases += _tie_cases(rng)
    cases += [(CFSpec(0, (2, 3), ()), beta, N) for beta in (Fraction(0), Fraction(13, 14)) for N in (1, 6)]
    seen = {"endpoint": 0, "zero": 0, "rational": 0}
    for cf, beta, N in cases:
        sol = solve(cf, beta, N)
        n, p, achieved, within = _min_abs_selection(cf, beta, N)
        assert (sol.n, sol.p, sol.within_bound) == (n, p, within), (cf, beta, N)
        assert _normal_form(sol.achieved) == _normal_form(achieved), (cf, beta, N)
        seen["endpoint"] += (n, p) == (0, -1)
        seen["zero"] += beta == 0
        seen["rational"] += cf.is_rational
    assert len(cases) >= 2000
    assert all(seen.values()), seen
