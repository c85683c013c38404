import itertools
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from badapprox import (
    GOLDEN,
    SQRT2_MINUS_1,
    CFSpec,
    Convergent,
    DomainError,
    QuadraticNumber,
    bounded_quotient_extrema,
    choose_surrogate,
    convergent_residual,
    convergents,
    dist_to_int,
    eval_theta,
    expand_quadratic,
    gap_constant,
    gap_set,
    preset,
    reversal_identity_check,
    tail_and_reversal,
)
from badapprox.cf import _pair_past, convergent_pairs, min_affine_mod
from badapprox.oracle import random_cf
from badapprox.sturmian import THETA_GOLDEN


@st.composite
def irrational_cfs(draw):
    a0 = draw(st.integers(min_value=0, max_value=3))
    prefix = draw(st.lists(st.integers(1, 6), max_size=4))
    period = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    return CFSpec(a0, tuple(prefix), tuple(period))


# ---- construction and shape ------------------------------------------------


def test_validation_rejects_low_quotients():
    with pytest.raises(DomainError):
        CFSpec(0, (0,), ())
    with pytest.raises(DomainError):
        CFSpec(0, (2, -1), ())
    with pytest.raises(DomainError):
        CFSpec(0, (), (1, 0))


def test_trailing_one_folds():
    assert CFSpec(0, (2, 2, 1), ()) == CFSpec(0, (2, 3), ())
    assert CFSpec(0, (1,), ()) == CFSpec(1, (), ())
    # periodic expansions keep their shape untouched
    assert CFSpec(0, (2, 1), (3,)).prefix == (2, 1)


def test_shape_predicates():
    assert CFSpec(2, (), ()).is_integer
    assert CFSpec(0, (2, 3), ()).is_rational
    assert not GOLDEN.is_rational
    assert CFSpec(0, (2, 3), ()).expansion_length() == 2
    assert GOLDEN.expansion_length() is None
    assert GOLDEN.bound() == 1
    assert CFSpec(0, (2, 1, 3), (1, 2)).bound() == 3
    with pytest.raises(DomainError):
        CFSpec(5, (), ()).bound()


def test_rational_value():
    assert CFSpec(0, (2, 3), ()).value() == Fraction(3, 7)
    assert CFSpec(1, (2,), ()).value() == Fraction(3, 2)
    with pytest.raises(DomainError):
        GOLDEN.value()


def test_quotient_and_tail_indexing():
    cf = CFSpec(0, (2, 1, 3), (1, 2))
    assert [cf.quotient(k) for k in range(1, 8)] == [2, 1, 3, 1, 2, 1, 2]
    assert cf.tail(2) == CFSpec(0, (1, 3), (1, 2))
    assert cf.tail(4) == CFSpec(0, (), (1, 2))
    assert cf.tail(5) == CFSpec(0, (), (2, 1))
    rat = CFSpec(0, (2, 3), ())
    assert rat.quotient(2) == 3
    with pytest.raises(DomainError):
        rat.quotient(3)
    with pytest.raises(DomainError):
        rat.tail(3)
    with pytest.raises(DomainError):
        cf.quotient(0)


def test_presets():
    assert preset("golden") == GOLDEN
    assert preset("sqrt2") == SQRT2_MINUS_1
    assert preset("extremal:3") == CFSpec(0, (), (3, 1))
    for bad in ("extremal:0", "extremal:x", "pi"):
        with pytest.raises(DomainError):
            preset(bad)


def test_json_round_trip():
    for cf in (GOLDEN, CFSpec(2, (3, 1, 4), ()), CFSpec(0, (2,), (1, 5))):
        assert CFSpec.from_json(cf.to_json()) == cf
    with pytest.raises(DomainError):
        CFSpec.from_json("[1, 2]")
    with pytest.raises(DomainError):
        CFSpec.from_json("{bad json")
    with pytest.raises(DomainError):
        CFSpec.from_json('{"a0": 0, "period": [0]}')
    with pytest.raises(DomainError):
        CFSpec.from_json('{"a0": 0, "period": [1.5]}')


# ---- convergents -----------------------------------------------------------


def test_golden_convergents_are_fibonacci():
    got = [(c.p, c.q) for c in convergents(GOLDEN, 6)]
    assert got == [(0, 1), (1, 1), (1, 2), (2, 3), (3, 5), (5, 8)]


@given(irrational_cfs())
def test_convergent_recurrence_and_coprimality(cf):
    conv = convergents(cf, 12)
    quots = [cf.quotient(k) for k in range(1, 12)]
    for k in range(2, 12):
        assert conv[k].p == quots[k - 1] * conv[k - 1].p + conv[k - 2].p
        assert conv[k].q == quots[k - 1] * conv[k - 1].q + conv[k - 2].q
    for c in conv:
        assert Fraction(c.p, c.q).denominator == c.q  # gcd(p, q) == 1
    for k in range(1, 11):
        # determinant identity, also fixes the sign alternation
        det = conv[k + 1].p * conv[k].q - conv[k].p * conv[k + 1].q
        assert det == (-1) ** k


def test_rational_expansion_runs_out_short():
    conv = convergents(CFSpec(0, (2, 3), ()), 10)
    assert len(conv) == 3
    assert conv[-1].value == Fraction(3, 7)


# ---- exact evaluation ------------------------------------------------------


def test_eval_theta_matches_high_precision():
    with mp.workdps(60):
        golden = (mp.sqrt(5) - 1) / 2
        approx = eval_theta(GOLDEN).as_fraction_approx(55)
        assert abs(mp.mpf(approx.numerator) / approx.denominator - golden) < mp.mpf(10) ** -54


def test_eval_theta_rational_is_exact():
    ev = eval_theta(CFSpec(0, (2, 3), ()))
    assert type(ev) is Fraction and ev == Fraction(3, 7)


def test_eval_theta_expands_to_its_quotients():
    rng = random.Random(20261020)
    bounds = [2] * 600 + [10] * 600 + [1000] * 300
    for bound in bounds:
        drawn = random_cf(rng, bound)
        cf = CFSpec(rng.choice([-5, -1, 1, 3, 5]), drawn.prefix, drawn.period)
        theta = eval_theta(cf)
        assert type(theta) is QuadraticNumber and theta.d > 1, cf
        want = [cf.a0] + [cf.quotient(k) for k in range(1, 25)]
        assert expand_quadratic(theta, 25) == want, cf
        rational = CFSpec(cf.a0, cf.prefix + cf.period, ())
        assert eval_theta(rational) == rational.value(), rational


def test_eval_theta_equals_the_closed_forms_it_replaced():
    golden = (QuadraticNumber.sqrt(5) - 1) / 2
    assert eval_theta(GOLDEN) == golden == THETA_GOLDEN
    for b in range(1, 51):
        root = QuadraticNumber.sqrt(b * b + 4 * b)
        mn, mx = (root - b) / (2 * b), (root + b) / 2
        assert eval_theta(CFSpec(0, (), (b, 1))) == mn, b
        assert eval_theta(CFSpec(b, (), (1, b))) == mx, b
        assert bounded_quotient_extrema(b) == (mn, mx), b


def test_eval_theta_keeps_its_discriminant_and_equals_the_reduced_value():
    # theta is built over its period's discriminant as it stands; the public
    # constructor takes the square factors out. Both are one value.
    rng = random.Random(32)
    for bound in [2] * 100 + [10] * 100 + [1000] * 100:
        cf = random_cf(rng, bound)
        theta = eval_theta(cf)
        reduced = QuadraticNumber(theta.a, theta.b, theta.d)
        square = theta.d // reduced.d
        assert square * reduced.d == theta.d and math.isqrt(square) ** 2 == square, cf
        assert theta == reduced and hash(theta) == hash(reduced), cf
        assert theta - reduced == 0 and theta * theta == reduced * reduced, cf
    for b in range(1, 51):
        theta = eval_theta(CFSpec(0, (), (b, 1)))
        assert theta.d == b * b + 4 * b
        reduced = QuadraticNumber(theta.a, theta.b, theta.d)
        f = gap_constant(b)  # in the same field, over its own radicand
        for got, want in ((f - theta, f - reduced), (theta * f, reduced * f),
                          (theta / f, reduced / f)):
            assert got == want and hash(got) == hash(want), b
        assert theta < f


def test_dist_to_int_frozen_golden():
    d3 = dist_to_int(GOLDEN, 3)
    d5 = dist_to_int(GOLDEN, 5)
    assert d3 == QuadraticNumber(Fraction(7, 2), Fraction(-3, 2), 5)
    assert d5 == QuadraticNumber(Fraction(-11, 2), Fraction(5, 2), 5)
    assert abs(d3 - Fraction("0.1458980338")) < Fraction(1, 10**9)
    assert abs(d5 - Fraction("0.09016994375")) < Fraction(1, 10**9)
    assert dist_to_int(GOLDEN, 0) == 0
    assert dist_to_int(GOLDEN, -3) == d3


def test_residual_at_zero_is_fractional_part():
    r0 = convergent_residual(GOLDEN, 0)
    assert r0 == eval_theta(GOLDEN)
    assert r0 > Fraction(1, 2)  # not folded to the nearest integer
    assert convergent_residual(CFSpec(2, (), (1,)), 0) == eval_theta(GOLDEN)
    with pytest.raises(DomainError):
        convergent_residual(CFSpec(0, (2, 3), ()), 5)


# ---- the reversal and the two residual identities --------------------------

CORPUS = [GOLDEN, SQRT2_MINUS_1, preset("extremal:3"), CFSpec(0, (2, 1, 3), (1, 2))]


def test_reversal_identity():
    for cf in CORPUS:
        for k in range(1, 21):
            assert reversal_identity_check(cf, k)


def test_residual_identities_certified():
    """q_k |q_k t - p_k| = 1/(a_{k+1} + t_{k+2} + q_{k-1}/q_k) and
    q_k |q_{k-1} t - p_{k-1}| = 1/(1 + t_{k+1} q_{k-1}/q_k), checked as
    exact equalities in the field of t."""
    for cf in CORPUS:
        conv = convergents(cf, 22)
        for k in range(1, 21):
            _, phi = tail_and_reversal(cf, k)
            assert phi == Fraction(conv[k - 1].q, conv[k].q)
            r_k = conv[k].q * convergent_residual(cf, k)
            assert r_k == 1 / (tail_and_reversal(cf, k + 2)[0] + cf.quotient(k + 1) + phi)
            r_prev = conv[k].q * convergent_residual(cf, k - 1)
            assert r_prev == 1 / (1 + tail_and_reversal(cf, k + 1)[0] * phi)


def test_residual_identity_frozen_sqrt2():
    conv = convergents(SQRT2_MINUS_1, 4)
    assert (conv[2].p, conv[2].q) == (2, 5)
    lhs = 5 * convergent_residual(SQRT2_MINUS_1, 2)
    assert lhs == QuadraticNumber(-35, 25, 2)
    assert abs(lhs - Fraction("0.355339059327376")) < Fraction(1, 10**12)
    lhs_prev = 5 * convergent_residual(SQRT2_MINUS_1, 1)
    assert lhs_prev == QuadraticNumber(15, -10, 2)
    assert abs(lhs_prev - Fraction("0.85786437626905")) < Fraction(1, 10**12)


# ---- surrogate substitution ------------------------------------------------


@given(irrational_cfs(), st.integers(min_value=1, max_value=200))
def test_choose_surrogate_is_minimal_and_deep_enough(cf, N):
    need = 16 * (cf.bound() + 2) * N * N
    c, c_next = choose_surrogate(cf, N)
    assert c_next.k == c.k + 1
    assert c.q * c_next.q > need
    if c.k > 0:
        shallower = convergents(cf, c.k + 1)
        assert shallower[c.k - 1].q * shallower[c.k].q <= need


@given(irrational_cfs(), st.integers(min_value=1, max_value=50))
def test_choose_surrogate_honors_min_radius(cf, N):
    c, c_next = choose_surrogate(cf, N, min_radius=Fraction(1, 10**12))
    assert c.q * c_next.q >= 10**12


def test_surrogate_float_radius_is_read_exactly():
    # A float radius is read as its exact Fraction: the first pair past it.
    gs = gap_set(GOLDEN, 100, min_radius=1e-20)
    assert gs.radius <= Fraction(1e-20) < 3 * gs.radius
    c, c_next = _pair_past_reference(GOLDEN, math.ceil(1 / Fraction(1e-20)))
    assert gs.radius == Fraction(1, c.q * c_next.q)
    # A radius <= 0 can never be reached by deepening: refused up front.
    with pytest.raises(DomainError):
        gap_set(GOLDEN, 10, min_radius=Fraction(0))
    with pytest.raises(DomainError):
        gap_set(GOLDEN, 10, min_radius=Fraction(-1, 10))


def _pair_past_reference(cf, least):
    """The first pair past least, read off the Convergent stream."""
    return next(p for p in itertools.pairwise(convergent_pairs(cf)) if p[0].q * p[1].q >= least)


def test_pair_past_matches_the_convergent_stream():
    rng = random.Random(20261101)
    cfs = [GOLDEN, SQRT2_MINUS_1, CFSpec(-3, (2,), (1, 4)), CFSpec(5, (), (10**30,))]
    cfs += [random_cf(rng, rng.choice((2, 10, 1000))) for _ in range(300)]
    for cf in cfs:
        leasts = [-(10**9), 0, 1, 2, 10**6, 10**50, 10**400]
        leasts.append(rng.randrange(1, 10 ** rng.randint(1, 80)))
        # either side of each product the walk passes
        for c, d in itertools.pairwise(convergents(cf, 12)):
            leasts += [c.q * d.q - 1, c.q * d.q, c.q * d.q + 1]
        for least in leasts:
            got = _pair_past(cf, least)
            assert got == _pair_past_reference(cf, least), (cf, least)
            assert all(type(c) is Convergent for c in got)


def test_pair_past_on_a_rational_that_runs_out():
    cf = CFSpec(1, (2, 3, 4), ())
    conv = convergents(cf, 10)
    assert len(conv) == 4
    # Pairs that exist are found as on an irrational expansion.
    assert _pair_past(cf, conv[2].q * conv[3].q) == (conv[2], conv[3])
    for rational, least in ((cf, conv[2].q * conv[3].q + 1), (CFSpec(7), 1)):
        with pytest.raises(DomainError, match="runs out"):
            _pair_past(rational, least)


@given(irrational_cfs(), st.integers(min_value=5, max_value=100))
@settings(max_examples=60)
def test_surrogate_residual_identity_exact(cf, N):
    """Replacing theta by p_K/q_K keeps the classical residual identity
    q_k r_{k-1} + q_{k-1} r_k = 1 exact, in integer form, at every k <= K."""
    cK, _ = choose_surrogate(cf, N)
    conv = convergents(cf, cK.k + 1)
    pK, qK = cK.p, cK.q
    for k in range(1, cK.k + 1):
        r_prev = abs(conv[k - 1].q * pK - conv[k - 1].p * qK)
        r_k = abs(conv[k].q * pK - conv[k].p * qK)
        assert conv[k].q * r_prev + conv[k - 1].q * r_k == qK


# ---- ordering under quotient bumps -----------------------------------------


@given(
    st.lists(st.integers(1, 5), min_size=10, max_size=10),
    st.integers(min_value=1, max_value=10),
)
def test_quotient_bump_parity(qs, k):
    qs = list(qs)
    qs[9] = max(qs[9], 2)  # keep length stable under trailing-one folding
    bumped = list(qs)
    bumped[k - 1] += 1
    before = CFSpec(0, tuple(qs), ()).value()
    after = CFSpec(0, tuple(bumped), ()).value()
    if k % 2 == 0:
        assert after > before
    else:
        assert after < before


# ---- quadratic expansion and quotient-bound extrema ------------------------


def test_expand_quadratic_known_expansions():
    alpha = QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5)
    assert expand_quadratic(alpha, 6) == [1, 1, 1, 1, 1, 1]
    assert expand_quadratic(alpha - 1, 6) == [0, 1, 1, 1, 1, 1]
    assert expand_quadratic(QuadraticNumber.sqrt(2), 5) == [1, 2, 2, 2, 2]
    assert expand_quadratic(QuadraticNumber(Fraction(3, 7)), 5) == [0, 2, 3]


def test_bounded_quotient_extrema_frozen():
    want = {
        1: (0.61803398875, 1.61803398875),
        2: (0.366025403784, 2.73205080757),
        3: (0.263762615826, 3.79128784748),
        4: (0.207106781187, 4.82842712475),
    }
    for b, (lo, hi) in want.items():
        mn, mx = bounded_quotient_extrema(b)
        assert float(mn) == pytest.approx(lo, abs=1e-10)
        assert float(mx) == pytest.approx(hi, abs=1e-10)
    with pytest.raises(DomainError):
        bounded_quotient_extrema(0)


# ---- minimum of an affine sequence modulo m --------------------------------


def _brute_min_affine_mod(n, m, a, b):
    values = [(a * x + b) % m for x in range(n)]
    best = min(values)
    return best, values.index(best)


_moduli = st.one_of(
    st.integers(1, 50), st.integers(1, 10**6), st.integers(2**200, 2**210)
)


@given(st.integers(1, 300), _moduli, st.integers(-(2**211), 2**211), st.integers(-(2**211), 2**211))
@example(n=1, m=7, a=3, b=5)
@example(n=40, m=13, a=0, b=9)
@example(n=40, m=12, a=6, b=5)
@example(n=40, m=12, a=18, b=-7)
@example(n=300, m=2**201 + 1, a=2**200, b=3)
@example(n=300, m=2**203 + 5, a=-1, b=2**202)
@settings(max_examples=400)
def test_min_affine_mod_matches_brute_loop(n, m, a, b):
    assert min_affine_mod(n, m, a, b) == _brute_min_affine_mod(n, m, a, b)


def test_min_affine_mod_runs_long_expansions_without_recursion():
    # 3000 quotients of 1: the deepest Euclid descent for its size.
    q_prev, q = 1, 1
    for _ in range(3000):
        q_prev, q = q, q + q_prev
    assert min_affine_mod(q, q, q_prev, 0) == (0, 0)
    assert min_affine_mod(q - 1, q, q_prev, q_prev) == (1, pow(q_prev, -1, q) - 1)
    with pytest.raises(DomainError):
        min_affine_mod(0, 5, 1, 1)
    with pytest.raises(DomainError):
        min_affine_mod(3, 0, 1, 1)


def test_refusals_and_edge_values():
    with pytest.raises(DomainError):
        convergents(GOLDEN, 0)
    rational = CFSpec(0, (2, 3), ())  # 3/7
    with pytest.raises(DomainError):
        choose_surrogate(rational, 5)
    assert dist_to_int(rational, 2) == Fraction(1, 7)
    for call in (
        lambda: GOLDEN.tail(0),
        lambda: convergent_residual(GOLDEN, -1),
        lambda: tail_and_reversal(GOLDEN, 0),
        lambda: reversal_identity_check(GOLDEN, 0),
    ):
        with pytest.raises(DomainError):
            call()
