import ast
import dataclasses
import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp
from mpmath.libmp import dps_to_prec, from_man_exp

import badapprox
from badapprox import GOLDEN, SQRT2_MINUS_1, CFSpec, OracleReport, eval_theta, oracle, run_suite, solve
from badapprox.errors import SequenceLengthError
from badapprox.oracle import (
    ORACLE_DPS,
    _all_close_dyadic,
    _gap_keys,
    _round_bits,
    brute_agreement,
    brute_bits,
    brute_gap_points,
    brute_kronecker,
    high_precision_value,
    random_beta,
    random_cf,
)
from badapprox.quadratic import QuadraticNumber


def test_high_precision_value():
    golden = high_precision_value(GOLDEN)
    assert abs(float(golden) - 0.6180339887498949) < 1e-15
    rational = high_precision_value(CFSpec(0, (2, 3), ()))
    assert abs(float(rational) - 3 / 7) < 1e-15


def _ulps_off(x, exact) -> Fraction:
    """|exact - x| in units of the last place of x's prec-bit binade."""
    sign, man, exp, bc = x._mpf_
    prec = dps_to_prec(ORACLE_DPS + 10)
    value = (-1 if sign else 1) * man * Fraction(2) ** exp
    return abs(exact - value) / Fraction(2) ** (exp + bc - prec)


def test_high_precision_value_is_within_one_ulp_of_eval_theta():
    rng = random.Random(20261020)
    cfs = [random_cf(rng, rng.choice([2, 10, 1000])) for _ in range(300)]
    cfs += [CFSpec(a0, cf.prefix, cf.period) for a0, cf in zip((-4, 1, 7), cfs)]
    cfs += [CFSpec(a0, prefix, ()) for a0 in (-2, 0, 3) for prefix in ((), (2,), (2, 3), (5, 7, 3))]
    # a0 < 0 with an empty prefix: theta = a0 + 1/Y, where a0 = -1 and a
    # period (1, m, ...) cancel about log2(m) bits unless the fixed point
    # takes the conjugate.
    cfs += [CFSpec(-1, (), (1, m)) for m in (1, 2, 1000, 10**6)]
    cfs += [CFSpec(a0, (), (1, 10**6, 3)) for a0 in (-1, -2, -10**9)]
    # One quotient past 2**203, and a rational with more than 203 bits.
    cfs += [CFSpec(0, (2,), (3, 2**210 + 1)), CFSpec(0, tuple(range(1, 80)), ())]
    for cf in cfs:
        assert _ulps_off(high_precision_value(cf), eval_theta(cf)) < 1, cf


def test_high_precision_value_is_within_its_radius_of_eval_theta():
    rng = random.Random(20261021)
    for _ in range(200):
        cf = random_cf(rng, rng.choice([2, 10, 1000]))
        man, exp = high_precision_value(cf).man_exp
        # The mpf's exact binary value against the exact theta.
        error = abs(eval_theta(cf) - man * Fraction(2) ** exp)
        assert error < Fraction(1, 10 ** (ORACLE_DPS + 5)), cf


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


# ---- exact decisions on mpf values ----------------------------------------


def _exact(x) -> Fraction:
    """The dyadic value of a finite mpf, as a Fraction."""
    sign, man, exp, _ = x._mpf_
    return (-1 if sign else 1) * Fraction(man) * Fraction(2) ** exp


def _mpf_sorted_gap_points(theta, N):
    """brute_gap_points as plain mpf comparisons would decide it."""
    with mp.workdps(ORACLE_DPS):
        pts = sorted(mp.frac(k * theta) for k in range(1, N + 1))
        pts = [mp.mpf(0)] + pts + [mp.mpf(1)]
        gaps = sorted(b - a for a, b in zip(pts, pts[1:]))
        tol = mp.mpf(10) ** (-ORACLE_DPS // 2)
        distinct = []
        for g in gaps:
            if not distinct or g - distinct[-1] > tol:
                distinct.append(g)
        return pts, distinct


def _same(xs, ys) -> bool:
    return [x._mpf_ for x in xs] == [y._mpf_ for y in ys]


def _unpack(t) -> tuple[int, int]:
    """A finite libmp value as the oracle's pair (man, exp): man * 2**exp."""
    sign, man, exp, _ = t
    return (-man if sign else man), exp


def _pair(x) -> tuple[int, int]:
    """A finite mpf as the oracle's pair."""
    return _unpack(x._mpf_)


# ---- integer rounding, pinned against mpmath's -----------------------------

_PRECS = st.one_of(st.sampled_from([1, 2, 53, dps_to_prec(ORACLE_DPS)]), st.integers(1, 400))


@st.composite
def _half_ties(draw):
    """(v, prec) with v exactly halfway between two prec-bit values."""
    prec = draw(_PRECS)
    kept = draw(st.integers(1 << (prec - 1), (1 << prec) - 1))
    drop = draw(st.integers(1, 300))
    return (kept << drop) | (1 << (drop - 1)), prec


@settings(max_examples=1000, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.just(0), _PRECS),
        st.tuples(st.integers(0, 2**60), _PRECS),
        st.tuples(st.integers(0, 2**1200), _PRECS),
        _half_ties(),
    )
)
def test_round_bits_matches_from_man_exp(case):
    v, prec = case
    _, m, e, _ = from_man_exp(v, 0, prec, "n")
    assert _round_bits(v, prec) == m << e


def test_round_bits_breaks_ties_to_even():
    prec = dps_to_prec(ORACLE_DPS)
    for kept in (1 << (prec - 1), (1 << (prec - 1)) + 1, (1 << prec) - 2, (1 << prec) - 1):
        for drop in (1, 2, 40):
            tie = (kept << drop) | (1 << (drop - 1))
            want = (kept + (kept & 1)) << drop
            assert _round_bits(tie, prec) == want
            assert _round_bits(tie - 1, prec) == kept << drop
            assert _round_bits(tie + 1, prec) == (kept + 1) << drop
    assert _round_bits(0, prec) == 0
    assert _round_bits((1 << prec) - 1, prec) == (1 << prec) - 1


@settings(max_examples=1000, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.integers(0, 2**1200), st.integers(0, 2**1200), _PRECS),
        st.tuples(st.integers(0, 2**200), st.integers(0, 2**200), _PRECS),
        # 2**L - 1 against 2**L, where the bit length and the drop change
        st.builds(lambda L, prec: ((1 << L) - 1, 1 << L, prec), st.integers(1, 400), _PRECS),
        # a tie against its neighbours and against itself
        st.builds(lambda t, d: (t[0] + min(d, 0), t[0] + max(d, 0), t[1]),
                  _half_ties(), st.integers(-2, 2)),
    )
)
def test_round_bits_is_monotone(case):
    v, w, prec = case
    v, w = min(v, w), max(v, w)
    assert _round_bits(v, prec) <= _round_bits(w, prec)


@settings(max_examples=500, deadline=None)
@given(exp=st.integers(-300, 0), r=st.integers(1, 50), data=st.data())
def test_all_close_dyadic_is_all_of_close_dyadic(exp, r, data):
    # den carries 10**40 and 2**-exp, so num/den can sit exactly at the
    # tolerance from man * 2**exp; at is _COMPARE_TOL * den.
    den = (10**40 * r) << -exp
    at = den // 10**40
    mans = data.draw(st.lists(st.integers(-(2**170), 2**170), max_size=8))
    offs = data.draw(
        st.lists(
            st.one_of(st.sampled_from([-at - 1, -at, -at + 1, 0, at - 1, at, at + 1]),
                      st.integers(-2 * at, 2 * at)),
            min_size=len(mans), max_size=len(mans),
        )
    )
    nums = [man * (den >> -exp) + off for man, off in zip(mans, offs)]
    got = _all_close_dyadic(nums, den, mans, exp)
    assert got is all(_all_close_dyadic([n], den, [m], exp) for n, m in zip(nums, mans))
    assert got is all(abs(off) < at for off in offs)


def test_all_close_dyadic_needs_lists_of_one_length():
    with pytest.raises(ValueError):
        _all_close_dyadic([0, 0], 1, [0], -3)


def test_brute_gap_points_matches_plain_sorting_on_random_corpus():
    rng = random.Random(20261018)
    for _ in range(200):
        cf = random_cf(rng)
        N = rng.randint(1, 400)
        theta = high_precision_value(cf)
        pts, distinct = brute_gap_points(theta, N)
        ref_pts, ref_distinct = _mpf_sorted_gap_points(theta, N)
        assert _same(pts, ref_pts), (cf, N)
        assert _same(distinct, ref_distinct), (cf, N)


@pytest.mark.parametrize("cf", [CFSpec(0, (2, 2), ()), CFSpec(0, (2, 3), ())])
def test_brute_gap_points_keeps_ties_on_rational_theta(cf):
    q = cf.value().denominator
    theta = high_precision_value(cf)
    for N in (q, 2 * q + 1, 40):
        pts, distinct = brute_gap_points(theta, N)
        ref_pts, ref_distinct = _mpf_sorted_gap_points(theta, N)
        assert any(a == b for a, b in zip(ref_pts, ref_pts[1:]))  # ties do occur
        assert _same(pts, ref_pts) and _same(distinct, ref_distinct)


def test_brute_gap_points_merges_lengths_within_1e_25():
    # theta = 1/3 + e puts two lengths 3e apart: kept apart at e = 1e-20,
    # merged at e = 1e-30
    for e, count in ((20, 3), (30, 2)):
        with mp.workdps(ORACLE_DPS):
            theta = mp.mpf(1) / 3 + mp.mpf(10) ** -e
        _, distinct = brute_gap_points(theta, 3)
        assert len(distinct) == count
        assert _same(distinct, _mpf_sorted_gap_points(theta, 3)[1])


def test_brute_gap_points_rounds_long_gaps():
    # theta near 1/10 and few points leave a last gap 1 - {N*theta} with
    # more significant bits than ORACLE_DPS holds, so its rounding shows
    rng = random.Random(7)
    for _ in range(40):
        cf = CFSpec(0, (rng.randint(8, 10),), tuple(rng.randint(1, 10) for _ in range(3)))
        theta = high_precision_value(cf)
        for N in range(1, 6):
            pts, distinct = brute_gap_points(theta, N)
            ref_pts, ref_distinct = _mpf_sorted_gap_points(theta, N)
            assert _same(pts, ref_pts) and _same(distinct, ref_distinct), (cf, N)


# ---- dyadic arithmetic, pinned bit for bit against libmp ------------------
# Each operation is checked at the oracle's precision, at theta's, and at
# theta's working precision, against libmp at round_nearest.

_PIN_PRECS = st.sampled_from([dps_to_prec(ORACLE_DPS), dps_to_prec(ORACLE_DPS + 10),
                              dps_to_prec(ORACLE_DPS + 10) + 8])
_MANS = st.one_of(
    st.just(0),
    st.integers(-(2**80), 2**80),
    st.integers(-(2**1100), 2**1100),  # past 2**1000
    st.builds(lambda k, neg: -(1 << k) if neg else 1 << k, st.integers(0, 1100), st.booleans()),
)
_EXPS = st.integers(-1200, 1200)
_VALUES = st.tuples(_MANS, _EXPS)


def test_precisions_are_mpmaths():
    assert oracle._PREC == dps_to_prec(ORACLE_DPS)
    assert oracle._THETA_PREC == dps_to_prec(ORACLE_DPS + 10)


def _tie(draw, prec: int) -> int:
    """A positive integer exactly halfway between two prec-bit values."""
    kept = draw(st.integers(1 << (prec - 1), (1 << prec) - 1))
    drop = draw(st.integers(1, 300))
    return (kept << drop) | (1 << (drop - 1))


def _signed(draw, man: int) -> int:
    return -man if draw(st.booleans()) else man


def _far_apart(s, t, prec: int) -> bool:
    """Whether libmp's mpf_add(s, t, prec) takes its shortcut for operands
    far apart, by the test it makes: exponents over 100 apart and the
    larger operand more than prec + 4 bits above the smaller."""
    return any(x[1] and y[1] and x[2] - y[2] > 100 and x[3] + x[2] - y[3] - y[2] > prec + 4
               for x, y in ((s, t), (t, s)))


@settings(max_examples=1500, deadline=None)
@given(prec=_PIN_PRECS, data=st.data())
def test_round_matches_from_man_exp(prec, data):
    draw = data.draw
    man, exp = draw(_VALUES)
    if draw(st.booleans()):
        man = _signed(draw, _tie(draw, prec))
    assert oracle._round(man, exp, prec) == _unpack(from_man_exp(man, exp, prec, "n"))


def test_round_breaks_ties_to_even_at_every_pinned_precision():
    for prec in (169, 203, 211):
        for kept in (1 << (prec - 1), (1 << (prec - 1)) + 1, (1 << prec) - 1):
            tie = (kept << 3) | 4
            want = kept + (kept & 1)
            zeros = (want & -want).bit_length() - 1
            assert oracle._round(tie, -7, prec) == (want >> zeros, -4 + zeros)
            assert oracle._round(-tie, -7, prec) == (-(want >> zeros), -4 + zeros)
    assert oracle._round(0, 55, 169) == (0, 0)


@settings(max_examples=1500, deadline=None)
@given(prec=_PIN_PRECS, data=st.data())
def test_add_matches_mpf_add(prec, data):
    draw = data.draw
    kind = draw(st.sampled_from(["any", "near", "cancel", "tie"]))
    x = draw(_VALUES)
    if kind == "any":
        y = draw(_VALUES)
    elif kind == "near":
        y = (draw(_MANS), x[1] + draw(st.integers(-300, 300)))
    elif kind == "cancel":
        y = (-x[0] + draw(st.integers(-(2**20), 2**20)), x[1])
    else:
        # 2*kept and 1, or 2*kept + 2 and -1, at one exponent, sum to a tie
        kept, k = draw(st.integers(1 << (prec - 1), (1 << prec) - 1)), draw(st.integers(0, 50))
        up, e = draw(st.booleans()), x[1]
        x, y = ((2 * kept + 2 * up) << k, e), ((-1 if up else 1) << k, e)
    s, t = from_man_exp(*x), from_man_exp(*y)
    if _far_apart(s, t, prec):
        # The shortcut is not exact rounding; the oracle rounds the exact sum.
        want = from_man_exp(*_unpack(libmp.mpf_add(s, t)), prec, "n")
    else:
        want = libmp.mpf_add(s, t, prec, "n")
    assert oracle._add(x, y, prec) == _unpack(want)


@settings(max_examples=1500, deadline=None)
@given(prec=_PIN_PRECS, data=st.data())
def test_mul_matches_mpf_mul(prec, data):
    draw = data.draw
    x, y = draw(_VALUES), draw(_VALUES)
    if draw(st.booleans()):
        # a tie times a power of two is a tie
        x = (_signed(draw, _tie(draw, prec)), x[1])
        y = (_signed(draw, 1 << draw(st.integers(0, 40))), y[1])
    want = libmp.mpf_mul(from_man_exp(*x), from_man_exp(*y), prec, "n")
    assert oracle._mul(x, y, prec) == _unpack(want)


@settings(max_examples=1500, deadline=None)
@given(prec=_PIN_PRECS, data=st.data())
def test_div_matches_mpf_div(prec, data):
    draw = data.draw
    x, y = draw(_VALUES), draw(_VALUES.filter(lambda v: v[0]))
    kind = draw(st.sampled_from(["any", "tie", "exact"]))
    if kind == "tie":
        x = (_signed(draw, _tie(draw, prec)) * y[0], x[1])
    elif kind == "exact":
        x = (draw(_MANS) * y[0], x[1])
    want = libmp.mpf_div(from_man_exp(*x), from_man_exp(*y), prec, "n")
    assert oracle._div(x, y, prec) == _unpack(want)


@settings(max_examples=1500, deadline=None)
@given(prec=_PIN_PRECS, data=st.data())
def test_sqrt_matches_mpf_sqrt(prec, data):
    draw = data.draw
    man, exp = draw(_VALUES)
    man = abs(man)
    kind = draw(st.sampled_from(["any", "square", "near", "tie"]))
    if kind != "any":
        k = _tie(draw, prec) if kind == "tie" else man
        man = k * k + (draw(st.sampled_from([-1, 1])) if kind == "near" and k else 0)
        exp = draw(st.integers(-600, 600)) * 2 + draw(st.sampled_from([0, 0, 1]))
    want = libmp.mpf_sqrt(from_man_exp(man, exp), prec, "n")
    assert oracle._sqrt((man, exp), prec) == _unpack(want)


# ---- theta, beta and the Kronecker error, as libmp computed them ----------


def _libmp_theta(cf, far: list, conj: list):
    """high_precision_value's _mpf_ as mpmath's libmp operations computed
    it. Each sum appends to far whether mpf_add took its far-apart
    shortcut, and each use of the conjugate appends to conj."""
    rnd = libmp.round_nearest
    from_int, mpf_mul = libmp.from_int, libmp.mpf_mul
    prec = dps_to_prec(ORACLE_DPS + 10)

    def mpf_add(s, t, prec, rnd):
        far.append(_far_apart(s, t, prec))
        return libmp.mpf_add(s, t, prec, rnd)

    P, P_, Q, Q_ = oracle._last_two(cf.a0, cf.prefix)
    if not cf.period:
        return libmp.mpf_div(from_int(P), from_int(Q), prec, rnd)
    p, p_, q, q_ = oracle._last_two(cf.period[0], cf.period[1:])
    u, w = p - q_, 2 * q
    D = u * u + 4 * q * p_
    A, B, C, E = P * u + P_ * w, P, Q * u + Q_ * w, Q
    wp = prec + 8
    s = libmp.mpf_sqrt(from_int(D), wp, rnd)
    den = mpf_add(from_int(C), mpf_mul(from_int(E), s, wp, rnd), wp, rnd)
    if A * B < 0:
        conj.append(cf)
        c = mpf_add(from_int(A), mpf_mul(from_int(-B), s, wp, rnd), wp, rnd)
        num, den = from_int(A * A - B * B * D), mpf_mul(den, c, wp, rnd)
    else:
        num = mpf_add(from_int(A), mpf_mul(from_int(B), s, wp, rnd), wp, rnd)
    return libmp.mpf_div(num, den, prec, rnd)


def _libmp_beta(beta: Fraction):
    """The _mpf_ of oracle._beta's pair as libmp computed it."""
    prec, rnd = dps_to_prec(ORACLE_DPS), libmp.round_nearest
    num = libmp.from_int(beta.numerator, prec, rnd)
    return libmp.mpf_div(num, libmp.from_int(beta.denominator), prec, rnd)


def _libmp_kronecker(theta, beta: Fraction, N: int):
    """brute_kronecker with beta and the error rounded by libmp, the
    error as its _mpf_."""
    (tm, te), (bm, be) = _pair(theta), _unpack(_libmp_beta(beta))
    s = max(0, -te, -be)
    step = tm << (te + s)
    half = (1 << s) >> 1
    mask = (1 << s) - 1
    y = half - (bm << (be + s))
    best_n, best_err, best_y = 0, half + 1, y
    for n in range(N + 1):
        err = abs((y & mask) - half)
        if err < best_err:
            best_n, best_err, best_y = n, err, y
        y += step
    err = from_man_exp(best_err, -s, dps_to_prec(ORACLE_DPS), libmp.round_nearest)
    return best_n, best_y >> s, err


def _theta_corpus() -> list[CFSpec]:
    rng = random.Random(20261023)
    cfs = [random_cf(rng, bound) for bound in (2, 10, 1000) for _ in range(1000)]
    # a0 < 0 with an empty prefix, where A*B < 0 takes the conjugate (for
    # a0 = -1, whenever the period starts with 1)
    cfs += [CFSpec(-1, (), cf.period) for cf in cfs[::5]]
    cfs += [CFSpec(rng.randint(-9, -2), (), cf.period) for cf in cfs[2::20]]
    cfs += [CFSpec(rng.randint(-5, 5), cf.prefix, cf.period) for cf in cfs[1::15]]
    # rationals and integers, some with more bits than theta's precision
    cfs += [
        CFSpec(rng.randint(-5, 5), tuple(rng.randint(1, 1000) for _ in range(rng.randint(0, 60))), ())
        for _ in range(200)
    ]
    # quotients past 2**203
    for big in (2**203 + 1, 2**210 + 1, 3**200, 2**400 - 1):
        cfs += [CFSpec(0, (2,), (3, big)), CFSpec(0, (big,), (1, 2)), CFSpec(-1, (), (1, big)),
                CFSpec(0, (), (big,)), CFSpec(-3, (big, 5), ()), CFSpec(0, (1,), (big, big + 2))]
    return cfs


def test_theta_is_the_libmp_pipeline_bit_for_bit():
    cfs = _theta_corpus()
    far, conj = [], []
    for cf in cfs:
        assert high_precision_value(cf)._mpf_ == _libmp_theta(cf, far, conj), cf
    assert len(cfs) >= 3000 and len(conj) >= 100
    # No sum in the corpus is one that libmp rounds by its shortcut.
    assert len(far) > 6000 and not any(far)


def test_far_apart_flags_the_shortcut():
    one, big = libmp.from_int(1), libmp.from_int(1 << 300)
    assert _far_apart(big, one, 203) and _far_apart(one, big, 203)
    assert not _far_apart(big, libmp.from_int((1 << 300) + 3), 203)
    assert not _far_apart(big, libmp.fzero, 203)


def test_beta_is_the_libmp_quotient_bit_for_bit():
    rng = random.Random(20261024)
    betas = [random_beta(rng, rng.choice([1000, 10**6])) for _ in range(700)]
    betas += [Fraction(rng.getrandbits(400) - 2**399, rng.getrandbits(300) | 1) for _ in range(250)]
    betas += [Fraction(s * (2**k + e), 2**j + f) for s in (1, -1) for k in (0, 168, 169, 170, 300)
              for e in (-1, 0, 1) for j in (0, 5) for f in (0, 1)]
    assert len(betas) >= 1000
    for beta in betas:
        assert oracle._mpf(oracle._beta(beta))._mpf_ == _libmp_beta(beta), beta


def test_kronecker_error_is_the_libmp_rounding_bit_for_bit():
    rng = random.Random(20261025)
    cfs = _theta_corpus()
    for cf in rng.sample(cfs, 300):
        theta = high_precision_value(cf)
        for beta in (random_beta(rng), Fraction(rng.getrandbits(300), 2**300 + 1)):
            N = rng.randint(1, 400)
            n, p, err = brute_kronecker(theta, beta, N)
            assert (n, p, err._mpf_) == _libmp_kronecker(theta, beta, N), (cf, beta, N)


# ---- _gap_keys against its one-call-per-value formulation -----------------


def _gap_keys_per_value(theta, N):
    """_gap_keys as it was first written: every point and every gap goes
    through _round_bits, and gaps merge by the multiplied-out 1e-25 rule."""
    prec = dps_to_prec(ORACLE_DPS)
    sign, man, exp, _ = theta._mpf_
    low = min(exp, 0)
    unit = 1 << -low
    pts = [
        ((-1 if sign else 1) * _round_bits(k * man, prec) << exp - low) & (unit - 1)
        for k in range(1, N + 1)
    ]
    pts = [0] + sorted(pts) + [unit]
    distinct = []
    for g in sorted(_round_bits(b - a, prec) for a, b in zip(pts, pts[1:])):
        if not distinct or (g - distinct[-1]) * 10 ** (ORACLE_DPS // 2) > unit:
            distinct.append(g)
    return pts, distinct, low


def test_gap_keys_match_per_value_rounding_on_random_corpus():
    rng = random.Random(20261019)
    for i in range(120):
        cf = random_cf(rng)
        N = rng.randint(1, 2000) if i % 2 else rng.randint(1, 40)
        theta = high_precision_value(cf)
        assert _gap_keys(_pair(theta), N) == _gap_keys_per_value(theta, N), (cf, N)


def test_gap_keys_match_per_value_rounding_on_edge_values():
    with mp.workdps(ORACLE_DPS):
        thetas = [
            -mp.mpf(3) / 7,  # negative mantissa
            -mp.sqrt(2) - 5,
            mp.mpf(2) ** 70 + mp.mpf(1) / 3,  # more bits than the precision holds
            mp.mpf(6),  # exp > 0: every point is 0
            mp.mpf(0),
            mp.mpf(1) / 4,  # few bits, nothing rounds
        ]
    assert thetas[0]._mpf_[0] == 1 and thetas[3]._mpf_[2] > 0
    cases = [(theta, N) for theta in thetas for N in (1, 2, 3, 7, 40, 300)]
    # rational theta = 2/5 and 3/7, whose points tie at N = q and 2q + 1
    for cf in (CFSpec(0, (2, 2), ()), CFSpec(0, (2, 3), ())):
        q = cf.value().denominator
        cases += [(high_precision_value(cf), N) for N in (q, 2 * q + 1)]
    for theta, N in cases:
        assert _gap_keys(_pair(theta), N) == _gap_keys_per_value(theta, N), (theta, N)


def _ties(theta, N: int) -> int:
    """How many of the products k*|man|, 1 <= k <= N, lie exactly halfway
    between two values of dps_to_prec(ORACLE_DPS) bits."""
    prec = dps_to_prec(ORACLE_DPS)
    mag = theta._mpf_[1]
    count = 0
    for v in range(mag, (N + 1) * mag, mag):
        drop = v.bit_length() - prec
        count += drop > 0 and v & ((1 << drop) - 1) == 1 << (drop - 1)
    return count


@pytest.mark.parametrize("extra", [-4, -1, 0, 1, 2, 5])
def test_gap_keys_match_per_value_rounding_near_prec_bits(extra):
    # An odd mantissa of prec + extra bits. With extra <= 0 the first runs
    # drop no bits and later ones drop a few, so some k with v2(k) one
    # below the drop make exact ties; with extra = 1 every power of two k
    # does. Those runs break ties to even. From extra = 2 on, v2(k) stays
    # below the drop less one for every k, and every run is rounded half
    # up with one add and one mask.
    prec = dps_to_prec(ORACLE_DPS)
    bits = prec + extra
    rng = random.Random(extra)
    ties = 0
    for _ in range(4):
        man = rng.getrandbits(bits) | 1 | 1 << (bits - 1)
        for scale in (0, 3, -2):  # theta near 1, 1/8 and 4
            with mp.workprec(2 * bits):
                theta = mp.mpf((man, scale - bits))
            for t in (theta, -theta):
                N = rng.randint(1, 1500)
                ties += _ties(t, N)
                assert _gap_keys(_pair(t), N) == _gap_keys_per_value(t, N), (extra, t, N)
    assert (ties > 0) is (extra <= 1)


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_gap_keys_merge_at_exactly_1e_25(delta):
    # theta = m / 2**E with 3m = 2**E + s puts the points 0 < s < m < 2m
    # < 2**E, so the gaps are s, m - s (twice) and m: the two longer
    # lengths lie s apart, and s sits delta units from unit // 10**25.
    # An odd s with 3 | 2**E + s makes m odd, so the mpf keeps exponent -E.
    def apart(E):
        return (1 << E) // 10 ** (ORACLE_DPS // 2) + delta

    E = next(
        E for E in range(84, dps_to_prec(ORACLE_DPS))
        if apart(E) % 2 and ((1 << E) + apart(E)) % 3 == 0
    )
    s = apart(E)
    m = ((1 << E) + s) // 3
    with mp.workprec(2 * E):
        theta = mp.mpf((m, -E))
    assert theta._mpf_[1:3] == (m, -E)
    pts, distinct, low = _gap_keys(_pair(theta), 3)
    assert (pts, low) == ([0, s, m, 2 * m, 1 << E], -E)
    assert distinct == ([s, m - s, m] if delta > 0 else [s, m - s])
    assert (pts, distinct, low) == _gap_keys_per_value(theta, 3)


# ---- the integer scans decide as the mpf scans did ------------------------


def _mpf_kronecker(theta, beta, N):
    """brute_kronecker as the per-n mpf scan decided it."""
    with mp.workdps(ORACLE_DPS):
        beta_f = mp.mpf(beta.numerator) / beta.denominator
        best = None
        for n in range(N + 1):
            x = n * theta - beta_f
            p = int(mp.nint(x))
            err = abs(x - p)
            if best is None or err < best[2]:
                best = (n, p, err)
        return best


def _assert_kronecker_like_mpf(theta, beta, N):
    n, p, err = brute_kronecker(theta, beta, N)
    rn, rp, rerr = _mpf_kronecker(theta, beta, N)
    assert (n, p) == (rn, rp), (theta, beta, N)
    assert abs(_exact(err) - _exact(rerr)) <= Fraction(1, 2**150), (theta, beta, N)


def test_brute_kronecker_matches_mpf_scan_on_random_corpus():
    rng = random.Random(20261019)
    for i in range(300):
        theta = high_precision_value(random_cf(rng))
        beta = random_beta(rng, 1000 if i % 2 else 10**6)
        _assert_kronecker_like_mpf(theta, beta, rng.randint(1, 1000))


def test_brute_kronecker_breaks_exact_ties_toward_the_smallest_n():
    # dyadic theta and beta make whole runs of n tie exactly, in the mpf
    # scan too
    with mp.workdps(ORACLE_DPS):
        for theta in (mp.mpf(1) / 4, mp.mpf(3) / 8, mp.mpf(-5) / 4, mp.mpf(2)):
            for beta in (Fraction(0), Fraction(1, 4), Fraction(3, 8)):
                _assert_kronecker_like_mpf(theta, beta, 20)
        quarter = mp.mpf(1) / 4
    assert brute_kronecker(quarter, Fraction(1, 4), 12)[:2] == (1, 0)
    # n = 1 and n = 5 tie exactly on the dyadic values; the mpf scan
    # rounded the two residuals differently and kept n = 5
    assert brute_kronecker(quarter, Fraction(1, 3), 12)[:2] == (1, 0)
    assert _mpf_kronecker(quarter, Fraction(1, 3), 12)[:2] == (5, 1)


def _kronecker_in_context(theta, beta, N):
    """brute_kronecker's scan inside mp.workdps: beta as
    mp.mpf(numerator) / denominator, the error as mp.mpf((err, -s))."""
    with mp.workdps(ORACLE_DPS):
        beta_f = mp.mpf(beta.numerator) / beta.denominator
        (tm, te), (bm, be) = oracle._signed_man_exp(theta), oracle._signed_man_exp(beta_f)
        s = max(0, -te, -be)
        step = tm << (te + s)
        half = (1 << s) >> 1
        mask = (1 << s) - 1
        y = half - (bm << (be + s))
        best_n, best_err, best_y = 0, half + 1, y
        for n in range(N + 1):
            err = abs((y & mask) - half)
            if err < best_err:
                best_n, best_err, best_y = n, err, y
            y += step
        return best_n, best_y >> s, mp.mpf((best_err, -s))


def _kronecker_betas(rng):
    yield from (random_beta(rng, 1000) for _ in range(3))
    yield random_beta(rng, 10**6)
    # numerators past the precision, negative values and zero
    yield Fraction(10**60 + 1, 10**61 + 3)
    yield Fraction(-(2**300) - 1, 2**301 + 7)
    yield Fraction(-1, 3)
    yield Fraction(0)


def test_brute_kronecker_matches_the_context_loop_bit_for_bit():
    rng = random.Random(20261021)
    with mp.workdps(ORACLE_DPS):
        thetas = [mp.mpf(0), mp.mpf(2), -mp.mpf(5) / 4, -mp.sqrt(3)]
    thetas += [high_precision_value(random_cf(rng, rng.choice([2, 10, 1000]))) for _ in range(40)]
    for theta in thetas:
        for beta in _kronecker_betas(rng):
            N = rng.randint(1, 400)
            n, p, err = brute_kronecker(theta, beta, N)
            rn, rp, rerr = _kronecker_in_context(theta, beta, N)
            assert (n, p, err._mpf_) == (rn, rp, rerr._mpf_), (theta, beta, N)
            assert type(err) is type(rerr)


def test_beta_mpf_is_the_context_quotient():
    rng = random.Random(20261022)
    betas = [b for _ in range(50) for b in _kronecker_betas(rng)]
    betas += [Fraction(rng.getrandbits(400) - 2**399, rng.getrandbits(300) | 1) for _ in range(200)]
    for beta in betas:
        with mp.workdps(ORACLE_DPS):
            want = mp.mpf(beta.numerator) / beta.denominator
        assert oracle._mpf(oracle._beta(beta))._mpf_ == want._mpf_, beta


def _mpf_bits(theta, length):
    with mp.workdps(ORACLE_DPS):
        floors = [int(mp.floor(m * theta)) for m in range(1, length + 2)]
    return [floors[i + 1] - floors[i] for i in range(length)]


def test_brute_bits_match_mpf_floors_on_random_corpus():
    rng = random.Random(20261020)
    for _ in range(50):
        theta = high_precision_value(random_cf(rng))
        length = rng.randint(1, 10**4)
        assert brute_bits(theta, length) == _mpf_bits(theta, length)


@pytest.mark.parametrize("a0", [-3, 2])
def test_scans_handle_an_integer_part(a0):
    rng = random.Random(a0)
    for _ in range(10):
        cf = random_cf(rng)
        theta = high_precision_value(CFSpec(a0, cf.prefix, cf.period))
        assert brute_bits(theta, 2000) == _mpf_bits(theta, 2000)
        _assert_kronecker_like_mpf(theta, random_beta(rng), rng.randint(1, 300))
        N = rng.randint(1, 300)
        pts, distinct = brute_gap_points(theta, N)
        ref_pts, ref_distinct = _mpf_sorted_gap_points(theta, N)
        assert _same(pts, ref_pts) and _same(distinct, ref_distinct), (a0, cf, N)


# ---- the suite still catches faults on the exact side ---------------------


def _shifted_gap_set(monkeypatch, shift: Fraction, where: str):
    """Patch the suite's gap_set so one point (or one gap length) moves by shift."""
    real = oracle.gap_set

    def fake(cf, N, **kw):
        gs = real(cf, N, **kw)
        s, q = shift.denominator, gs.denominator
        nums = [v * s for v in gs.nums]
        gap_nums = [(g * s, m) for g, m in gs.gap_nums]
        if where == "point":
            nums[len(nums) // 2] += shift.numerator * q
        else:
            gap_nums[0] = (gap_nums[0][0] + shift.numerator * q, gap_nums[0][1])
        return SimpleNamespace(nums=nums, gap_nums=gap_nums, denominator=q * s)

    monkeypatch.setattr(oracle, "gap_set", fake)


def _only_failures(rep, prefix: str, needle: str, cases: int = 3):
    assert len(rep.failures) == cases, rep.failures
    assert all(f.startswith(prefix) and needle in f for f in rep.failures), rep.failures


def test_suite_catches_a_point_shifted_past_tolerance(monkeypatch):
    _shifted_gap_set(monkeypatch, Fraction(2, 10**40), "point")
    rep = run_suite(cases=3, seed=11)
    assert rep.gap_cases == 0
    _only_failures(rep, "gaps ", "point values drift past tolerance")


def test_suite_passes_a_point_shifted_inside_tolerance(monkeypatch):
    _shifted_gap_set(monkeypatch, Fraction(1, 10**41), "point")
    rep = run_suite(cases=3, seed=11)
    assert rep.ok, rep.failures
    assert rep.gap_cases == 3


def test_suite_catches_a_shifted_gap_length(monkeypatch):
    _shifted_gap_set(monkeypatch, Fraction(2, 10**40), "gap")
    _only_failures(run_suite(cases=3, seed=12), "gaps ", "gap values drift")


def _achieved_close(achieved, man: int, exp: int) -> bool:
    """The suite's Kronecker tolerance as it was decided in quadratic
    arithmetic."""
    return abs(achieved - man * Fraction(2) ** exp) < oracle._COMPARE_TOL


def test_kronecker_tolerance_decides_as_quadratic_arithmetic():
    # The achieved error of solve, and values placed one unit of 10**-60
    # inside and outside the tolerance on either side of the oracle's
    # error: rational, irrational within 10**-70 of those places, and
    # irrational within 10**-70 of the tolerance itself.
    rng = random.Random(20261026)
    tol, unit = oracle._COMPARE_TOL, Fraction(1, 10**60)
    decided = {True: 0, False: 0}
    for _ in range(250):
        cf = random_cf(rng, rng.choice([2, 10, 1000]))
        beta, N = random_beta(rng), rng.randint(1, 400)
        achieved = solve(cf, beta, N).achieved
        _, _, (man, exp) = oracle._kronecker(oracle._theta(cf), beta, N)
        at = man * Fraction(2) ** exp
        approx = achieved.a + achieved.b * Fraction(isqrt(achieved.d * 10**140), 10**70)
        xs = [achieved]
        for edge in (at - tol, at + tol):
            xs.append(QuadraticNumber(edge))
            xs.append(achieved + (edge - approx))
            for off in (-unit, unit):
                xs.append(QuadraticNumber(edge + off))
                xs.append(achieved + (edge + off - approx))
        for x in xs:
            got = oracle._close_to_dyadic(x, man, exp)
            assert got is _achieved_close(x, man, exp), (cf, beta, N, x)
            decided[got] += 1
    assert sum(decided.values()) >= 2000 and min(decided.values()) >= 500, decided


def test_suite_catches_a_drifting_achieved_error(monkeypatch):
    real = oracle.solve

    def fake(*args, **kw):
        sol = real(*args, **kw)
        return dataclasses.replace(sol, achieved=sol.achieved + Fraction(2, 10**40))

    monkeypatch.setattr(oracle, "solve", fake)
    _only_failures(run_suite(cases=3, seed=13), "kron ", "achieved error drifts")


def test_suite_passes_an_achieved_error_drifting_inside_tolerance(monkeypatch):
    real = oracle.solve

    def fake(*args, **kw):
        sol = real(*args, **kw)
        return dataclasses.replace(sol, achieved=sol.achieved + Fraction(1, 10**41))

    monkeypatch.setattr(oracle, "solve", fake)
    rep = run_suite(cases=3, seed=13)
    assert rep.ok, rep.failures
    assert rep.kronecker_cases == 3


def test_suite_catches_a_wrong_minimizer(monkeypatch):
    real = oracle.solve

    def fake(*args, **kw):
        sol = real(*args, **kw)
        return dataclasses.replace(sol, n=sol.n + 1)

    monkeypatch.setattr(oracle, "solve", fake)
    _only_failures(run_suite(cases=3, seed=14), "kron ", "minimizer")


def test_suite_catches_a_flipped_bit(monkeypatch):
    real = oracle.characteristic_bits

    def flipped(cf, length):
        out = real(cf, length)
        out[17] ^= 1
        return out

    monkeypatch.setattr(oracle, "characteristic_bits", flipped)
    _only_failures(run_suite(cases=3, seed=15), "agree ", "bit prefix disagrees")


def test_suite_catches_a_wrong_agreement_index(monkeypatch):
    real = oracle.agreement

    def fake(*args):
        k = real(*args)
        return -1 if k is None else k + 1

    monkeypatch.setattr(oracle, "agreement", fake)
    rep = run_suite(cases=3, seed=16)
    _only_failures(rep, "agree ", "vs oracle")
    assert all(" agreement " in f for f in rep.failures)
    # the message alone replays the disagreement
    m = re.fullmatch(
        r"agree (\(.*?\))\+(\(.*?\)) r=(\d+) a=(\d+) b=(\d+) max_k=(\d+): "
        r"agreement (\S+) vs oracle (\S+)",
        rep.failures[0],
    )
    assert m, rep.failures[0]
    prefix, period = ast.literal_eval(m[1]), ast.literal_eval(m[2])
    r, a, b, max_k = (int(m[i]) for i in range(3, 7))
    bits = oracle.characteristic_bits(CFSpec(0, prefix, period), r * max_k)
    got = oracle.agreement(bits, r, a, b, max_k)
    want = brute_agreement(bits, r, a, b, max_k)
    assert got != want
    assert (str(got), str(want)) == (m[7], m[8])


def test_suite_catches_a_rotated_period_in_every_family(monkeypatch):
    # The exact side reads the expansion through CFSpec.quotients (gap
    # sets, words) or the period itself (eval_theta); the oracle reads the
    # fields. A quotients() that starts the period one place late is a
    # different number wherever the period is not constant.
    def rotated(self):
        return itertools.chain(self.prefix, itertools.cycle(self.period[1:] + self.period[:1]))

    monkeypatch.setattr(CFSpec, "quotients", rotated)
    rep = run_suite()
    for family in ("gaps ", "kron ", "agree "):
        assert any(f.startswith(family) for f in rep.failures), family
