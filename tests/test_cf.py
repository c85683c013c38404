import itertools
import json
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
    Walk,
    decimal_str,
    eval_theta,
    gap_constant,
    gap_set,
    preset,
)
from badapprox.cf import min_affine_mod
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


def _json(cf):
    """The --theta JSON object of cf."""
    return json.dumps({"a0": cf.a0, "prefix": list(cf.prefix), "period": list(cf.period)})


def test_json_round_trip():
    for cf in (GOLDEN, CFSpec(2, (3, 1, 4), ()), CFSpec(0, (2,), (1, 5))):
        assert CFSpec.from_json(_json(cf)) == cf
    with pytest.raises(DomainError):
        CFSpec.from_json("[1, 2]")
    with pytest.raises(DomainError):
        CFSpec.from_json("{bad json")
    with pytest.raises(DomainError):
        CFSpec.from_json('{"a0": 0, "period": [0]}')
    with pytest.raises(DomainError):
        CFSpec.from_json('{"a0": 0, "period": [1.5]}')


def test_json_keys_are_a0_prefix_and_period():
    # All three keys, and each optional one left out, read as before.
    assert CFSpec.from_json('{"a0": 1, "prefix": [2], "period": [3]}') == CFSpec(1, (2,), (3,))
    assert CFSpec.from_json('{"a0": 0, "period": [3]}') == CFSpec(0, (), (3,))
    assert CFSpec.from_json('{"a0": 0, "prefix": [2]}') == CFSpec(0, (2,), ())
    # A misspelled key used to drop its quotients: [0; 2] read as 1/2.
    for text, key in (('{"a0": 0, "prefix": [2], "peroid": [3]}', "'peroid'"),
                      ('{"a0": 0, "prefx": [2], "period": [3]}', "'prefx'"),
                      ('{"a0": 0, "period": [3], "note": "x"}', "'note'")):
        with pytest.raises(DomainError, match=f"malformed expansion object: unknown key {key}"):
            CFSpec.from_json(text)


# ---- convergents -----------------------------------------------------------


def test_golden_convergents_are_fibonacci():
    walk = Walk(GOLDEN)
    got = [walk.convergent(k)[1:] for k in range(6)]
    assert got == [(0, 1), (1, 1), (1, 2), (2, 3), (3, 5), (5, 8)]


@given(irrational_cfs())
def test_convergent_recurrence_and_coprimality(cf):
    walk = Walk(cf)
    conv = [walk.convergent(k) for k in range(12)]
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
    walk = Walk(CFSpec(0, (2, 3), ()))
    walk.grow(9)
    assert len(walk.qs) == 3
    assert Fraction(walk.ps[-1], walk.qs[-1]) == Fraction(3, 7)
    with pytest.raises(DomainError):
        walk.convergent(3)


def _convergent_stream(cf):
    """Convergent(k, p_k, q_k), k = 0, 1, ..., by the recurrence written
    out here, apart from Walk (finite for rationals)."""
    p_, q_, p, q = 1, 0, cf.a0, 1
    yield Convergent(0, p, q)
    for k, a in enumerate(cf.quotients(), start=1):
        p_, p, q_, q = p, a * p + p_, q, a * q + q_
        yield Convergent(k, p, q)


def test_walk_answers_requests_in_any_order():
    # One walk serves a shallow request, then a deep one, then shallow
    # again, and gives what a fresh walk gives each time.
    for cf in (GOLDEN, CFSpec(-3, (2,), (1, 4)), CFSpec(5, (1, 7), (3, 1))):
        want = list(itertools.islice(_convergent_stream(cf), 200))
        products = [c.q * d.q for c, d in itertools.pairwise(want)]
        walk = Walk(cf)
        for k in (3, 150, 0, 40, 198, 1):
            assert walk.convergent(k) == want[k], (cf, k)
            K = walk.first_past(products[k])
            assert K == k == Walk(cf).first_past(products[k]), (cf, k)
            assert walk.first_past(products[k] + 1) == k + 1
        # The walk grew only as far as its deepest request, the pair
        # (c_199, c_200).
        assert len(walk.qs) == 201


def test_walk_with_a_window_keeps_only_its_newest_entries():
    # A windowed walk answers as a full one from the entries it keeps: a
    # suffix that holds the newest five and at most a run of 256 steps per
    # request besides, across requests and after a rational runs out.
    for cf in (GOLDEN, CFSpec(-3, (2,), (1, 4)), CFSpec(1, (2, 3) * 300, ())):
        full, lean = Walk(cf), Walk(cf)
        lean.window = 5

        def both(k, least=0):
            full.grow(k, least)
            lean.grow(k, least)
            assert len(lean.qs) == len(full.qs), (cf, k, least)
            for kept in (lean.ps, lean.qs):
                live = sum(x is not None for x in kept)
                assert min(5, len(kept)) <= live <= 5 + 2 * 256
                assert all(x is None for x in kept[:-live])
            assert lean.ps[-live:] == full.ps[-live:] and lean.qs[-live:] == full.qs[-live:]

        for k, least in ((3, 0), (1, 10**300), (0, 0), (200, 0), (1, 10**301), (1, 10**900)):
            both(k, least)
        # Requests that end one to four steps past a whole run.
        for j in (1, 2, 3, 4):
            both(len(full.qs) + 256 + j - 1)
        assert len(full.qs) > 5 + 2 * 256
        if not cf.is_rational:
            least = full.qs[-3] * full.qs[-2] + 1
            assert Walk(cf).first_past(least) == len(full.qs) - 2
            lean.grow(1, least)
            assert lean.first_past(least) == len(full.qs) - 2


def test_walk_on_a_rational_that_runs_out_between_requests():
    cf = CFSpec(2, (3, 1, 4, 2), ())
    want = list(_convergent_stream(cf))
    assert len(want) == 5
    walk = Walk(cf)
    assert walk.first_past(want[1].q * want[2].q) == 1
    # A product the expansion never reaches is refused, and the walk, run
    # out on the way, still answers every index it has.
    with pytest.raises(DomainError, match="runs out"):
        walk.first_past(want[3].q * want[4].q + 1)
    assert [walk.convergent(k) for k in range(5)] == want
    assert walk.first_past(want[3].q * want[4].q) == 3
    with pytest.raises(DomainError, match="no convergent of index 5"):
        walk.convergent(5)
    # Every gap set that fits under the denominator is still served.
    q = cf.value().denominator
    assert gap_set(cf, q - 1).gap_nums == ((1, q),)


def test_eval_theta_on_periods_that_end_in_one():
    # CFSpec folds a trailing 1 away, so (2, 1) read as the rational
    # [2; 1] would be 3: the period is walked inside theta instead.
    cases = {
        CFSpec(0, (), (2, 1)): (QuadraticNumber.sqrt(12) - 2) / 4,  # 2y^2 + 2y - 1 = 0
        CFSpec(-1, (), (2, 1)): (QuadraticNumber.sqrt(12) - 6) / 4,
        CFSpec(3, (5,), (1, 1)): 3 + 1 / (5 + (QuadraticNumber.sqrt(5) - 1) / 2),
    }
    for cf, want in cases.items():
        theta = eval_theta(cf)
        assert theta == want, cf
        assert _expand_quadratic(theta, 12) == [cf.a0] + [cf.quotient(k) for k in range(1, 12)]


# ---- exact evaluation ------------------------------------------------------


def test_eval_theta_matches_high_precision():
    with mp.workdps(60):
        golden = (mp.sqrt(5) - 1) / 2
        approx = decimal_str(eval_theta(GOLDEN), 56)
        assert abs(mp.mpf(approx) - golden) < mp.mpf(10) ** -54


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
        assert _expand_quadratic(theta, 25) == want, cf
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


# ---- the reversal and the two residual identities --------------------------

CORPUS = [GOLDEN, SQRT2_MINUS_1, preset("extremal:3"), CFSpec(0, (2, 1, 3), (1, 2))]


def _reversal(cf, k):
    """[0; a_k, ..., a_1], evaluated directly."""
    return CFSpec(0, tuple(cf.quotient(i) for i in range(k, 0, -1)), ()).value()


def _residual(cf, k):
    """|q_k*theta - p_k|, exact."""
    c = Walk(cf).convergent(k)
    return abs(c.q * eval_theta(cf) - c.p)


def test_reversal_identity():
    for cf in CORPUS:
        walk = Walk(cf)
        conv = [walk.convergent(k) for k in range(22)]
        for k in range(1, 21):
            assert _reversal(cf, k) == Fraction(conv[k - 1].q, conv[k].q)


def test_residual_identities_certified():
    """q_k |q_k t - p_k| = 1/(a_{k+1} + t_{k+2} + q_{k-1}/q_k) and
    q_k |q_{k-1} t - p_{k-1}| = 1/(1 + t_{k+1} q_{k-1}/q_k), checked as
    exact equalities in the field of t."""
    for cf in CORPUS:
        walk = Walk(cf)
        conv = [walk.convergent(k) for k in range(22)]
        for k in range(1, 21):
            phi = _reversal(cf, k)
            r_k = conv[k].q * _residual(cf, k)
            assert r_k == 1 / (eval_theta(cf.tail(k + 2)) + cf.quotient(k + 1) + phi)
            r_prev = conv[k].q * _residual(cf, k - 1)
            assert r_prev == 1 / (1 + eval_theta(cf.tail(k + 1)) * phi)


def test_residual_identity_frozen_sqrt2():
    assert Walk(SQRT2_MINUS_1).convergent(2)[1:] == (2, 5)
    lhs = 5 * _residual(SQRT2_MINUS_1, 2)
    assert lhs == QuadraticNumber(-35, 25, 2)
    assert abs(lhs - Fraction("0.355339059327376")) < Fraction(1, 10**12)
    lhs_prev = 5 * _residual(SQRT2_MINUS_1, 1)
    assert lhs_prev == QuadraticNumber(15, -10, 2)
    assert abs(lhs_prev - Fraction("0.85786437626905")) < Fraction(1, 10**12)


# ---- surrogate substitution ------------------------------------------------


@given(irrational_cfs(), st.integers(min_value=1, max_value=200))
def test_choose_surrogate_is_minimal_and_deep_enough(cf, N):
    need = 16 * (cf.bound() + 2) * N * N
    gs = gap_set(cf, N)
    walk = Walk(cf)
    c, c_next = walk.convergent(gs.depth), walk.convergent(gs.depth + 1)
    assert (gs.numerator, gs.denominator) == (c.p % c.q, c.q)
    assert gs.radius == Fraction(1, c.q * c_next.q)
    assert c.q * c_next.q > need
    if c.k > 0:
        assert walk.convergent(c.k - 1).q * c.q <= need


@given(irrational_cfs(), st.integers(min_value=1, max_value=50))
def test_choose_surrogate_honors_min_radius(cf, N):
    assert gap_set(cf, N, min_radius=Fraction(1, 10**12)).radius <= Fraction(1, 10**12)


def test_surrogate_float_radius_is_read_exactly():
    # A float radius is read as its exact Fraction: the first pair past it.
    gs = gap_set(GOLDEN, 100, min_radius=1e-20)
    assert gs.radius <= Fraction(1e-20) < 3 * gs.radius
    c, c_next = _first_past_reference(GOLDEN, math.ceil(1 / Fraction(1e-20)))
    assert gs.radius == Fraction(1, c.q * c_next.q)
    # A radius <= 0 can never be reached by deepening: refused up front.
    with pytest.raises(DomainError):
        gap_set(GOLDEN, 10, min_radius=Fraction(0))
    with pytest.raises(DomainError):
        gap_set(GOLDEN, 10, min_radius=Fraction(-1, 10))


def _first_past_reference(cf, least):
    """The first pair past least, read off the Convergent stream."""
    return next(p for p in itertools.pairwise(_convergent_stream(cf)) if p[0].q * p[1].q >= least)


def test_pair_past_matches_the_convergent_stream():
    rng = random.Random(20261101)
    cfs = [GOLDEN, SQRT2_MINUS_1, CFSpec(-3, (2,), (1, 4)), CFSpec(5, (), (10**30,))]
    cfs += [random_cf(rng, rng.choice((2, 10, 1000))) for _ in range(300)]
    for cf in cfs:
        leasts = [-(10**9), 0, 1, 2, 10**6, 10**50, 10**400]
        leasts.append(rng.randrange(1, 10 ** rng.randint(1, 80)))
        # either side of each product the walk passes
        for c, d in itertools.pairwise(itertools.islice(_convergent_stream(cf), 12)):
            leasts += [c.q * d.q - 1, c.q * d.q, c.q * d.q + 1]
        for least in leasts:
            walk = Walk(cf)
            K = walk.first_past(least)
            got = walk.convergent(K), walk.convergent(K + 1)
            assert got == _first_past_reference(cf, least), (cf, least)
            assert all(type(c) is Convergent for c in got)


def test_pair_past_on_a_rational_that_runs_out():
    cf = CFSpec(1, (2, 3, 4), ())
    conv = list(_convergent_stream(cf))
    assert len(conv) == 4
    # Pairs that exist are found as on an irrational expansion.
    assert Walk(cf).first_past(conv[2].q * conv[3].q) == 2
    for rational, least in ((cf, conv[2].q * conv[3].q + 1), (CFSpec(7), 1)):
        with pytest.raises(DomainError, match="runs out"):
            Walk(rational).first_past(least)


@given(irrational_cfs(), st.integers(min_value=5, max_value=100))
@settings(max_examples=60)
def test_surrogate_residual_identity_exact(cf, N):
    """Replacing theta by p_K/q_K keeps the classical residual identity
    q_k r_{k-1} + q_{k-1} r_k = 1 exact, in integer form, at every k <= K."""
    walk = Walk(cf)
    cK = walk.convergent(gap_set(cf, N).depth)
    conv = [walk.convergent(k) for k in range(cK.k + 1)]
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


def _expand_quadratic(x, count):
    """First `count` terms a0, a1, ... of the expansion of an exact
    quadratic number, by floor-and-invert with no rounding."""
    terms = []
    for _ in range(count):
        a = x.floor()
        terms.append(a)
        x = x - a
        if x.sign() == 0:
            break
        x = x.inverse()
    return terms


def test_expand_quadratic_known_expansions():
    alpha = QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5)
    assert _expand_quadratic(alpha, 6) == [1, 1, 1, 1, 1, 1]
    assert _expand_quadratic(alpha - 1, 6) == [0, 1, 1, 1, 1, 1]
    assert _expand_quadratic(QuadraticNumber.sqrt(2), 5) == [1, 2, 2, 2, 2]
    assert _expand_quadratic(QuadraticNumber(Fraction(3, 7)), 5) == [0, 2, 3]


def test_bounded_quotient_extrema_frozen():
    # The smallest and largest reals with quotients <= b: [0; (b, 1)] and
    # [b; (1, b)].
    want = {
        1: (0.61803398875, 1.61803398875),
        2: (0.366025403784, 2.73205080757),
        3: (0.263762615826, 3.79128784748),
        4: (0.207106781187, 4.82842712475),
    }
    for b, (lo, hi) in want.items():
        mn, mx = eval_theta(CFSpec(0, (), (b, 1))), eval_theta(CFSpec(b, (), (1, b)))
        assert float(mn) == pytest.approx(lo, abs=1e-10)
        assert float(mx) == pytest.approx(hi, abs=1e-10)
    with pytest.raises(DomainError):
        CFSpec(0, (), (0, 1))


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
    rational = CFSpec(0, (2, 3), ())  # 3/7
    for call in (
        lambda: GOLDEN.tail(0),
        lambda: Walk(GOLDEN).convergent(-1),
        lambda: Walk(rational).convergent(3),
    ):
        with pytest.raises(DomainError):
            call()
