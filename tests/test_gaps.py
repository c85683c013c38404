import dataclasses
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import badapprox.cli as cli
import badapprox.gaps as gaps_module
from badapprox import (
    GOLDEN,
    SQRT2_MINUS_1,
    CFSpec,
    CoincidentPointsError,
    DomainError,
    QuadraticNumber,
    RegimeTag,
    VerificationError,
    Walk,
    choose_surrogate,
    classify_regime,
    convergents,
    decimal_str,
    eval_theta,
    extremal_witness,
    gap_constant,
    gap_constant_bounds,
    gap_set,
    predicted_gap_values,
    preset,
    solve,
    verify_regime,
)
from badapprox.gaps import CERT_ROUNDS
from badapprox.cli import _display_radius
from badapprox.oracle import random_beta, random_cf

DISPLAY = Fraction(1, 10**26)


@st.composite
def irrational_cfs(draw):
    a0 = draw(st.integers(min_value=0, max_value=2))
    prefix = draw(st.lists(st.integers(1, 5), max_size=3))
    period = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    return CFSpec(a0, tuple(prefix), tuple(period))


# ---- frozen small cases ----------------------------------------------------


def test_golden_three_multiples_frozen():
    gs = gap_set(GOLDEN, 3, min_radius=DISPLAY)
    assert [decimal_str(p) for p in gs.points] == [
        "0",
        "0.2360679775",
        "0.6180339887",
        "0.8541019662",
        "1",
    ]
    assert [(decimal_str(g), m) for g, m in gs.gaps] == [
        ("0.1458980338", 1),
        ("0.2360679775", 2),
        ("0.3819660113", 1),
    ]
    assert decimal_str(gs.product) == "1.145898034"
    assert gs.radius <= DISPLAY
    lo, hi = gs.largest_gap_span()
    assert hi - lo == gs.largest


def test_json_shape():
    d = gap_set(GOLDEN, 3, min_radius=DISPLAY).to_json_dict(6)
    assert d["n"] == 3
    assert d["h"] == "0.381966"
    assert [g["multiplicity"] for g in d["gaps"]] == [1, 2, 1]
    assert len(d["points"]) == 5


def test_domain_errors():
    with pytest.raises(DomainError):
        gap_set(GOLDEN, 0)
    with pytest.raises(DomainError):
        gap_set(CFSpec(3, (), ()), 2)


# ---- the three-gap invariants over a random corpus -------------------------


@given(irrational_cfs(), st.integers(min_value=1, max_value=300))
@settings(max_examples=120, deadline=None)
def test_three_gap_invariants(cf, N):
    gs = gap_set(cf, N)
    assert gs.count == N
    assert 2 <= len(gs.gap_nums) <= 3
    if len(gs.gap_nums) == 3:
        a, b, c = (g for g, _ in gs.gap_nums)
        assert c == a + b
    assert sum(g * m for g, m in gs.gap_nums) == gs.denominator
    assert sum(m for _, m in gs.gap_nums) == N + 1
    pts = gs.points
    assert len(pts) == N + 2
    assert all(x < y for x, y in zip(pts, pts[1:]))
    assert pts[0] == 0 and pts[-1] == 1
    # every interior point is {n*theta} for exactly one n in 1..N
    assert sorted(gs.orders[1:-1]) == list(range(1, N + 1))
    assert gs.orders[0] == 0 and gs.orders[-1] == 0


# ---- rational inputs -------------------------------------------------------


def test_rational_gap_set():
    three_sevenths = CFSpec(0, (2, 3), ())
    gs = gap_set(three_sevenths, 3)
    assert gs.denominator == 7
    assert gs.radius == 0
    assert gs.gap_nums == ((1, 2), (2, 1), (3, 1))
    even = gap_set(three_sevenths, 6)
    assert even.gap_nums == ((1, 7),)  # full cycle splits evenly
    with pytest.raises(CoincidentPointsError):
        gap_set(three_sevenths, 7)
    half = gap_set(CFSpec(0, (2,), ()), 1)
    assert half.gap_nums == ((1, 2),)


# ---- the sort-based reference ----------------------------------------------


def _surrogate(cf, N, min_radius=None):
    """(p, q) that values are read under: exact for rationals, else p_K/q_K."""
    if cf.is_rational:
        v = cf.value()
        return v.numerator % v.denominator, v.denominator
    ck, _ = choose_surrogate(cf, N, min_radius)
    return ck.p % ck.q, ck.q


def _reference(p, q, N):
    """nums, orders and gap_nums from sorting n*p mod q."""
    ranked = sorted((n * p % q, n) for n in range(1, N + 1))
    nums = (0, *(r for r, _ in ranked), q)
    orders = [0, *(n for _, n in ranked), 0]
    gaps = Counter(b - a for a, b in zip(nums, nums[1:]))
    return nums, orders, tuple(sorted(gaps.items()))


def _assert_matches_reference(gs, p, q):
    nums, orders, gap_nums = _reference(p, q, gs.count)
    assert (gs.numerator, gs.denominator) == (p, q)
    assert gs.nums == nums
    assert isinstance(gs.orders, tuple)
    assert list(gs.orders) == orders
    assert gs.gap_nums == gap_nums
    lo, hi = gs.largest_gap_span()
    assert hi - lo == gs.largest


def _scan_solve(p, q, N, beta):
    """Nearest point to beta over every residue: left point on ties, then
    smallest n. The point 1 belongs to n = 0 with p = -1."""
    bn, bd = beta.numerator, beta.denominator
    best = None
    for n in range(N + 1):
        r = n * p % q
        for value in (r, q) if n == 0 else (r,):
            key = (abs(bn * q - value * bd), value * bd > bn * q, n)
            if best is None or key < best[0]:
                best = key, n, (n * p - value) // q
    (err, _, _), n, pp = best
    return n, pp, Fraction(err, q * bd)


def test_gap_set_matches_sorted_residues():
    rng = random.Random(20260418)
    for _ in range(60):
        cf = random_cf(rng)
        N = int(10 ** rng.uniform(0, 4.3))
        for radius in (None, _display_radius(10, N), _display_radius(40, N)):
            gs = gap_set(cf, N, min_radius=radius)
            _assert_matches_reference(gs, *_surrogate(cf, N, radius))
            assert gs.order_of(gs.nums[1]) == gs.orders[1]


def test_rational_gap_set_matches_sorted_residues():
    for cf, N in (
        (CFSpec(0, (2, 3), ()), 3),
        (CFSpec(0, (2, 3), ()), 6),
        (CFSpec(0, (2,), ()), 1),
        (CFSpec(0, (1, 4, 2, 5), ()), 40),
    ):
        _assert_matches_reference(gap_set(cf, N), *_surrogate(cf, N))


def _exact_nearest(cf, beta, N):
    """(n, p) of the nearest point to beta, left on ties, by bisection over
    the exact points {n*theta} in a gap set's walk order."""
    theta, gs = eval_theta(cf), gap_set(cf, N)

    def point(i):
        n = gs.orders[i]
        p = math.floor(n * theta) if i <= N else -1  # the last is the endpoint 1
        return n * theta - p, n, p

    lo, hi = 0, N + 1  # point(lo) <= beta < point(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if point(mid)[0] <= beta else (lo, mid)
    (x, *left), (y, *right) = point(lo), point(hi)
    return tuple(left if beta - x <= y - beta else right)


def test_solve_matches_residue_scan_at_40_digits():
    # The residue scan under the 40-digit display surrogate and an exact
    # bisection agree on random targets and on the points themselves; at
    # the surrogate's midpoint of a gap only the exact theta decides.
    rng = random.Random(7)
    for _ in range(40):
        cf = random_cf(rng)
        N = int(10 ** rng.uniform(0, 4))
        radius = _display_radius(40, N)
        gs = gap_set(cf, N, min_radius=radius)
        i = rng.randrange(N + 1)
        lo, hi = gs.nums[i], gs.nums[i + 1]
        theta = eval_theta(cf)
        for beta, scanned in (
            (random_beta(rng), True),
            (Fraction(lo, gs.denominator), True),
            (Fraction(lo + hi, 2 * gs.denominator), False),
        ):
            sol = solve(cf, beta, N)
            assert (sol.n, sol.p) == _exact_nearest(cf, beta, N)
            if scanned:
                assert (sol.n, sol.p) == _scan_solve(gs.numerator, gs.denominator, N, beta)[:2]
            assert sol.achieved == abs(sol.n * theta - sol.p - beta)


def test_exotic_inputs_run_on_python_ints():
    # Each surrogate denominator is past 2**61, so residues no longer fit
    # int64 arithmetic; the multiples themselves still do.
    for cf, N in (
        (CFSpec(0, (3, 10**25, 2), ()), 7),
        (CFSpec(0, (2,), (10**30, 1)), 6),
        (CFSpec(0, (10**20, 3), ()), 5),
    ):
        gs = gap_set(cf, N)
        assert gs.denominator > 2**61
        _assert_matches_reference(gs, *_surrogate(cf, N))
    cf = CFSpec(0, (10**20, 3), ())
    p, q = _surrogate(cf, 5)
    for beta in (Fraction(1, 3), Fraction(0), Fraction(99, 100), Fraction(p, q)):
        sol = solve(cf, beta, 5)
        assert (sol.n, sol.p, sol.achieved) == _scan_solve(p, q, 5, beta)


# ---- gap statistics from the three-distance theorem -----------------------


def test_three_distance_below_the_first_quotient():
    # N < a_1: the points 0, theta, ..., N*theta < 1 leave N gaps of length
    # theta and one of 1 - N*theta.
    cf = CFSpec(0, (5,), (1,))
    for N in range(1, 5):
        gs = gap_set(cf, N)
        p, q = gs.numerator, gs.denominator
        assert gs.gap_nums == tuple(sorted(((p, N), (q - N * p, 1))))
        _assert_matches_reference(gs, *_surrogate(cf, N))


def test_three_distance_with_an_integer_part():
    for a0 in (-3, 1, 7):
        for cf, N in ((CFSpec(a0, (2,), (1, 4)), 37), (CFSpec(a0, (), (3,)), 200)):
            shifted = CFSpec(0, cf.prefix, cf.period)
            gs, ref = gap_set(cf, N), gap_set(shifted, N)
            assert (gs.numerator, gs.denominator, gs.gap_nums) == (
                ref.numerator,
                ref.denominator,
                ref.gap_nums,
            )
            _assert_matches_reference(gs, *_surrogate(cf, N))
    three_sevenths = gap_set(CFSpec(-2, (2, 3), ()), 3)
    assert three_sevenths.gap_nums == ((1, 2), (2, 1), (3, 1))


def test_rationals_at_full_cycle_split_evenly():
    for cf in (
        CFSpec(0, (2, 3), ()),
        CFSpec(0, (1, 4, 2, 5), ()),
        CFSpec(2, (7,), ()),
        CFSpec(0, (3, 1, 1, 2, 6), ()),
    ):
        q = cf.value().denominator
        gs = gap_set(cf, q - 1)
        assert gs.gap_nums == ((1, q),)
        _assert_matches_reference(gs, *_surrogate(cf, q - 1))


def _steps(gs):
    return {b - a for a, b in zip(gs.orders, gs.orders[1:])}


def test_walk_edge_cases_match_the_reference():
    # N + 1 = q_k + q_{k-1} leaves two lengths, and the walk never takes
    # its a - b step: that count is zero and drops out of the merge.
    for cf in (GOLDEN, SQRT2_MINUS_1, CFSpec(0, (2,), (1, 4))):
        convs = convergents(cf, 8)
        for c_km1, c_k in zip(convs, convs[1:]):
            N = c_k.q + c_km1.q - 1
            gs = gap_set(cf, N, min_radius=DISPLAY)
            _assert_matches_reference(gs, *_surrogate(cf, N, DISPLAY))
            assert len(gs.gap_nums) == 2
            steps = _steps(gs)
            assert len(steps) == 2 and min(steps) < 0 < max(steps), (cf, N, steps)
    # N = 1: one step out to {theta}, one back to the endpoint.
    for cf in (GOLDEN, SQRT2_MINUS_1, CFSpec(0, (7,), (1,)), CFSpec(0, (2,), ())):
        _assert_matches_reference(gap_set(cf, 1), *_surrogate(cf, 1))
    # 3/7 at N = 6: the steps +5 and -2 both have length 1/7, so the
    # walk's counts merge into one.
    gs = gap_set(CFSpec(0, (2, 3), ()), 6)
    _assert_matches_reference(gs, 3, 7)
    assert _steps(gs) == {5, -2}
    assert gs.gap_nums == ((1, 7),)


def _record_gap_sets(monkeypatch):
    """Every GapSet built, through gap_set or on a shared walk."""
    made = []
    real = gaps_module._gap_set

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(gaps_module, "_gap_set", recording)
    return made


def test_statistics_callers_never_sort(monkeypatch, capsys):
    made = _record_gap_sets(monkeypatch)
    rounds = []
    real_round = Walk.first_past
    monkeypatch.setattr(Walk, "first_past",
                        lambda *args: rounds.append(args) or real_round(*args))
    verify_regime(SQRT2_MINUS_1, 5000, min_radius=DISPLAY)
    for argv in (
        ["gaps", "--theta", "golden", "--n", "3000", "--format", "csv"],
        ["kron", "--theta", "sqrt2", "--beta", "1/3", "--n", "300000"],
        ["regime", "--theta", "sqrt2", "--n", "700"],
    ):
        assert cli.main(argv) == 0, argv
    assert len(made) >= 3
    assert all("orders" not in gs.__dict__ for gs in made)
    # No witness builds a GapSet: its rounds read the three-distance
    # lengths off one integer walk.
    count, built = len(made), []
    real_gap_set_type = gaps_module.GapSet
    monkeypatch.setattr(gaps_module, "GapSet",
                        lambda **fields: built.append(fields) or real_gap_set_type(**fields))
    # Gap sets and solve ask first_past too; count the witness rounds alone.
    rounds.clear()
    extremal_witness(2, 6, min_radius=DISPLAY)
    for argv in (
        ["extremal", "--b", "3", "--n", "12"],
        ["convergence", "--b", "1", "--nmax", "6"],
    ):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert len(made) == count and built == []
    assert len(rounds) >= 1 + 1 + 6
    # Listing the points is what sorts them.
    assert cli.main(["gaps", "--theta", "golden", "--n", "30"]) == 0
    capsys.readouterr()
    assert "orders" in made[-1].__dict__
    # The listing renders numerators over the shared denominator.
    assert "points" not in made[-1].__dict__


def test_deep_gap_sets_and_solve_keep_a_few_convergents(monkeypatch):
    # gap_set and solve read only the newest entries of their walks, so a
    # deep N leaves a few hundred ints alive, not every convergent up to it.
    walks = []
    real_init = Walk.__init__

    def recording(self, cf):
        real_init(self, cf)
        walks.append(self)

    monkeypatch.setattr(Walk, "__init__", recording)
    N = 10**1000
    for cf in (GOLDEN, SQRT2_MINUS_1, CFSpec(0, (2,), (1, 4))):
        gap_set(cf, N, min_radius=_display_radius(40, N))
        solve(cf, Fraction(1, 3), N)
    assert len(walks) == 6
    for walk in walks:
        assert len(walk.qs) > 2000
        assert sum(q is not None for q in walk.qs) <= 5 + 2 * 256


def test_perturbed_walk_step_is_caught(monkeypatch):
    real = gaps_module.min_affine_mod
    messages = set()
    for cf, N in ((GOLDEN, 200), (SQRT2_MINUS_1, 1000), (CFSpec(0, (2,), (1, 4)), 77)):
        for shift in (1, -1):
            gs = gap_set(cf, N, min_radius=DISPLAY)

            def off_by_one(n, m, a, b):
                value, x = real(n, m, a, b)
                return value, x + shift

            monkeypatch.setattr(gaps_module, "min_affine_mod", off_by_one)
            with pytest.raises(VerificationError) as caught:
                gs.orders
            messages.add(str(caught.value))
            # A failed walk publishes neither the order nor the numerators.
            assert "orders" not in gs.__dict__
            assert "nums" not in gs.__dict__
            monkeypatch.setattr(gaps_module, "min_affine_mod", real)
            assert gs.orders[0] == 0
    # Both kinds of check fire: the golden and [0; 2, (1, 4)] walks are not
    # back at 0 after N + 1 steps, and sqrt2's come back with steps of the
    # wrong lengths.
    assert messages == {
        "the successor walk does not visit each multiple once",
        "the successor walk disagrees with the three-distance gaps",
    }


def test_walk_step_range_and_visit_checks_each_fire(monkeypatch):
    N = 201
    gs = gap_set(GOLDEN, N, min_radius=DISPLAY)
    out_of_range = "the successor walk's steps are out of range"
    cases = (
        # A step outside [1, N] fails the check 0 < a, b <= N < a + b,
        # which refuses it before the walk runs.
        ((0, 5), out_of_range),
        ((N + 1, 5), out_of_range),
        ((5, 0), out_of_range),
        ((5, N + 1), out_of_range),
        ((-3, 5), out_of_range),
        ((N + 1, N + 1), out_of_range),
        # Steps +N and -N walk 0, N, 0, N, ...: back at 0 after the N + 1
        # (even) steps, having seen two multiples.
        ((N, N), "the successor walk does not visit each multiple once"),
    )
    for steps, message in cases:
        argmins = iter(step - 1 for step in steps)
        monkeypatch.setattr(gaps_module, "min_affine_mod", lambda *args: (0, next(argmins)))
        with pytest.raises(VerificationError) as caught:
            gs.orders
        assert str(caught.value) == message, steps
        assert "orders" not in gs.__dict__
    monkeypatch.undo()
    assert gs.orders[0] == 0


def test_walk_steps_short_of_the_multiples_are_refused(monkeypatch):
    # With a + b <= N the step rule is no bijection of 0..N, and the walk
    # may never come back to 0: steps +2 and -3 at N = 201 climb to 200
    # and then cycle through 197, 199, 201, 198, 200.
    N = 201
    gs = gap_set(GOLDEN, N, min_radius=DISPLAY)
    for steps in ((2, 3), (1, 1), (100, 101), (1, N - 1), (N - 1, 1)):
        argmins = iter(step - 1 for step in steps)
        monkeypatch.setattr(gaps_module, "min_affine_mod", lambda *args: (0, next(argmins)))
        with pytest.raises(VerificationError) as caught:
            gs.orders
        assert str(caught.value) == "the successor walk's steps are out of range", steps
        assert "orders" not in gs.__dict__ and "nums" not in gs.__dict__
    monkeypatch.undo()
    assert gs.orders[0] == 0


def test_deep_extremal_stages_finish_fast():
    f = gap_constant(3)
    for stage in (20, 40):
        start = time.perf_counter()
        w = extremal_witness(3, stage)
        assert time.perf_counter() - start < 1.0
        assert w.count > 10 ** (stage * 2 // 3)
        assert w.product + w.count**2 * w.radius < f


# ---- regime classification -------------------------------------------------


def test_regime_frozen_tags():
    assert classify_regime(SQRT2_MINUS_1, 7) == RegimeTag(2, 1)
    assert classify_regime(SQRT2_MINUS_1, 7).case == "interval-2"
    assert classify_regime(GOLDEN, 1) == RegimeTag(1, 0)
    assert classify_regime(GOLDEN, 1).case == "interval-1"
    assert classify_regime(GOLDEN, 3) == RegimeTag(3, 0)
    assert len(gap_set(SQRT2_MINUS_1, 11).gap_nums) == 2


def test_regime_errors():
    with pytest.raises(DomainError):
        classify_regime(SQRT2_MINUS_1, 1)  # below q_1 = 2
    with pytest.raises(CoincidentPointsError):
        classify_regime(CFSpec(0, (2, 3), ()), 100)
    with pytest.raises(DomainError):
        classify_regime(CFSpec(2, (), ()), 5)


def test_predicted_values_shape():
    tag = classify_regime(GOLDEN, 3)
    vals = predicted_gap_values(GOLDEN, tag)
    assert len(vals) == 3
    assert vals[2] == vals[0] + vals[1]  # interval-1: third is the sum


def _reference_predicted(cf, tag):
    """The exact predicted gaps from the two residuals r_j = |q_j*theta -
    p_j|, and the factor (|x|*q_k + |y|*q_{k-1}) of each gap x*r_k +
    y*r_{k-1}."""
    c_km1, c_k = convergents(cf, tag.k + 1)[-2:]
    theta = eval_theta(cf)
    r_k, r_km1 = abs(c_k.q * theta - c_k.p), abs(c_km1.q * theta - c_km1.p)
    mix = ((1, 0), (-tag.l, 1), (1 - tag.l, 1))
    return ([x * r_k + y * r_km1 for x, y in mix],
            [abs(x) * c_k.q + abs(y) * c_km1.q for x, y in mix])


def _reference_matches(gs, reference, widths):
    slack = gs.count * gs.radius
    return all(
        any(abs(g - r) <= w * gs.radius + slack for r, w in zip(reference, widths))
        for g, _ in gs.gaps
    )


@st.composite
def regime_cases(draw):
    """(cf, N, min_radius, shift): an irrational or a rational theta, an N
    it resolves, a display radius or none, and a shift for the gap
    numerators (0 leaves them as computed)."""
    if draw(st.booleans()):
        cf = draw(irrational_cfs())
    else:
        quotients = draw(st.lists(st.integers(1, 12), min_size=3, max_size=14))
        cf = CFSpec(draw(st.integers(0, 2)), tuple(quotients), ())
        assume(not cf.is_integer)
    qs = [c.q for c in convergents(cf, 40)]
    assume(len(qs) > 2)
    top = qs[-1] - 1 if cf.is_rational else 10**7
    assume(qs[1] <= top)
    N = draw(st.integers(qs[1], top))
    min_radius = draw(st.sampled_from([None, Fraction(1, 10**12), Fraction(1, 10**45),
                                       _display_radius(10, N), _display_radius(40, N)]))
    shift = draw(st.sampled_from([0, 0, 0, 1, -1, 2]))
    return cf, N, min_radius, shift


@given(regime_cases())
@settings(max_examples=300, deadline=None)
@example((CFSpec(0, (), (2,)), 7, None, 0))
@example((CFSpec(0, (3, 1, 4, 1, 5, 9, 2, 6), ()), 100, None, 0))
@example((CFSpec(0, (3, 1, 4, 1, 5, 9, 2, 6), ()), 100, None, -1))
def test_integer_regime_match_is_the_certified_formula(case):
    cf, N, min_radius, shift = case
    real = gaps_module._gap_set

    def shifted(*args, **kwargs):
        gs = real(*args, **kwargs)
        nums = tuple((g + shift, m) for g, m in gs.gap_nums)
        return dataclasses.replace(gs, gap_nums=nums)

    with mock.patch.object(gaps_module, "_gap_set", shifted):
        tag, gs, predicted, ok = verify_regime(cf, N, min_radius=min_radius)
    reference, widths = _reference_predicted(cf, tag)
    assert predicted_gap_values(cf, tag) == reference
    # eta_j/q is within q_j*radius of r_j, so each prediction under the
    # surrogate is within its width times the radius of the exact one.
    for p, r, w in zip(predicted, reference, widths, strict=True):
        assert abs(p - r) <= w * gs.radius
    assert ok == _reference_matches(gs, reference, widths)
    if not shift:
        assert ok
        # Read under the gap set's own surrogate, each length is predicted.
        assert all(g in predicted for g, _ in gs.gaps)


@given(irrational_cfs(), st.integers(min_value=1, max_value=250))
@settings(max_examples=100, deadline=None)
def test_observed_gaps_are_among_predicted(cf, N):
    q1 = convergents(cf, 2)[1].q
    assume(N >= q1)
    tag, gs, predicted, ok = verify_regime(cf, N)
    assert ok
    assert len(predicted) == 3
    assert 1 <= tag.k
    assert 0 <= tag.l < cf.quotient(tag.k + 1)


def test_float_radius_reads_as_its_exact_fraction():
    exact = Fraction(1e-20)
    tag, gs, predicted, ok = verify_regime(GOLDEN, 100, min_radius=1e-20)
    want_tag, want_gs, want_predicted, want_ok = verify_regime(GOLDEN, 100, min_radius=exact)
    assert (tag, predicted, ok) == (want_tag, want_predicted, want_ok)
    assert (gs.denominator, gs.radius, gs.gap_nums) == (
        want_gs.denominator, want_gs.radius, want_gs.gap_nums)


def test_regime_prints_each_length_once(capsys):
    # A rounding-boundary case: the gap set and the prediction are one value.
    theta = '{"a0": 0, "prefix": [6, 6, 6], "period": [4, 6, 6, 6, 1]}'
    argv = ["regime", "--theta", theta, "--n", "10", "--precision-digits", "9"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["matches"]
    assert set(out["gaps"]) <= set(out["predicted"])


@pytest.mark.parametrize("call", [gap_set, classify_regime, choose_surrogate])
@pytest.mark.parametrize("count", [10.5, 10.0])
def test_counts_must_be_integers(call, count):
    with pytest.raises(TypeError):
        call(GOLDEN, count)


def test_verify_regime_rational_is_exact():
    tag, gs, predicted, ok = verify_regime(CFSpec(0, (2, 3), ()), 5)
    assert ok
    assert gs.radius == 0
    assert tag == RegimeTag(1, 2)


# ---- the sharp constant ----------------------------------------------------

FROZEN_CONSTANTS = [
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


def test_gap_constant_frozen_table():
    got = [decimal_str(gap_constant(b)) for b in range(1, 11)]
    assert got == FROZEN_CONSTANTS


def test_gap_constant_closed_forms_exact():
    assert gap_constant(1) == 1 + Fraction(2) / QuadraticNumber.sqrt(5)
    assert gap_constant(2) == 1 + Fraction(2) / QuadraticNumber.sqrt(3)
    assert gap_constant(3) == 1 + Fraction(6) / QuadraticNumber.sqrt(21)
    assert gap_constant(4) == 1 + Fraction(9) / (2 * QuadraticNumber.sqrt(8))


def _chained_gap_constant(bound):
    """f(B) as five chained Fraction and QuadraticNumber operations, the
    form gap_constant had before it normalised once."""
    if bound % 2 == 0:
        a = bound // 2
        return 1 + Fraction((a + 1) ** 2) / (2 * QuadraticNumber.sqrt(a * a + 2 * a))
    a = (bound - 1) // 2
    return 1 + Fraction(a * a + 3 * a + 2) / QuadraticNumber.sqrt(4 * a * a + 12 * a + 5)


@pytest.mark.parametrize("bounds", [range(1, 3001), [10**25, 2**61 + 1]], ids=["1-3000", "past-trial-limit"])
def test_gap_constant_is_the_chained_formulas_normal_form(bounds):
    for b in bounds:
        got, want = gap_constant(b), _chained_gap_constant(b)
        assert (got._x, got._y, got._z, got._d) == (want._x, want._y, want._z, want._d), b
        assert hash(got) == hash(want)


def test_gap_constant_envelope():
    for b in range(1, 51):
        lo, hi = gap_constant_bounds(b)
        f = gap_constant(b)
        assert lo <= f <= hi
        if b == 1:
            assert f == hi
        else:
            assert f < hi
    with pytest.raises(DomainError):
        gap_constant(0)
    with pytest.raises(DomainError):
        gap_constant_bounds(-1)


def _certified_below(cf, N):
    """N*H(theta, N) < f(B) for the true theta, decided by deepening."""
    f = gap_constant(cf.bound())
    min_radius = None
    for _ in range(6):
        gs = gap_set(cf, N, min_radius=min_radius)
        slack = N * N * gs.radius
        if gs.product + slack < f:
            return True
        if gs.product - slack > f:
            return False
        min_radius = gs.radius / 2**40
    raise AssertionError("comparison stayed undecidable")


@given(irrational_cfs(), st.integers(min_value=1, max_value=200))
@settings(max_examples=80, deadline=None)
def test_product_strictly_below_constant(cf, N):
    assert _certified_below(cf, N)


# ---- extremal witnesses ----------------------------------------------------


def test_witness_frozen_stage_ten():
    w = extremal_witness(1, 10, min_radius=DISPLAY)
    assert w.count == 17709
    assert decimal_str(w.largest) == "0.0001069633104"
    assert decimal_str(w.product) == "1.894213263"
    assert w.constant == gap_constant(1)
    assert w.product < w.constant
    # The exact largest gap for theta = [0; (1)] at stage 10 is r_19 + r_20,
    # built here from the convergents and the root of x^2 + x - 1.
    theta = (QuadraticNumber.sqrt(5) - 1) / 2
    c19, c20 = convergents(GOLDEN, 21)[19:]
    h = (c19.p - c19.q * theta) + (c20.q * theta - c20.p)
    assert w.h == h
    assert abs(h - w.largest) <= w.count * w.radius
    assert w.gap_to_f == w.constant - w.count * h
    assert w.gap_to_f > 0


def test_witness_early_stages_frozen():
    want = ["0.6180339887", "1.416407865", "1.713228931", "1.825418249"]
    got = [
        decimal_str(extremal_witness(1, n, min_radius=DISPLAY).product)
        for n in range(1, 5)
    ]
    assert got == want


def test_witness_products_increase():
    for bound, stages in ((1, 9), (2, 6)):
        deep = Fraction(1, 10**34)
        prev = None
        prev_slack = None
        for n in range(1, stages + 1):
            w = extremal_witness(bound, n, min_radius=deep)
            slack = w.count * w.count * w.radius
            if prev is not None:
                assert w.product - slack > prev + prev_slack
            prev, prev_slack = w.product, slack


def test_witness_gives_up_when_the_surrogate_never_deepens(monkeypatch):
    real = Walk.first_past
    asked, used = [], set()

    def never_deeper(walk, least):
        asked.append(least)
        depth = real(walk, asked[0])
        used.add(depth)
        return depth

    monkeypatch.setattr(Walk, "first_past", never_deeper)
    # Stage 5 of bound 3 is undecided at the policy depth.
    with pytest.raises(VerificationError) as err:
        extremal_witness(3, 5)
    (depth,) = used
    conv = convergents(preset("extremal:3"), max(depth, 10) + 2)
    N = conv[9].q + 2 * conv[10].q - 2
    radius = Fraction(1, conv[depth].q * conv[depth + 1].q)
    # The first round asks for the policy depth, each retry for 2**-40 of
    # the radius the last attempt used.
    assert asked[0] == 16 * 5 * N * N + 1
    assert [Fraction(1, least) for least in asked[1:]] == [radius / 2**40] * (CERT_ROUNDS - 1)
    assert "could not certify the witness product" in str(err.value)
    assert "bound = 3, stage = 5" in str(err.value)


def _reference_certification(bound, n, min_radius):
    """(depth, radius, largest, product) of the witness at stage n, from
    the certification as it was when every round read a whole gap set,
    deepening the surrogate from min_radius."""
    cf = CFSpec(0, (), (bound, 1))
    *_, c_odd, c_even = convergents(cf, 2 * n + 1)
    N = c_odd.q + ((bound + 2) // 2) * c_even.q - 2
    coeff = (bound - 2) // 2
    constant, theta = gap_constant(bound), eval_theta(cf)
    h = (c_odd.p - c_odd.q * theta) - coeff * (c_even.q * theta - c_even.p)
    radius = min_radius
    for _ in range(CERT_ROUNDS):
        gs = gap_set(cf, N, min_radius=radius)
        q, g = gs.denominator, gs.gap_nums[-1][0]
        res_odd, res_even = (abs(c.q * gs.numerator - c.p * q) for c in (c_odd, c_even))
        if res_odd - coeff * res_even != g:
            raise VerificationError("predicted largest gap disagrees with the computed one")
        u, v = gs.radius.numerator, gs.radius.denominator
        room, slack = constant * (q * v) - N * g * v, N * N * u * q
        if (room - slack).sign() > 0:
            break
        if (room + slack).sign() < 0:
            raise VerificationError("witness product exceeds the sharp constant")
        radius = gs.radius / 2**40
    else:
        raise VerificationError(
            f"could not certify the witness product in {CERT_ROUNDS} rounds "
            f"(bound = {bound}, stage = {n})"
        )
    if abs(h - gs.largest) > N * gs.radius:
        raise VerificationError("the exact largest gap escapes the computed one")
    return gs.depth, gs.radius, gs.largest, gs.product


def _outcome(call, *args):
    """call(*args), or the message of the VerificationError it raises."""
    try:
        return call(*args)
    except VerificationError as exc:
        return str(exc)


# The deepest stage whose product certifies, per bound (MAX_STAGE's comment).
_FRONTIER = {1: 266, 2: 201, 3: 165, 4: 147, 5: 137, 6: 128, 7: 119, 8: 119,
             9: 111, 10: 110, 11: 101, 12: 101}


def _fields(w):
    return w.depth, w.radius, w.largest, w.product


@pytest.mark.parametrize("bound", range(1, 13))
def test_witness_certification_matches_the_gap_set_rounds(bound):
    # One integer walk gives what a gap set per round gave: the same depth,
    # radius, largest gap and product, or the same error, from the policy
    # depth and from the display radii, and along the CLI's chain, which
    # reads the witness at the policy depth and then at the display radius.
    frontier = _FRONTIER[bound]
    stages = [*range(1, 61), *range(frontier - 5, frontier + 6)]
    for n in stages:
        want = _outcome(_reference_certification, bound, n, None)
        got = _outcome(lambda: _fields(extremal_witness(bound, n)))
        assert got == want, (bound, n)
        if n > frontier:
            assert "could not certify" in got, (bound, n)
            continue
        w = extremal_witness(bound, n)
        for sig in (3, 10, 40):
            radius = _display_radius(sig, w.count)
            want = _outcome(_reference_certification, bound, n, radius)
            got = _outcome(lambda: _fields(extremal_witness(bound, n, min_radius=radius)))
            assert got == want, (bound, n, sig)
            chain = _fields(w) if w.radius <= radius else want
            assert _outcome(lambda: _fields(w.at_radius(radius))) == chain, (bound, n, sig)


def test_witness_errors():
    with pytest.raises(DomainError):
        extremal_witness(0, 1)
    with pytest.raises(DomainError):
        extremal_witness(1, 0)
    assert extremal_witness(2, 1).theta == preset("extremal:2")


def test_extremal_gap_to_f_is_exact():
    # f - N*H against theta = [0; (b, 1)] and the closed form of f(b) at
    # 250 digits, at the policy depth.
    for b in range(1, 13):
        a = b // 2
        for n in (1, 10, 40):
            w = extremal_witness(b, n)
            assert w.gap_to_f > 0
            conv = convergents(w.theta, 2 * n + 1)
            with mpmath.workdps(250):
                if b % 2:
                    f = 1 + mpmath.mpf(a * a + 3 * a + 2) / mpmath.sqrt(4 * a * a + 12 * a + 5)
                else:
                    f = 1 + mpmath.mpf((a + 1) ** 2) / (2 * mpmath.sqrt(a * a + 2 * a))
                theta = (mpmath.sqrt(b * b + 4 * b) - b) / (2 * b)
                r = [abs(c.q * theta - c.p) for c in conv]
                want = f - w.count * (r[2 * n - 1] - (b - 2) // 2 * r[2 * n])
                g = w.gap_to_f
                got = (mpmath.mpf(g.a.numerator) / g.a.denominator
                       + mpmath.mpf(g.b.numerator) / g.b.denominator * mpmath.sqrt(g.d))
                assert abs(got / want - 1) < mpmath.mpf(10) ** -40, (b, n)


def test_order_of_the_endpoints_is_zero():
    gs = gap_set(GOLDEN, 5)
    assert gs.order_of(0) == 0
    assert gs.order_of(gs.denominator) == 0
