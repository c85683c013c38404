import math
import random
import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from badapprox import (
    GOLDEN,
    SQRT2_MINUS_1,
    CFSpec,
    DomainError,
    QuadraticNumber,
    SequenceLengthError,
    VerificationError,
    agreement,
    characteristic_bits,
    crossing_cell,
    crossing_unique,
    decimal_str,
    diversity_scan,
    fib_lucas,
    fractional_grids,
    lower_bound_witness,
    witness_ratio_report,
)
from badapprox.oracle import brute_agreement, brute_bits, high_precision_value, random_cf
from badapprox.sturmian import (
    MAX_BITS,
    SQRT5,
    THETA_GOLDEN,
    _bracketed_cells,
    _check_fib_lucas,
    _first_mismatch,
    _grids,
    frac_golden_multiple,
)


def test_frozen_bit_prefixes():
    assert characteristic_bits(GOLDEN, 10) == bytes([1, 0, 1, 1, 0, 1, 0, 1, 1, 0])
    assert characteristic_bits(SQRT2_MINUS_1, 8) == bytes([0, 1, 0, 1, 0, 0, 1, 0])


def test_golden_bits_match_isqrt_floors():
    """floor(m * (sqrt(5)-1)/2) = (isqrt(5 m^2) - m) // 2 in integers."""
    length = 10**5
    floors = [(isqrt(5 * m * m) - m) // 2 for m in range(1, length + 2)]
    want = [floors[i + 1] - floors[i] for i in range(length)]
    assert characteristic_bits(GOLDEN, length) == bytes(want)


@pytest.mark.parametrize(
    "cf",
    [
        SQRT2_MINUS_1,
        CFSpec(0, (1,), (2,)),  # a_1 = 1: the first standard word is "1"
        CFSpec(0, (7, 3, 1), (2, 7, 5)),
    ],
)
def test_bits_match_mpf_floors(cf):
    length = 3000
    want = brute_bits(high_precision_value(cf), length)
    assert characteristic_bits(cf, length) == bytes(want)


def _standard_word(cf, n):
    """The first n bits of the characteristic word by its definition:
    s_{-1} = 1, s_0 = 0, s_1 = s_0^(a_1 - 1) s_{-1} and s_j = s_{j-1}^(a_j)
    s_{j-2}, on bytes. A repeat count past n // len(s) + 1 already covers
    n bits, so it is cut there and huge quotients stay small."""
    older, old = b"\x01", b"\x00"
    quotients = cf.quotients()
    reps = next(quotients) - 1
    while True:
        older, old = old, old * min(reps, n // len(old) + 1) + older
        if len(old) >= n:
            return old[:n]
        reps = next(quotients)


_QUOTIENTS = st.one_of(st.integers(1, 12), st.sampled_from([10**6, 10**25]))


@given(
    prefix=st.lists(_QUOTIENTS, max_size=4),
    period=st.lists(st.integers(1, 12), min_size=1, max_size=5),
    n=st.integers(0, 20000),
)
@example(prefix=[1], period=[2], n=5000)  # a_1 = 1: s_1 = s_{-1} = "1"
@example(prefix=[10**25], period=[1], n=20000)  # a_1 > n: all zeros
@example(prefix=[1, 10**6], period=[3, 1], n=3 * 10**6)
@settings(deadline=None)
def test_bits_are_the_standard_word(prefix, period, n):
    cf = CFSpec(0, tuple(prefix), tuple(period))
    assert characteristic_bits(cf, n) == _standard_word(cf, n)


def test_bit_budget_is_checked_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="MAX_BITS"):
            characteristic_bits(GOLDEN, MAX_BITS + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_bits_hold_one_byte_per_bit():
    """The word is built in place, so the peak is one byte per bit: a
    bytearray copy source would add a temporary of about a third of the
    word, and a trimmed copy on return would double it."""
    tracemalloc.start()
    try:
        characteristic_bits(GOLDEN, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1e7


def test_bits_match_interval_membership():
    """bit i is 1 exactly when {(i+1)*theta} lands in [1-theta, 1)."""
    bits = characteristic_bits(GOLDEN, 200)
    cut = 1 - THETA_GOLDEN
    for i in range(200):
        frac = frac_golden_multiple(i + 1)
        assert bits[i] == (1 if frac >= cut else 0)


def test_bit_frequency():
    length = 10**5
    ones = sum(characteristic_bits(GOLDEN, length))
    # the bit sum telescopes to floor((length+1)*theta)
    assert ones == 61804
    assert abs(QuadraticNumber(Fraction(ones, length)) - THETA_GOLDEN) <= Fraction(
        2, length
    )


def test_sequence_validation():
    with pytest.raises(DomainError):
        characteristic_bits(CFSpec(1, (), (1,)), 16)
    with pytest.raises(DomainError):
        characteristic_bits(CFSpec(0, (2, 3), ()), 16)
    with pytest.raises(DomainError):
        characteristic_bits(GOLDEN, -1)
    assert characteristic_bits(GOLDEN, 0) == bytearray()
    first = characteristic_bits(GOLDEN, 16)
    assert isinstance(first, bytearray) and len(first) == 16
    # Each call hands out a buffer of its own: writing into one leaves
    # the next call's bits as they were.
    second = characteristic_bits(GOLDEN, 16)
    assert first is not second and first == second
    first[0] ^= 1
    assert characteristic_bits(GOLDEN, 16) == second != first


def test_agreement_contract():
    seq = characteristic_bits(GOLDEN, 100)
    with pytest.raises(DomainError):
        agreement(seq, 0, 0, 1, 5)
    with pytest.raises(DomainError):
        agreement(seq, 3, 2, 2, 5)
    with pytest.raises(DomainError):
        agreement(seq, 3, 0, 3, 5)
    with pytest.raises(DomainError):
        agreement(seq, 3, 0, 1, 0)
    with pytest.raises(SequenceLengthError) as info:
        agreement(seq, 7, 1, 6, 60)  # needs more bits than are materialized
    assert info.value.required == 7 * 59 + 6 + 1
    assert info.value.available == len(seq)


def test_agreement_accepts_plain_sequences():
    assert agreement([0, 1, 0, 0, 0, 1], 2, 0, 1, 3) == 0
    assert agreement([0, 0, 1, 1, 0, 0], 2, 0, 1, 3) is None
    with pytest.raises(SequenceLengthError):
        agreement([0, 1], 2, 0, 1, 3)
    # An int64 array is read by value, not by its raw buffer.
    np = pytest.importorskip("numpy")
    assert agreement(np.array([0, 1, 0, 0, 0, 1]), 2, 0, 1, 3) == 0
    rng = random.Random(11)
    for _ in range(300):
        r = rng.randint(2, 9)
        b = rng.randint(1, r - 1)
        a = rng.randrange(b)
        max_k = rng.randint(1, 200)
        bits = [rng.random() < 0.03 for _ in range(r * max_k)]
        assert agreement(bits, r, a, b, max_k) == brute_agreement(bits, r, a, b, max_k)


FROZEN_DIVERSITY = [
    (2, 0),
    (3, 2),
    (4, 5),
    (5, 5),
    (6, 5),
    (7, 28),
    (8, 9),
    (9, 8),
    (10, 10),
]


def test_diversity_scan_golden_frozen():
    rows = diversity_scan(GOLDEN, 1, 10)
    assert [(row.r, row.max_agreement) for row in rows] == FROZEN_DIVERSITY
    for row in rows:
        assert row.bound == 18 * row.r * row.r
        assert row.passed


def test_diversity_scan_surrogate_route():
    rows = diversity_scan(SQRT2_MINUS_1, 2, 4)
    assert [row.r for row in rows] == [2, 3, 4]
    assert all(row.passed for row in rows)
    assert all(row.bound == 32 * row.r * row.r for row in rows)


def _pairwise_max_agreement(cf, B, r):
    """Largest first mismatch over every offset pair, or None."""
    max_k = 2 * (B + 2) ** 2 * r * r + 1
    seq = characteristic_bits(cf, r * max_k)
    worst = -1
    for a in range(r - 1):
        for b in range(a + 1, r):
            k = agreement(seq, r, a, b, max_k)
            if k is None:
                return None
            worst = max(worst, k)
    return worst


@pytest.mark.parametrize("cf, B, r_max", [(GOLDEN, 1, 12), (SQRT2_MINUS_1, 2, 6)])
def test_diversity_scan_matches_pairwise_scan(cf, B, r_max):
    rows = diversity_scan(cf, B, r_max)
    assert [row.max_agreement for row in rows] == [
        _pairwise_max_agreement(cf, B, r) for r in range(2, r_max + 1)
    ]


def _plain_first_mismatch(u, v):
    for i in range(len(u)):
        if u[i] != v[i]:
            return i
    return None


@given(
    u=st.binary(max_size=70),
    at=st.integers(min_value=0),
    delta=st.integers(min_value=0, max_value=255),
    tail=st.binary(max_size=70),
)
@example(u=b"", at=0, delta=0, tail=b"")
@example(u=bytes(16), at=0, delta=0, tail=b"")  # equal strings
@example(u=bytes(9), at=0, delta=1, tail=b"")  # index 0, length not a multiple of 8
@example(u=bytes(13), at=12, delta=1, tail=b"")  # the last index
@example(u=b"\x00\xff\x80", at=1, delta=129, tail=b"\x07")  # bytes past {0, 1}
@settings(max_examples=300, deadline=None)
def test_first_mismatch_matches_index_loop(u, at, delta, tail):
    """v is u with byte `at` shifted by delta (0 leaves it) and the bytes
    after it overwritten by tail, cut to u's length."""
    v = bytearray(u)
    if u:
        at %= len(u)
        v[at] = (v[at] + delta) % 256
        rest = tail[: len(u) - at - 1]
        v[at + 1 : at + 1 + len(rest)] = rest
    assert len(v) == len(u)
    x = int.from_bytes(u, "big") ^ int.from_bytes(v, "big")
    assert _first_mismatch(x, len(u)) == _plain_first_mismatch(u, v)


def _bisect_first_mismatch(u, v):
    """First index where two equally long strings differ (None if nowhere),
    by bisecting on slice equality."""
    if u == v:
        return None
    lo, hi = 0, len(u)  # u[:lo] == v[:lo] and u[lo:hi] != v[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if u[lo:mid] == v[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


def _full_window_scan(cf, B, r_max):
    """(r, max_agreement) per row from every column's whole window, sorted
    as bytes, with neighbours bisected: the reference for diversity_scan's
    prefix cut."""
    word = characteristic_bits(cf, r_max * (2 * (B + 2) ** 2 * r_max**2 + 1))
    rows = []
    for r in range(2, r_max + 1):
        max_k = 2 * (B + 2) ** 2 * r * r + 1
        cols = sorted(word[a : r * max_k : r] for a in range(r))
        worst = -1
        for u, v in zip(cols, cols[1:]):
            k = _bisect_first_mismatch(u, v)
            if k is None:
                worst = None
                break
            worst = max(worst, k)
        rows.append((r, worst))
    return rows


def _scan_rows(cf, B, r_max):
    return [(row.r, row.max_agreement) for row in diversity_scan(cf, B, r_max)]


def test_diversity_scan_matches_full_window_scan():
    assert _scan_rows(GOLDEN, 1, 60) == _full_window_scan(GOLDEN, 1, 60)
    rng = random.Random(17)
    for _ in range(60):
        cf = random_cf(rng, 5)
        B = cf.bound()
        r_max = 12 if B <= 3 else 8
        assert _scan_rows(cf, B, r_max) == _full_window_scan(cf, B, r_max), cf


@pytest.mark.parametrize(
    "cf, expected",
    [
        (CFSpec(0, (), (5, 1, 4)), {4: 8, 9: 7}),
        (CFSpec(0, (1, 3, 1), (3, 2, 2, 3)), {12: 19}),
        (CFSpec(0, (1, 3, 1, 1), (2, 3)), {7: 9}),
        (CFSpec(0, (5, 2), (5, 5, 3, 3, 4)), {8: 7, 9: 6}),
    ],
)
def test_diversity_rows_whose_maximum_is_not_at_circular_neighbours(cf, expected):
    """On these rows the longest agreement is between columns whose
    starting points are not neighbours on the circle; the scan must still
    find it, so each maximum is checked against every pair, naively."""
    B = cf.bound()
    rows = dict(_scan_rows(cf, B, max(expected)))
    for r, want in expected.items():
        max_k = 2 * (B + 2) ** 2 * r * r + 1
        bits = characteristic_bits(cf, r * max_k)
        pairs = [
            brute_agreement(bits, r, a, b, max_k)
            for a in range(r - 1)
            for b in range(a + 1, r)
        ]
        assert None not in pairs
        assert rows[r] == max(pairs) == want


def test_diversity_scan_validation():
    with pytest.raises(DomainError):
        diversity_scan(GOLDEN, 1, 1)
    with pytest.raises(DomainError):
        diversity_scan(SQRT2_MINUS_1, 1, 5)  # stated bound below the actual one


# ---- exact golden machinery ------------------------------------------------


# fib_lucas's four identities in QuadraticNumber arithmetic, with beta^n a
# power of its own: the reference its integer equalities are judged against.
_ALPHA = QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5)
_BETA = _ALPHA.conjugate()
_FIB_LUCAS_MESSAGES = (
    "Fibonacci {} fails its power-sum form",
    "Lucas {} fails its power-sum form",
    "Fibonacci {} fails its shift identity",
    "Lucas {} fails its shift identity",
)


def _reference_identities(n, f_prev, f, l_prev, l):
    """Whether each identity holds, in fib_lucas's order (the shift
    identities hold vacuously at n = 0)."""
    an, bn = _ALPHA**n, _BETA**n
    return (
        f * SQRT5 == an - bn,
        an + bn == l,
        n == 0 or f * THETA_GOLDEN == f_prev - bn,
        n == 0 or l * THETA_GOLDEN == l_prev + SQRT5 * bn,
    )


def _recurrence(n):
    """(F_{n-1}, F_n, L_{n-1}, L_n) by the plain recurrences."""
    f_prev, f, l_prev, l = 1, 0, -1, 2
    for _ in range(n):
        f_prev, f, l_prev, l = f, f + f_prev, l, l + l_prev
    return f_prev, f, l_prev, l


def test_fib_lucas_values():
    assert (fib_lucas(0).fib, fib_lucas(0).lucas) == (0, 2)
    assert (fib_lucas(1).fib, fib_lucas(1).lucas) == (1, 1)
    assert (fib_lucas(10).fib, fib_lucas(10).lucas) == (55, 123)
    for n in range(201):  # fib_lucas re-verifies every identity internally
        f_prev, f, l_prev, l = _recurrence(n)
        assert all(_reference_identities(n, f_prev, f, l_prev, l)), n
        assert (fib_lucas(n).fib, fib_lucas(n).lucas) == (f, l), n
    with pytest.raises(DomainError):
        fib_lucas(-1)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 40, 200])
@pytest.mark.parametrize("which", range(4))
def test_each_wrong_fib_lucas_input_raises_its_own_message(n, which):
    # A wrong F_n, L_n, F_{n-1} or L_{n-1} breaks exactly the identity that
    # reads it first; at n = 0 the shift identities are not checked.
    order = (1, 3, 0, 2)  # index of F_n, L_n, F_{n-1}, L_{n-1} in _recurrence
    right = _recurrence(n)
    for delta in (1, -1, 2**n):
        wrong = list(right)
        wrong[order[which]] += delta
        if n == 0 and which >= 2:
            assert all(_reference_identities(n, *wrong))
            _check_fib_lucas(n, *wrong)
            continue
        assert _reference_identities(n, *wrong).index(False) == which
        with pytest.raises(VerificationError) as caught:
            _check_fib_lucas(n, *wrong)
        assert str(caught.value) == _FIB_LUCAS_MESSAGES[which].format(n)
    _check_fib_lucas(n, *right)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 60), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_fib_lucas_check_agrees_with_the_reference(n, deltas):
    # The integer check fails exactly when an identity fails, and with the
    # message of the first failing one.
    args = [v + d for v, d in zip(_recurrence(n), deltas)]
    held = _reference_identities(n, *args)
    if all(held):
        _check_fib_lucas(n, *args)
        return
    with pytest.raises(VerificationError) as caught:
        _check_fib_lucas(n, *args)
    assert str(caught.value) == _FIB_LUCAS_MESSAGES[held.index(False)].format(n)


def test_frac_golden_multiple():
    assert frac_golden_multiple(0) == QuadraticNumber(0)
    assert frac_golden_multiple(1) == THETA_GOLDEN
    assert frac_golden_multiple(2) == QuadraticNumber(-2, 1, 5)
    with pytest.raises(DomainError):
        frac_golden_multiple(-1)


def test_fractional_grids_frozen_stage_two():
    g = fractional_grids(2)
    assert (g.rows, g.cols) == (10, 3)
    assert decimal_str(g.diff) == "0.09016994375"
    assert decimal_str(g.step_right) == "0.3262379212"
    assert decimal_str(g.step_up) == "0.02128623625"
    assert decimal_str(g.step_wrap) == "0.134661795"
    assert decimal_str(g.lower[9][0]) == "0.04449185123"
    assert decimal_str(g.upper[0][2]) == "0.9787137637"
    assert g.rows * g.cols == fib_lucas(9).fib - fib_lucas(4).fib - 1
    for row in g.lower:
        for v in row:
            assert 0 < v < 1


def test_fractional_grids_later_stages():
    for n in (3, 4):
        g = fractional_grids(n)
        assert g.rows == fib_lucas(2 * n + 1).lucas - 1
        assert g.cols == fib_lucas(2 * n).fib
    g = fractional_grids(4)
    assert decimal_str(g.lower[g.rows - 1][0]) == "0.0009121685686"
    assert decimal_str(g.step_up) == "0.0004531038538"
    for bad in (1, 7):
        with pytest.raises(DomainError):
            fractional_grids(bad)


def test_crossing_cell_frozen():
    c2 = crossing_cell(2)
    assert (c2.i, c2.j) == (9, 1)
    assert (c2.candidate_low, c2.candidate_high) == (28, 30)
    assert decimal_str(c2.lower) == "0.3707297725"
    assert decimal_str(c2.upper) == "0.4608997162"
    c3 = crossing_cell(3)
    assert (c3.candidate_low, c3.candidate_high) == (219, 224)
    c6 = crossing_cell(6)
    assert (c6.i, c6.j) == (519, 55)
    assert (c6.candidate_low, c6.candidate_high) == (74791, 74880)
    with pytest.raises(DomainError):
        crossing_cell(1)


def test_crossing_is_unique():
    # Cell by cell over the materialized lower grid: the closed-form count
    # in crossing_unique must see the same single bracketing cell.
    th2 = THETA_GOLDEN * THETA_GOLDEN
    for n in (2, 3, 4, 5):
        g = fractional_grids(n)
        assert sum(lo < th2 < lo + g.diff for row in g.lower for lo in row) == 1
        assert crossing_unique(n)


def _row_loop_cells(lo0, hi0, rise, rows, cols):
    """Reference count for _bracketed_cells: two exact floors per row."""
    hits = 0
    for i in range(rows):
        first = max((lo0 + i * rise).floor() + 1, 0)
        # ceil(hi) - 1, the last integer strictly below hi.
        last = min(-(-(hi0 + i * rise)).floor() - 1, cols - 1)
        hits += max(last - first + 1, 0)
    return hits


def test_closed_form_count_matches_the_row_loop_at_every_listed_stage(monkeypatch):
    # The row loop on the very inputs crossing_cell passes at stages 2-10.
    seen = []
    monkeypatch.setattr("badapprox.sturmian._bracketed_cells",
                        lambda *args: seen.append(args) or _bracketed_cells(*args))
    for n in range(2, 11):
        crossing_cell(n)
    assert len(seen) == 9
    for args in seen:
        assert _row_loop_cells(*args) == 1


# (lo0, hi0, rise, rows, cols): counts 0, 1 and more, a one-row grid, clamps
# at both ends, and ends that land exactly on integers part way up.
_BRACKET_EDGES = [
    (QuadraticNumber(2), QuadraticNumber(Fraction(5, 2)), QuadraticNumber(Fraction(1, 10)), 3, 9),
    (QuadraticNumber(Fraction(1, 2)), QuadraticNumber(Fraction(3, 2)), SQRT5, 1, 5),
    (QuadraticNumber(Fraction(-1, 3)), 4 + SQRT5 / 10, SQRT5 / 20, 5, 3),
    (QuadraticNumber(Fraction(-1, 2)), QuadraticNumber(1), QuadraticNumber(Fraction(1, 4)), 4, 10),
    (QuadraticNumber(-7), QuadraticNumber(-2), THETA_GOLDEN / 7, 8, 4),
    (QuadraticNumber(40), QuadraticNumber(50), THETA_GOLDEN / 7, 8, 4),
    (SQRT5 - 3, SQRT5 + 1, QuadraticNumber(Fraction(1, 6)), 6, 2),
]


@pytest.mark.parametrize("case", _BRACKET_EDGES)
def test_closed_form_count_on_edge_grids(case):
    assert _bracketed_cells(*case) == _row_loop_cells(*case)


def test_edge_grids_cover_every_kind_of_count():
    counts = [_row_loop_cells(*case) for case in _BRACKET_EDGES]
    assert {0, 1} <= set(counts) and max(counts) > 1
    assert any(rows == 1 for *_, rows, _ in _BRACKET_EDGES)


_q5 = st.builds(lambda a, b: a + b * SQRT5, st.fractions(-4, 34, max_denominator=8),
                st.fractions(-2, 2, max_denominator=8) | st.just(Fraction(0)))


@st.composite
def bracket_grids(draw):
    """Synthetic Fraction(sqrt(5)) inputs whose total rise lies in (0, 1)."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 30))
    lo0 = draw(_q5) - 2
    hi0 = lo0 + draw(_q5) / draw(st.sampled_from([1, 4, 16]))
    total = draw(_q5)
    total -= total.floor()
    if total == 0:
        total = QuadraticNumber(Fraction(1, 2))
    return lo0, hi0, total / max(rows - 1, 1), rows, cols


@given(case=bracket_grids())
@settings(max_examples=400, deadline=None)
def test_closed_form_count_matches_the_row_loop(case):
    assert _bracketed_cells(*case) == _row_loop_cells(*case)


def test_closed_form_count_refuses_a_rise_outside_its_proof():
    lo0, hi0 = QuadraticNumber(Fraction(-1, 2)), QuadraticNumber(3)
    for rise, rows in ((QuadraticNumber(Fraction(1, 4)), 5), (QuadraticNumber(Fraction(1, 3)), 5),
                       (SQRT5 / 4, 3), (QuadraticNumber(0), 2), (-THETA_GOLDEN, 1)):
        with pytest.raises(VerificationError):
            _bracketed_cells(lo0, hi0, rise, rows, 4)


def test_crossing_cell_past_the_listed_stages():
    f = [0, 1]
    while len(f) < 4 * 40 + 2:
        f.append(f[-1] + f[-2])
    for n in range(11, 41):
        c = crossing_cell(n)  # raises unless exactly one cell is counted
        assert c.candidate_low == f[4 * n + 1] - f[2 * n + 1] - 1, n
        assert c.j == f[2 * n - 2], n


def test_lower_bound_witness_frozen():
    w2 = lower_bound_witness(2)
    assert (w2.witness.r, w2.witness.a, w2.witness.b) == (7, 1, 6)
    assert w2.witness.first_mismatch == 28
    assert w2.matches == "low"
    assert w2.mismatch_bits == (0, 1)
    assert w2.crossing_pair == (9, 1)
    assert w2.unique_crossing is True
    assert w2.witness.bound == 18 * 49

    w3 = lower_bound_witness(3)
    assert w3.witness.first_mismatch == 219
    assert w3.matches == "low"
    assert (w3.candidate_low, w3.candidate_high) == (219, 224)


def test_lower_bound_witness_checks_uniqueness_at_every_stage():
    assert lower_bound_witness(6).unique_crossing is True


def test_witness_stage_range_follows_the_bit_budget(monkeypatch):
    # Stage 3 scans exactly r*(max_k - 1) + b + 1 = 18*225 + 17 + 1 bits:
    # a budget of that many serves it, one bit less refuses it before any
    # work, with no second limit to keep in step.
    monkeypatch.setattr("badapprox.sturmian.MAX_BITS", 4068)
    assert lower_bound_witness(3).witness.first_mismatch == 219
    with pytest.raises(DomainError, match="MAX_BITS"):
        lower_bound_witness(4)
    monkeypatch.setattr("badapprox.sturmian.MAX_BITS", 4067)
    assert lower_bound_witness(2).witness.first_mismatch == 28
    with pytest.raises(DomainError, match="MAX_BITS"):
        lower_bound_witness(3)
    monkeypatch.setattr("badapprox.sturmian.crossing_cell", None)
    for n in (1, 3, 10**6):
        with pytest.raises(DomainError, match="stages 2 through 2"):
            lower_bound_witness(n)


def test_witness_agreement_is_quadratic_in_r():
    for n in (2, 3, 4):
        w = lower_bound_witness(n)
        k = w.witness.first_mismatch
        r = w.witness.r
        assert 2 * k >= r * r  # agreement of genuinely quadratic length
        assert k <= w.witness.bound


def test_ratio_report():
    rep = witness_ratio_report()
    assert rep.rows[0] == (2, Fraction(34, 49))
    assert rep.rows[-1][0] == 8
    assert rep.approached == 0
    assert rep.candidates[0] == QuadraticNumber(Fraction(1, 2), Fraction(1, 10), 5)
    assert decimal_str(rep.candidates[0]) == "0.7236067977"
    with pytest.raises(DomainError):
        witness_ratio_report(3, 2)


def test_witness_builds_one_grid_pair(monkeypatch):
    built = []

    def counted(n, *table):
        built.append(n)
        return _grids(n, *table)

    monkeypatch.setattr("badapprox.sturmian._grids", counted)
    for n in (2, 3, 4, 5):
        built.clear()
        lower_bound_witness(n)
        assert built == [n]


def test_witness_builds_each_fib_lucas_pair_once(monkeypatch):
    # The grids, the crossing cell and the witness share one table, so each
    # index is built, and its power sums verified, exactly once.
    built = []

    def counted(n):
        built.append(n)
        return fib_lucas(n)

    monkeypatch.setattr("badapprox.sturmian.fib_lucas", counted)
    for n in (2, 3, 4, 5):
        built.clear()
        lower_bound_witness(n)
        assert sorted(built) == [2 * n - 2, 2 * n - 1, 2 * n, 2 * n + 1, 4 * n, 4 * n + 1]
        built.clear()
        crossing_cell(n)
        assert sorted(built) == [2 * n - 2, 2 * n, 2 * n + 1, 4 * n, 4 * n + 1]
        built.clear()
        fractional_grids(n)
        assert sorted(built) == [2 * n - 1, 2 * n, 2 * n + 1, 4 * n, 4 * n + 1]


def test_floor_of_the_golden_theta():
    assert math.floor(THETA_GOLDEN) == 0
    assert math.floor(-THETA_GOLDEN) == -1
