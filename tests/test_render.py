import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from badapprox.cf import SQRT2_MINUS_1, Walk
from badapprox.quadratic import QuadraticNumber
from badapprox.render import _decade, _json_str, _ratio_str, _ratios_str, decimal_str


def test_integers_and_exact_decimals():
    assert decimal_str(Fraction(2)) == "2"
    assert decimal_str(Fraction(1, 2)) == "0.5"
    assert decimal_str(Fraction(-1, 4)) == "-0.25"
    assert decimal_str(Fraction(0)) == "0"


def test_rounding_to_significant_digits():
    assert decimal_str(Fraction(1, 3)) == "0.3333333333"
    assert decimal_str(Fraction(2, 3)) == "0.6666666667"
    assert decimal_str(Fraction(1, 3), 3) == "0.333"
    assert decimal_str(Fraction(10000, 3)) == "3333.333333"


def test_trailing_zeros_stripped():
    # 13/21 = 0.6190476190..., the zero before the last digit survives
    assert decimal_str(Fraction(13, 21)) == "0.619047619"
    assert decimal_str(Fraction(1, 8), 5) == "0.125"


def test_scientific_fallback():
    assert decimal_str(Fraction(1, 10**12), 4) == "1e-12"
    assert decimal_str(Fraction(3, 2 * 10**13), 3) == "1.5e-13"
    assert decimal_str(Fraction(10**25), 4) == "1e+25"


def test_quadratic_rendering():
    golden = QuadraticNumber(Fraction(-1, 2), Fraction(1, 2), 5)
    assert decimal_str(golden) == "0.6180339887"
    assert decimal_str(QuadraticNumber.sqrt(5)) == "2.236067977"
    assert decimal_str(QuadraticNumber.sqrt(2), 15) == "1.4142135623731"


def test_halfway_rounding_is_deterministic():
    assert decimal_str(Fraction(25, 1000), 1) == "0.02"
    assert decimal_str(Fraction(35, 1000), 1) == "0.04"
    assert _ratio_str(25, 1000, 1) == "0.02"
    assert _ratio_str(-35, 1000, 1) == "-0.04"


def test_guard_bits_of_one_half_take_the_exact_test():
    # Over d = 2**40 at one digit, n/d = 1/4 + x is 2.5 + 10*x tenths: a
    # tie at x = 0, and just above one at n = 2**38 + 1, where x = 2**-40,
    # within 2**-32 of a last digit of the tie. The exact rule tells them
    # apart by the remainder of divmod(2*n*mul + d, 2*d), zero only at the
    # tie.
    d = 2**40
    cases = [
        (2**38 - 1, "0.2"),  # just below the tie
        (2**38, "0.2"),  # an exact tie: q = 2 is even
        (2**38 + 1, "0.3"),  # within 2**-32 of the tie, not a tie
        (-(2**38 + 1), "-0.3"),
        (3 * 2**38, "0.8"),  # an exact tie at 7.5 tenths: q = 7 is odd
        (3 * 2**38 + 1, "0.8"),
    ]
    for n, want in cases:
        assert _ratio_str(n, d, 1) == _reference(n, d, 1) == want, n
    nums = [n for n, _ in cases]
    assert _ratios_str(nums, d, 1) == [want for _, want in cases]


def test_rounding_carries_into_the_next_decade():
    assert _ratio_str(9995, 1000, 3) == "10"
    assert _ratio_str(-9995, 1000, 3) == "-10"
    # Carries across the switch between fixed and scientific notation.
    assert _ratio_str(99995, 10**13, 4) == "0.00000001"
    assert _ratio_str(999995 * 10**15, 1, 5) == "1e+21"


def test_exact_powers_of_ten():
    # Fixed notation holds for exponents -8 through 20.
    assert _ratio_str(1, 10**9, 5) == "1e-9"
    assert _ratio_str(1, 10**8, 5) == "0.00000001"
    assert _ratio_str(10**20, 1, 5) == "100000000000000000000"
    assert _ratio_str(10**21, 1, 5) == "1e+21"
    assert _ratio_str(7 * 10**30, 7 * 10**10, 3) == "100000000000000000000"
    for k in range(-60, 61):
        n, d = (10**k, 1) if k >= 0 else (1, 10**-k)
        assert _decade(n, d)[0] == k
        assert _decade(n * 3, d * 3)[0] == k
        assert _decade(n * 10 - 1, d)[0] == k
        assert _decade(n, d * 10 - 1)[0] == k - 1


def test_values_just_past_a_power_of_ten():
    # Python's float nearest 10**-k lies above some values that are above
    # 10**-k, and below 10**-400 no float is left at all: only integers
    # may decide the exponent.
    assert (
        decimal_str(Fraction(1, 10) + Fraction(55, 10**32), 30)
        == "0.100000000000000000000000000001"
    )
    assert decimal_str(Fraction(3, 10**400), 5) == "3e-400"
    assert decimal_str(Fraction(-123456, 10**405), 3) == "-1.23e-400"
    # Operands past the 4300 digits Python's int-to-str conversion allows.
    assert decimal_str(Fraction(2 * 10**5000 + 1, 3 * 10**5000), 4) == "0.6667"
    assert decimal_str(Fraction(1, 7 * 10**5000), 3) == "1.43e-5001"


def _pow10(k: int) -> Fraction:
    return Fraction(10) ** k


def _reference(n: int, d: int, sig: int) -> str:
    """The Fraction algorithm decimal_str used before rendering moved onto
    integers, with exact powers of ten in place of Python floats."""
    x = Fraction(n, d)
    if x == 0:
        return "0"
    neg = x < 0
    x = abs(x)
    e = len(str(x.numerator)) - len(str(x.denominator))
    while x >= _pow10(e + 1):
        e += 1
    while x < _pow10(e):
        e -= 1
    return _formatted(round(x * _pow10(sig - 1 - e)), e, neg, sig)


def _formatted(q: int, e: int, neg: bool, sig: int) -> str:
    """The reference's text for q, sig significant digits of a value at
    decimal exponent e, rounded."""
    if q >= 10**sig:
        q //= 10
        e += 1
    digits = str(q)
    if e < -8 or e > 20:
        mantissa = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
        if "." in mantissa:
            mantissa = mantissa.rstrip("0").rstrip(".")
        return f"{'-' if neg else ''}{mantissa}e{e:+d}"
    if e >= 0:
        out = digits[: e + 1].ljust(e + 1, "0") + "." + digits[e + 1 :]
    else:
        out = "0." + "0" * (-e - 1) + digits
    out = out.rstrip("0").rstrip(".")
    return "-" + out if neg else out


_magnitudes = st.integers(0, 60).flatmap(lambda k: st.integers(1, 10**k))


def _near_halves(d: int, sig: int):
    """Numerators n with n/d within 2**-33 of a last digit of a half-way
    point at sig digits, on either side: there no rounding that reads
    the value to 32 bits past its last digit can decide."""
    # The least power of ten whose last-digit unit spans 2**34 steps of 1/d.
    u0 = -len(str(d))
    while Fraction(10) ** u0 * d < 2**34:
        u0 += 1

    def place(t, w, delta):
        half = Fraction(2 * t + 1, 2) * Fraction(10) ** (u0 + w) * d
        return half.numerator // half.denominator + delta

    return st.builds(place, st.integers(10 ** (sig - 1), 10**sig - 1), st.integers(0, 20),
                     st.integers(-1, 1))


@settings(max_examples=400, deadline=None)
@given(
    st.booleans(),
    _magnitudes,
    _magnitudes,
    st.integers(1, 60),
    st.sampled_from([(1, 0), (10, 0), (10, -1), (1, 5), (5, 0)]),
)
def test_ratio_str_matches_exact_fraction_reference(neg, n, d, sig, tweak):
    # tweak turns some draws into exact powers of ten, their neighbours and
    # halfway cases, where the exponent and the rounding are decided.
    scale, offset = tweak
    n = n * scale + offset
    if neg:
        n = -n
    assert _ratio_str(n, d, sig) == _reference(n, d, sig)
    assert decimal_str(Fraction(n, d), sig) == _reference(n, d, sig)


def _decade_edges(d: int):
    """d*10**k, one below it and d // 10**k: where a sorted run changes decade."""
    return st.integers(0, 25).flatmap(
        lambda k: st.sampled_from([d * 10**k, max(d * 10**k - 1, 0), d // 10**k])
    )


@st.composite
def _runs(draw):
    """(nums, d, sig) for one batch call: a sorted non-negative run seeded at
    decade edges, or an unsorted run of mixed sign."""
    d0 = draw(_magnitudes)
    sig = draw(st.integers(1, 60))
    # With d = 2 * 10**j * d0, (2 * 10**sig - 1) * d0 * 10**k over d is
    # 99...9.5 (sig nines) times a power of ten: a half-way tie whose
    # rounding carries into the next decade.
    j = draw(st.integers(0, 12))
    d = draw(st.sampled_from([d0, 2 * 10**j * d0]))
    carries = st.integers(0, 25).map(lambda k: (2 * 10**sig - 1) * d0 * 10**k)
    values = st.one_of(
        _decade_edges(d),
        st.integers(0, 2 * d),
        _magnitudes,
        carries,
        # Far below and far above one: both scientific ends.
        st.integers(1, 10**9).map(lambda n: n * d // 10**30),
        st.integers(1, 10**9).map(lambda n: n * d * 10**21),
        _near_halves(d, sig),
    )
    nums = draw(st.lists(values, max_size=40))
    if draw(st.booleans()):
        nums.sort()
    else:
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(nums), max_size=len(nums)))
        nums = [s * n for s, n in zip(signs, nums)]
    return nums, d, sig


@settings(max_examples=400, deadline=None)
@given(_runs())
def test_ratios_str_matches_exact_fraction_reference(run):
    nums, d, sig = run
    assert _ratios_str(nums, d, sig) == [_reference(n, d, sig) for n in nums]


def test_ratios_str_carries_and_scientific_ends_in_one_run():
    # A half-way carry (9.995 -> 10 at three digits) inside a run of its
    # decade, then a jump into scientific notation; over 10**13, a carry
    # out of scientific notation (9.9995e-9 -> 0.00000001 at four digits).
    nums = [9994, 9995, 9996, -9995, 1, 10**11, 10**25]
    assert _ratios_str(nums, 1000, 3) == [
        _reference(n, 1000, 3) for n in nums
    ] == ["9.99", "10", "10", "-10", "0.001", "100000000", "1e+22"]
    tiny = [1, 2, 99995, 10**5, 10**6]
    assert _ratios_str(tiny, 10**13, 4) == [_reference(n, 10**13, 4) for n in tiny]


def test_small_quadratic_keeps_every_digit():
    # sqrt(2) less its first 19 digits leaves 8.0168872421e-19: an absolute
    # error of 10**-(sig+5) would leave no correct digit at all.
    tail = QuadraticNumber.sqrt(2) - Fraction(1414213562373095048, 10**18)
    assert decimal_str(tail) == "8.016887242e-19"
    assert decimal_str(-tail, 4) == "-8.017e-19"
    assert decimal_str(QuadraticNumber.sqrt(5) - QuadraticNumber.sqrt(5)) == "0"


def test_zero_digits_are_refused():
    with pytest.raises(ValueError):
        decimal_str(Fraction(1, 3), 0)


def test_quadratic_digits_are_correctly_rounded():
    # x = 1/8 + (sqrt(2) - 1 - p/q) for the first convergent of sqrt2 with
    # q >= 33461 is 0.1250000003...: an approximation within 10**-7 of it
    # can be exactly 1/8, a tie that rounds half to even to 0.12.
    p, q = next((c.p, c.q) for c in map(Walk(SQRT2_MINUS_1).convergent, range(30)) if c.q >= 33461)
    x = Fraction(1, 8) + (QuadraticNumber.sqrt(2) - 1 - Fraction(p, q))
    assert decimal_str(x, 2) == _quadratic_reference(x, 2) == "0.13"
    assert decimal_str(-x, 2) == "-0.13"


def _quadratic_reference(x: QuadraticNumber, sig: int) -> str:
    """decimal_str of an irrational x from its exact comparisons with
    powers of ten and one exact floor, floor(|x|*10**s + 1/2)."""
    neg = x < 0
    x = abs(x)
    e = 0
    while x >= _pow10(e + 1):
        e += 1
    while x < _pow10(e):
        e -= 1
    return _formatted(math.floor(x * _pow10(sig - 1 - e) + Fraction(1, 2)), e, neg, sig)


_RADICANDS = st.sampled_from([2, 3, 5, 6, 7, 10, 13, 19, 41, 10**6 + 3])


def _tail(d: int, k: int) -> QuadraticNumber:
    """sqrt(d) less its first k decimals: irrational, in (0, 10**-k)."""
    return QuadraticNumber.sqrt(d) - Fraction(math.isqrt(d * 10 ** (2 * k)), 10**k)


@st.composite
def _irrationals(draw):
    """(x, sig): an irrational x and a digit count, drawn near half-way
    points, as tiny differences of large coefficients, or at random."""
    sig = draw(st.integers(1, 60))
    d = draw(_RADICANDS)
    kind = draw(st.sampled_from(["half", "cancel", "random"]))
    if kind == "half":
        # Within 10**-40 of a half-way point of the last digit, either side.
        t = draw(st.integers(10 ** (sig - 1), 10**sig - 1))
        half = Fraction(2 * t + 1, 2) * _pow10(draw(st.integers(-30, 10)) - sig)
        tail = _tail(d, draw(st.integers(40, 90)))
        x = half + tail if draw(st.booleans()) else half - tail
    elif kind == "cancel":
        # (sqrt(d) - isqrt(d))**j: coefficients that grow with j and cancel
        # down to a value that shrinks with j (1.65e-565 at j = 200, d = 10**6 + 3).
        j = draw(st.integers(1, 200))
        x = (QuadraticNumber.sqrt(d) - math.isqrt(d)) ** j / draw(st.integers(1, 10**30))
    else:
        a = Fraction(draw(st.integers(-(10**40), 10**40)), draw(st.integers(1, 10**40)))
        b = Fraction(draw(st.integers(1, 10**40)), draw(st.integers(1, 10**40)))
        x = QuadraticNumber(a, b, d)
    if draw(st.booleans()):
        x = -x
    return x, sig


@settings(max_examples=500, deadline=None)
@given(_irrationals())
def test_quadratic_digits_match_the_exact_floor(case):
    x, sig = case
    assert decimal_str(x, sig) == _quadratic_reference(x, sig)


def test_deep_cancellation_renders_quickly():
    # The norm, not the coefficients, says how small such a value is: a
    # value near 10**-383 with 383-digit coefficients costs a floor or two.
    x = (QuadraticNumber.sqrt(2) - 1) ** 1000
    start = time.perf_counter()
    text = decimal_str(x, 10)
    assert time.perf_counter() - start < 0.05
    assert text == _quadratic_reference(x, 10) == "1.676156873e-383"


# Printable ASCII, which a string list writes as it stands, and every kind
# of character that makes json escape one: a quote, a backslash, control
# characters, DEL, U+2028 and non-ASCII text.
_printable = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E))
_escaped = st.text(st.sampled_from(["a", "0", " ", ".", '"', "\\", "\x00", "\n", "\x1f",
                                    "\x7f", "\u2028", "\u00e9", "\u20ac", "\U0001d11e"]))
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308])
    | st.text(),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(st.text(), min_size=1)
    | st.lists(_printable, min_size=1)
    | st.lists(_printable | _escaped, min_size=1)
    | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_json_str_matches_json_dumps(obj):
    assert _json_str(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("ch", ['"', "\\", "\x00", "\t", "\x1f", "\x7f", "\u2028", "\u00e9", "\U0001d11e"])
def test_json_str_escapes_a_list_with_one_escaped_string(ch):
    # One string that json escapes sends the whole list down the escaping
    # path; a list of printable ASCII goes out as it stands.
    for obj in (["0.5", "a" + ch, "1"], [ch], ("x", ch + ch)):
        assert _json_str(obj) == json.dumps(obj, indent=2), obj
    assert _json_str(["0.5", "", "1e-9 ~"]) == json.dumps(["0.5", "", "1e-9 ~"], indent=2)
