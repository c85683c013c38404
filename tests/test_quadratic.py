"""Exact arithmetic and ordering in quadratic fields."""

import random
from fractions import Fraction
from math import ceil, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from badapprox import decimal_str, extremal_witness
from badapprox.quadratic import TRIAL_LIMIT, QuadraticNumber, squarefree_decompose

GOLDEN_CONJ = QuadraticNumber(Fraction(-1, 2), Fraction(1, 2), 5)


def test_squarefree_decompose():
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(45) == (3, 5)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(30) == (1, 30)


# 65537 is the least prime above the trial-division limit.
BIG_PRIME = 65537
assert BIG_PRIME > TRIAL_LIMIT


def test_squarefree_decompose_past_the_trial_limit():
    # A square cofactor left after trial division is folded.
    assert squarefree_decompose(3 * BIG_PRIME**2) == (BIG_PRIME, 3)
    assert squarefree_decompose(BIG_PRIME**2) == (BIG_PRIME, 1)
    # Next to another large prime it stays in d: d is no longer squarefree,
    # but it is still not a perfect square.
    m = BIG_PRIME**2 * 65539
    assert squarefree_decompose(m) == (1, m)
    assert squarefree_decompose(12 * m) == (2, 3 * m)
    # A radicand near 10**50 answers at once.
    s, d = squarefree_decompose(10**50 + 2 * 10**25)
    assert s * s * d == 10**50 + 2 * 10**25 and isqrt(d) ** 2 != d


def test_normalization():
    assert QuadraticNumber.sqrt(8) == QuadraticNumber(0, 2, 2)
    assert QuadraticNumber(1, 3, 4) == QuadraticNumber(7)  # sqrt(4) folds
    x = QuadraticNumber(Fraction(1, 2), 0, 7)
    assert x.d == 1 and x.is_rational
    # One integer triple over a common denominator, gcd 1, denominator > 0.
    y = QuadraticNumber(Fraction(2, 2), Fraction(2, 2), 2)
    assert y == QuadraticNumber(1, 1, 2) == 1 + QuadraticNumber.sqrt(2)
    assert (y._x, y._y, y._z) == (1, 1, 1)
    z = (2 + 2 * QuadraticNumber.sqrt(2)) / -6
    assert (z._x, z._y, z._z, z.d) == (-1, -1, 3, 2)
    assert z.a == Fraction(-1, 3) and z.b == Fraction(-1, 3)
    assert ((z - z)._x, (z - z)._y, (z - z)._z, (z - z).d) == (0, 0, 1, 1)
    # Radicands whose product is a square name one field, whichever
    # representation trial division left.
    p = BIG_PRIME
    big = QuadraticNumber.sqrt(p * p * 65539)
    small = QuadraticNumber.sqrt(65539)
    assert big.d == p * p * 65539 and small.d == 65539
    assert big == p * small and not big < p * small and big <= p * small
    assert big - p * small == 0
    assert (big + small) / small == p + 1
    assert small < big and big > small
    assert QuadraticNumber.sqrt(3 * p * p) == p * QuadraticNumber.sqrt(3)
    with pytest.raises(ValueError):
        QuadraticNumber(0, 1, 0)
    with pytest.raises(ValueError):
        QuadraticNumber.sqrt(-2)


def test_immutability():
    x = QuadraticNumber.sqrt(2)
    with pytest.raises(AttributeError):
        x.a = Fraction(1)
    with pytest.raises(AttributeError):
        x.d = 3


def test_golden_identities():
    th = GOLDEN_CONJ
    assert th * th == 1 - th  # theta^2 + theta = 1
    assert th.inverse() == 1 + th
    assert th**2 + th**1 == 1
    assert (1 / th) - th == QuadraticNumber(1)


def test_pow_negative():
    th = GOLDEN_CONJ
    assert th**-1 == th.inverse()
    assert th**-3 == (th**3).inverse()
    assert th**0 == QuadraticNumber(1)


def test_mixed_radicand_comparison():
    r2 = QuadraticNumber.sqrt(2)
    r3 = QuadraticNumber.sqrt(3)
    assert r2 < r3
    assert 1 + r2 < QuadraticNumber.sqrt(6)  # 2.414... < 2.449...
    assert QuadraticNumber.sqrt(6) < 1 + r3
    assert not (1 + r2 < 1 + r2)
    # equality only through rational collapse
    assert QuadraticNumber(2, 0, 3) == QuadraticNumber(2, 0, 5) == 2


def test_mixed_radicand_arithmetic_rejected():
    with pytest.raises(ValueError, match="mix radicands"):
        QuadraticNumber.sqrt(2) + QuadraticNumber.sqrt(3)
    with pytest.raises(ValueError, match="mix radicands"):
        QuadraticNumber.sqrt(2) * QuadraticNumber.sqrt(3)


def test_floor_known_values():
    assert QuadraticNumber.sqrt(2).floor() == 1
    assert QuadraticNumber.sqrt(99).floor() == 9
    assert GOLDEN_CONJ.floor() == 0
    assert (-GOLDEN_CONJ).floor() == -1
    assert (GOLDEN_CONJ + 5).floor() == 5
    assert QuadraticNumber(Fraction(-7, 2)).floor() == -4
    # value a hair under an integer: 3 - sqrt(5) + sqrt(5) style traps
    x = QuadraticNumber(3, -1, 5)  # 0.7639...
    assert x.floor() == 0
    assert (x * 100).floor() == 76


fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 13])


@given(a=fractions_st, b=fractions_st, d=radicands)
def test_floor_bracket(a, b, d):
    x = QuadraticNumber(a, b, d)
    f = x.floor()
    assert QuadraticNumber(f) <= x < QuadraticNumber(f + 1)


@given(a=fractions_st, b=fractions_st, d=radicands)
def test_float_agrees_with_floor(a, b, d):
    x = QuadraticNumber(a, b, d)
    approx = float(x)
    assert abs(approx - x.floor()) <= 1.0 + 1e-9


@given(a=fractions_st, b=fractions_st, d=radicands)
@settings(max_examples=60)
def test_inverse_roundtrip(a, b, d):
    x = QuadraticNumber(a, b, d)
    if x == 0:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert x * x.inverse() == 1
    assert x + (-x) == 0
    assert (x - x).sign() == 0


@given(a=fractions_st, b=fractions_st, d=radicands, e=radicands)
@settings(max_examples=60)
def test_comparison_antisymmetry(a, b, d, e):
    x = QuadraticNumber(a, b, d)
    y = QuadraticNumber(b, a, e)
    assert (x < y) + (y < x) + (x == y) == 1


def test_sign_near_miss():
    # 49/20 sits 5e-4 above sqrt(6); the sign must still come out exact
    x = QuadraticNumber(Fraction(49, 20), -1, 6)
    assert x.sign() > 0
    y = QuadraticNumber(Fraction(-49, 20), 1, 6)
    assert y.sign() < 0
    # Pell units: x^2 - d*y^2 = 1 is as close as the squares get
    assert QuadraticNumber(3, -2, 2).sign() > 0
    assert QuadraticNumber(-3, 2, 2).sign() < 0
    assert QuadraticNumber(9, -4, 5).sign() > 0
    # 1393/985 is a convergent of sqrt(2), 3.7e-7 below it
    assert QuadraticNumber(Fraction(1393, 985)) < QuadraticNumber.sqrt(2)
    # mixed radicands separated by 4e-8, decided by squaring twice
    near = QuadraticNumber(Fraction(3178372, 10**7), 1, 2)
    assert near < QuadraticNumber.sqrt(3)
    assert QuadraticNumber(Fraction(3178373, 10**7), 1, 2) > QuadraticNumber.sqrt(3)


def test_as_fraction():
    assert QuadraticNumber(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError):
        QuadraticNumber.sqrt(2).as_fraction()


def _nearest_double(x):
    """The double nearest x, read off its 40 correctly rounded digits."""
    return float(decimal_str(x, 40))


def test_float_is_correctly_rounded():
    # Values far below 1e-25 once came out of a 25-digit approximation:
    # wrong in every digit, and at stage 80 of the sign too.
    small = [extremal_witness(1, 80).gap_to_f, extremal_witness(1, 60).gap_to_f,
             (QuadraticNumber.sqrt(2) - 1) ** 80]
    assert float(small[0]) > 0 and float(-small[0]) < 0
    rng = random.Random(40)
    fields = [QuadraticNumber(Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)),
                              Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)),
                              rng.choice((2, 3, 5, 6, 7, 10, 13, 10**12 + 39)))
              for _ in range(300)]
    # Units of Z[sqrt(d)] at every scale: x + y*sqrt(d) cancels to 1/(x - y*sqrt(d)).
    units = [QuadraticNumber(3, -2, 2) ** k for k in range(-300, 300, 7)]
    # Near the bottom of the double range, subnormal and below it.
    tiny = [QuadraticNumber(0, Fraction(1, 2**k), 2) for k in (1020, 1030, 1060, 1074, 1075, 1100)]
    rational = [QuadraticNumber(Fraction(1, 3)), QuadraticNumber(Fraction(-2, 7)),
                QuadraticNumber(Fraction(2**53 + 1, 2**60))]
    for x in small + fields + units + tiny + rational:
        for v in (x, -x):
            assert float(v) == _nearest_double(v), v
    for huge in (QuadraticNumber(10**400, 1, 2), QuadraticNumber(-(10**400)), 1 / tiny[-1]):
        with pytest.raises(OverflowError):
            float(huge)


def test_hash_consistency():
    assert hash(QuadraticNumber(3)) == hash(3)
    assert hash(QuadraticNumber(Fraction(-7, 3))) == hash(Fraction(-7, 3))
    s = {QuadraticNumber.sqrt(2), QuadraticNumber(0, 2, 2), QuadraticNumber.sqrt(8)}
    assert len(s) == 2
    x = QuadraticNumber(Fraction(2, 2), Fraction(2, 2), 2)
    assert hash((2 + 2 * QuadraticNumber.sqrt(2)) / 2) == hash(x) == hash(1 + QuadraticNumber.sqrt(2))
    assert hash(QuadraticNumber.sqrt(2)) != hash(-QuadraticNumber.sqrt(2))
    # Equal values over radicands that share a field hash equal.
    p = BIG_PRIME
    big = QuadraticNumber(Fraction(1, 6), Fraction(1, 10), p * p * 65539)
    same = QuadraticNumber(Fraction(1, 6), Fraction(p, 10), 65539)
    assert big.d != same.d and big == same and hash(big) == hash(same)
    assert len({big, same, big + 0, same * 1}) == 1


# ---- differential test against the Fraction-based reference ----------


def _ref_squarefree(m):
    s, d, rest, p = 1, 1, m, 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * rest


def _ref_sign_pair(a, b, d):
    if b == 0:
        return (a > 0) - (a < 0)
    if d == 1:
        t = a + b
        return (t > 0) - (t < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        return 0
    if a > 0:
        return 1 if lhs > rhs else -1
    return -1 if lhs > rhs else 1


def _ref_sign_triple(a, b, d1, c, d2):
    if c == 0:
        return _ref_sign_pair(a, b, d1)
    if b == 0:
        return _ref_sign_pair(a, c, d2)
    s1 = _ref_sign_pair(a, b, d1)
    s2 = 1 if c > 0 else -1
    if s1 == 0:
        return s2
    if s1 == s2:
        return s1
    inner = _ref_sign_pair(a * a + b * b * d1 - c * c * d2, 2 * a * b, d1)
    if inner == 0:
        return 0
    return s1 if inner > 0 else s2


class RefQuadratic:
    """a + b*sqrt(d) on two Fractions, refactoring d after every result:
    the representation QuadraticNumber had before it moved to integers."""

    def __init__(self, a=0, b=0, d=1):
        a, b, d = Fraction(a), Fraction(b), int(d)
        if d < 1:
            raise ValueError("radicand must be a positive integer")
        if b != 0 and d != 1:
            s, d = _ref_squarefree(d)
            b *= s
        if d == 1:
            a, b = a + b, Fraction(0)
        if b == 0:
            d = 1
        self.a, self.b, self.d = a, b, d

    @classmethod
    def coerce(cls, v):
        return v if isinstance(v, cls) else cls(v)

    def _common_d(self, o):
        if self.d == o.d or self.b == 0:
            return o.d
        if o.b == 0:
            return self.d
        raise ValueError("cannot mix radicands")

    def __add__(self, other):
        o = self.coerce(other)
        return RefQuadratic(self.a + o.a, self.b + o.b, self._common_d(o))

    def __neg__(self):
        return RefQuadratic(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def __mul__(self, other):
        o = self.coerce(other)
        d = self._common_d(o)
        return RefQuadratic(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d)

    def inverse(self):
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        return RefQuadratic(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        return self * self.coerce(other).inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** -e
        result, base = RefQuadratic(1), self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def sign(self):
        return _ref_sign_pair(self.a, self.b, self.d)

    def cmp(self, other):
        o = self.coerce(other)
        if self.d == o.d or self.b == 0 or o.b == 0:
            return _ref_sign_pair(self.a - o.a, self.b - o.b, self._common_d(o))
        return _ref_sign_triple(self.a - o.a, self.b, self.d, -o.b, o.d)

    def floor(self):
        if self.b == 0:
            return self.a.numerator // self.a.denominator
        z = self.a.denominator * self.b.denominator
        x = self.a.numerator * self.b.denominator
        y = self.b.numerator * self.a.denominator
        t = isqrt(y * y * self.d)
        return (x + t) // z if y > 0 else (x - t - 1) // z

    def as_fraction_approx(self, digits):
        if self.b == 0:
            return self.a
        scale = 10**digits * ceil(abs(self.b))
        t = isqrt(self.d * scale * scale)
        return self.a + self.b * Fraction(t if self.b > 0 else t + 1, scale)

    def __repr__(self):
        if self.b == 0:
            return f"QuadraticNumber({self.a})"
        return f"QuadraticNumber({self.a} + {self.b}*sqrt({self.d}))"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {abs(self.b)}*sqrt({self.d})"


def _outcome(fn):
    """Result of fn() as comparable data, or the exception type it raised."""
    try:
        v = fn()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)
    if isinstance(v, (QuadraticNumber, RefQuadratic)):
        return (v.a, v.b, v.d, v.floor(), v.sign(), str(v))
    return v


BIG = 10**40
big_fractions = st.builds(
    Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)
) | st.fractions(min_value=-5, max_value=5, max_denominator=12)
# Squarefree and not, sharing fields (2, 8, 18) and not.
diff_radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 8, 12, 13, 18, 20, 45])


@st.composite
def quadratic_pairs(draw):
    """A QuadraticNumber and its reference twin, at times within 10**-30
    of an integer."""
    b, d = draw(big_fractions), draw(diff_radicands)
    if draw(st.booleans()):
        # a = k - (b*sqrt(d) to 31 places), so a + b*sqrt(d) is k +- 1e-31.
        k = draw(st.integers(-BIG, BIG))
        a = k - RefQuadratic(0, b, d).as_fraction_approx(31)
    else:
        a = draw(big_fractions)
    return QuadraticNumber(a, b, d), RefQuadratic(a, b, d)


plain_operands = st.integers(-BIG, BIG) | big_fractions


@given(x=quadratic_pairs(), y=quadratic_pairs(), r=plain_operands, e=st.integers(-5, 5))
@settings(max_examples=300, deadline=None)
def test_integer_triples_agree_with_fraction_reference(x, y, r, e):
    (q, ref), (q2, ref2) = x, y
    assert (q.a, q.b, q.d) == (ref.a, ref.b, ref.d)
    assert str(q) == str(ref) and repr(q) == repr(ref)
    assert q.floor() == ref.floor() and q.sign() == ref.sign()
    assert float(q) == _nearest_double(q)
    assert _outcome(q.inverse) == _outcome(ref.inverse)
    assert _outcome(lambda: q**e) == _outcome(lambda: ref**e)
    for op in (
        lambda u, v: u + v,
        lambda u, v: u - v,
        lambda u, v: u * v,
        lambda u, v: u / v,
    ):
        assert _outcome(lambda: op(q, q2)) == _outcome(lambda: op(ref, ref2))
        assert _outcome(lambda: op(q, r)) == _outcome(lambda: op(ref, r))
        # int and Fraction on the left go through the reflected methods.
        assert _outcome(lambda: op(r, q)) == _outcome(lambda: op(RefQuadratic(r), ref))
    # Ordering, also across radicands, against ints and Fractions.
    c = ref.cmp(ref2)
    assert ((q < q2), (q <= q2), (q == q2), (q != q2), (q >= q2), (q > q2)) == (
        c < 0, c <= 0, c == 0, c != 0, c >= 0, c > 0)
    c = ref.cmp(r)
    assert ((q < r), (q == r), (q > r), (r < q), (r == q)) == (c < 0, c == 0, c > 0, c > 0, c == 0)
    # Hashes agree with equality, and with Fraction's on rationals.
    if q == q2:
        assert hash(q) == hash(q2)
    if ref.b == 0:
        assert hash(q) == hash(ref.a)
    for same in ((q + r) - r, (q + q) / 2, -(-q), (q * 3) / 3):
        assert same == q and hash(same) == hash(q)


def _triple(q):
    return (q._x, q._y, q._z, q._d)


@given(a=st.fractions(-50, 50, max_denominator=40), b=st.fractions(-50, 50, max_denominator=40),
       d=st.sampled_from([1, 2, 3, 5, 8, 12]), e=st.integers(-8, 64))
@settings(max_examples=300, deadline=None)
def test_pow_is_the_repeated_product(a, b, d, e):
    # One normalisation at the end gives the triple that normalising after
    # every product gives, since the normal form is unique.
    q, ref = QuadraticNumber(a, b, d), RefQuadratic(a, b, d)
    if q == 0 and e < 0:
        with pytest.raises(ZeroDivisionError):
            q**e
        return
    step = q if e >= 0 else q.inverse()
    product = QuadraticNumber(1)
    for _ in range(abs(e)):
        product = product * step
    power, expected = q**e, ref**e
    assert _triple(power) == _triple(product)
    assert (power.a, power.b, power.d) == (expected.a, expected.b, expected.d)


def test_pow_edges():
    zero = QuadraticNumber(0)
    assert _triple(zero**0) == (1, 0, 1, 1)
    assert _triple(QuadraticNumber(0, 3, 12) ** 0) == (1, 0, 1, 1)
    with pytest.raises(ZeroDivisionError):
        zero**-1
    # Rational bases stay rational, with d = 1.
    assert _triple(QuadraticNumber(Fraction(-2, 3)) ** 5) == (-32, 0, 243, 1)
    assert _triple(QuadraticNumber.sqrt(8) ** 3) == (0, 16, 1, 2)


def test_truthiness_is_nonzero():
    root5 = QuadraticNumber.sqrt(5)
    assert not QuadraticNumber(0)
    assert not root5 - root5
    assert not QuadraticNumber(0, 0, 7)
    assert QuadraticNumber(0, 1, 5) and GOLDEN_CONJ and -root5
    assert QuadraticNumber(Fraction(1, 3)) and QuadraticNumber(1) - root5
    # `or` takes its default only for zero, as it does for Fraction.
    assert (root5 - root5 or QuadraticNumber(Fraction(1, 2))) == Fraction(1, 2)
    assert (GOLDEN_CONJ or QuadraticNumber(1)) is GOLDEN_CONJ


def test_zero_radicand_edges():
    with pytest.raises(ValueError):
        squarefree_decompose(0)
    assert QuadraticNumber.sqrt(0) == 0
