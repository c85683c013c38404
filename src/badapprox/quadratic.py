"""Exact arithmetic in real quadratic fields.

A QuadraticNumber is (x + y*sqrt(d)) / z with integers x, y, z, z > 0 and
gcd(x, y, z) = 1, the usual integral form of an element of Q(sqrt(d)).
Every operation works on these integers and normalises its result with
one gcd; `a` = x/z and `b` = y/z are read as Fractions on demand.

Radicands are reduced by `squarefree_decompose` only where they enter
through the public constructor and `QuadraticNumber.sqrt`. Trial division
stops at a fixed limit, so d is squarefree as far as that limit and a
final square test can tell. `cf.eval_theta` skips the reduction and
builds theta over its discriminant as it stands. Either way d is 1 or
not a perfect square, which is all the arithmetic needs. Two radicands
whose product is a square name the same field; arithmetic, comparison and
hashing treat them as one.

All comparisons are decided exactly by sign analysis with integer
squaring, never through floating point, so chains of inequalities proved
with these numbers are genuine proofs. Values from different fields can
still be compared (the three-term sign x + y*sqrt(d1) + w*sqrt(d2) is
decidable by squaring twice); they just cannot be mixed arithmetically.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt, lcm

# Largest trial divisor in squarefree_decompose; a cofactor left over is
# folded only when it is a perfect square.
TRIAL_LIMIT = 1 << 16


def squarefree_decompose(m: int) -> tuple[int, int]:
    """Split a positive integer as m = s*s*d.

    Returns (s, d). Trial division by primes up to TRIAL_LIMIT, then the
    cofactor is folded into s if it is a perfect square. d is therefore
    squarefree whenever m has no repeated prime factor above the limit,
    and it is never a perfect square other than 1.
    """
    if m <= 0:
        raise ValueError("radicand must be positive")
    s, d = 1, 1
    rest = m
    p = 2
    while p <= TRIAL_LIMIT and p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    r = isqrt(rest)
    if r * r == rest:
        s *= r
    else:
        d *= rest
    return s, d


def _sign(x: int, y: int, d: int, w: int = 0, e: int = 1) -> int:
    """Exact sign of x + y*sqrt(d) + w*sqrt(e) for integers.

    d is not a perfect square when y != 0, e is not one when w != 0, and
    when both are nonzero neither is d*e (such radicands share a field
    and are merged first).
    """
    if w:
        s1 = _sign(x, y, d)
        s2 = 1 if w > 0 else -1
        if s1 == 0:
            return s2
        if s1 == s2:
            return s1
        # Opposite camps: compare (x + y*sqrt(d))^2 with w^2*e. The square
        # lives back in Q(sqrt(d)), so one more pair-sign settles it.
        inner = _sign(x * x + y * y * d - w * w * e, 2 * x * y, d)
        if inner == 0:
            return 0
        return s1 if inner > 0 else s2
    if y == 0:
        return (x > 0) - (x < 0)
    if x == 0:
        return 1 if y > 0 else -1
    if (x > 0) == (y > 0):
        return 1 if x > 0 else -1
    # Opposite signs: |x| against |y|*sqrt(d), decided by squaring; the
    # two are never equal because sqrt(d) is irrational.
    c = x * x - y * y * d
    return (1 if x > 0 else -1) * ((c > 0) - (c < 0))


@total_ordering
class QuadraticNumber:
    """Immutable exact element (x + y*sqrt(d))/z of Q(sqrt(d))."""

    # Read-only properties over private slots, the idiom of Fraction.
    __slots__ = ("_x", "_y", "_z", "_d")

    def __new__(cls, a=0, b=0, d: int = 1):
        """a + b*sqrt(d) for rationals a, b and a positive integer d,
        which is reduced here."""
        a = Fraction(a)
        b = Fraction(b)
        d = int(d)
        if d < 1:
            raise ValueError("radicand must be a positive integer")
        if b != 0 and d != 1:
            s, d = squarefree_decompose(d)
            b *= s
        z = lcm(a.denominator, b.denominator)
        return _make(a.numerator * (z // a.denominator), b.numerator * (z // b.denominator), z, d)

    # ---- constructors -------------------------------------------------

    @classmethod
    def sqrt(cls, m) -> "QuadraticNumber":
        """Exact square root of a nonnegative integer or Fraction."""
        m = Fraction(m)
        if m < 0:
            raise ValueError("sqrt of negative value")
        if m == 0:
            return cls(0)
        # sqrt(p/q) = sqrt(p*q)/q
        s, d = squarefree_decompose(m.numerator * m.denominator)
        return _make(0, s, m.denominator, d)

    # ---- coefficients and predicates ----------------------------------

    @property
    def a(self) -> Fraction:
        """Rational part x/z."""
        return Fraction(self._x, self._z)

    @property
    def b(self) -> Fraction:
        """Coefficient y/z of sqrt(d)."""
        return Fraction(self._y, self._z)

    @property
    def d(self) -> int:
        """Radicand: 1 for a rational value, else not a perfect square."""
        return self._d

    @property
    def is_rational(self) -> bool:
        return self._y == 0

    def as_fraction(self) -> Fraction:
        if self._y:
            raise ValueError(f"{self} is irrational")
        return Fraction(self._x, self._z)

    def as_fraction_approx(self, digits: int = 30) -> Fraction:
        """Rational approximation with absolute error below 10**-digits."""
        x, y, z = self._x, self._y, self._z
        if y == 0:
            return Fraction(x, z)
        # The error is |y/z| * (sqrt(d) - t/scale) < |y/z|/scale <= 10**-digits.
        scale = 10**digits * -(-abs(y) // z)
        # t <= sqrt(d)*scale < t+1
        t = isqrt(self._d * scale * scale)
        return Fraction(x * scale + y * (t if y > 0 else t + 1), z * scale)

    def __float__(self) -> float:
        return float(self.as_fraction_approx(25))

    # ---- arithmetic ---------------------------------------------------

    def _quads(self, other):
        """self and other as integer quadruples (x, y, z, d), over one
        radicand when they share a field; None for a type not accepted."""
        p = (self._x, self._y, self._z, self._d)
        if isinstance(other, QuadraticNumber):
            q = (other._x, other._y, other._z, other._d)
            if p[3] != q[3] and p[1] and q[1]:
                return _one_field(p, q) or (p, q)
            return p, q
        if isinstance(other, int):
            return p, (other, 0, 1, 1)
        if isinstance(other, Fraction):
            return p, (other.numerator, 0, other.denominator, 1)
        return None

    def __add__(self, other):
        pq = self._quads(other)
        return NotImplemented if pq is None else _sum(*pq, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._x, -self._y, self._z, self._d)

    def __sub__(self, other):
        pq = self._quads(other)
        return NotImplemented if pq is None else _sum(*pq, -1)

    def __rsub__(self, other):
        pq = self._quads(other)
        return NotImplemented if pq is None else _sum(pq[1], pq[0], -1)

    def __mul__(self, other):
        pq = self._quads(other)
        return NotImplemented if pq is None else _product(*pq)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticNumber":
        return _quotient((1, 0, 1, 1), (self._x, self._y, self._z, self._d))

    def __truediv__(self, other):
        pq = self._quads(other)
        return NotImplemented if pq is None else _quotient(*pq)

    def __rtruediv__(self, other):
        pq = self._quads(other)
        return NotImplemented if pq is None else _quotient(pq[1], pq[0])

    def __pow__(self, exponent: int):
        """self**exponent, by binary powering on the integer pair (x, y)
        with z**exponent underneath, normalised once at the end.

        The pair product is (x + y*sqrt(d))(u + v*sqrt(d)) = (xu + yvd) +
        (xv + yu)*sqrt(d), so the unreduced triple holds the exact power.
        The normal form (gcd(x, y, z) = 1, z > 0) of a value is unique, so
        one _make gives the same triple as normalising after every product.
        Negative exponents invert first.
        """
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        x, y, d = self._x, self._y, self._d
        rx, ry, e = 1, 0, exponent
        while e:
            if e & 1:
                rx, ry = rx * x + ry * y * d, rx * y + ry * x
            e >>= 1
            if e:
                x, y = x * x + y * y * d, 2 * x * y
        return _make(rx, ry, self._z**exponent, d)

    def conjugate(self) -> "QuadraticNumber":
        return _make(self._x, -self._y, self._z, self._d)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # ---- order --------------------------------------------------------

    def sign(self) -> int:
        return _sign(self._x, self._y, self._d)

    def __bool__(self) -> bool:
        """False exactly for zero, as for int and Fraction; in normal form
        zero is the one value with x = y = 0."""
        return bool(self._x or self._y)

    def _cmp(self, other) -> int:
        """Sign of self - other, or NotImplemented."""
        pq = self._quads(other)
        if pq is None:
            return NotImplemented
        (x1, y1, z1, d1), (x2, y2, z2, d2) = pq
        if y1 and y2 and d1 != d2:
            return _sign(x1 * z2 - x2 * z1, y1 * z2, d1, -y2 * z1, d2)
        return _sign(x1 * z2 - x2 * z1, y1 * z2 - y2 * z1, d1 if y1 else d2)

    def __eq__(self, other):
        if isinstance(other, QuadraticNumber) and self._d == other._d:
            return self._x == other._x and self._y == other._y and self._z == other._z
        c = self._cmp(other)
        if c is NotImplemented:
            return NotImplemented
        return c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        if c is NotImplemented:
            return NotImplemented
        return c < 0

    def __hash__(self):
        x, y, z = self._x, self._y, self._z
        if y == 0:
            return hash(x) if z == 1 else hash(Fraction(x, z))
        # x/z, y^2*d/z^2 and the sign of y do not depend on which radicand
        # of the field represents the value, so equal values hash equal.
        g = gcd(x, z)
        n, m = y * y * self._d, z * z
        h = gcd(n, m)
        return hash((x // g, z // g, n // h, m // h, y > 0))

    def __floor__(self) -> int:
        return self.floor()

    def floor(self) -> int:
        """Exact floor via integer square roots, no floating point."""
        return _floor(self._x, self._y, self._z, self._d)

    # ---- rendering ----------------------------------------------------

    def __repr__(self):
        if self._y == 0:
            return f"QuadraticNumber({self.a})"
        return f"QuadraticNumber({self.a} + {self.b}*sqrt({self._d}))"

    def __str__(self):
        if self._y == 0:
            return str(self.a)
        b = self.b
        if self._x == 0:
            return f"{b}*sqrt({self._d})"
        op = "+" if b > 0 else "-"
        return f"{self.a} {op} {abs(b)}*sqrt({self._d})"


def _make(x: int, y: int, z: int, d: int) -> QuadraticNumber:
    """(x + y*sqrt(d))/z in normal form; d is 1 or not a perfect square."""
    if y == 0 or d == 1:
        x += y
        y = 0
        d = 1
    if z < 0:
        x, y, z = -x, -y, -z
    g = gcd(x, y, z)
    if g != 1:
        x //= g
        y //= g
        z //= g
    q = object.__new__(QuadraticNumber)
    q._x = x
    q._y = y
    q._z = z
    q._d = d
    return q


def _floor(x: int, y: int, z: int, d: int) -> int:
    """floor((x + y*sqrt(d))/z) for integers, z > 0 and d not a perfect
    square when y != 0."""
    if y == 0:
        return x // z
    t = isqrt(y * y * d)
    if y > 0:
        # y*sqrt(d) lies strictly between t and t+1
        return (x + t) // z
    return (x - t - 1) // z


def _one_field(p, q):
    """Two irrational quadruples over radicands d1 != d2 rewritten onto one
    radicand, or None unless d1*d2 is a square (the same field).

    sqrt(D) = (m/e)*sqrt(e) with m = isqrt(D*e), so the operand over the
    larger radicand D is rewritten over the smaller e.
    """
    D, e = max(p[3], q[3]), min(p[3], q[3])
    m = isqrt(D * e)
    if m * m != D * e:
        return None
    if p[3] == D:
        return (p[0] * e, p[1] * m, p[2] * e, e), q
    return p, (q[0] * e, q[1] * m, q[2] * e, e)


def _common_d(p, q) -> int:
    """The radicand of a sum, product or quotient of two quadruples."""
    if not p[1]:
        return q[3]
    if q[1] and q[3] != p[3]:
        raise ValueError(f"cannot mix radicands sqrt({p[3]}) and sqrt({q[3]}) arithmetically")
    return p[3]


def _sum(p, q, s: int) -> QuadraticNumber:
    """p + s*q for integer quadruples and s = 1 or -1."""
    (x1, y1, z1, _), (x2, y2, z2, _) = p, q
    d = _common_d(p, q)
    if z1 == z2:
        return _make(x1 + s * x2, y1 + s * y2, z1, d)
    return _make(x1 * z2 + s * x2 * z1, y1 * z2 + s * y2 * z1, z1 * z2, d)


def _product(p, q) -> QuadraticNumber:
    (x1, y1, z1, _), (x2, y2, z2, _) = p, q
    d = _common_d(p, q)
    return _make(x1 * x2 + y1 * y2 * d, x1 * y2 + y1 * x2, z1 * z2, d)


def _quotient(p, q) -> QuadraticNumber:
    """p/q for integer quadruples."""
    (x1, y1, z1, _), (x2, y2, z2, _) = p, q
    d = _common_d(p, q)
    # (x1 + y1 r)/z1 * z2 (x2 - y2 r)/(x2^2 - y2^2 d) with r = sqrt(d); the
    # norm is zero only for a zero divisor, since d is 1 or not a square.
    norm = x2 * x2 - y2 * y2 * d
    if norm == 0:
        raise ZeroDivisionError("division by zero quadratic number")
    if y2 == 0:
        return _make(x1 * z2, y1 * z2, z1 * x2, d)
    return _make(
        (x1 * x2 - y1 * y2 * d) * z2, (y1 * x2 - x1 * y2) * z2, z1 * norm, d
    )
