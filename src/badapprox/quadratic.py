"""Exact arithmetic in real quadratic fields.

A QuadraticNumber is a + b*sqrt(d) with rational a, b and squarefree d.
All comparisons are decided exactly by sign analysis with integer
squaring, never through floating point, so chains of inequalities proved
with these numbers are genuine proofs. Values with different radicands can
still be compared (the three-term sign a + b*sqrt(d1) + c*sqrt(d2) is
decidable by squaring twice); they just cannot be mixed arithmetically.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import ceil, isqrt


def squarefree_decompose(m: int) -> tuple[int, int]:
    """Split a positive integer as m = s*s*d with d squarefree.

    Returns (s, d). Trial division; fine for the sizes this toolkit needs
    (radicands are O(bound^2)).
    """
    if m <= 0:
        raise ValueError("radicand must be positive")
    s, d = 1, 1
    rest = m
    p = 2
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
    d *= rest
    return s, d


def _sign_pair(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d), d squarefree and positive."""
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
    # Opposite signs: |a| vs |b|*sqrt(d) decided by squaring. Equality is
    # impossible (it would force sqrt(d) rational), but keep the case for
    # defensive clarity.
    lhs = a * a
    rhs = b * b * d
    if lhs == rhs:
        return 0
    bigger_rational = lhs > rhs
    if a > 0:
        return 1 if bigger_rational else -1
    return -1 if bigger_rational else 1


def _sign_triple(a: Fraction, b: Fraction, d1: int, c: Fraction, d2: int) -> int:
    """Exact sign of a + b*sqrt(d1) + c*sqrt(d2) with d1 != d2 squarefree."""
    if c == 0:
        return _sign_pair(a, b, d1)
    if b == 0:
        return _sign_pair(a, c, d2)
    s1 = _sign_pair(a, b, d1)
    s2 = 1 if c > 0 else -1
    if s1 == 0:
        return s2
    if s1 == s2:
        return s1
    # Opposite camps: compare (a + b*sqrt(d1))^2 against c^2*d2. The square
    # lives back in Q(sqrt(d1)), so one more pair-sign settles it. Equality
    # would make 1, sqrt(d1), sqrt(d2) rationally dependent: impossible.
    inner = _sign_pair(a * a + b * b * d1 - c * c * d2, 2 * a * b, d1)
    if inner == 0:
        return 0
    return s1 if inner > 0 else s2


@total_ordering
class QuadraticNumber:
    """Immutable exact element a + b*sqrt(d) of Q(sqrt(d))."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d: int = 1):
        a = Fraction(a)
        b = Fraction(b)
        d = int(d)
        if d < 1:
            raise ValueError("radicand must be a positive integer")
        if b != 0 and d != 1:
            s, d0 = squarefree_decompose(d)
            b *= s
            d = d0
        if d == 1:
            a += b
            b = Fraction(0)
        if b == 0:
            d = 1
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticNumber is immutable")

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
        pq = m.numerator * m.denominator
        s, d = squarefree_decompose(pq)
        return cls(0, Fraction(s, m.denominator), d)

    # ---- predicates ---------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def as_fraction_approx(self, digits: int = 30) -> Fraction:
        """Rational approximation with absolute error below 10**-digits."""
        if self.b == 0:
            return self.a
        # The error is |b| * (sqrt(d) - t/scale) < |b|/scale <= 10**-digits.
        scale = 10**digits * ceil(abs(self.b))
        # t <= sqrt(d)*scale < t+1
        t = isqrt(self.d * scale * scale)
        lo = self.a + self.b * Fraction(t if self.b > 0 else t + 1, scale)
        return lo

    def __float__(self) -> float:
        return float(self.as_fraction_approx(25))

    # ---- arithmetic ---------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, QuadraticNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticNumber(other)
        return None

    def _common_d(self, other: "QuadraticNumber") -> int:
        if self.d == other.d:
            return self.d
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        raise ValueError(
            f"cannot mix radicands sqrt({self.d}) and sqrt({other.d}) arithmetically"
        )

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        d = self._common_d(o)
        return QuadraticNumber(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        d = self._common_d(o)
        return QuadraticNumber(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticNumber":
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        return QuadraticNumber(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = QuadraticNumber(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "QuadraticNumber":
        return QuadraticNumber(self.a, -self.b, self.d)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # ---- order --------------------------------------------------------

    def sign(self) -> int:
        return _sign_pair(self.a, self.b, self.d)

    def _cmp(self, other) -> int:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if self.d == o.d or self.b == 0 or o.b == 0:
            d = self._common_d(o)
            return _sign_pair(self.a - o.a, self.b - o.b, d)
        return _sign_triple(self.a - o.a, self.b, self.d, -o.b, o.d)

    def __eq__(self, other):
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
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __floor__(self) -> int:
        return self.floor()

    def floor(self) -> int:
        """Exact floor via integer square roots, no floating point."""
        if self.b == 0:
            return self.a.numerator // self.a.denominator
        # Write the value as (x + y*sqrt(d)) / z with integers x, y, z > 0.
        z = self.a.denominator * self.b.denominator
        x = self.a.numerator * self.b.denominator
        y = self.b.numerator * self.a.denominator
        if y > 0:
            # y*sqrt(d) lies strictly between t and t+1
            t = isqrt(y * y * self.d)
            return (x + t) // z
        t = isqrt(y * y * self.d)
        return (x - t - 1) // z

    # ---- rendering ----------------------------------------------------

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
