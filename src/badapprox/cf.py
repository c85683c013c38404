"""Continued fractions and their exact values.

A CFSpec describes a real number theta = [a0; a1, a2, ...] by its integer
part, a finite run of partial quotients, and an optional repeating block.
Empty period means theta is rational and the expansion is finite.

Every value that leaves this module is exact: a Fraction for a rational,
and a QuadraticNumber for an eventually periodic expansion, which is a
quadratic irrational (Lagrange). eval_theta builds that irrational over
the discriminant of its period as it stands, with no square factor taken
out: QuadraticNumber needs a radicand only to be 1 or not a square, and
treats two radicands whose product is a square as one field. Convergents
p_K/q_K still stand in for theta where points are sorted or a target is
bracketed; the one enclosure left is GapSet.radius, which bounds
|theta - p_K/q_K| for the surrogate a gap set is read under.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import DomainError, VerificationError
from .quadratic import QuadraticNumber, _quotient


@dataclass(frozen=True)
class CFSpec:
    """A real number given by its continued fraction expansion.

    a0 is the integer part; prefix holds the leading partial quotients
    a1..am; period is the repeating block that follows (empty for
    rationals). All quotients past a0 must be >= 1. Finite expansions are
    normalized on construction so they never end in 1, which makes
    structural equality meaningful.
    """

    a0: int = 0
    prefix: tuple[int, ...] = ()
    period: tuple[int, ...] = ()

    def __post_init__(self):
        # operator.index rejects floats instead of truncating them.
        prefix = tuple(operator.index(a) for a in self.prefix)
        period = tuple(operator.index(a) for a in self.period)
        a0 = operator.index(self.a0)
        for a in prefix + period:
            if a < 1:
                raise DomainError(f"partial quotient {a} is below 1")
        if not period and prefix and prefix[-1] == 1:
            # [...x, 1] == [...x+1]: fold the trailing 1 away.
            if len(prefix) >= 2:
                prefix = prefix[:-2] + (prefix[-2] + 1,)
            else:
                a0 += 1
                prefix = ()
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)

    # ---- basic shape --------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not self.period

    @property
    def is_integer(self) -> bool:
        return not self.period and not self.prefix

    def expansion_length(self) -> int | None:
        """Number of partial quotients past a0, or None if infinite."""
        return len(self.prefix) if self.is_rational else None

    def bound(self) -> int:
        """Largest partial quotient past a0. The number lies in the class
        of reals whose quotients never exceed this."""
        if not self.prefix and not self.period:
            raise DomainError("an integer has no partial quotients to bound")
        return max(self.prefix + self.period)

    def quotients(self) -> Iterator[int]:
        """Iterate a1, a2, ... (stops for rationals, cycles forever else)."""
        return itertools.chain(self.prefix, itertools.cycle(self.period))

    def quotient(self, k: int) -> int:
        """The partial quotient a_k for k >= 1."""
        if k < 1:
            raise DomainError("partial quotients are indexed from 1")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        if not self.period:
            raise DomainError(
                f"rational expansion has only {len(self.prefix)} quotients"
            )
        return self.period[(k - 1 - len(self.prefix)) % len(self.period)]

    def tail(self, k: int) -> "CFSpec":
        """The number [0; a_k, a_{k+1}, ...] for k >= 1."""
        if k < 1:
            raise DomainError("tails are indexed from 1")
        if k <= len(self.prefix):
            return CFSpec(0, self.prefix[k - 1 :], self.period)
        if not self.period:
            raise DomainError(
                f"rational expansion has only {len(self.prefix)} quotients"
            )
        off = (k - 1 - len(self.prefix)) % len(self.period)
        return CFSpec(0, (), self.period[off:] + self.period[:off])

    def value(self) -> Fraction:
        """Exact value; rational expansions only."""
        if not self.is_rational:
            raise DomainError("irrational expansion has no exact rational value")
        v = Fraction(0)
        for a in reversed(self.prefix):
            v = Fraction(1, a + v)
        return self.a0 + v

    # ---- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"a0": self.a0, "prefix": list(self.prefix), "period": list(self.period)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CFSpec":
        try:
            a0 = obj["a0"]
            # A misspelled key would otherwise drop its quotients unnoticed.
            unknown = obj.keys() - {"a0", "prefix", "period"}
            if unknown:
                raise DomainError(f"malformed expansion object: unknown key {', '.join(sorted(map(repr, unknown)))}"
                                  "; the keys are a0, prefix and period")
            prefix, period = tuple(obj.get("prefix", ())), tuple(obj.get("period", ()))
            # JSON true and false would pass operator.index as 1 and 0.
            if any(isinstance(a, bool) for a in (a0, *prefix, *period)):
                raise TypeError("a0 and the quotients must be integers, not booleans")
            return cls(a0, prefix, period)
        except DomainError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed expansion object: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "CFSpec":
        try:
            obj = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
            raise DomainError(f"invalid JSON for expansion: {exc}") from exc
        if not isinstance(obj, dict):
            raise DomainError("expansion JSON must be an object")
        return cls.from_json_dict(obj)


GOLDEN = CFSpec(0, (), (1,))
SQRT2_MINUS_1 = CFSpec(0, (), (2,))


def preset(name: str) -> CFSpec:
    """Named inputs used by the command line: golden, sqrt2, extremal:B."""
    if name == "golden":
        return GOLDEN
    if name == "sqrt2":
        return SQRT2_MINUS_1
    if name.startswith("extremal:"):
        try:
            b = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise DomainError(f"bad extremal preset {name!r}") from exc
        if b < 1:
            raise DomainError("extremal preset needs a bound >= 1")
        return CFSpec(0, (), (b, 1))
    raise DomainError(f"unknown preset {name!r}")


class Convergent(NamedTuple):
    k: int
    p: int
    q: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


def convergent_pairs(cf: CFSpec) -> Iterator[Convergent]:
    """Yield convergents p_k/q_k, k = 0, 1, 2, ... (finite for rationals)."""
    p_prev, q_prev = 1, 0
    p, q = cf.a0, 1
    yield Convergent(0, p, q)
    for k, a in enumerate(cf.quotients(), start=1):
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        yield Convergent(k, p, q)


def convergents(cf: CFSpec, count: int) -> list[Convergent]:
    """First `count` convergents. A rational expansion may run out early;
    the returned list is then shorter and its length says where."""
    if count < 1:
        raise DomainError("need at least one convergent")
    return list(itertools.islice(convergent_pairs(cf), count))


def choose_surrogate(
    cf: CFSpec, N: int, min_radius: Fraction | None = None
) -> tuple[Convergent, Convergent]:
    """Minimal-depth convergent pair safe for sorting N multiples.

    The returned (c_K, c_{K+1}) satisfies q_K * q_{K+1} > 16*(B+2)*N^2
    with B the quotient bound, which keeps the surrogate's shift of every
    point {n*theta}, n <= N, below one eighth of the smallest possible
    gap, so every pairwise comparison among the points survives the
    substitution. An optional min_radius forces the depth further.
    """
    N = operator.index(N)
    if cf.is_rational:
        raise DomainError("rational input needs no surrogate")
    least = 16 * (cf.bound() + 2) * N * N + 1
    if min_radius is not None:
        least = max(least, _least_product(min_radius))
    return _pair_past(cf, least)


def _least_product(radius) -> int:
    """Least q_K*q_{K+1} with 1/(q_K*q_{K+1}) <= radius; floats read exactly."""
    if not 0 < radius < float("inf"):
        raise DomainError(f"radius must be positive and finite, got {radius!r}")
    num, den = radius.as_integer_ratio()
    return -(-den // num)


def _pair_past(cf: CFSpec, least: int) -> tuple[Convergent, Convergent]:
    """First convergent pair (c_K, c_{K+1}) with q_K*q_{K+1} >= least.

    The recurrence runs on plain ints; only the pair returned becomes
    Convergents. A rational expansion that runs out first is a DomainError.
    """
    p_prev, q_prev, p, q = 1, 0, cf.a0, 1
    for k, a in enumerate(cf.quotients(), start=1):
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        if q_prev * q >= least:
            return Convergent(k - 1, p_prev, q_prev), Convergent(k, p, q)
    raise DomainError(f"rational expansion runs out before q_K*q_(K+1) >= {least}")


def min_affine_mod(n: int, m: int, a: int, b: int) -> tuple[int, int]:
    """Minimum of (a*x + b) mod m over 0 <= x < n and the smallest x
    attaining it, in O(log m) integer steps.

    With 2a <= m the values rise in runs starting at x = 0 and after
    each wrap y = 1..Y, on the values (b - y*m) mod a. With 2a > m they
    fall by c = m - a in runs ending at x = n - 1 and before each wrap,
    the complete runs j < J on the values (b + j*m) mod c. Either way the
    run ends are the same problem modulo a or c, at most m/2. Values carry
    over and x maps back up increasingly, so ties go to the shallowest
    run start, else to the deepest run end.
    """
    if n < 1 or m < 1:
        raise DomainError("need n >= 1 and m >= 1")
    a, b = a % m, b % m
    levels, start, end = [], None, None  # start, end: (value, level, x there)
    while True:
        levels.append((m, a, b))
        if 2 * a <= m:
            if start is None or b < start[0]:
                start = b, len(levels), 0
            deeper = (a * (n - 1) + b) // m
            if not deeper:
                break
            m, a, b = a, -m % a, (b - m) % a
        else:
            c = m - a
            v = (b - c * (n - 1)) % m
            if end is None or v <= end[0]:
                end = v, len(levels), n - 1
            deeper = (n * c - b + m - 1) // m
            if deeper <= 0:
                break
            m, a, b = c, m % c, b % c
        n = deeper
    best, depth, x = start if end is None or start and start[0] <= end[0] else end
    for m, a, b in reversed(levels[: depth - 1]):
        if 2 * a <= m:
            x = ((x + 1) * m - b + a - 1) // a
        else:
            x = (b + x * m) // (m - a)
    return best, x


def eval_theta(cf: CFSpec) -> Fraction | QuadraticNumber:
    """Exact value of the number: a Fraction for a finite expansion, else
    the quadratic irrational of its eventually periodic one.

    Write theta = [a0; prefix, Y] with Y = [period, Y] the purely periodic
    tail. With p/q and p_/q_ the last two convergents of the period read
    as [P1; P2, ..., PL], Y = (p*Y + p_)/(q*Y + q_), so Y is the root above
    1 of q*Y^2 + (q_ - p)*Y - p_ = 0, which is (p - q_ + sqrt(D))/(2q) with
    D = (p - q_)^2 + 4*q*p_. The other root is negative, since p_ >= 1.
    Then theta = (P*Y + P_)/(Q*Y + Q_) with P/Q and P_/Q_ the last two
    convergents of [a0; prefix]. D is never a square: the infinite
    expansion [P1; P2, ...] equals [P1; ..., PL, itself], so its value is
    the positive root, and the value of an infinite expansion is
    irrational. That is all the arithmetic needs, so theta is built over
    D itself, unreduced, and the denominator Q*Y + Q_ > 0 has a nonzero
    norm.
    """
    if cf.is_rational:
        return cf.value()
    p, p_, q, q_ = _last_two(cf.period[0], cf.period[1:])
    P, P_, Q, Q_ = _last_two(cf.a0, cf.prefix)
    D = (p - q_) ** 2 + 4 * q * p_
    u, w = p - q_, 2 * q  # Y = (u + sqrt(D))/w
    return _quotient((P * u + P_ * w, P, 1, D), (Q * u + Q_ * w, Q, 1, D))


def _last_two(c0: int, quotients) -> tuple[int, int, int, int]:
    """p_m, p_(m-1), q_m and q_(m-1) of [c0; c1, ..., cm], with p_(-1) = 1
    and q_(-1) = 0."""
    p, p_, q, q_ = c0, 1, 1, 0
    for a in quotients:
        p, p_, q, q_ = a * p + p_, p, a * q + q_, q
    return p, p_, q, q_


def dist_to_int(cf: CFSpec, n: int) -> Fraction | QuadraticNumber:
    """Exact distance from n*theta to the nearest integer."""
    x = operator.index(n) * eval_theta(cf)
    f = x - math.floor(x)
    return min(f, 1 - f)


def convergent_residual(cf: CFSpec, k: int) -> Fraction | QuadraticNumber:
    """Exact |q_k*theta - p_k|.

    For k >= 1 this equals the distance from q_k*theta to the nearest
    integer; at k = 0 it is the fractional part of theta, which the gap
    classification below needs even when that part exceeds one half.
    """
    if k < 0:
        raise DomainError("residuals are indexed from 0")
    conv = convergents(cf, k + 1)
    if len(conv) <= k:
        raise DomainError(f"expansion has no convergent of index {k}")
    c = conv[k]
    return abs(c.q * eval_theta(cf) - c.p)


def tail_and_reversal(cf: CFSpec, k: int) -> tuple[Fraction | QuadraticNumber, Fraction]:
    """The exact tail [0; a_k, a_{k+1}, ...] and the exact reversal.

    The reversal [0; a_k, ..., a_1] always equals q_{k-1}/q_k.
    """
    if k < 1:
        raise DomainError("tail and reversal are indexed from 1")
    tail_cf = cf.tail(k)  # raises DomainError when a rational runs out
    conv = convergents(cf, k + 1)
    return eval_theta(tail_cf), Fraction(conv[k - 1].q, conv[k].q)


def reversal_identity_check(cf: CFSpec, k: int) -> bool:
    """Confirm [0; a_k, ..., a_1] == q_{k-1}/q_k by direct evaluation."""
    if k < 1:
        raise DomainError("reversals are indexed from 1")
    quots = [cf.quotient(i) for i in range(1, k + 1)]
    rev = CFSpec(0, tuple(reversed(quots)), ())
    conv = convergents(cf, k + 1)
    return rev.value() == Fraction(conv[k - 1].q, conv[k].q)


def expand_quadratic(x: QuadraticNumber, count: int) -> list[int]:
    """First `count` terms a0, a1, ... of the expansion of an exact
    quadratic number, computed by floor-and-invert with no rounding."""
    terms = []
    cur = x
    for _ in range(count):
        a = cur.floor()
        terms.append(a)
        frac = cur - a
        if frac.sign() == 0:
            break
        cur = frac.inverse()
    return terms


def bounded_quotient_extrema(bound: int) -> tuple[QuadraticNumber, QuadraticNumber]:
    """Smallest and largest reals whose partial quotients all stay <= bound.

    The minimum is [0; bound, 1, bound, 1, ...] and the maximum is
    [bound; 1, bound, 1, ...]; both come back as exact quadratic numbers
    and both are re-verified here, first against their defining quadratic
    equations and then by expanding them term by term.
    """
    if bound < 1:
        raise DomainError("quotient bound must be >= 1")
    b = bound
    mn = eval_theta(CFSpec(0, (), (b, 1)))
    mx = eval_theta(CFSpec(b, (), (1, b)))
    # mn solves b*x^2 + b*x - 1 = 0, mx solves x^2 - b*x - b = 0.
    if b * mn * mn + b * mn - 1 != 0:
        raise VerificationError("minimum fails its defining quadratic")
    if mx * mx - b * mx - b != 0:
        raise VerificationError("maximum fails its defining quadratic")
    if not (0 < mn < 1 < mx):
        raise VerificationError("extrema landed outside their expected range")
    terms = 9
    want_mn = [0] + [b if i % 2 == 0 else 1 for i in range(terms - 1)]
    want_mx = [b] + [1 if i % 2 == 0 else b for i in range(terms - 1)]
    if expand_quadratic(mn, terms) != want_mn:
        raise VerificationError("minimum does not expand to [0; bound, 1, ...]")
    if expand_quadratic(mx, terms) != want_mx:
        raise VerificationError("maximum does not expand to [bound; 1, bound, ...]")
    return mn, mx
