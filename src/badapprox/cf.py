"""Continued fractions and their exact values.

A CFSpec describes a real number theta = [a0; a1, a2, ...] by its integer
part, a finite run of partial quotients, and an optional repeating block.
Empty period means theta is rational and the expansion is finite.

Every convergent p_k/q_k the package reads comes off one Walk: two int
lists grown on demand by the recurrence p_k = a_k*p_(k-1) + p_(k-2) (the
oracle keeps its own, as an independent check). Each public call builds
at most one walk and shares it among its readers; the surrogate policy
(_least), the first pair past 16*(B+2)*N^2, is one first_past query on it.

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
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import DomainError
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


# Steps a walk takes between two looks at its window.
_RUN = 256


class Walk:
    """Convergents p_k/q_k, k = 0, 1, ..., of cf as two lists of ints, ps
    and qs, grown on demand (a rational expansion stops at its last).

    One walk serves every reading of one call: a convergent by index, the
    first pair whose product reaches a bound, and the lists themselves for
    scans. A walk is never kept past the call that built it, so no preset
    holds the convergents of the deepest N ever asked for. A caller that
    from some point on reads only the newest few entries sets window to
    their number: the walk grows in runs of _RUN steps, and after each
    whole run sets every entry further behind to None (below _cut all
    are), so a deep N holds a few hundred ints, not every convergent.
    """

    __slots__ = ("cf", "ps", "qs", "window", "_cut", "_quotients")

    def __init__(self, cf: CFSpec):
        self.cf, self.ps, self.qs, self.window, self._cut = cf, [cf.a0], [1], None, 0
        self._quotients = cf.quotients()

    def grow(self, k: int, least: int = 0) -> None:
        """Grow the lists through index k and until their last two q's
        multiply to least or more, or until a rational expansion runs out."""
        ps, qs, window = self.ps, self.qs, self.window
        p, q = ps[-1], qs[-1]
        p_, q_ = (ps[-2], qs[-2]) if len(qs) > 1 else (1, 0)
        while len(qs) <= k or q_ * q < least:
            # Runs of _RUN steps, each one loop of two-name swaps; the test
            # comes after each step, so no quotient is drawn that the walk
            # does not use.
            run = len(qs)
            for a in itertools.islice(self._quotients, _RUN):
                p, p_ = a * p + p_, p
                q, q_ = a * q + q_, q
                ps.append(p)
                qs.append(q)
                if q_ * q >= least and len(qs) > k:
                    return
            if len(qs) - run < _RUN:
                return
            # After a whole run, a walk with a window sets all but its
            # newest window entries to None.
            if window:
                cut, end = self._cut, len(qs) - window
                ps[cut:end] = qs[cut:end] = [None] * (end - cut)
                self._cut = end

    def convergent(self, k: int) -> Convergent:
        """c_k; a rational expansion without one is a DomainError."""
        self.grow(k)
        if not 0 <= k < len(self.qs):
            raise DomainError(f"expansion has no convergent of index {k}")
        return Convergent(k, self.ps[k], self.qs[k])

    def first_past(self, least: int) -> int:
        """The first K with q_K*q_(K+1) >= least; a rational expansion
        that runs out first is a DomainError."""
        self.grow(1, least)
        qs = self.qs
        K = len(qs) - 2
        if K < 0 or qs[K] * qs[K + 1] < least:
            raise DomainError(f"rational expansion runs out before q_K*q_(K+1) >= {least}")
        # The products rise with K, and growth stops at the first to reach
        # least, so only a walk grown deeper before has any to step back over.
        while K and qs[K - 1] * qs[K] >= least:
            K -= 1
        return K


def _least(bound: int, N: int, min_radius=None) -> int:
    """Least q_K*q_(K+1) a surrogate for N multiples needs under quotient
    bound B: past 16*(B+2)*N^2, and 1/(q_K*q_(K+1)) <= min_radius when one
    is given; floats read exactly.

    The first convergent p_K/q_K past it moves every point {n*theta},
    n <= N, by less than an eighth of the smallest possible gap, so every
    comparison among the points survives the substitution. gap_set, solve
    and the extremal witness read their surrogate this way, as one
    first_past query on their own walk.
    """
    least = 16 * (bound + 2) * N * N + 1
    if min_radius is not None:
        if not 0 < min_radius < float("inf"):
            raise DomainError(f"radius must be positive and finite, got {min_radius!r}")
        num, den = min_radius.as_integer_ratio()
        least = max(least, -(-den // num))
    return least


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
    return _exact(Walk(cf))


def _exact(walk: Walk) -> Fraction | QuadraticNumber:
    """eval_theta of walk's number, read off walk.

    With m quotients in the prefix and L in the period, P/Q and P_/Q_ are
    theta's convergents m and m - 1 (p_(-1) = 1, q_(-1) = 0). The matrix
    [[p_j, p_(j-1)], [q_j, q_(j-1)]] of convergent j is the product of
    [[a_i, 1], [1, 0]] over i <= j, so the period's [[p, p_], [q, q_]] is
    the inverse of convergent m's matrix, s*[[Q_, -P_], [-Q, P]] with
    determinant s = (-1)^(m+1), times the matrix of convergent m + L.
    """
    cf = walk.cf
    if cf.is_rational:
        return cf.value()
    m = len(cf.prefix)
    top = m + len(cf.period)
    walk.grow(top)
    ps, qs = walk.ps, walk.qs
    P, Q = ps[m], qs[m]
    P_, Q_ = (ps[m - 1], qs[m - 1]) if m else (1, 0)
    R, R_, S, S_ = ps[top], ps[top - 1], qs[top], qs[top - 1]
    s = 1 if m % 2 else -1
    p, p_ = s * (Q_ * R - P_ * S), s * (Q_ * R_ - P_ * S_)
    q, q_ = s * (P * S - Q * R), s * (P * S_ - Q * R_)
    D = (p - q_) ** 2 + 4 * q * p_
    u, w = p - q_, 2 * q  # Y = (u + sqrt(D))/w
    return _quotient((P * u + P_ * w, P, 1, D), (Q * u + Q_ * w, Q, 1, D))
