"""Reference mathematics the benchmark checks CLI output against.

Written from the definitions, without importing the package under test:
convergents by the integer recurrence, gap lengths from the
three-distance theorem, bits from standard words, diversity maxima from
sorted columns, and the sharp constant and golden-ratio closed forms in
high-precision decimals.
"""

from __future__ import annotations

import itertools
import json
from decimal import Decimal, localcontext
from fractions import Fraction

DIGITS = 80

# Criterion-1 table: f(B) for B = 1..10 to ten significant digits.
CONSTANT_TABLE = (
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
)

# First mismatch of the golden crossing witness at stages 2 and 3.
WITNESS_FIRST_MISMATCH = {2: 28, 3: 219}


class Theta:
    """0 < theta < 1 given by partial quotients: prefix, then period repeated."""

    def __init__(self, prefix: tuple[int, ...], period: tuple[int, ...]):
        self.prefix = prefix
        self.period = period

    @classmethod
    def parse(cls, text: str) -> "Theta":
        if text == "golden":
            return cls((), (1,))
        if text == "sqrt2":
            return cls((), (2,))
        if text.startswith("extremal:"):
            return cls((), (int(text.split(":", 1)[1]), 1))
        obj = json.loads(text)
        return cls(tuple(obj.get("prefix", ())), tuple(obj["period"]))

    @property
    def bound(self) -> int:
        return max(self.prefix + self.period)

    def quotients(self):
        return itertools.chain(self.prefix, itertools.cycle(self.period))

    def convergents(self):
        """Yield (p_k, q_k) for k = 0, 1, 2, ..."""
        p_prev, q_prev, p, q = 1, 0, 0, 1
        yield p, q
        for a in self.quotients():
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
            yield p, q

    def surrogate(self, resolution: int) -> tuple[int, int]:
        """Convergent (P, Q) with |theta - P/Q| < 1/resolution."""
        pairs = self.convergents()
        prev = next(pairs)
        for cur in pairs:
            if prev[1] * cur[1] > resolution:
                return prev
            prev = cur
        raise AssertionError("periodic expansions never end")

    def value(self, resolution: int) -> Fraction:
        return Fraction(*self.surrogate(resolution))


def three_distance(theta: Theta, N: int, resolution: int) -> list[tuple[Fraction, int]]:
    """Gap lengths and multiplicities of 0, {theta}, ..., {N theta} on the circle.

    With n = N + 1 points, k is chosen with q_k + q_{k-1} <= n < q_{k+1} + q_k
    (q_{-1} = 0), n = m q_k + q_{k-1} + r with 0 <= r < q_k, and the gaps are
    eta_k (n - q_k times), eta_{k-1} - m eta_k (r times) and
    eta_{k-1} - (m-1) eta_k (q_k - r times), eta_j = |q_j theta - p_j|.
    Lengths carry an error below q_{k+1}/resolution.
    """
    x = theta.value(resolution)
    n = N + 1
    conv = [(1, 0)]
    for pq in theta.convergents():
        conv.append(pq)
        if len(conv) >= 3 and conv[-1][1] + conv[-2][1] > n:
            break
    # conv[j + 1] holds (p_j, q_j); the last two entries bracket n.
    (p_km1, q_km1), (p_k, q_k) = conv[-3], conv[-2]
    eta_k = abs(q_k * x - p_k)
    eta_km1 = abs(q_km1 * x - p_km1)
    m, r = divmod(n - q_km1, q_k)
    gaps = [
        (eta_k, n - q_k),
        (eta_km1 - m * eta_k, r),
        (eta_km1 - (m - 1) * eta_k, q_k - r),
    ]
    return sorted((g, c) for g, c in gaps if c)


def regime(theta: Theta, N: int) -> tuple[int, int, list[int]]:
    """(k, l, q_0..q_{k+1}) with k the last index with q_k <= N, l = (N - q_{k-1}) // q_k."""
    qs = []
    for _, q in theta.convergents():
        qs.append(q)
        if len(qs) >= 2 and q > N:
            break
    k = max(i for i, q in enumerate(qs) if q <= N)
    return k, (N - qs[k - 1]) // qs[k], qs


def eta(theta: Theta, j: int, resolution: int) -> Fraction:
    p, q = next(itertools.islice(theta.convergents(), j, None))
    return abs(q * theta.value(resolution) - p)


def sorted_points(theta: Theta, N: int, resolution: int) -> list[Fraction]:
    """0, the sorted {j theta} for 1 <= j <= N, and 1."""
    P, Q = theta.surrogate(resolution)
    return [Fraction(0)] + [Fraction(v, Q) for v in sorted(j * P % Q for j in range(1, N + 1))] + [Fraction(1)]


def best_approximation(theta: Theta, beta: Fraction, N: int, resolution: int) -> tuple[int, int, Fraction]:
    """(n, p, error) minimizing |n theta - p - beta| over 0 <= n <= N, smallest n first."""
    import numpy as np  # here, so that building inputs leaves numpy unimported

    P, Q = theta.surrogate(resolution)
    u, v = beta.numerator, beta.denominator
    scale = Q * v
    # Offset of n*theta - beta from the integers, in units of 1/(Q v).
    off = (np.arange(N + 1, dtype=object) * (P * v) - u * Q) % scale
    dist = np.minimum(off, scale - off)
    n = int(np.argmin(dist))
    p = (n * P * v - u * Q + scale // 2) // scale
    return n, p, abs(n * Fraction(P, Q) - p - beta)


def extremal_count(b: int, stage: int) -> int:
    """Point count N of the extremal witness [0; b, 1, b, 1, ...] at a stage."""
    qs = [q for _, q in itertools.islice(Theta((), (b, 1)).convergents(), 2 * stage + 1)]
    return qs[2 * stage - 1] + ((b + 2) // 2) * qs[2 * stage] - 2


def gap_constant(b: int) -> Fraction:
    """f(B), the supremum of N * H over quotients <= B, to DIGITS digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        if b % 2 == 0:
            a = b // 2
            f = 1 + Decimal((a + 1) ** 2) / (2 * Decimal(a * a + 2 * a).sqrt())
        else:
            a = (b - 1) // 2
            f = 1 + Decimal(a * a + 3 * a + 2) / Decimal(4 * a * a + 12 * a + 5).sqrt()
        return Fraction(f)


def sqrt5() -> Fraction:
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return Fraction(Decimal(5).sqrt())


def golden_theta() -> Fraction:
    return (sqrt5() - 1) / 2


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n: int) -> int:
    return fibonacci(n - 1) + fibonacci(n + 1) if n else 2


def standard_word(theta: Theta, length: int) -> bytes:
    """First `length` bits floor((i+2) theta) - floor((i+1) theta), i >= 0.

    The characteristic word is the limit of s_{-1} = 1, s_0 = 0,
    s_j = s_{j-1}^{d_j} s_{j-2} with d_1 = a_1 - 1 and d_j = a_j after.
    """
    quotients = theta.quotients()
    prev, cur = b"\x00", b"\x00" * (next(quotients) - 1) + b"\x01"
    for a in quotients:
        if len(cur) >= length + 1:
            break
        prev, cur = cur, cur * a + prev
    return cur[:length]


def max_first_mismatch(bits: bytes, r: int, window: int) -> int | None:
    """Largest first-mismatch index over offset pairs a < b < r within a window.

    The columns bits[a::r][:window] are sorted; the largest common prefix
    over all pairs is the largest between sorted neighbours. None means two
    columns agree over the whole window.
    """
    import numpy as np

    cols = sorted(bits[a::r][:window] for a in range(r))
    worst = -1
    for u, w in zip(cols, cols[1:]):
        diff = np.frombuffer(u, np.uint8) != np.frombuffer(w, np.uint8)
        if not diff.any():
            return None
        worst = max(worst, int(diff.argmax()))
    return worst


def ulp(x: Fraction, sig: int) -> Fraction:
    """One unit in the last of `sig` significant digits of x != 0."""
    x = abs(x)
    e = len(str(x.numerator)) - len(str(x.denominator))
    while x >= Fraction(10) ** (e + 1):
        e += 1
    while x < Fraction(10) ** e:
        e -= 1
    return Fraction(10) ** (e - sig + 1)


def close(shown, true: Fraction, sig: int, slack: Fraction = Fraction(0)) -> bool:
    """Whether a displayed decimal is the true value rounded to `sig` digits.

    Rounding moves a value by at most half a last digit. The package
    computes at a depth that keeps its own error below a hundredth of a
    last digit, except for differences of nearly equal values, whose
    absolute error the caller passes as `slack`.
    """
    got = Fraction(shown) if isinstance(shown, str) else Fraction(repr(shown))
    if true == 0:
        return abs(got) <= slack
    tol = ulp(true, sig) * Fraction(51, 100) + slack
    if isinstance(shown, float):
        tol += abs(true) / 2**50  # JSON numbers pass through a double
    return abs(got - true) <= tol
