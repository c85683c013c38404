"""Brute-force oracles for cross-checking the exact paths.

The oracles share no code with what they check, only the fields of
CFSpec. theta comes from the expansion itself (high_precision_value): a
finite one is P/Q, and an infinite one is the fixed point of its
period's matrix, one square root put through the prefix's matrix, in
correctly rounded integer arithmetic (below), within one unit in the
last place. The exact side reads the same expansion through
CFSpec.quotients, convergent walks and quadratic arithmetic, so a fault
there (a period read from the wrong place, say) shows as a disagreement.
Everything after that is independent of the exact machinery too: gap
sets come from sorting rounded multiples of theta (not the
three-distance theorem), best approximations from a full scan over n
(not min_affine_mod), bit sequences from floors of theta's dyadic value
(not standard words), and agreement indices from a naive loop (not the
XOR of big-endian integers).

The arithmetic is the oracle's own, on dyadic pairs (man, exp) that
stand for man * 2**exp. One core (_shift_even) rounds half to even; on
it sit exact add and multiply, division by divmod and square root by
isqrt, each rounded once, the last two with a sticky bit. Each gives the
pair that mpmath's libmp gives at round_nearest, bit for bit, and tests
pin every operation, theta, beta and the Kronecker error against libmp.
(libmp's mpf_add rounds far-apart operands by a shortcut that is not
exact rounding; every sum here adds terms of like size, which never take
it, and a test checks that on its corpus.) The working precision is
_PREC = dps_to_prec(ORACLE_DPS) bits: beta, the Kronecker error and each
gap point and gap length are rounded as mpf arithmetic at ORACLE_DPS
digits rounds them, the points and lengths by _round_bits at their own
scale. The points are rounded a run at a time: the multiples k*|man|
keep one bit length over a run of k, so the whole run drops the same low
bits, and a run in which no product can be an exact tie is rounded with
one add and one mask per point. Rounding to nearest is monotone, so the
raw gaps sort in the order of their rounded values, and only the lengths
the merge probes are rounded. The Kronecker and bit scans are exact on
theta's pair: they round nothing per n. Ordering the points, merging
gaps and comparing against the exact side to a tolerance are decided
exactly, in integers, on those dyadic values, so no decision rounds;
solve's error a + b*sqrt(d) is compared by two integer signs of the
oracle's own (_close_to_dyadic), not by the package's quadratic
arithmetic.

The oracles are meant for irrational theta. A rational theta = p/q has
a dyadic value just off p/q, and that value decides an exact tie in the
Kronecker scan (n against n + q) and the floors at multiples of q.

The suite runner draws a random corpus and compares the exact
implementations against these oracles to a fixed tolerance. It backs the
`verify` subcommand and the final acceptance criterion. It works on the
pairs from start to end and never loads mpmath.

The public functions take and return mpmath mpf values, which wrap the
same pairs: mpmath is imported by _mpmath on the first call of one that
builds an mpf, so importing the package, or running the suite, never
loads it.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, islice, repeat
from math import isqrt
from operator import and_, neg, sub

from .cf import CFSpec
from .errors import SequenceLengthError
from .gaps import gap_set
from .kronecker import solve
from .sturmian import agreement, characteristic_bits

ORACLE_DPS = 50
# mpmath's dps_to_prec(ORACLE_DPS) and dps_to_prec(ORACLE_DPS + 10): the
# bits of mpf arithmetic at ORACLE_DPS digits, and of theta.
_PREC = 169
_THETA_PREC = 203
_DEEP_RADIUS = Fraction(1, 10**45)
_COMPARE_TOL = Fraction(1, 10**40)


@cache
def _mpmath():
    """mpmath's make_mpf and from_man_exp, bound on the first call."""
    from mpmath import libmp, mp

    return mp.make_mpf, libmp.from_man_exp


def _mpf(x: tuple[int, int]):
    """The pair (man, exp) as the mpf man * 2**exp, exactly."""
    make_mpf, from_man_exp = _mpmath()
    return make_mpf(from_man_exp(*x))


# ---- correctly rounded dyadic arithmetic ------------------------------


def _shift_even(v: int, drop: int) -> int:
    """v >= 0 shifted right by drop >= 1 bits, rounded half to even."""
    kept = v >> drop
    rest = v - (kept << drop)
    half = 1 << (drop - 1)
    if rest > half or (rest == half and kept & 1):
        kept += 1
    return kept


def _round_bits(v: int, prec: int) -> int:
    """v >= 0 rounded half to even to prec significant bits, at v's scale.

    The same value mpmath's from_man_exp(v, 0, prec, "n") gives; the
    low bits that are dropped come back as zeros.
    """
    drop = v.bit_length() - prec
    return v if drop <= 0 else _shift_even(v, drop) << drop


def _round(man: int, exp: int, prec: int) -> tuple[int, int]:
    """man * 2**exp rounded half to even to prec significant bits, as the
    pair libmp's from_man_exp(man, exp, prec, "n") holds: an odd man, or
    (0, 0). Rounding is symmetric, so it runs on |man|."""
    mag = abs(man)
    drop = mag.bit_length() - prec
    if drop > 0:
        mag, exp = _shift_even(mag, drop), exp + drop
    if not mag:
        return 0, 0
    zeros = (mag & -mag).bit_length() - 1
    mag >>= zeros
    return (-mag if man < 0 else mag), exp + zeros


def _add(x: tuple[int, int], y: tuple[int, int], prec: int) -> tuple[int, int]:
    """x + y, exact and then rounded: libmp's mpf_add, except where it
    takes its shortcut for operands far apart (see the module docstring)."""
    (xm, xe), (ym, ye) = x, y
    e = min(xe, ye)
    return _round((xm << (xe - e)) + (ym << (ye - e)), e, prec)


def _mul(x: tuple[int, int], y: tuple[int, int], prec: int) -> tuple[int, int]:
    """x * y, exact and then rounded: libmp's mpf_mul."""
    return _round(x[0] * y[0], x[1] + y[1], prec)


def _div(x: tuple[int, int], y: tuple[int, int], prec: int) -> tuple[int, int]:
    """x / y for y != 0, correctly rounded: libmp's mpf_div.

    The quotient is taken to at least prec + 2 bits, so at least two bits
    drop; setting its last bit when the remainder is not zero (a sticky
    bit) then rounds it as the exact quotient rounds.
    """
    (xm, xe), (ym, ye) = x, y
    xa, ya = abs(xm), abs(ym)
    shift = max(prec + 2 - xa.bit_length() + ya.bit_length(), 0)
    q, r = divmod(xa << shift, ya)
    q |= r > 0
    return _round(-q if (xm < 0) != (ym < 0) else q, xe - ye - shift, prec)


def _sqrt(x: tuple[int, int], prec: int) -> tuple[int, int]:
    """The square root of x >= 0, correctly rounded: libmp's mpf_sqrt.

    An even exponent halves exactly; the root is taken to at least
    prec + 2 bits with a sticky bit, as in _div.
    """
    man, exp = x
    if exp & 1:
        man, exp = man << 1, exp - 1
    shift = max(2 * prec + 4 - man.bit_length(), 0)
    shift += shift & 1
    v = man << shift
    root = isqrt(v)
    return _round(root | (root * root < v), (exp - shift) // 2, prec)


# ---- theta, beta and the brute-force scans ------------------------------


def high_precision_value(cf: CFSpec):
    """The number described by cf as an mpf of dps_to_prec(ORACLE_DPS + 10)
    bits, within one unit in its last place (_theta)."""
    return _mpf(_theta(cf))


def _theta(cf: CFSpec) -> tuple[int, int]:
    """The number described by cf, rounded to _THETA_PREC bits, as a pair.

    It is read off cf's fields alone, in the correctly rounded operations
    above: no convergent walk, surrogate or quadratic arithmetic of the
    package is used. A finite expansion [a0; prefix] is P/Q, rounded
    once. Else the purely periodic tail Y = [period, Y] is the fixed point
    of the period's matrix: with p/q and p_/q_ the last two convergents of
    the period read as [P1; P2, ..., PL], Y = (u + sqrt(D))/w with
    u = p - q_, w = 2q and D = u^2 + 4*q*p_. Then theta = (P*Y + P_) /
    (Q*Y + Q_) = (A + B*sqrt(D)) / (C + E*sqrt(D)) with the last two
    convergents P/Q and P_/Q_ of [a0; prefix], A = P*u + P_*w, B = P,
    C = Q*u + Q_*w and E = Q.

    The terms of each sum share a sign (u >= 0, C and E are never
    negative, and P, P_ share a sign unless the prefix is empty and
    a0 < 0), except for A + B*sqrt(D) when A*B < 0, which is taken as
    (A^2 - B^2*D) / (A - B*sqrt(D)). So no step cancels, and each
    rounding at prec + 8 bits moves theta by a relative 2**-(prec + 8) at
    most. There are at most seven such moves (the square root's counts
    twice when it enters the denominator twice), so theta is off by a
    relative 2**-(prec + 5) before the last division, which rounds to
    nearest at prec: within 0.5 + 2**-5 units in the last place. Terms of
    like size are also why no sum is one that libmp's mpf_add would round
    by its far-apart shortcut.
    """
    P, P_, Q, Q_ = _last_two(cf.a0, cf.prefix)
    if not cf.period:
        return _div((P, 0), (Q, 0), _THETA_PREC)
    p, p_, q, q_ = _last_two(cf.period[0], cf.period[1:])
    u, w = p - q_, 2 * q
    D = u * u + 4 * q * p_
    A, B, C, E = P * u + P_ * w, P, Q * u + Q_ * w, Q
    wp = _THETA_PREC + 8
    s = _sqrt((D, 0), wp)
    den = _add((C, 0), _mul((E, 0), s, wp), wp)
    if A * B < 0:
        conj = _add((A, 0), _mul((-B, 0), s, wp), wp)
        num, den = (A * A - B * B * D, 0), _mul(den, conj, wp)
    else:
        num = _add((A, 0), _mul((B, 0), s, wp), wp)
    return _div(num, den, _THETA_PREC)


def _last_two(c0: int, quotients) -> tuple[int, int, int, int]:
    """p_m, p_(m-1), q_m and q_(m-1) of [c0; c1, ..., cm], with p_(-1) = 1
    and q_(-1) = 0.

    cf has the same recurrence; the oracle keeps its own copy, so that a
    fault there cannot reach both sides of a check."""
    p, p_, q, q_ = c0, 1, 1, 0
    for a in quotients:
        p, p_, q, q_ = a * p + p_, p, a * q + q_, q
    return p, p_, q, q_


def brute_gap_points(theta, N: int):
    """Sorted circle points 0, {theta}, ..., {N*theta}, 1 and the distinct
    gap lengths, as mpf values.

    Each point k*theta and each gap is rounded to ORACLE_DPS digits, as
    mpf arithmetic would round it. Rounding, ordering, and merging gaps
    that differ by at most 1e-25 into one length are done exactly on
    integer keys (see _gap_keys); mpmath builds the mpf values returned.
    """
    make_mpf, from_man_exp = _mpmath()
    pts, distinct, low = _gap_keys(_signed_man_exp(theta), N)
    return (
        [make_mpf(from_man_exp(k, low)) for k in pts],
        [make_mpf(from_man_exp(k, low)) for k in distinct],
    )


def _gap_keys(theta: tuple[int, int], N: int) -> tuple[list[int], list[int], int]:
    """Sorted integer keys of the points and of the distinct gap lengths,
    and their common exponent low: each value is key * 2**low. theta is
    the pair (man, exp).

    Each point k*theta and each gap b - a is rounded half to even to
    dps_to_prec(ORACLE_DPS) bits, as mpf arithmetic at ORACLE_DPS digits
    would round it. Rounding never lowers the exponent of the exact value,
    and the exact products k*man live at theta's exponent, so one scale,
    low = min(exp, 0), holds every rounded value as an integer; when
    exp >= 0 the points are integers and every fractional part is 0. The
    fractional part is then a mask and the sort is over ints.

    The rounding is symmetric, so it runs on |k*man|, and a negative
    theta negates the fractional parts modulo 1 afterwards. The products
    keep one bit length L for a run of k, up to (2**L - 1) // |man|, so
    each run drops the same number of low bits and is rounded in one pass
    with that drop and its half. A product is a tie only if its 2-adic
    valuation is the drop less one, and when the run's last k is too
    small for that, the run is rounded half up: one add and one mask
    per point. Otherwise it breaks ties to even.

    Gaps that differ by at most 1e-25 are merged into the first length of
    the run. Rounding to nearest onto a binary grid is monotone, so the
    raw gaps sort in the order of their rounded values, and each merged
    run ends where a bisection over the raw gaps, keyed by _round_bits,
    first passes its first length plus 1e-25: only the probes are rounded.
    The merge reads values only, so only the distinct raw gaps are sorted.
    """
    prec = _PREC
    man, exp = theta
    low = min(exp, 0)
    unit = 1 << -low
    mask = unit - 1
    mag = abs(man)
    twos = (mag & -mag).bit_length() - 1  # v2(mag)
    pts = []
    k = 1
    while k <= N:
        top = (k * mag).bit_length()
        last = min(N, ((1 << top) - 1) // mag) if mag else N
        drop = max(top - prec, 0)
        half = (1 << drop) >> 1  # 0 when no bit drops
        keep = mask & -(1 << drop)
        run = repeat(mag, last - k)  # steps from k*mag up to last*mag
        # A product j*mag is a tie only if v2(j*mag) = drop - 1, so only
        # if 2**tie divides j: when last is below 2**tie, none is.
        tie = drop - 1 - twos
        if drop and tie >= 0 and last >> tie:
            # v + half - 1 carries into the kept bits exactly when the
            # dropped bits pass half; adding the kept low bit makes a tie
            # carry when that bit is odd, so ties go to even.
            pts += [
                (v + half - 1 + (v >> drop & 1)) & keep
                for v in accumulate(run, initial=k * mag)
            ]
        else:
            # Adding half rounds each product to nearest, and one mask
            # clears the dropped bits and takes the fractional part.
            pts += map(and_, accumulate(run, initial=k * mag + half), repeat(keep))
        k = last + 1
    if man < 0:
        pts = list(map(and_, map(neg, pts), repeat(mask)))
    pts.sort()
    pts = [0] + pts + [unit]
    gaps = sorted(set(map(sub, islice(pts, 1, None), pts)))
    # (g - first) * 10**25 > unit holds exactly when g - first > unit // 10**25
    within = unit // 10 ** (ORACLE_DPS // 2)
    rounded = partial(_round_bits, prec=prec)
    distinct = []
    i = 0
    while i < len(gaps):
        first = rounded(gaps[i])
        distinct.append(first)
        i = bisect_right(gaps, first + within, i + 1, key=rounded)
    return pts, distinct, low


def brute_kronecker(theta, beta: Fraction, N: int):
    """Best (n, p) minimizing |n*theta - beta - p| over 0 <= n <= N.

    beta is taken as its ORACLE_DPS-digit mpf (_beta_mpf). Every n is
    scanned on the exact dyadic values: x = n*theta - beta is an integer
    over 2**s, with s the larger of the two binary scales, p is the
    nearest integer (x + 1/2 shifted down) and the error |x - p| an
    integer over 2**s.
    The first strict improvement is kept, so the smallest optimal n wins,
    matching the exact solver's preference. The error comes back as an
    mpf rounded to ORACLE_DPS digits.
    """
    n, p, err = _kronecker(_signed_man_exp(theta), beta, N)
    return n, p, _mpf(err)


def _kronecker(theta: tuple[int, int], beta: Fraction, N: int) -> tuple[int, int, tuple[int, int]]:
    """brute_kronecker on theta's pair, with the error as a pair."""
    (tm, te), (bm, be) = theta, _beta(beta)
    s = max(0, -te, -be)
    step = tm << (te + s)
    half = (1 << s) >> 1
    mask = (1 << s) - 1
    y = half - (bm << (be + s))  # x + 1/2 at n = 0, scaled by 2**s
    best_n, best_err, best_y = 0, half + 1, y
    for n in range(N + 1):
        err = abs((y & mask) - half)
        if err < best_err:
            best_n, best_err, best_y = n, err, y
        y += step
    return best_n, best_y >> s, _round(best_err, -s, _PREC)


def _beta_mpf(beta: Fraction):
    """mp.mpf(beta.numerator) / beta.denominator at ORACLE_DPS digits, bit
    for bit (_beta)."""
    return _mpf(_beta(beta))


def _beta(beta: Fraction) -> tuple[int, int]:
    """beta as mpf arithmetic at ORACLE_DPS digits reads it, as a pair:
    the numerator rounds to the precision first, then the quotient."""
    return _div(_round(beta.numerator, 0, _PREC), (beta.denominator, 0), _PREC)


def brute_bits(theta, length: int) -> list[int]:
    """Characteristic bits floor((i+2)t) - floor((i+1)t) of the mpf theta
    (_bits)."""
    return _bits(_signed_man_exp(theta), length)


def _bits(theta: tuple[int, int], length: int) -> list[int]:
    """brute_bits on theta's pair (man, exp).

    theta is exactly man * 2**exp, so m*theta is the integer m*man over
    2**-exp and each floor is one shift of a running sum, exact for the
    dyadic value.
    """
    man, exp = theta
    if exp > 0:
        man, exp = man << exp, 0
    acc = man
    prev = acc >> -exp
    bits = []
    for _ in range(length):
        acc += man
        cur = acc >> -exp
        bits.append(cur - prev)
        prev = cur
    return bits


def _signed_man_exp(x) -> tuple[int, int]:
    """A finite mpf as (man, exp) with the sign on man: x == man * 2**exp."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


def brute_agreement(bits, r: int, a: int, b: int, max_k: int | None = None) -> int | None:
    """First index k with bits[r*k+a] != bits[r*k+b], by a plain loop.

    With max_k given, scans k < max_k and demands the bits cover the whole
    window; without it, scans as far as the bits reach. None means the two
    subsequences agreed over everything scanned.
    """
    n = len(bits)
    if max_k is not None and n < r * (max_k - 1) + b + 1:
        raise SequenceLengthError(r * (max_k - 1) + b + 1, n)
    k = 0
    while max_k is None or k < max_k:
        ib = r * k + b
        if ib >= n:
            return None
        if bits[r * k + a] != bits[ib]:
            return k
        k += 1
    return None


# ---- random corpus ----------------------------------------------------


def random_cf(rng: random.Random, max_bound: int = 10) -> CFSpec:
    """Random eventually periodic expansion with quotients up to max_bound."""
    bound = rng.randint(1, max_bound)
    prefix = tuple(rng.randint(1, bound) for _ in range(rng.randint(0, 4)))
    period = tuple(rng.randint(1, bound) for _ in range(rng.randint(1, 5)))
    return CFSpec(0, prefix, period)


def random_beta(rng: random.Random, max_den: int = 1000) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randrange(den), den)


# ---- suite ------------------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    gap_cases: int
    kronecker_cases: int
    agreement_cases: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _all_close_dyadic(nums, den: int, mans, exp: int) -> bool:
    """Whether |num/den - man * 2**exp| < _COMPARE_TOL for every pair of
    nums and mans, which must be of one length, at an exp <= 0 such as
    _gap_keys' low.

    Clearing den, 2**-exp and the tolerance's denominator leaves one
    integer comparison per pair, x * td < bound with x >= 0, which holds
    exactly when x <= (bound - 1) // td. That limit and the shift are the
    same for every pair, so they are computed once.
    """
    tn, td = _COMPARE_TOL.numerator, _COMPARE_TOL.denominator
    shift = -exp
    limit = (((tn * den) << shift) - 1) // td
    pairs = zip(nums, mans, strict=True)
    return all(abs((num << shift) - man * den) <= limit for num, man in pairs)


def _close_to_dyadic(x, man: int, exp: int) -> bool:
    """Whether |x - man * 2**exp| < _COMPARE_TOL for x = a + b*sqrt(d),
    read off x.a, x.b and x.d.

    Over den = a.denominator * b.denominator * 2**s with s = max(0, -exp),
    x - man * 2**exp is (R + Y*sqrt(d)) / den for integers R and Y. With
    the tolerance tn/td it lies within exactly when R*td + Y*td*sqrt(d)
    lies strictly between -tn*den and tn*den: two exact signs.
    """
    a, b, d = x.a, x.b, x.d
    ad, bd = a.denominator, b.denominator
    s = max(0, -exp)
    tn, td = _COMPARE_TOL.numerator, _COMPARE_TOL.denominator
    R = (((a.numerator * bd) << s) - (man << (exp + s)) * ad * bd) * td
    Y = ((b.numerator * ad) << s) * td
    t = (tn * ad * bd) << s
    return _surd_sign(R - t, Y, d) < 0 < _surd_sign(R + t, Y, d)


def _surd_sign(x: int, y: int, d: int) -> int:
    """The sign of x + y*sqrt(d) for integers, d > 0.

    With x and y of opposite signs it is x's where x^2 > y^2*d, y's where
    x^2 < y^2*d, and 0 where they are equal (only for a square d).
    """
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx == sy or not sy:
        return sx
    if not sx:
        return sy
    c = x * x - y * y * d
    return sx * ((c > 0) - (c < 0))


def run_suite(cases: int = 200, seed: int = 20260822) -> OracleReport:
    """Compare the exact paths against the oracles over a random corpus.

    Runs `cases` trials of each family (gap sets, best approximations,
    agreement scans), with N up to 400 in the first two. Gap points and
    errors must match to 1e-40; best approximation indices and agreement
    indices must match exactly.
    """
    rng = random.Random(seed)
    failures: list[str] = []

    gap_done = 0
    for _ in range(cases):
        cf = random_cf(rng)
        N = rng.randint(1, 400)
        tag = f"gaps {cf.prefix}+{cf.period} N={N}"
        gs = gap_set(cf, N, min_radius=_DEEP_RADIUS)
        pts, distinct, low = _gap_keys(_theta(cf), N)
        q = gs.denominator
        if len(pts) != len(gs.nums):
            failures.append(f"{tag}: point count {len(gs.nums)} vs {len(pts)}")
            continue
        if not _all_close_dyadic(gs.nums, q, pts, low):
            failures.append(f"{tag}: point values drift past tolerance")
            continue
        if len(distinct) != len(gs.gap_nums):
            failures.append(
                f"{tag}: {len(gs.gap_nums)} distinct gaps vs oracle {len(distinct)}"
            )
            continue
        if not _all_close_dyadic([g for g, _ in gs.gap_nums], q, distinct, low):
            failures.append(f"{tag}: gap values drift past tolerance")
            continue
        gap_done += 1

    kron_done = 0
    for _ in range(cases):
        cf = random_cf(rng)
        N = rng.randint(1, 400)
        beta = random_beta(rng)
        tag = f"kron {cf.prefix}+{cf.period} N={N} beta={beta}"
        sol = solve(cf, beta, N)
        n, p, (man, exp) = _kronecker(_theta(cf), beta, N)
        if (sol.n, sol.p) != (n, p):
            failures.append(f"{tag}: minimizer ({sol.n},{sol.p}) vs oracle ({n},{p})")
            continue
        if not _close_to_dyadic(sol.achieved, man, exp):
            failures.append(f"{tag}: achieved error drifts past tolerance")
            continue
        kron_done += 1

    agree_done = 0
    for _ in range(cases):
        cf = random_cf(rng)
        r = rng.randint(2, 10)
        b = rng.randint(1, r - 1)
        a = rng.randrange(b)
        max_k = rng.randint(20, 120)
        tag = f"agree {cf.prefix}+{cf.period} r={r} a={a} b={b} max_k={max_k}"
        length = r * max_k
        arr = characteristic_bits(cf, length)
        check_len = min(length, 256)
        if list(arr[:check_len]) != _bits(_theta(cf), check_len):
            failures.append(f"{tag}: bit prefix disagrees with mpf floors")
            continue
        got = agreement(arr, r, a, b, max_k)
        want = brute_agreement(arr, r, a, b, max_k)
        if got != want:
            failures.append(f"{tag}: agreement {got} vs oracle {want}")
            continue
        agree_done += 1

    return OracleReport(
        gap_cases=gap_done,
        kronecker_cases=kron_done,
        agreement_cases=agree_done,
        failures=tuple(failures),
    )
