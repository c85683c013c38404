"""Brute-force oracles for cross-checking the exact paths.

The oracles share one input with the code under test: theta itself. Its
value comes from `cf.eval_theta`, a convergent of the same expansion the
exact side reads its surrogates from (CFSpec.value for rationals), taken
deep enough that mpmath holds it to ORACLE_DPS digits. Everything after
that is independent of the exact machinery: gap sets come from sorting
high-precision floats (not the three-distance theorem), best
approximations from a full scan over n (not min_affine_mod), bit
sequences from high-precision floors (not standard words), and
agreement indices from a naive loop (not slice bisection).

mpmath computes every point, gap, residual and floor. Ordering those
values and comparing them against exact fractions to a tolerance is
decided exactly, in integers, on their dyadic values (man * 2**exp), so
no decision rounds. The suite runner draws a random corpus and compares
the exact implementations against these oracles to a fixed tolerance.
It backs the `verify` subcommand and the final acceptance criterion.

mpmath is imported inside the functions that use it, so importing the
package for its exact paths never loads it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cf import CFSpec, eval_theta
from .errors import SequenceLengthError
from .gaps import gap_set
from .kronecker import solve
from .sturmian import SturmianSeq, agreement

ORACLE_DPS = 50
_DEEP_RADIUS = Fraction(1, 10**45)
_COMPARE_TOL = Fraction(1, 10**40)


def high_precision_value(cf: CFSpec, dps: int = ORACLE_DPS):
    """The number described by cf as an mpf good to `dps` digits.

    This is the one place the oracles lean on the package: the value is
    the convergent `cf.eval_theta` certifies to within 10**-(dps + 5), and
    the exact side reads its surrogates off the same convergent
    recurrence (a rational comes from CFSpec.value). A wrong expansion or
    recurrence would therefore mislead both sides alike; the oracles
    check what is computed from theta, not theta itself.
    """
    from mpmath import mp

    with mp.workdps(dps + 10):
        if cf.is_rational:
            v = cf.value()
            return mp.mpf(v.numerator) / v.denominator
        cert = eval_theta(cf, Fraction(1, 10 ** (dps + 5)))
        return mp.mpf(cert.center.numerator) / cert.center.denominator


def brute_gap_points(theta, N: int):
    """Sorted circle points 0, {theta}, ..., {N*theta}, 1 and the distinct
    gap lengths, straight from floating evaluation.

    mpmath computes every point and gap. Ordering them, and merging gaps
    that differ by at most 1e-25 into one length, is decided exactly on
    their dyadic values (see _sorted_exactly).
    """
    from mpmath import mp

    with mp.workdps(ORACLE_DPS):
        pts, _, _ = _sorted_exactly([mp.frac(k * theta) for k in range(1, N + 1)])
        pts = [mp.mpf(0)] + pts + [mp.mpf(1)]
        gaps, keys, low = _sorted_exactly([b - a for a, b in zip(pts, pts[1:])])
    # gaps lie in [0, 1], so low <= 0 and a key step of 2**-low is a length of 1
    merge, unit = 10 ** (ORACLE_DPS // 2), 1 << -low
    distinct, last = [], None
    for g, k in zip(gaps, keys):
        if last is None or (k - last) * merge > unit:
            distinct.append(g)
            last = k
    return pts, distinct


def _sorted_exactly(values: list) -> tuple[list, list[int], int]:
    """Nonnegative mpf values in ascending order, with their integer keys.

    A nonnegative mpf is exactly man * 2**exp. Shifting every mantissa
    left by its exponent's excess over the smallest exponent present,
    low, gives integer keys with value == key * 2**low, so the keys order
    exactly as mpmath compares the values. Zero has key 0. The sort is
    stable, so ties keep their order, as under sorted().
    """
    pairs = [x.man_exp for x in values]
    low = min((e for _, e in pairs), default=0)
    keys = [m << (e - low) for m, e in pairs]
    order = sorted(range(len(values)), key=keys.__getitem__)
    return [values[i] for i in order], [keys[i] for i in order], low


def brute_kronecker(theta, beta: Fraction, N: int):
    """Best (n, p) minimizing |n*theta - beta - p| over 0 <= n <= N.

    Scans every n and keeps the first strict improvement, so the smallest
    optimal n wins, matching the exact solver's preference.
    """
    from mpmath import mp

    with mp.workdps(ORACLE_DPS):
        beta_f = mp.mpf(beta.numerator) / beta.denominator
        best = None
        for n in range(N + 1):
            x = n * theta - beta_f
            p = int(mp.nint(x))
            err = abs(x - p)
            if best is None or err < best[2]:
                best = (n, p, err)
        return best


def brute_bits(theta, length: int) -> list[int]:
    """Characteristic bits floor((i+2)t) - floor((i+1)t) from mpf floors."""
    from mpmath import mp

    with mp.workdps(ORACLE_DPS):
        floors = [int(mp.floor(m * theta)) for m in range(1, length + 2)]
    return [floors[i + 1] - floors[i] for i in range(length)]


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


def _close(num: int, den: int, approx) -> bool:
    """Whether |num/den - approx| < _COMPARE_TOL, decided exactly.

    approx is an mpf, exactly sign * man * 2**exp; clearing den, 2**-exp
    and the tolerance's denominator leaves one integer comparison. A
    non-finite approx (mantissa 0, nonzero exponent) is never close.
    """
    sign, man, exp, _ = approx._mpf_
    if not man and exp:
        return False
    if sign:
        man = -man
    tn, td = _COMPARE_TOL.numerator, _COMPARE_TOL.denominator
    if exp >= 0:
        return abs(num - (man << exp) * den) * td < tn * den
    return abs((num << -exp) - man * den) * td < (tn * den) << -exp


def run_suite(
    cases: int = 200, seed: int = 20260822, max_n: int = 400
) -> OracleReport:
    """Compare the exact paths against the oracles over a random corpus.

    Runs `cases` trials of each family (gap sets, best approximations,
    agreement scans). Gap points and errors must match to 1e-40; best
    approximation indices and agreement indices must match exactly.
    """
    rng = random.Random(seed)
    failures: list[str] = []

    gap_done = 0
    for _ in range(cases):
        cf = random_cf(rng)
        N = rng.randint(1, max_n)
        tag = f"gaps {cf.prefix}+{cf.period} N={N}"
        gs = gap_set(cf, N, min_radius=_DEEP_RADIUS)
        theta = high_precision_value(cf)
        pts, distinct = brute_gap_points(theta, N)
        q = gs.denominator
        if len(pts) != len(gs.nums):
            failures.append(f"{tag}: point count {len(gs.nums)} vs {len(pts)}")
            continue
        if any(not _close(v, q, p) for v, p in zip(gs.nums, pts)):
            failures.append(f"{tag}: point values drift past tolerance")
            continue
        if len(distinct) != len(gs.gap_nums):
            failures.append(
                f"{tag}: {len(gs.gap_nums)} distinct gaps vs oracle {len(distinct)}"
            )
            continue
        if any(not _close(g, q, d) for (g, _), d in zip(gs.gap_nums, distinct)):
            failures.append(f"{tag}: gap values drift past tolerance")
            continue
        gap_done += 1

    kron_done = 0
    for _ in range(cases):
        cf = random_cf(rng)
        N = rng.randint(1, max_n)
        beta = random_beta(rng)
        tag = f"kron {cf.prefix}+{cf.period} N={N} beta={beta}"
        sol = solve(cf, beta, N, min_radius=_DEEP_RADIUS)
        theta = high_precision_value(cf)
        n, p, err = brute_kronecker(theta, beta, N)
        if (sol.n, sol.p) != (n, p):
            failures.append(f"{tag}: minimizer ({sol.n},{sol.p}) vs oracle ({n},{p})")
            continue
        if not _close(sol.achieved.numerator, sol.achieved.denominator, err):
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
        tag = f"agree {cf.prefix}+{cf.period} r={r} a={a} b={b}"
        seq = SturmianSeq(cf)
        length = r * max_k
        arr = seq.bits(length)
        check_len = min(length, 256)
        theta = high_precision_value(cf)
        if list(arr[:check_len]) != brute_bits(theta, check_len):
            failures.append(f"{tag}: bit prefix disagrees with mpf floors")
            continue
        got = agreement(seq, r, a, b, max_k)
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
