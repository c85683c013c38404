"""Decimal rendering of exact values for reports and serialization.

Exact rationals and quadratic numbers never pass through floating point on
the way to the user: they are rounded once, here, to a requested number of
significant digits using integer arithmetic only.

One core, _ratios_str(nums, d, sig), renders integers over one denominator
a decade at a time: what a decade needs (exponent, bounds, rounding factor,
leading zeros) is worked out when a value enters it and reused while the
next values stay in it. A single value is a one-element run.

No value costs a division. Each decade works out one reciprocal k of its
divisor, rounded up, with 32 guard bits (Granlund and Montgomery 1994);
a value's quotient and guard bits are then one product and a shift,
exact for every value in the decade, and only guard bits of exactly one
half need the exact product to tell a tie, rounded half to even, from a
value just above it. The proof is in _ratios_str's docstring.
"""

from __future__ import annotations

from fractions import Fraction

DEFAULT_SIG_DIGITS = 10
# Guard bits below the rounded quotient in _ratios_str's multiply-shift.
_GUARD = 32
_GUARD_MASK = (1 << _GUARD) - 1
_HALF = 1 << (_GUARD - 1)


def decimal_str(value, sig: int = DEFAULT_SIG_DIGITS) -> str:
    """Render an exact value as a decimal string with `sig` significant digits.

    Accepts int, Fraction, or anything exposing as_fraction_approx(sig)
    (quadratic numbers do). Trailing zeros after the point are stripped, so
    exact small integers render as themselves ("0", "1").
    """
    if sig < 1:
        raise ValueError("sig must be positive")
    if hasattr(value, "as_fraction_approx"):
        if value == 0:
            return "0"
        value = _approx_leading(value, sig + 5)
    x = Fraction(value)
    return _ratio_str(x.numerator, x.denominator, sig)


def _ratio_str(n: int, d: int, sig: int) -> str:
    """decimal_str of n/d for integers n and d > 0, without building a Fraction.

    A single value is a one-element run of the batch core.
    """
    return _ratios_str((n,), d, sig)[0]


def _ratios_str(nums, d: int, sig: int) -> list[str]:
    """_ratio_str of n/d for each integer n in nums, over one d > 0.

    The core works a decade at a time: the exponent e, the bounds
    lo <= |n| < hi of the decade 10**e <= |n|/d < 10**(e+1), the rounding
    multiplier or divisor and the leading "0.000" string are kept while
    consecutive values stay in one decade, and recomputed with _decade
    only when a value leaves it. A sorted listing of N points changes
    decade about log10(N) times. A positive value with -8 <= e < 0 whose
    rounding does not carry is the leading string and its digits; every
    other value goes through _digits_str, the one formatting tail.

    Each value is rounded with one multiplication and shifts, not a
    division: entering a decade sets s = hi.bit_length() +
    div.bit_length() and k = ceil(mul*2**(32+s)/div). For 0 < m < hi,
    f = m*k >> s equals floor(m*mul*2**32/div) exactly: k's excess over
    mul*2**(32+s)/div is below one, so m*k/2**s exceeds m*mul*2**32/div by
    less than m/2**s < 1/div, and that value, an integer over div, is at
    least 1/div below the next integer. So f >> 32 is floor(m*mul/div),
    and the guard bits g = f mod 2**32 are floor(2**32*r/div) for the
    remainder r: g > 2**31 means r/div > 1/2 and g < 2**31 means r/div <
    1/2. Only at g = 2**31 can r/div be a tie or up to 2**-32 above one,
    and f*div == m*mul*2**32 holds exactly at the tie.
    """
    top = 10**sig
    out = []
    lo = hi = 0  # an empty decade, so the first nonzero value sets one
    for n in nums:
        m = abs(n)
        if not lo <= m < hi:
            if m == 0:
                out.append("0")
                continue
            e, lo, hi = _decade(m, d)
            # Integer holding exactly `sig` significant digits of m/d,
            # rounded half to even (the same convention as round()).
            shift = sig - 1 - e
            mul, div = (10**shift, d) if shift >= 0 else (1, d * 10**-shift)
            # m*k >> s is floor(m*mul*2**_GUARD/div) for every m < hi.
            s = hi.bit_length() + div.bit_length()
            k = -(-(mul << (_GUARD + s)) // div)
            lead = "0." + "0" * (-e - 1) if -8 <= e < 0 else None
        f = m * k >> s
        q, g = f >> _GUARD, f & _GUARD_MASK
        # The guard bits decide the rounding unless they are exactly one
        # half, where only the exact test tells a tie from just above one.
        if g > _HALF or (g == _HALF and (q & 1 or f * div != m * mul << _GUARD)):
            q += 1
        if lead is not None and n > 0 and q < top:
            out.append((lead + str(q)).rstrip("0"))
        else:
            out.append(_digits_str(q, e, n < 0, sig))
    return out


def _digits_str(q: int, e: int, neg: bool, sig: int) -> str:
    """Format q, the value's `sig` significant digits rounded, at decimal
    exponent e: fixed notation for -8 <= e <= 20, scientific otherwise."""
    if q >= 10**sig:  # rounding carried over, e.g. 9.99 -> 10.0
        q //= 10
        e += 1
    digits = str(q)
    if e < -8 or e > 20:
        mantissa = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
        mantissa = _strip(mantissa)
        return f"{'-' if neg else ''}{mantissa}e{e:+d}"
    if e >= 0:
        int_part = digits[: e + 1].ljust(e + 1, "0")
        frac_part = digits[e + 1 :]
    else:
        int_part = "0"
        frac_part = "0" * (-e - 1) + digits
    out = int_part + ("." + frac_part if frac_part else "")
    out = _strip(out)
    return "-" + out if neg else out


def _approx_leading(value, digits: int) -> Fraction:
    """Approximation of a nonzero value correct to `digits` places below
    its leading digit, so that rounding to fewer digits is unaffected by
    the approximation error, however small the value.

    as_fraction_approx(d) is within 10**-d; once d reaches digits + 1 past
    the approximation's own leading place, it is past the value's too.
    """
    d = digits
    while True:
        x = value.as_fraction_approx(d)
        if x == 0:
            d *= 2
            continue
        need = digits + 1 - _floor_log10(abs(x.numerator), x.denominator)
        if d >= need:
            return x
        d = need


def _floor_log10(n: int, d: int) -> int:
    """floor(log10(n/d)) for positive integers n and d, exactly."""
    return _decade(n, d)[0]


def _decade(n: int, d: int) -> tuple[int, int, int]:
    """(e, lo, hi) with e = floor(log10(n/d)) for positive integers n and
    d, and lo <= n < hi the integers whose ratio to d has that exponent.

    The bit lengths put log2(n/d) within one of their difference, and
    0.30103 is log10(2) to 1e-8, so the estimate is off by at most one
    until the operands run to about 10^8 bits; integer comparisons with
    the decade's bounds settle it.
    """
    e = (n.bit_length() - d.bit_length()) * 30103 // 100000
    lo, hi = _scaled_up(d, e), _scaled_up(d, e + 1)
    while n < lo:
        e -= 1
        lo, hi = _scaled_up(d, e), lo
    while n >= hi:
        e += 1
        lo, hi = hi, _scaled_up(d, e + 1)
    return e, lo, hi


def _scaled_up(d: int, k: int) -> int:
    """ceil(d * 10**k): the least integer n with n/d >= 10**k."""
    return d * 10**k if k >= 0 else -(-d // 10**-k)


def _strip(s: str) -> str:
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s
