"""Decimal rendering of exact values for reports and serialization.

Exact rationals and quadratic numbers never pass through floating point on
the way to the user: they are rounded once, here, to a requested number of
significant digits using integer arithmetic only.
"""

from __future__ import annotations

from fractions import Fraction

DEFAULT_SIG_DIGITS = 10


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
    """decimal_str of n/d for integers n and d > 0, without building a Fraction."""
    if n == 0:
        return "0"
    neg = n < 0
    n = abs(n)
    e = _floor_log10(n, d)
    # Integer holding exactly `sig` significant digits of n/d, rounded
    # half to even (the same convention as round()).
    shift = sig - 1 - e
    if shift >= 0:
        n *= 10**shift
    else:
        d *= 10**-shift
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
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
    """floor(log10(n/d)) for positive integers n and d, exactly.

    The bit lengths put log2(n/d) within one of their difference, and
    0.30103 is log10(2) to 1e-8, so the estimate is off by at most one
    until the operands run to about 10^8 bits; integer comparisons with
    powers of ten settle it.
    """
    e = (n.bit_length() - d.bit_length()) * 30103 // 100000
    while _below(n, d, e):
        e -= 1
    while not _below(n, d, e + 1):
        e += 1
    return e


def _below(n: int, d: int, k: int) -> bool:
    """n/d < 10**k, with the power of ten on whichever side keeps it an integer."""
    return n < d * 10**k if k >= 0 else n * 10**-k < d


def _strip(s: str) -> str:
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s
