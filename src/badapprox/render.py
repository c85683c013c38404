"""Decimal rendering of exact values, and the JSON text of reports.

Exact rationals and quadratic numbers never pass through floating point on
the way to the user: they are rounded once, here, to a requested number of
significant digits using integer arithmetic only.

One core, _ratios_str(nums, d, sig), renders integers over one denominator
a decade at a time: what a decade needs (exponent, bounds, rounding factor,
leading zeros) is worked out when a value enters it and reused while the
next values stay in it. A single value is a one-element run.

One exact rule rounds every rational to its digits: at the decade's
factor mul/div, K, S = divmod(2*m*mul + div, 2*div) gives K = the value's
digits rounded half up, and a tie is S == 0, which goes to the even one,
K - 1 when K is odd. A gaps listing applies the same rule inside its
successor walk (gaps.GapSet.to_json_dict), adding each step's own pair to
(K, S) instead of dividing per point.

An irrational quadratic number is never a tie: its digits are the one
exact floor q = floor(|x|*10**s + 1/2), with s fixed by exact floors
too. A rational one takes the Fraction path, half to even.

_json_str writes the bytes json.dumps(obj, indent=2) writes, for the
values reports hold, with each list of strings joined in C, and escaped
one by one only when some string needs it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import isfinite

from .quadratic import QuadraticNumber, _bits, _floor

DEFAULT_SIG_DIGITS = 10


def decimal_str(value, sig: int = DEFAULT_SIG_DIGITS) -> str:
    """Render an exact value as a decimal string with `sig` significant digits.

    Accepts int, Fraction or QuadraticNumber. Trailing zeros after the
    point are stripped, so exact small integers render as themselves
    ("0", "1"). Rational values round half to even; an irrational one is
    never half-way.
    """
    if sig < 1:
        raise ValueError("sig must be positive")
    if isinstance(value, QuadraticNumber):
        if not value.is_rational:
            return _quadratic_str(value, sig)
        value = value.as_fraction()
    x = Fraction(value)
    return _ratio_str(x.numerator, x.denominator, sig)


def _quadratic_str(value: QuadraticNumber, sig: int) -> str:
    """decimal_str of an irrational value x = (a + b*sqrt(d))/z.

    With s = sig - 1 - e, g = floor(2*|x|*10**s) is one exact floor. It
    fixes the decade: 10**e <= |x| < 10**(e+1) exactly when
    2*10**(sig-1) <= g < 2*10**sig, as floor(|x|*10**s) = g >> 1. And it
    gives the digits: (g + 1) >> 1 = floor(|x|*10**s + 1/2), never a
    tie, since |x|*10**s is irrational. e starts from bit lengths
    (quadratic._bits, which reads |x| through its norm under
    cancellation) and moves one decade per floor that misses.
    """
    a, b, z, d = value._x, value._y, value._z, value._d
    neg = value.sign() < 0
    if neg:
        a, b = -a, -b
    e = (_bits(a, b, d) - z.bit_length()) * 30103 // 100000
    low, high = 2 * 10 ** (sig - 1), 2 * 10**sig
    while True:
        s = sig - 1 - e
        if s >= 0:
            u = 2 * 10**s
            g = _floor(a * u, b * u, z, d)
        else:
            g = _floor(2 * a, 2 * b, z * 10**-s, d)
        if g < low:
            e -= 1
        elif g >= high:
            e += 1
        else:
            return _digits_str((g + 1) >> 1, e, neg, sig)


def _ratio_str(n: int, d: int, sig: int) -> str:
    """decimal_str of n/d for integers n and d > 0, without building a Fraction.

    A single value is a one-element run of the batch core.
    """
    return _ratios_str((n,), d, sig)[0]


def _ratios_str(nums, d: int, sig: int) -> list[str]:
    """_ratio_str of n/d for each integer n in nums, over one d > 0.

    The core works a decade at a time: the exponent e, the bounds
    lo <= |n| < hi of the decade 10**e <= |n|/d < 10**(e+1), the rounding
    factor mul/div and the leading "0.000" string are kept while
    consecutive values stay in one decade, and recomputed with _decade
    and _scale only when a value leaves it. A positive value with
    -8 <= e < 0 whose rounding does not carry is the leading string and
    its digits; every other value goes through _digits_str, the one
    formatting tail.

    Each value's sig digits are m*mul/div rounded half to even, read off
    K, S = divmod(2*m*mul + div, 2*div): K is m*mul/div rounded half up,
    and S == 0 exactly at a tie, where an odd K steps down to the even
    K - 1.
    """
    top = 10**sig
    out = []
    append = out.append
    lo = hi = 0  # an empty decade, so the first nonzero value sets one
    for n in nums:
        m = -n if n < 0 else n
        if not lo <= m < hi:
            if m == 0:
                append("0")
                continue
            e, lo, hi = _decade(m, d)
            mul2, div, two, lead = _scale(e, d, sig)
        q, r = divmod(m * mul2 + div, two)
        if not r and q & 1:
            q -= 1
        if lead is not None and n > 0 and q < top:
            append((lead + str(q)).rstrip("0"))
        else:
            append(_digits_str(q, e, n < 0, sig))
    return out


def _scale(e: int, d: int, sig: int) -> tuple[int, int, int, str | None]:
    """(2*mul, div, 2*div, lead) for values n/d at decimal exponent e:
    n*mul/div puts the value's sig significant digits before the point,
    so divmod(n*2*mul + div, 2*div) rounds them by the exact rule, and
    lead is the "0.000" the value's fixed notation starts with for
    -8 <= e < 0, else None."""
    shift = sig - 1 - e
    mul, div = (10**shift, d) if shift >= 0 else (1, d * 10**-shift)
    return 2 * mul, div, 2 * div, "0." + "0" * (-e - 1) if -8 <= e < 0 else None


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


def _json_str(obj) -> str:
    """json.dumps(obj, indent=2) for str-keyed dicts, lists, tuples, str,
    int, bool, float and None.

    The text is built as chunks and joined once: a big listing is copied
    twice, where chained concatenation would copy it at every level. A
    list of strings is one chunk, joined in C: as it stands when no string
    needs an escape, else with each one escaped first. An int goes
    through int.__repr__, so one past Python's digit limit raises
    ValueError, as json.dumps does.
    """
    chunks: list[str] = []
    _json_chunks(obj, "\n", chunks.append)
    return "".join(chunks)


def _json_chunks(obj, nl: str, emit) -> None:
    """Emit the text of obj, with nl the newline and indent of its own line."""
    if isinstance(obj, str):
        emit(encode_basestring_ascii(obj))
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, int):
        emit(int.__repr__(obj))
    elif isinstance(obj, float):
        # json.dumps spells the rest NaN, Infinity and -Infinity.
        emit(float.__repr__(obj) if isfinite(obj) else json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = nl + "  "
        lead = "{" + inner
        for key, value in obj.items():
            emit(lead + encode_basestring_ascii(key) + ": ")
            _json_chunks(value, inner, emit)
            lead = "," + inner
        emit(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        emit("[" + inner)
        try:
            plain = _plain(obj)
        except TypeError:  # not all strings
            for i, value in enumerate(obj):
                if i:
                    emit(sep)
                _json_chunks(value, inner, emit)
        else:
            if plain:
                # Nothing to escape: the strings go out as they are, with no
                # quoted copy of each one.
                emit('"')
                emit(('"' + sep + '"').join(obj))
                emit('"')
            else:
                emit(sep.join(map(encode_basestring_ascii, obj)))
        emit(nl + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _plain(strings) -> bool:
    """Whether json escapes nothing in any of these strings: printable
    ASCII with no quote and no backslash. TypeError unless all are str."""
    text = "".join(strings)
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text
