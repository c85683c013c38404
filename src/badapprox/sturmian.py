"""Characteristic Sturmian sequences and their diversity.

The bit sequence of an irrational theta in (0, 1) is
s_i = floor((i+2)*theta) - floor((i+1)*theta), i >= 0. Subsequences taken
along an arithmetic progression with common difference r agree for a
while and then must disagree: the first disagreement index over any two
offsets is bounded by 2*(B+2)^2 * r^2 when theta's quotients stay below
B. This module builds bits, scans agreements, and carries the exact
golden-ratio machinery (Fibonacci and Lucas identities, the two staircase
value grids, and the crossing witness that shows the quadratic bound is
the right order).

Bits are exact for every input: characteristic_bits writes each standard
word of theta's continued fraction by copying the prefix already written
into a new buffer per call, with no floor to certify and no state kept
between calls.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cf import GOLDEN, CFSpec, eval_theta
from .errors import DomainError, SequenceLengthError, VerificationError
from .quadratic import QuadraticNumber

THETA_GOLDEN = eval_theta(GOLDEN)
SQRT5 = QuadraticNumber.sqrt(5)
_ONE_PLUS_SQRT5 = 1 + SQRT5  # 2*phi, whose powers have integer coordinates
# Most bits one call returns (one byte each, so 512 MiB); a request past it
# raises DomainError before anything is allocated.
MAX_BITS = 2**29


def characteristic_bits(cf: CFSpec, length: int) -> bytearray:
    """The first `length` bits of the characteristic word of theta = [0;
    a_1, a_2, ...], one 0 or 1 byte each, in a new buffer: the limit of
    the standard words s_{-1} = 1, s_0 = 0, s_1 = s_0^(a_1 - 1) s_{-1} and
    s_j = s_{j-1}^(a_j) s_{j-2} (Lothaire, Algebraic Combinatorics on
    Words, 2002, ch. 2). From s_1 on, each standard word is a prefix of
    the next, so buf[:i] always holds the latest s_j, and s_(j+1) is
    written by copying prefixes of buf after it: a_(j+1) - 1 more copies of
    s_j, then s_(j-1) (or s_0, one zero byte, already in place). Copies go
    view to view and never overlap, so the peak is `length` bytes.
    """
    if cf.a0 != 0 or cf.is_rational:
        raise DomainError("need an irrational number strictly between 0 and 1")
    if not 0 <= length <= MAX_BITS:
        raise DomainError(f"need 0 <= length <= MAX_BITS = {MAX_BITS} bits")
    buf = bytearray(length)
    quotients = cf.quotients()
    i = next(quotients)  # s_1 = 0^(a_1 - 1) 1 fills buf[:i]
    if i <= length:
        buf[i - 1] = 1
    prev = 0  # len(s_(j-1)); 0 stands for s_0
    with memoryview(buf) as view:
        for a in quotients:
            if i >= length:
                break
            cur, end = i, min(a * i, length)
            while i < end:
                k = min(i, end - i)
                view[i : i + k] = view[:k]
                i += k
            k = min(prev or 1, length - i)
            if prev:
                view[i : i + k] = view[:k]
            i, prev = i + k, cur
    return buf


def agreement(seq, r: int, a: int, b: int, max_k: int) -> int | None:
    """First index k < max_k with bit(r*k + a) != bit(r*k + b).

    Returns None when the two subsequences agree on all of k < max_k.
    `seq` holds at least r*(max_k-1) + b + 1 bits: bytes or a bytearray
    (as characteristic_bits returns) is read as it is, any other sequence
    through int.
    """
    if r < 1:
        raise DomainError("progression step must be >= 1")
    if not 0 <= a < b < r:
        raise DomainError("offsets must satisfy 0 <= a < b < r")
    if max_k < 1:
        raise DomainError("max_k must be >= 1")
    required = r * (max_k - 1) + b + 1
    arr = seq if isinstance(seq, (bytes, bytearray)) else bytes(map(int, seq))
    if len(arr) < required:
        raise SequenceLengthError(required, len(arr))
    u = int.from_bytes(arr[a : r * max_k : r], "big")
    v = int.from_bytes(arr[b : r * max_k : r], "big")
    return _first_mismatch(u ^ v, max_k)


def _first_mismatch(x: int, length: int) -> int | None:
    """First index where two `length`-byte strings differ (None if
    nowhere), from x, the XOR of the two read as big-endian integers; the
    one copy of this index rule. x is 0 exactly when they are equal;
    otherwise its top set bit falls in the first differing byte, which is
    byte length - 1 - (x.bit_length() - 1) // 8."""
    if not x:
        return None
    return length - 1 - (x.bit_length() - 1) // 8


@dataclass(frozen=True)
class DiversityRow:
    r: int
    max_agreement: int | None  # None: some pair agreed past the whole window
    bound: int
    passed: bool


def diversity_scan(cf: CFSpec, B: int, r_max: int) -> list[DiversityRow]:
    """Max agreement over all offset pairs for each step r = 2..r_max.

    B must dominate the partial quotients of cf; each row checks the
    quadratic bound 2*(B+2)^2 * r^2.

    Each row is exact, though it reads only a prefix of its window. Among
    sorted strings, the common prefix of any two is the shortest common
    prefix of the neighbour pairs between them, so the longest over all
    pairs is attained by neighbours. The row sorts its r columns cut to
    their first `length` entries. If every pair of sorted neighbours
    differs inside that prefix, so does every pair of columns, at the same
    index as in the whole window, and the neighbours' largest first
    mismatch is the row's maximum. Otherwise `length` doubles, capped at
    the whole window max_k, where a pair that still agrees means some pair
    agrees past the window (None). `length` carries over to the next row.
    Each cut column is one big-endian integer: among byte strings of one
    length, the integers sort as the bytes do, and a neighbour pair's first
    mismatch comes from its XOR by _first_mismatch, so the smallest XOR
    gives the row's largest index.
    """
    if r_max < 2:
        raise DomainError("need r_max >= 2")
    if B < cf.bound():
        raise DomainError(
            f"stated quotient bound {B} is below the actual bound {cf.bound()}"
        )
    # The last row's window is the longest; every row reads a prefix of it.
    word = characteristic_bits(cf, r_max * (2 * (B + 2) ** 2 * r_max**2 + 1))
    rows = []
    length = 1
    for r in range(2, r_max + 1):
        bound = 2 * (B + 2) ** 2 * r * r
        max_k = bound + 1
        while True:
            end = r * length
            cols = [int.from_bytes(word[a:end:r], "big") for a in range(r)]
            cols.sort()
            # 0 when some pair of neighbours agrees on the whole prefix.
            low = min(map(operator.xor, cols, cols[1:]))
            if low or length == max_k:
                break
            length = min(2 * length, max_k)
        worst = _first_mismatch(low, length)
        passed = worst is not None and worst <= bound
        rows.append(DiversityRow(r=r, max_agreement=worst, bound=bound, passed=passed))
    return rows


# ---- exact golden-ratio machinery ------------------------------------


@dataclass(frozen=True)
class FibLucasPair:
    n: int
    fib: int
    lucas: int


def fib_lucas(n: int) -> FibLucasPair:
    """Fibonacci and Lucas numbers, re-verified against exact power sums.

    The four identities, with alpha = (1 + sqrt(5))/2, beta = (1 -
    sqrt(5))/2 = -theta and theta = (sqrt(5) - 1)/2, are F_n*sqrt(5) =
    alpha^n - beta^n, L_n = alpha^n + beta^n, and for n >= 1 F_n*theta =
    F_{n-1} - beta^n and L_n*theta = L_{n-1} + sqrt(5)*beta^n. They are
    checked on one power x + y*sqrt(5) = (1 + sqrt(5))^n, with x and y
    integers: alpha^n = (x + y*sqrt(5))/2^n, and beta^n, its conjugate, is
    (x - y*sqrt(5))/2^n. Comparing coordinates in the basis 1, sqrt(5):

    - F_n*sqrt(5) = alpha^n - beta^n is 2y = 2^n*F_n (its rational
      coordinates are both 0);
    - L_n = alpha^n + beta^n is 2x = 2^n*L_n (both sqrt(5) coordinates
      are 0);
    - F_n*theta = F_{n-1} - beta^n has rational coordinate x = 2^n*F_{n-1}
      + 2^(n-1)*F_n, and its sqrt(5) coordinate is 2y = 2^n*F_n again;
    - L_n*theta = L_{n-1} + sqrt(5)*beta^n has rational coordinate 5y =
      2^n*L_{n-1} + 2^(n-1)*L_n, and its sqrt(5) coordinate is 2x =
      2^n*L_n again.

    So the four integer equalities hold exactly when the four identities
    do, and each failure raises its own VerificationError.
    """
    if n < 0:
        raise DomainError("indexed from 0")
    f_prev, f = 1, 0  # F_{-1}, F_0
    l_prev, l = -1, 2  # L_{-1}, L_0
    for _ in range(n):
        f_prev, f = f, f + f_prev
        l_prev, l = l, l + l_prev
    _check_fib_lucas(n, f_prev, f, l_prev, l)
    return FibLucasPair(n=n, fib=f, lucas=l)


def _check_fib_lucas(n: int, f_prev: int, f: int, l_prev: int, l: int) -> None:
    """fib_lucas's four identities for F_{n-1}, F_n, L_{n-1}, L_n as the
    integer equalities its docstring derives, in the same order."""
    power = _ONE_PLUS_SQRT5**n  # x + y*sqrt(5), over z = 1
    x, y = power.a.numerator, power.b.numerator
    if 2 * y != f << n:
        raise VerificationError(f"Fibonacci {n} fails its power-sum form")
    if 2 * x != l << n:
        raise VerificationError(f"Lucas {n} fails its power-sum form")
    if n >= 1:
        if x != (f_prev << n) + (f << (n - 1)):
            raise VerificationError(f"Fibonacci {n} fails its shift identity")
        if 5 * y != (l_prev << n) + (l << (n - 1)):
            raise VerificationError(f"Lucas {n} fails its shift identity")


class _FibLucasTable(dict):
    """fib_lucas by index, each pair built and verified once per table.

    A table serves one public call: the grids, the crossing cell and the
    witness at one stage read their pairs from it.
    """

    def __missing__(self, n: int) -> FibLucasPair:
        self[n] = pair = fib_lucas(n)
        return pair


def frac_golden_multiple(m: int) -> QuadraticNumber:
    """Exact fractional part of m * (sqrt(5)-1)/2."""
    if m < 0:
        raise DomainError("multiples are indexed from 0")
    x = m * THETA_GOLDEN
    return x - x.floor()


@dataclass(frozen=True)
class FractionalGrids:
    """The two staircase grids of fractional parts behind the witness.

    lower[i][j] = base - i*step_up + j*step_right and upper[i][j] =
    lower[i][j] + diff, for 0 <= i < rows and 0 <= j < cols. Read
    column-major from the bottom row upward, either grid ascends by
    step_up within a column and by step_wrap from the top of one column
    to the bottom of the next; `start` is lower's least entry and `end`
    upper's greatest. The fields are closed forms; `lower` and `upper`
    are built from them only when read.
    """

    n: int
    rows: int
    cols: int
    base: QuadraticNumber  # lower[0][0]
    diff: QuadraticNumber  # upper - lower, constant
    step_right: QuadraticNumber
    step_up: QuadraticNumber
    step_wrap: QuadraticNumber
    start: QuadraticNumber  # lower[rows-1][0]
    end: QuadraticNumber  # upper[0][cols-1]

    @cached_property
    def lower(self) -> tuple[tuple[QuadraticNumber, ...], ...]:
        firsts = (self.base - i * self.step_up for i in range(self.rows))
        right = [j * self.step_right for j in range(self.cols)]
        return tuple(tuple(v + w for w in right) for v in firsts)

    @cached_property
    def upper(self) -> tuple[tuple[QuadraticNumber, ...], ...]:
        return tuple(tuple(v + self.diff for v in row) for row in self.lower)


def _grids(n: int, fl: _FibLucasTable) -> FractionalGrids:
    """The grids at any stage n >= 2, from their closed forms: base =
    theta^(2n-1), diff = theta^(2n+1), step_up = theta^(4n) and step_right
    = sqrt(5)*theta^(2n), with nothing checked."""
    th = THETA_GOLDEN
    rows = fl[2 * n + 1].lucas - 1
    cols = fl[2 * n].fib
    base, diff = th ** (2 * n - 1), th ** (2 * n + 1)
    up, right = th ** (4 * n), SQRT5 * th ** (2 * n)
    wrap = diff + 2 * up + th ** (6 * n + 1)
    start, end = base - (rows - 1) * up, base + diff + (cols - 1) * right
    return FractionalGrids(n, rows, cols, base, diff, right, up, wrap, start, end)


def fractional_grids(n: int) -> FractionalGrids:
    """The two grids at stage n (2..6), every fact checked in closed form.

    Checked exactly: base, step_right and 1 - step_up are the fractional
    parts of F_{2n-1}*theta, L_{2n}*theta and F_{4n}*theta; diff is
    step_right - base; step_wrap is step_right - (rows-1)*step_up; start
    and end have their closed forms; and rows*cols counts the admissible
    indices. That covers every entry with no walk over them: each entry
    is built as base - i*step_up + j*step_right, so the column and wrap
    steps hold by construction, and with step_up, step_wrap and diff all
    positive the column-major walk ascends from start > 0 to end < 1.

    Stages beyond 6 are refused: the grids grow like the square of the
    Fibonacci numbers and stop being useful to list.
    """
    if not 2 <= n <= 6:
        raise DomainError("grids are materialized for stages 2 through 6 only")
    th = THETA_GOLDEN
    fl = _FibLucasTable()
    g = _grids(n, fl)
    f2n, f4n = fl[2 * n], fl[4 * n]
    if frac_golden_multiple(fl[2 * n - 1].fib) != g.base:
        raise VerificationError("frac(F_{2n-1}*theta) misses its closed form")
    if frac_golden_multiple(f4n.fib) != 1 - g.step_up:
        raise VerificationError("frac(F_{4n}*theta) misses its closed form")
    if frac_golden_multiple(f2n.lucas) != g.step_right:
        raise VerificationError("frac(L_{2n}*theta) misses its closed form")
    if f4n.fib != f2n.fib * f2n.lucas:
        raise VerificationError("F_{4n} = F_{2n} * L_{2n} fails")
    if g.diff != g.step_right - g.base:
        raise VerificationError("grid offset misses theta^(2n+1)")
    if g.step_wrap != g.step_right - (g.rows - 1) * g.step_up:
        raise VerificationError("wrap step misses its closed form")
    for name in ("step_right", "step_up", "step_wrap", "diff"):
        if getattr(g, name).sign() <= 0:
            raise VerificationError(f"{name} is not positive")
    if g.start != 2 * th ** (4 * n) + th ** (6 * n + 1):
        raise VerificationError("grid start entry misses its closed form")
    if g.end != 1 - th ** (4 * n):
        raise VerificationError("grid end entry misses its closed form")
    if not (g.start.sign() > 0 and g.end < 1):
        raise VerificationError("grid entries escape the unit interval")
    # Mixed-radix coverage: the walk enumerates exactly the admissible k.
    if g.rows * g.cols != fl[4 * n + 1].fib - f2n.fib - 1:
        raise VerificationError("grid size misses the index count")
    return g


@dataclass(frozen=True)
class DiversityWitness:
    r: int
    a: int
    b: int
    first_mismatch: int
    bound: int


@dataclass(frozen=True)
class CrossingCell:
    """The one grid cell whose lower value sits below theta^2 and whose
    upper value sits above it, with the two closed-form predictions for
    the first disagreement index that cell encodes."""

    n: int
    i: int
    j: int
    lower: QuadraticNumber
    upper: QuadraticNumber
    candidate_low: int
    candidate_high: int


def crossing_cell(n: int) -> CrossingCell:
    """Exact facts about the crossing cell at stage n, all on one grid pair.

    Establishes, in exact arithmetic: the closed forms of the cell's two
    values, the strict two-sided brackets around theta^2, the integer
    identity tying the cell's position to the lower candidate index, and
    that no other cell brackets theta^2. The closed forms spell out each
    power of theta themselves, so they do not lean on the grid fields
    they check.

    Uniqueness is counted in closed form, at the same cost at every stage.
    Row i of the lower grid holds row0 + j*step_right with row0 = base -
    i*step_up and step_right > 0, so the cells with th2 - diff < row0 +
    j*step_right < th2 are the integers j strictly between lo0 + i*rise and
    hi0 + i*rise, clamped to [0, cols), where lo0 = (th2 - diff -
    base)/step_right, hi0 = (th2 - base)/step_right and rise =
    step_up/step_right = theta^(2n)/sqrt(5). As L_{2n+1}*theta^(2n) = phi -
    theta^(4n+1) and rows = L_{2n+1} - 1, the total rise (rows - 1)*rise =
    (phi - theta^(4n+1) - 2*theta^(2n))/sqrt(5) is below phi/sqrt(5) < 1.
    So over all rows each end of the interval passes an integer at most
    once, and _bracketed_cells counts the rows in at most three runs of
    equal count, checking the total rise exactly. A count other than one
    raises VerificationError.
    """
    if n < 2:
        raise DomainError("witness stages are indexed from 2")
    return _crossing_cell(n, _FibLucasTable())


def _crossing_cell(n: int, fl: _FibLucasTable) -> CrossingCell:
    th = THETA_GOLDEN
    g = _grids(n, fl)
    f2n, f4n, f4np1 = fl[2 * n], fl[4 * n], fl[4 * n + 1]

    # The cell sits in the bottom row, the one that starts at g.start.
    i_star = g.rows - 1
    j_star = fl[2 * n - 2].fib
    lower_e = g.start + j_star * g.step_right
    upper_e = lower_e + g.diff
    th2 = th * th
    t4, t4m2, t6p1 = th ** (4 * n), th ** (4 * n - 2), th ** (6 * n + 1)

    if lower_e != th2 + 2 * t4 + t6p1 - t4m2:
        raise VerificationError("crossing lower entry misses its closed form")
    if upper_e != th2 + SQRT5 * th ** (2 * n) + 2 * t4 + t6p1 - th ** (2 * n - 1) - t4m2:
        raise VerificationError("crossing upper entry misses its closed form")
    if not th2 - t4m2 < lower_e < th2:
        raise VerificationError("lower entry escapes its certified bracket")
    if not th2 < upper_e < th2 + th ** (2 * n - 3) + 3 * t4:
        raise VerificationError("upper entry escapes its certified bracket")

    candidate_low = f4np1.fib - fl[2 * n + 1].fib - 1
    candidate_high = f4np1.fib - f2n.fib - 1
    if i_star * f4n.fib + j_star * f2n.lucas != f2n.lucas * candidate_low:
        raise VerificationError("crossing cell index identity fails")

    # Both ends of row i's open interval move up by i * step_up/step_right.
    lo0 = (th2 - g.diff - g.base) / g.step_right
    hi0 = (th2 - g.base) / g.step_right
    rise = g.step_up / g.step_right
    hits = _bracketed_cells(lo0, hi0, rise, g.rows, g.cols)
    if hits != 1:
        raise VerificationError(f"expected one crossing cell, found {hits}")

    return CrossingCell(
        n=n,
        i=i_star,
        j=j_star,
        lower=lower_e,
        upper=upper_e,
        candidate_low=candidate_low,
        candidate_high=candidate_high,
    )


def _bracketed_cells(lo0, hi0, rise, rows: int, cols: int) -> int:
    """Number of cells (i, j) with 0 <= i < rows, 0 <= j < cols and lo0 +
    i*rise < j < hi0 + i*rise, for 0 < rise and (rows - 1)*rise < 1.

    Row i holds the j from floor(lo0 + i*rise) + 1 to ceil(hi0 + i*rise) -
    1, clamped to [0, cols). Each end rises by less than one over all rows,
    so the floor steps up once at most, at the first row s_lo with lo0 +
    i*rise >= floor(lo0) + 1, and so does the ceiling, at the first row s_hi
    with hi0 + i*rise > ceil(hi0); both are at least 1. Between the cuts 0,
    s_lo, s_hi and rows, every row of a run has the same two ends.
    A rise outside those limits raises VerificationError.
    """
    if rise.sign() <= 0 or (rows - 1) * rise >= 1:
        raise VerificationError("the rows must rise by more than 0 and less than 1 in all")
    lo, hi = lo0.floor(), -(-hi0).floor()
    s_lo = min(-(-(lo + 1 - lo0) / rise).floor(), rows)
    s_hi = min(((hi - hi0) / rise).floor() + 1, rows)
    cuts = sorted({0, s_lo, s_hi, rows})
    hits = 0
    for start, stop in zip(cuts, cuts[1:]):
        first = max(lo + 1 + (start >= s_lo), 0)
        last = min(hi - 1 + (start >= s_hi), cols - 1)
        hits += (stop - start) * max(last - first + 1, 0)
    return hits


def crossing_unique(n: int) -> bool:
    """True when exactly one grid cell brackets theta^2 at stage n.

    The count is crossing_cell's, made on the grids it builds; any other
    count raises VerificationError, and n < 2 raises DomainError.
    """
    crossing_cell(n)
    return True


@dataclass(frozen=True)
class WitnessReport:
    """Everything the crossing witness at stage n establishes.

    candidate_low and candidate_high are the two closed forms
    F_{4n+1} - F_{2n+1} - 1 and F_{4n+1} - F_{2n} - 1 for the first
    disagreement index; the direct bit scan adjudicates between them and
    `matches` records the outcome. The crossing pair is the unique grid
    cell whose lower value sits below theta^2 while its upper value sits
    above, which is exactly where the two subsequences part ways, and
    unique_crossing records crossing_cell's exact count showing that no
    other cell does (it is always True: the witness raises instead).
    """

    witness: DiversityWitness
    candidate_low: int
    candidate_high: int
    matches: str
    mismatch_bits: tuple[int, int]
    crossing_pair: tuple[int, int]
    crossing_lower: QuadraticNumber
    crossing_upper: QuadraticNumber
    unique_crossing: bool


def _largest_witness_stage() -> int:
    """Largest stage whose bit scan fits MAX_BITS.

    The scan at stage n reads L_{2n} * (F_{4n+1} - F_{2n} + 1) bits (the
    window r*(max_k - 1) + b + 1 of lower_bound_witness); the Fibonacci
    numbers are walked in plain integers and the walk stops at the first
    window past the budget.
    """
    f, n = [0, 1], 2
    while True:
        while len(f) <= 4 * n + 1:
            f.append(f[-1] + f[-2])
        if (f[2 * n - 1] + f[2 * n + 1]) * (f[4 * n + 1] - f[2 * n] + 1) > MAX_BITS:
            return n - 1
        n += 1


def lower_bound_witness(n: int) -> WitnessReport:
    """Golden-ratio witness showing agreement of quadratic length.

    Uses r = L_{2n}, offsets a = F_{2n-1} - 1 and b = L_{2n} - 1. All
    grid-entry facts, including the exact count showing that the crossing
    cell is unique, are established in exact arithmetic at every stage by
    one crossing_cell on one grid pair, which reads its Fibonacci and
    Lucas pairs from the witness's own table; the first disagreement index
    comes from a direct scan of the bits, which is the ground truth the
    closed forms are judged against.

    The stages served are 2 through the largest whose scan fits MAX_BITS
    (7 at MAX_BITS = 2^29); any other stage raises DomainError before
    any work is done.
    """
    top = _largest_witness_stage()
    if not 2 <= n <= top:
        raise DomainError(
            f"the witness serves stages 2 through {top}, "
            f"the last whose bit scan fits MAX_BITS = {MAX_BITS} bits"
        )
    fl = _FibLucasTable()
    cell = _crossing_cell(n, fl)
    f2n = fl[2 * n]
    r = f2n.lucas
    a = fl[2 * n - 1].fib - 1
    b = f2n.lucas - 1
    bound = 2 * 9 * r * r  # B = 1 for the golden ratio: 2*(B+2)^2 = 18

    # Ground truth: scan the actual bits.
    max_k = cell.candidate_high + 2
    word = characteristic_bits(GOLDEN, r * (max_k - 1) + b + 1)
    k_star = agreement(word, r, a, b, max_k)
    if k_star is None:
        raise VerificationError("no disagreement found where one must exist")
    bits_at = (word[r * k_star + a], word[r * k_star + b])
    if k_star == cell.candidate_low:
        matches = "low"
    elif k_star == cell.candidate_high:
        matches = "high"
    else:
        matches = "neither"

    return WitnessReport(
        witness=DiversityWitness(r=r, a=a, b=b, first_mismatch=k_star, bound=bound),
        candidate_low=cell.candidate_low,
        candidate_high=cell.candidate_high,
        matches=matches,
        mismatch_bits=bits_at,
        crossing_pair=(cell.i, cell.j),
        crossing_lower=cell.lower,
        crossing_upper=cell.upper,
        unique_crossing=True,
    )


@dataclass(frozen=True)
class RatioReport:
    """How F_{4n+1} / L_{2n}^2 behaves as the witness stage grows.

    Two closed-form limits are on the table: (5 + sqrt(5))/10 and
    (10 + sqrt(5))/10. The rows decide empirically which one the data
    approaches; `approached` is the index into `candidates`.
    """

    rows: tuple[tuple[int, Fraction], ...]
    candidates: tuple[QuadraticNumber, QuadraticNumber]
    approached: int


def witness_ratio_report(n_lo: int = 2, n_hi: int = 8) -> RatioReport:
    """The ratio F_{4n+1} / L_{2n}^2 at the witness stages n_lo..n_hi.

    Each row is (n, F_{4n+1}/L_{2n}^2) as an exact Fraction, with both
    numbers taken from fib_lucas, so their identities are checked. The
    candidates are the limits (5 + sqrt(5))/10 and (10 + sqrt(5))/10, and
    `approached` is the index of the one nearer the last row's ratio, as
    decided by an exact comparison of the two distances.
    """
    if not 1 <= n_lo <= n_hi:
        raise DomainError("need 1 <= n_lo <= n_hi")
    rows = []
    for n in range(n_lo, n_hi + 1):
        f = fib_lucas(4 * n + 1).fib
        l = fib_lucas(2 * n).lucas
        rows.append((n, Fraction(f, l * l)))
    cand = (
        QuadraticNumber(Fraction(1, 2), Fraction(1, 10), 5),  # (5 + sqrt5)/10
        QuadraticNumber(1, Fraction(1, 10), 5),  # (10 + sqrt5)/10
    )
    last = rows[-1][1]
    d0 = abs(cand[0] - last)
    d1 = abs(cand[1] - last)
    approached = 0 if d0 < d1 else 1
    return RatioReport(rows=tuple(rows), candidates=cand, approached=approached)
