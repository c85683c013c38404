"""Inhomogeneous approximation: solving |n*theta - p - beta| < bound.

For theta with partial quotients at most B, every target beta in [0, 1)
admits integers 0 <= n <= N and |p| <= N with error below C(B)/(2N),
where C(B) is the same sharp constant that governs the largest gap. The
solver is the constructive argument behind that statement: locate beta
inside the sorted multiples of theta, take the nearer bracketing point,
and read (n, p) off that point. The classical pigeonhole route only
promises a useful error once N reaches (B+2) times the square of the
target resolution, which is kept around for comparison.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .cf import CFSpec
from .errors import DomainError, VerificationError
from .gaps import GapSet, gap_constant, gap_set
from .quadratic import QuadraticNumber


@dataclass(frozen=True)
class KroneckerSolution:
    """One certified solution of the approximation problem."""

    n: int
    p: int
    achieved: Fraction  # |n*theta - p - beta| under the exact surrogate
    bound: QuadraticNumber  # C(B) / (2N)
    legacy_bound: int  # (B+2) * N^2, the pigeonhole point count
    within_bound: bool
    depth: int


def solve(
    cf: CFSpec,
    beta: Fraction,
    N: int,
    *,
    min_radius: Fraction | None = None,
) -> KroneckerSolution:
    """Best bracketing solution of |n*theta - p - beta| for 0 <= n <= N.

    theta must lie in (0, 1). Ties between the two bracketing points go to
    the left one. When beta falls in the final gap and the nearer endpoint
    is 1, the solution is (n, p) = (0, -1). The certified error comparison
    against C(B)/(2N) deepens the surrogate until it is decidable.
    """
    beta = Fraction(beta)
    if not 0 <= beta < 1:
        raise DomainError("target must lie in [0, 1)")
    if N < 1:
        raise DomainError("need at least one multiple")
    if cf.a0 != 0 or cf.is_integer:
        raise DomainError("theta must lie strictly between 0 and 1")
    B = cf.bound()
    bound = gap_constant(B) / (2 * N)
    legacy = (B + 2) * N * N

    current = min_radius
    for _ in range(12):
        gs = gap_set(cf, N, min_radius=current)
        n, p, achieved = _nearest_endpoint(gs, beta)
        slack = N * gs.radius
        if achieved + slack <= bound:
            return KroneckerSolution(
                n=n,
                p=p,
                achieved=achieved,
                bound=bound,
                legacy_bound=legacy,
                within_bound=True,
                depth=gs.depth,
            )
        if achieved - slack > bound:
            # Genuine violation of the sharp bound; report it rather than
            # pretend, so a caller (or the acceptance suite) can see it.
            return KroneckerSolution(
                n=n,
                p=p,
                achieved=achieved,
                bound=bound,
                legacy_bound=legacy,
                within_bound=False,
                depth=gs.depth,
            )
        current = gs.radius / 2**40
    raise VerificationError("could not separate the achieved error from the bound")


def _nearest_endpoint(gs: GapSet, beta: Fraction) -> tuple[int, int, Fraction]:
    q, num = gs.denominator, gs.numerator
    orders = gs.orders
    last = len(orders) - 1
    # Rightmost slot whose point is <= beta, reading each probed value off
    # its multiple. beta in [0, 1) and the points span [0, 1], so slot 0
    # (the point 0) always qualifies and slot `last` (the point 1) never does.
    i = bisect_right(
        orders,
        beta.numerator * q,
        lo=1,
        hi=last,
        key=lambda n: int(n) * num % q * beta.denominator,
    )
    n_left, n_right = int(orders[i - 1]), int(orders[i])
    left = n_left * num % q
    right = q if i == last else n_right * num % q
    d_left = beta - Fraction(left, q)
    d_right = Fraction(right, q) - beta
    if d_left <= d_right:
        n, value, err = n_left, left, d_left
    else:
        n, value, err = n_right, right, d_right
    # p = floor(n * theta*) from the exact residue; the endpoint 1 gives
    # (n, p) = (0, -1).
    return n, (n * num - value) // q, err


def legacy_bound(bound: int, N: int) -> int:
    """Pigeonhole point count (B+2)*N^2 needed for resolution 1/N."""
    if bound < 1 or N < 1:
        raise DomainError("bound and N must be positive")
    return (bound + 2) * N * N
