"""Inhomogeneous approximation: solving |n*theta - p - beta| < bound.

For theta with partial quotients at most B, every target beta in [0, 1)
admits integers 0 <= n <= N and |p| <= N with error below C(B)/(2N),
where C(B) is the same sharp constant that governs the largest gap. The
solver is the constructive argument behind that statement: take the
nearest multiple of theta on either side of beta, each the minimum of an
affine sequence modulo one, keep the nearer, and read (n, p) off it. The classical pigeonhole route only
promises a useful error once N reaches (B+2) times the square of the
target resolution, which is kept around for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cf import CFSpec, certify, min_affine_mod
from .errors import DomainError
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
    is 1, the solution is (n, p) = (0, -1). cf.certify deepens the
    surrogate from min_radius until the error compares strictly with
    C(B)/(2N), or raises a VerificationError naming cf, N and beta.
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

    def attempt(radius):
        gs = gap_set(cf, N, min_radius=radius)
        n, p, achieved = _nearest_endpoint(gs, beta)
        slack = N * gs.radius
        # A genuine violation of the sharp bound is reported rather than
        # hidden, so a caller (or the acceptance suite) can see it.
        within = achieved + slack <= bound
        if not within and achieved - slack <= bound:
            return gs.radius, None
        return gs.radius, KroneckerSolution(
            n=n,
            p=p,
            achieved=achieved,
            bound=bound,
            legacy_bound=legacy_bound(B, N),
            within_bound=within,
            depth=gs.depth,
        )

    return certify(attempt, min_radius, "the error against C(B)/(2N)", cf=cf, N=N, beta=beta)


def _nearest_endpoint(gs: GapSet, beta: Fraction) -> tuple[int, int, Fraction]:
    q, num = gs.denominator, gs.numerator
    u, d = beta.numerator, beta.denominator
    # Over q*d, the point of n lies (n*num*d - u*q) mod q*d to the right
    # of beta and (u*q - n*num*d) mod q*d to its left; n = 0 stands for the
    # point 0 on the left and for the point 1 on the right. A residue fixes
    # its n, since N < q.
    d_right, n_right = min_affine_mod(gs.count + 1, q * d, num * d, -u * q)
    d_left, n_left = min_affine_mod(gs.count + 1, q * d, -num * d, u * q)
    if d_left <= d_right:
        n, value, err = n_left, (u * q - d_left) // d, d_left
    else:
        n, value, err = n_right, (u * q + d_right) // d, d_right
    # p = floor(n * theta*) from the exact residue value/q; the endpoint 1
    # gives (n, p) = (0, -1).
    return n, (n * num - value) // q, Fraction(err, q * d)


def legacy_bound(bound: int, N: int) -> int:
    """Pigeonhole point count (B+2)*N^2 needed for resolution 1/N."""
    if bound < 1 or N < 1:
        raise DomainError("bound and N must be positive")
    return (bound + 2) * N * N
