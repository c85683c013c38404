"""Inhomogeneous approximation: solving |n*theta - p - beta| < bound.

For theta with partial quotients at most B, every target beta in [0, 1)
admits integers 0 <= n <= N and |p| <= N with error below C(B)/(2N),
where C(B) is the same sharp constant that governs the largest gap. The
solver is the constructive argument behind that statement: take the
nearest multiple of theta on either side of beta, each the minimum of an
affine sequence modulo one, keep the nearer, and read (n, p) off it. The
two sides are found under the fraction a gap set of N multiples reads
theta as; which is nearer is decided on the exact theta, on the integer
numerators of the two errors, and the error is then compared with
C(B)/(2N). The classical pigeonhole route only
promises a useful error once N reaches (B+2) times the square of the
target resolution, which is kept around for comparison.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .cf import CFSpec, Walk, _exact, min_affine_mod
from .errors import DomainError
from .gaps import _surrogate, gap_constant
from .quadratic import QuadraticNumber, _make, _sign


@dataclass(frozen=True)
class KroneckerSolution:
    """One exact solution of the approximation problem."""

    n: int
    p: int
    achieved: Fraction | QuadraticNumber  # |n*theta - p - beta| for theta itself
    bound: QuadraticNumber  # C(B) / (2N)
    legacy_bound: int  # (B+2) * N^2, the pigeonhole point count
    within_bound: bool


def solve(cf: CFSpec, beta: Fraction, N: int) -> KroneckerSolution:
    """The nearest point to beta among {n*theta}, 0 <= n <= N, and the
    endpoint 1, with its error |n*theta - p - beta|.

    theta must lie in (0, 1). Ties go to the left point. When the nearest
    point is the endpoint 1, the solution is (n, p) = (0, -1).

    theta is read as the p_K/q_K that gaps._surrogate picks for N (theta
    itself when rational), and two min_affine_mod queries give the
    multiples L and R whose points lie nearest to beta under it, on its
    left and on its right, with p = floor(n*p_K/q_K) (-1 for the endpoint
    1). With theta = (x + y*sqrt(d))/z exactly, as eval_theta gives it, and
    beta = u/v, each error n*theta - p - beta is (X + Y*sqrt(d))/(z*v) for
    integers X and Y, negated when negative so that it stands for the
    absolute error. One quadratic._sign of the difference of the two
    numerators picks the nearer, the error is built once from the one
    kept, and within_bound is one exact comparison with C(B)/(2N).

    The nearest point for theta itself is always L's or R's. The
    substitution moves each point by at most delta = N/(q_K*q_(K+1)), below
    1/(16(B+2)N). No two of the points 0, {theta}, ..., {N*theta}, 1 lie
    closer than g = min ||m*theta|| over 1 <= m <= N, and g > 1/((B+2)N)
    since ||m*theta|| >= ||q_k*theta|| > 1/((a_(k+1) + 2)*q_k) for
    q_k <= m < q_(k+1). So delta < g/16: the points keep their order, and
    L and R stay neighbours. The floors keep too: for 1 <= n <= N < q_K,
    n*p_K/q_K lies at least 1/q_K from an integer, and
    |n*theta - n*p_K/q_K| < 1/q_(K+1). If beta lies between the true points of L and R, they are
    its true neighbours. Otherwise it lies within delta of one of them,
    and every other point lies at least g - delta > delta from beta.
    """
    beta, N, B, bound = _arguments(cf, beta, N)
    walk = Walk(cf)
    theta = _exact(walk)
    # From here on only the surrogate's pair, at the walk's end, is read.
    walk.window = 5
    num, q, _, _ = _surrogate(walk, N)
    if isinstance(theta, Fraction):
        x, y, z, d = theta.numerator, 0, theta.denominator, 1
    else:
        x, y, z, d = theta._x, theta._y, theta._z, theta._d
    u, v = beta.numerator, beta.denominator
    # Over z*v > 0, n*theta - p - beta has numerator X + Y*sqrt(d) with
    # X = v*(n*x - p*z) - u*z and Y = v*n*y; negated when negative, it is
    # the numerator of the absolute error.
    (n, p), (n_right, p_right) = _neighbours(num, q, N, beta)
    X, Y = v * (n * x - p * z) - u * z, v * n * y
    X_right, Y_right = v * (n_right * x - p_right * z) - u * z, v * n_right * y
    if _sign(X, Y, d) < 0:
        X, Y = -X, -Y
    if _sign(X_right, Y_right, d) < 0:
        X_right, Y_right = -X_right, -Y_right
    # Ties go to the left point.
    if _sign(X_right - X, Y_right - Y, d) < 0:
        n, p, X, Y = n_right, p_right, X_right, Y_right
    achieved = Fraction(X, z * v) if y == 0 else _make(X, Y, z * v, d)
    return KroneckerSolution(
        n=n,
        p=p,
        achieved=achieved,
        bound=bound,
        legacy_bound=legacy_bound(B, N),
        within_bound=achieved < bound,
    )


def _arguments(cf: CFSpec, beta, N) -> tuple[Fraction, int, int, QuadraticNumber]:
    """solve's checked arguments (beta, N, B) and its bound C(B)/(2N),
    before any convergent is walked."""
    beta = Fraction(beta)
    if not 0 <= beta < 1:
        raise DomainError("target must lie in [0, 1)")
    N = operator.index(N)
    if N < 1:
        raise DomainError("need at least one multiple")
    if cf.a0 != 0 or cf.is_integer:
        raise DomainError("theta must lie strictly between 0 and 1")
    B = cf.bound()
    return beta, N, B, gap_constant(B) / (2 * N)


def _neighbours(num: int, q: int, N: int, beta: Fraction) -> list[tuple[int, int]]:
    """(n, p) of the nearest point to beta under theta = num/q on its left,
    then on its right, with p = floor(n*num/q); the endpoint 1 is (0, -1)."""
    u, d = beta.numerator, beta.denominator
    # Over q*d, the point of n lies (n*num*d - u*q) mod q*d to the right
    # of beta and (u*q - n*num*d) mod q*d to its left; n = 0 stands for the
    # point 0 on the left and for the point 1 on the right. A residue fixes
    # its n, since N < q.
    d_left, n_left = min_affine_mod(N + 1, q * d, -num * d, u * q)
    d_right, n_right = min_affine_mod(N + 1, q * d, num * d, -u * q)
    # The point's numerator over q is value = (u*q -+ distance)/d, and
    # p = (n*num - value) // q; the endpoint 1 has value q.
    return [
        (n_left, (n_left * num - (u * q - d_left) // d) // q),
        (n_right, (n_right * num - (u * q + d_right) // d) // q),
    ]


def legacy_bound(bound: int, N: int) -> int:
    """Pigeonhole point count (B+2)*N^2 needed for resolution 1/N."""
    if bound < 1 or N < 1:
        raise DomainError("bound and N must be positive")
    return (bound + 2) * N * N
