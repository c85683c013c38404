"""Gap structure of the multiples of a number modulo one.

For any real theta, the points 0, {theta}, {2*theta}, ..., {N*theta}, 1
split the unit interval into gaps that take at most three distinct
lengths, and when three occur the largest is exactly the sum of the other
two. This module computes those gaps exactly, classifies which regime a
given N falls into, and evaluates the sharp constant governing how large
N times the biggest gap can get over all numbers with bounded partial
quotients.

Exactness policy: an irrational theta is replaced by the convergent
p_K/q_K the caller's radius asks for (a rational theta is used as it
is), and the gap lengths and multiplicities are read off its
convergents by the three-distance theorem, as integers over q_K, in
O(log N) steps without building any point. Each public call reads
theta's convergents off one cf.Walk, grown on demand: verify_regime's
class, surrogate, three-distance bracket and staircase bracket all come
off the same two lists. Points are built only when
they are listed: the successor walk of Sos (1958) steps from each
multiple to its right neighbour using only the multiples of the
smallest and the largest point. The walk must visit every multiple once
and its steps must give back the theorem's lengths exactly, and since
those add up to exactly one, this certifies the order.

The extremal witness builds no GapSet. One Walk of the convergents of
theta = [0; (B, 1)] gives its pair, its N, its
three-distance bracket and the surrogate of every certification round;
each round runs gap_set's checks on the lengths under p_K/q_K and
decides N*H < f(B) as one exact sign on f's integers.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

from . import render
from .cf import CFSpec, Convergent, Walk, _exact, _least, eval_theta, min_affine_mod
from .errors import CoincidentPointsError, DomainError, VerificationError
from .quadratic import QuadraticNumber, _make, _sign, squarefree_decompose

# Most multiples a listing puts in order; reading GapSet.orders (or the
# points built on it) past this raises DomainError before the walk runs.
MAX_POINTS = 2**20
# Deepest extremal witness stage served; a deeper one raises DomainError
# before any convergent is built. The deepest stage whose product
# certifies, per bound: 1:266, 2:201, 3:165, 4:147, 5:137, 6:128, 7:119,
# 8:119, 9:111, 10:110, 11:101, 12:101. Every deeper stage up to 1000
# gives up (VerificationError) in well under a second.
MAX_STAGE = 1000
# Surrogates the witness certification tries before it gives up.
CERT_ROUNDS = 10


@dataclass(frozen=True, eq=False)
class GapSet:
    """Exact gap decomposition of {0, {theta}, ..., {N*theta}, 1}.

    numerator/denominator is the surrogate p_K/q_K the lengths and values
    are read under (the exact value for rational input); radius bounds
    |theta - p/q| for that surrogate and is zero for rationals. gap_nums
    comes from the three-distance theorem; the points are put in order
    only when orders (or anything built on it) is first read.
    """

    count: int
    numerator: int
    denominator: int
    depth: int
    radius: Fraction
    gap_nums: tuple[tuple[int, int], ...]  # ascending (length numerator, multiplicity)

    @cached_property
    def orders(self) -> tuple[int, ...]:
        """Multiples 0, n_1, ..., n_N, 0 from left to right (N + 2 entries).

        The point of n sits at (n*numerator mod denominator)/denominator,
        with the final 0 standing for the endpoint 1. With a the multiple
        of the smallest positive point and b that of the largest, the
        right neighbour of n is n + a, else n - b, else n + a - b (Sos
        1958). The walk takes N + 1 such steps from 0; its steps must be a
        certificate of the order, which it checks in three parts.

        - 0 < a, b <= N < a + b. Then the steps move [0, N - a] onto
          [a, N], [b, N] onto [0, N - b] and the n in between onto
          (N - b, a): the step rule is a bijection of 0..N.
        - 0 first comes back after exactly N + 1 steps. Under a bijection
          0's cycle then holds every multiple, so each is visited once,
          and each is left by the step its range fixes: the steps n + a,
          n - b and n + a - b are taken N + 1 - a, N + 1 - b and
          a + b - N - 1 times, with no counting.
        - Those lengths and multiplicities equal gap_nums.

        The same walk adds up the point numerators, and stores them as
        nums once every check passes.
        """
        N, p, q = self.count, self.numerator, self.denominator
        if N > MAX_POINTS:
            raise DomainError(f"listing {N} points is past MAX_POINTS = {MAX_POINTS}")
        a = min_affine_mod(N, q, p, p)[1] + 1
        # (q - 1 - n*p) mod q is least where n*p mod q is largest.
        b = min_affine_mod(N, q, -p, -p - 1)[1] + 1
        if not (0 < a <= N and 0 < b <= N < a + b):
            raise VerificationError("the successor walk's steps are out of range")
        # Neighbours n and n' are {(n' - n)*theta} apart.
        up, down, both = a * p % q, -b * p % q, (a - b) * p % q
        last_up, across = N - a, a - b
        n = v = 0
        orders, nums = [0], [0]
        for _ in range(N + 1):
            if n <= last_up:
                n += a
                v += up
            elif n >= b:
                n -= b
                v += down
            else:
                n += across
                v += both
            orders.append(n)
            nums.append(v)
        # A bijection brings 0 back within N + 1 steps, so index finds it.
        if orders.index(0, 1) != N + 1:
            raise VerificationError("the successor walk does not visit each multiple once")
        orders = tuple(orders)
        lengths = _merged(((up, N + 1 - a), (down, N + 1 - b), (both, a + b - N - 1)))
        # A cyclic tour's forward distances add up to q times its windings,
        # and gap_nums adds up to q, so this also rules out a tour out of
        # order under p/q.
        if lengths != self.gap_nums:
            raise VerificationError("the successor walk disagrees with the three-distance gaps")
        self.__dict__["nums"] = tuple(nums)
        return orders

    @cached_property
    def nums(self) -> tuple[int, ...]:
        """Point numerators over denominator, ascending, with 0 and denominator.

        orders' walk builds them as running sums of its steps' gap
        lengths, with no n*p mod q per point. They are the residues: a
        step from n to n' adds (n' - n)*p mod q, so each sum is n'*p mod q
        plus a multiple of q. Once the walk's counts equal gap_nums, every
        length added is a positive one of gap_nums and they add up to q,
        so the sums rise strictly from 0 to q, and each one in between
        lies in (0, q) and is exactly n'*p mod q.
        """
        self.orders  # the walk stores nums as it certifies
        return self.__dict__["nums"]

    @cached_property
    def points(self) -> list[Fraction]:
        return [Fraction(v, self.denominator) for v in self.nums]

    @cached_property
    def gaps(self) -> list[tuple[Fraction, int]]:
        return [(Fraction(g, self.denominator), m) for g, m in self.gap_nums]

    @property
    def largest(self) -> Fraction:
        return Fraction(self.gap_nums[-1][0], self.denominator)

    @property
    def product(self) -> Fraction:
        """N times the largest gap."""
        return self.count * self.largest

    def order_of(self, num: int) -> int:
        """Which multiple n has {n*theta} at the point num/denominator.

        The endpoints 0 and 1 both belong to n = 0.
        """
        if num == 0 or num == self.denominator:
            return 0
        n = (num * pow(self.numerator, -1, self.denominator)) % self.denominator
        if not 1 <= n <= self.count:
            raise VerificationError("point does not belong to any multiple")
        return n

    def largest_gap_span(self) -> tuple[Fraction, Fraction]:
        """Endpoints of one gap of maximal length."""
        want = self.gap_nums[-1][0]
        prev = 0
        for v in self.nums[1:]:
            if v - prev == want:
                return Fraction(prev, self.denominator), Fraction(v, self.denominator)
            prev = v
        raise AssertionError("largest gap disappeared")

    def length_strs(self, sig: int = 10) -> list[str]:
        """The ascending gap lengths as decimal strings, rendered in one run
        over the shared denominator."""
        return render._ratios_str([g for g, _ in self.gap_nums], self.denominator, sig)

    def to_json_dict(self, sig: int = 10) -> dict:
        lengths = self.length_strs(sig)
        return {
            "n": self.count,
            "k_surrogate": self.depth,
            "points": render._ratios_str(self.nums, self.denominator, sig),
            "gaps": [
                {"length": s, "multiplicity": m}
                for s, (_, m) in zip(lengths, self.gap_nums)
            ],
            # The largest gap is the last length: the same value, so the same string.
            "h": lengths[-1],
            "product_nh": render.decimal_str(self.product, sig),
        }


def _distance_bracket(walk: Walk, n: int) -> tuple[int, int, int, int]:
    """(p_(k-1), q_(k-1), p_k, q_k) of walk's theta for the k with q_k +
    q_(k-1) <= n < q_(k+1) + q_k, or the last k of a rational expansion.

    Starting from p_(-1) = 1 and q_(-1) = 0 also covers n <= a_1. Two q's
    that multiply to n^2 or more add up to more than n, so the walk grown
    to that product holds k. Grown just that far, its q two places below
    the end is below n, so k lies at most three places below the end: the
    scan goes down from there, and a walk with a window of five holds all
    it reads.
    """
    walk.grow(1, n * n)
    ps, qs = walk.ps, walk.qs
    k = len(qs) - 1
    while k and qs[k] + qs[k - 1] > n:
        k -= 1
    return (ps[k - 1], qs[k - 1], ps[k], qs[k]) if k else (1, 0, ps[0], qs[0])


def _distances(bracket, p: int, q: int, n: int) -> tuple[tuple[int, int], ...]:
    """(length numerator, multiplicity) of the n points 0, {p/q}, ...,
    {(n-1)*p/q}, ascending, for n <= q with p/q a convergent of theta (or
    theta itself), from _distance_bracket(walk, n) of theta's walk.

    With q_k + q_{k-1} <= n < q_{k+1} + q_k, n - q_{k-1} = m*q_k + r and
    eta_j = |q_j*p - p_j*q|, the lengths are eta_k (n - q_k times),
    eta_{k-1} - m*eta_k (r times) and eta_{k-1} - (m-1)*eta_k (q_k - r
    times) (Sos 1958; van Ravenstein 1988).
    """
    p_km1, q_km1, p_k, q_k = bracket
    m, r = divmod(n - q_km1, q_k)
    eta_k = abs(q_k * p - p_k * q)
    eta_km1 = abs(q_km1 * p - p_km1 * q)
    return _merged(
        (
            (eta_k, n - q_k),
            (eta_km1 - m * eta_k, r),
            (eta_km1 - (m - 1) * eta_k, q_k - r),
        )
    )


def _merged(pairs) -> tuple[tuple[int, int], ...]:
    """Ascending (length, multiplicity) with zero multiplicities dropped
    and equal lengths merged, which only rationals produce (3/7 at N = 6
    has one length, 1/7, seven times)."""
    lengths: dict[int, int] = {}
    for g, m in pairs:
        if m:
            lengths[g] = lengths.get(g, 0) + m
    return tuple(sorted(lengths.items()))


def _surrogate(walk: Walk, N: int, min_radius: Fraction | None = None):
    """(p mod q, q, depth, radius) of the fraction p/q that walk's theta is
    read as for N multiples.

    A rational theta is its own p/q, at radius 0, and needs N < q, or
    points coincide. An irrational one is the convergent p_K/q_K that
    choose_surrogate picks for N (and min_radius), within radius
    1/(q_K*q_(K+1)) of theta.
    """
    cf = walk.cf
    if cf.is_rational:
        v = cf.value()
        q = v.denominator
        if N >= q:
            raise CoincidentPointsError(
                f"rational input with denominator {q} supports only N < {q}"
            )
        return v.numerator % q, q, len(cf.prefix), Fraction(0)
    K = walk.first_past(_least(cf.bound(), N, min_radius))
    ps, qs = walk.ps, walk.qs
    return ps[K] % qs[K], qs[K], K, Fraction(1, qs[K] * qs[K + 1])


def gap_set(cf: CFSpec, N: int, *, min_radius: Fraction | None = None) -> GapSet:
    """Exact gap set of the first N multiples of theta modulo one.

    Rational input is evaluated with its own denominator and must satisfy
    N < that denominator, otherwise points coincide and the decomposition
    is not defined. The returned structure always satisfies the
    machine-checked facts: there are two or three distinct gap lengths
    (rationals may split the interval evenly, giving one), with three the
    largest equals the sum of the other two exactly, the lengths add up
    to one and the multiplicities to N + 1. No point is built here; see
    GapSet.orders.
    """
    walk = Walk(cf)
    # _gap_set reads only the newest five entries of a walk of its own.
    walk.window = 5
    return _gap_set(walk, N, min_radius)


def _gap_set(walk: Walk, N: int, min_radius: Fraction | None) -> GapSet:
    """gap_set of walk's theta, read off walk."""
    N = operator.index(N)  # rejects 10.5, which would pass every check below
    if N < 1:
        raise DomainError("need at least one multiple")
    cf = walk.cf
    if cf.is_integer:
        raise DomainError("integer input has every multiple at zero")
    # The three-distance bracket comes first, near the end of a walk grown
    # no further than it needs; the surrogate then grows the walk on.
    bracket = _distance_bracket(walk, N + 1)
    p, q, depth, radius = _surrogate(walk, N, min_radius)
    # The bracket's p_j are theta's own, so they are read against p/q with
    # a0 added back. A rational theta can split the interval evenly (one
    # gap length); an irrational one always produces two or three.
    gap_nums = _checked(_distances(bracket, p + cf.a0 * q, q, N + 1), q, N,
                        1 if cf.is_rational else 2)
    return GapSet(
        count=N,
        numerator=p,
        denominator=q,
        depth=depth,
        radius=radius,
        gap_nums=gap_nums,
    )


def _checked(gap_nums, q: int, N: int, fewest: int = 2) -> tuple[tuple[int, int], ...]:
    """gap_nums, the N + 1 gaps of N multiples under p/q, once the
    three-distance facts hold exactly: no coincident points, fewest to
    three lengths, with three the largest the sum of the other two, the
    lengths adding up to q and the multiplicities to N + 1."""
    if gap_nums[0][0] == 0:
        raise CoincidentPointsError("coincident points in the multiple set")
    if not fewest <= len(gap_nums) <= 3:
        raise VerificationError(
            f"{len(gap_nums)} distinct gap lengths; two or three must occur"
        )
    if len(gap_nums) == 3 and gap_nums[2][0] != gap_nums[0][0] + gap_nums[1][0]:
        raise VerificationError("largest gap is not the sum of the smaller two")
    if sum(g * m for g, m in gap_nums) != q:
        raise VerificationError("gaps do not cover the unit interval")
    if sum(m for _, m in gap_nums) != N + 1:
        raise VerificationError("gap multiplicities do not count N + 1 gaps")
    return gap_nums


# ---- regime classification -------------------------------------------


@dataclass(frozen=True)
class RegimeTag:
    """Which bracket of denominators N falls into.

    With q_k <= N < q_{k+1} and l = (N - q_{k-1}) // q_k, the case is
    "interval-1" when l = 0 (gaps drawn from the two convergent residuals
    and their sum) and "interval-2" otherwise (gaps drawn from the k-th
    residual and two staircase combinations).
    """

    k: int
    l: int

    @property
    def case(self) -> str:
        return "interval-1" if self.l == 0 else "interval-2"


def classify_regime(cf: CFSpec, N: int) -> RegimeTag:
    """Locate N among the denominator brackets of theta's convergents."""
    return _classify(Walk(cf), N)


def _classify(walk: Walk, N: int) -> RegimeTag:
    """classify_regime of walk's theta, read off walk."""
    N = operator.index(N)
    cf = walk.cf
    if cf.is_integer:
        raise DomainError("integer input has no convergent brackets")
    # Two q's that multiply to (N + 1)^2 or more end on one past N.
    walk.grow(1, (N + 1) ** 2)
    qs = walk.qs
    if qs[-1] <= N:
        # rational expansion exhausted without exceeding N
        raise CoincidentPointsError(
            f"rational input resolves only N < {qs[-1]}"
        )
    if qs[1] > N:
        raise DomainError(f"N must be at least q_1 = {qs[1]}")
    # q_k is the last at most N.
    k = bisect_right(qs, N) - 1
    l = (N - qs[k - 1]) // qs[k]
    a_next = cf.quotient(k + 1)
    if not 0 <= l < a_next:
        raise VerificationError("bracket index escaped its range")
    return RegimeTag(k=k, l=l)


def _bracket(walk: Walk, tag: RegimeTag) -> tuple[Convergent, Convergent]:
    """The convergents c_{k-1} and c_k of tag's bracket."""
    k = tag.k
    if k < 1:
        raise DomainError(f"expansion has no convergents of index {k - 1} and {k}")
    return walk.convergent(k - 1), walk.convergent(k)


def _staircase(bracket: tuple[Convergent, Convergent], l: int, p, q: int) -> list:
    """The predicted gaps as numerators over q, read under p/q: a
    convergent p_K/q_K of theta, or theta itself over q = 1.

    With (c_{k-1}, c_k) the bracket and eta_j = |q_j*p - p_j*q|, the
    numerators are eta_k, eta_{k-1} - l*eta_k and eta_{k-1} - (l - 1)*eta_k
    (Sos 1958); at l = 0 the last two are eta_{k-1} and eta_{k-1} + eta_k.
    """
    c_km1, c_k = bracket
    eta_k, eta_km1 = (abs(c.q * p - c.p * q) for c in (c_k, c_km1))
    return [eta_k, eta_km1 - l * eta_k, eta_km1 - (l - 1) * eta_k]


def predicted_gap_values(cf: CFSpec, tag: RegimeTag) -> list[Fraction | QuadraticNumber]:
    """The exact gap lengths the classification predicts may occur for
    theta itself: r_k, r_{k-1} - l*r_k and r_{k-1} - (l - 1)*r_k with
    r_j = |q_j*theta - p_j|."""
    walk = Walk(cf)
    return _staircase(_bracket(walk, tag), tag.l, _exact(walk), 1)


def verify_regime(
    cf: CFSpec, N: int, *, min_radius: Fraction | None = None
) -> tuple[RegimeTag, GapSet, list[Fraction], bool]:
    """Classify N and check the observed gaps against the prediction.

    Returns (tag, gap set, predicted lengths, all-observed-are-predicted).
    The prediction is read under the gap set's own p_K/q_K, so each
    observed numerator must be one of the predicted ones exactly. min_radius
    deepens the surrogate past the policy minimum, as in gap_set. One walk
    of theta's convergents gives the class, the surrogate and both brackets.
    """
    walk = Walk(cf)
    tag = _classify(walk, N)
    gs = _gap_set(walk, N, min_radius)
    # gs.numerator is reduced modulo q; the convergents carry a0.
    p, q = gs.numerator + cf.a0 * gs.denominator, gs.denominator
    nums = _staircase(_bracket(walk, tag), tag.l, p, q)
    ok = all(g in nums for g, _ in gs.gap_nums)
    return tag, gs, [Fraction(n, q) for n in nums], ok


# ---- the sharp constant ----------------------------------------------


def gap_constant(bound: int) -> QuadraticNumber:
    """Exact supremum of N*H(theta, N) over theta with quotients <= bound.

    Closed form, split by parity of the bound: 1 + c/(k*sqrt(m)) with
    c = (a+1)^2, k = 2 and m = a^2 + 2a for bound = 2a, and c = a^2 + 3a + 2,
    k = 1 and m = 4a^2 + 12a + 5 for bound = 2a + 1. With m = s*s*d from
    squarefree_decompose that is (k*m + c*s*sqrt(d))/(k*m), put in normal
    form once.
    """
    if bound < 1:
        raise DomainError("quotient bound must be >= 1")
    if bound % 2 == 0:
        a = bound // 2
        c, m = (a + 1) ** 2, a * a + 2 * a
        z = 2 * m
    else:
        a = (bound - 1) // 2
        c, m = a * a + 3 * a + 2, 4 * a * a + 12 * a + 5
        z = m
    s, d = squarefree_decompose(m)
    return _make(z, c * s, z, d)


def gap_constant_bounds(bound: int) -> tuple[Fraction, QuadraticNumber]:
    """Elementary envelope bound/4 <= constant <= (1 + sqrt(4/5))*bound.

    The upper end is attained exactly at bound 1.
    """
    if bound < 1:
        raise DomainError("quotient bound must be >= 1")
    lower = Fraction(bound, 4)
    upper = QuadraticNumber(bound, Fraction(2 * bound, 5), 5)
    return lower, upper


# ---- extremal witnesses ----------------------------------------------


@dataclass(frozen=True)
class ExtremalWitness:
    """A concrete (theta, N) whose N*H approaches the sharp constant.

    pair holds c_{2n-1} and c_{2n}, whose residuals make up the largest
    gap; h is that gap for theta itself and gap_to_f the exact f - N*h,
    both in the constant's own field. largest and product are read under
    the surrogate p_K/q_K that certified N*H < f: depth K, within radius
    1/(q_K*q_(K+1)) of theta.
    """

    bound: int
    n: int
    theta: CFSpec
    count: int
    pair: tuple[Convergent, Convergent]
    h: QuadraticNumber
    largest: Fraction
    product: Fraction
    constant: QuadraticNumber
    gap_to_f: QuadraticNumber
    depth: int
    radius: Fraction

    def at_radius(self, radius: Fraction) -> ExtremalWitness:
        """This witness read under a surrogate within radius of theta: itself
        when it already is, else with only the certification rounds rerun
        from radius; N, the pair, f, h and gap_to_f carry over."""
        if self.radius <= radius:
            return self
        return replace(self, **_certified(Walk(self.theta), self.count, self.pair, self.h,
                                          self.constant, radius))


def _certified(walk: Walk, N: int, pair, h: QuadraticNumber, constant: QuadraticNumber,
               min_radius) -> dict:
    """largest, product, depth and radius of the witness for N multiples
    of walk's theta, with pair = (c_{2n-1}, c_{2n}).

    Rounds try the surrogates gap_set would read: the first from
    min_radius (None: the policy depth q_K*q_(K+1) > 16*(B+2)*N^2), each
    retry asking for 2**-40 of the last radius used, until N*H < f is
    decidable, or after CERT_ROUNDS surrogates a VerificationError names
    the bound and the stage. The least product a round asks for only
    grows, so each round's first_past grows the walk on from where the
    last one left it. Under every surrogate tried, the three-distance
    lengths must pass gap_set's checks and H must be the predicted
    combination of the residuals of pair exactly; under the last one the
    exact h must lie within N times its radius of H. Every step is integer
    arithmetic and exact signs.
    """
    bound, ps, qs = walk.cf.bound(), walk.ps, walk.qs
    coeff = (bound - 2) // 2
    c_odd, c_even = pair
    # The three-distance bracket of the N + 1 gaps depends on N alone.
    bracket = _distance_bracket(walk, N + 1)
    least = _least(bound, N, min_radius)
    fx, fy, fz, fd = constant._x, constant._y, constant._z, constant._d
    for _ in range(CERT_ROUNDS):
        K = walk.first_past(least)
        q, v = qs[K], qs[K] * qs[K + 1]
        p = ps[K] % q
        g = _checked(_distances(bracket, p, q, N + 1), q, N)[-1][0]
        # Exact residuals |q_j * p_K - p_j * q_K| under the same surrogate.
        res_odd, res_even = (abs(c.q * p - c.p * q) for c in (c_odd, c_even))
        if res_odd - coeff * res_even != g:
            raise VerificationError(
                "predicted largest gap disagrees with the computed one"
            )
        # N*H = N*g/q and its slack N^2*radius = N^2/v, all over q*v: each
        # comparison with f is the exact sign of f*q*v - N*g*v -+ N^2*q.
        room, slack, root = fx * q * v - fz * N * g * v, fz * N * N * q, fy * q * v
        if _sign(room - slack, root, fd) > 0:
            break
        if _sign(room + slack, root, fd) < 0:
            raise VerificationError("witness product exceeds the sharp constant")
        least = v << 40
    else:
        raise VerificationError(
            f"could not certify the witness product in {CERT_ROUNDS} rounds "
            f"(bound = {bound}, stage = {c_even.k // 2})"
        )
    # h - H = (q_odd + coeff*q_even)*(p_K/q_K - theta), and that factor is
    # at most N in size: (h - H)*q*v must lie in [-N*q, N*q].
    hx, hy, hz, hd = h._x, h._y, h._z, h._d
    centre, edge, root = hx * q * v - hz * g * v, hz * N * q, hy * q * v
    if _sign(centre - edge, root, hd) > 0 or _sign(centre + edge, root, hd) < 0:
        raise VerificationError("the exact largest gap escapes the computed one")
    return {"largest": Fraction(g, q), "product": Fraction(N * g, q), "depth": K,
            "radius": Fraction(1, v)}


@lru_cache(maxsize=1)
def _witness_field(bound: int) -> tuple[CFSpec, QuadraticNumber, QuadraticNumber]:
    """theta = [0; (bound, 1)], the constant f(bound) and theta's exact
    value, which lies in f's field. A convergence table asks for one bound
    stage after stage, so the last bound's three are kept."""
    cf = CFSpec(0, (), (bound, 1))
    return cf, gap_constant(bound), eval_theta(cf)


def extremal_witness(
    bound: int, n: int, *, min_radius: Fraction | None = None
) -> ExtremalWitness:
    """Witness number and point count at stage n for a quotient bound.

    theta alternates bound, 1; N sits just below a denominator bracket
    edge. The largest gap is predicted as a signed combination of two
    convergent residuals. theta is a root of bound*x^2 + bound*x - 1, so
    that combination is computed exactly for theta itself, as h in the
    field of the constant, and gap_to_f = constant - N*h is exact and must
    be positive. One Walk of theta's convergents gives the pair, N
    and the surrogates: the computed H must equal the prediction exactly
    under each surrogate and lie within N times its radius of h, and N*H
    is certified strictly below the sharp constant, deepening the
    surrogate from min_radius (see _certified). No GapSet is built.
    """
    if bound < 1:
        raise DomainError("quotient bound must be >= 1")
    if n < 1:
        raise DomainError("witness stages are indexed from 1")
    if n > MAX_STAGE:
        raise DomainError(f"witness stage {n} is past MAX_STAGE = {MAX_STAGE}")
    cf, constant, theta = _witness_field(bound)
    walk = Walk(cf)
    c_odd, c_even = walk.convergent(2 * n - 1), walk.convergent(2 * n)
    N = c_odd.q + ((bound + 2) // 2) * c_even.q - 2
    if N < 1:
        raise DomainError(f"stage {n} gives an empty witness for bound {bound}")
    coeff = (bound - 2) // 2
    # theta lies in Q(sqrt(bound^2 + 4*bound)), the field of the constant,
    # so the true largest gap is exact.
    h = (c_odd.p + coeff * c_even.p) - (c_odd.q + coeff * c_even.q) * theta
    fields = _certified(walk, N, (c_odd, c_even), h, constant, min_radius)
    gap_to_f = constant - N * h
    if gap_to_f.sign() <= 0:
        raise VerificationError("the exact witness product reaches the sharp constant")
    return ExtremalWitness(
        bound=bound,
        n=n,
        theta=cf,
        count=N,
        pair=(c_odd, c_even),
        h=h,
        constant=constant,
        gap_to_f=gap_to_f,
        **fields,
    )
