"""Exponent staircase sets, growth parameters, and shift multiplicities.

The central objects are the finite staircase set of exponent vectors
below a log-height cutoff, the scalar parameters controlling how many
auxiliary curves a cover needs, and the per-column shift multiplicities
that the determinant reduction factors out.

Exactness policy: box bounds are integers and every cutoff is the log
of a known integer height T, so every membership test and every floor is
decided by integer comparisons of the form B1^e1 * B2^e2 * B3^e3 <= T.
Floating point (96-bit mpf) only enters the smooth parameters and the
log-scale grid that proposes cutoff heights.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from typing import Callable, Sequence

from mpmath import mp

from .errors import ContractViolation, Record, strict_int
from .polynomials import ExponentVector, IntegerPolynomial
from .scalars import mpexp, mplog, mpsqrt, to_mpf, workprec

INFINITE = math.inf

# -- boxes ------------------------------------------------------------------


class BoxBounds(Record):
    """Coordinate bounds B1, B2, B3 of the search box: integers, each at
    least 2.

    The box fixes the one monomial order: x^e sorts by its height B^e,
    ties broken lexicographically (order_key).
    """

    b1: int
    b2: int
    b3: int

    def __post_init__(self):
        for name in ("b1", "b2", "b3"):
            b = strict_int(getattr(self, name), "box bound")
            if b < 2:
                raise ContractViolation(f"box bound {b} is below 2")
            object.__setattr__(self, name, b)

    @property
    def bounds(self) -> tuple:
        return (self.b1, self.b2, self.b3)

    @property
    def bmin(self):
        return min(self.bounds)

    @property
    def bmax(self):
        return max(self.bounds)

    @property
    def equal(self) -> bool:
        return self.b1 == self.b2 == self.b3

    def log_heights(self) -> tuple:
        return tuple(mplog(b) for b in self.bounds)

    def height(self, e: Sequence[int]) -> int:
        """Exact integer B^e."""
        h = 1
        for b, k in zip(self.bounds, e):
            if k:
                h *= b ** int(k)
        return h

    def order_key(self, e: Sequence[int]) -> tuple:
        """Sort key of the box order: (B^e, e)."""
        return (self.height(e), tuple(e))


def max_exponent(f: IntegerPolynomial, box: BoxBounds) -> ExponentVector:
    """Exponent of f of greatest box height B^e, ties broken
    lexicographically.

    The zero polynomial has no terms and is rejected.
    """
    if f.is_zero:
        raise ContractViolation("max_exponent of the zero polynomial")
    return max(f.terms, key=box.order_key)


# -- log-height cutoffs -----------------------------------------------------


class ExactLog:
    """log T for a known positive integer height T.

    Used for the staircase cutoff and for the side condition's top
    log-height, so comparisons against monomial heights are integer
    comparisons against T; value is the 96-bit log of T, for the smooth
    parameters and the log-scale grid.
    """

    __slots__ = ("value", "height")

    def __init__(self, height: int):
        height = strict_int(height, "height")
        if height < 1:
            raise ContractViolation("height must be a positive integer")
        object.__setattr__(self, "value", mplog(height))
        object.__setattr__(self, "height", height)

    def __setattr__(self, name, v):
        raise AttributeError("ExactLog is immutable")

    @classmethod
    def power(cls, base: int, n: int) -> "ExactLog":
        """log(base^n) held exactly."""
        if base < 2 or n < 0:
            raise ContractViolation("power cutoff needs base >= 2 and n >= 0")
        return cls(base ** n)

    def __repr__(self):
        return f"ExactLog(log {self.height})"

    def __eq__(self, other):
        if not isinstance(other, ExactLog):
            return NotImplemented
        return self.height == other.height

    def __hash__(self):
        return hash(self.height)


# -- staircase sets ----------------------------------------------------------


def _dominant_vector(m) -> ExponentVector:
    m = tuple(strict_int(v, "dominant exponent entry") for v in m)
    if len(m) != 3 or any(v < 0 for v in m):
        raise ContractViolation(f"dominant exponent {m} must be three nonnegative integers")
    if not any(m):
        raise ContractViolation("dominant exponent must be nonzero")
    return m


class ExponentSet(Record):
    """Staircase set below a cutoff, avoiding the dominant exponent.

    members: every e with log B^e <= cutoff and e_i < dominant_i in at
    least one coordinate, sorted by the box order.
    restricted_members: the members with e_1 < dominant_1.
    """

    box: BoxBounds
    dominant: ExponentVector
    cutoff: ExactLog
    members: tuple
    restricted_members: tuple

    @cached_property
    def restricted_set(self) -> frozenset:
        return frozenset(self.restricted_members)

    def __len__(self) -> int:
        return len(self.members)


def _ilog(b: int, T: int) -> int:
    """Largest k >= 0 with b^k <= T, for integers b >= 2 and T >= 1."""
    # b < 2^bitlen(b), so b^k < 2^(bitlen(T) - 1) <= T at this start
    k = (T.bit_length() - 1) // b.bit_length()
    h = b ** k
    while h * b <= T:
        h *= b
        k += 1
    return k


def build_exponent_set(cutoff: ExactLog, m: Sequence[int], box: BoxBounds) -> ExponentSet:
    """Enumerate the staircase set below the cutoff for dominant exponent m.

    Members are the e with B^e <= T, the cutoff height, and e_i < m_i in
    at least one coordinate.  They come out sorted by the box order: by
    height B^e, ties broken lexicographically.
    """
    m = _dominant_vector(m)
    T = cutoff.height
    b1, b2, b3 = box.bounds
    keyed = []
    h1 = 1
    e1 = 0
    while h1 <= T:
        h12 = h1
        e2 = 0
        while h12 <= T:
            h = h12
            e3 = 0
            while h <= T:
                if e1 < m[0] or e2 < m[1] or e3 < m[2]:
                    keyed.append((h, (e1, e2, e3)))
                h *= b3
                e3 += 1
            h12 *= b2
            e2 += 1
        h1 *= b1
        e1 += 1
    keyed.sort()
    members = tuple(e for _, e in keyed)
    restricted = tuple(e for e in members if e[0] < m[0])
    return ExponentSet(
        box=box,
        dominant=m,
        cutoff=cutoff,
        members=members,
        restricted_members=restricted,
    )


def _count_below(T: int, bounds: tuple) -> int:
    """N(T): the number of e >= 0 with B1^e1 * B2^e2 * B3^e3 <= T."""
    b1, b2, b3 = bounds
    total = 0
    h1 = 1
    while h1 <= T:
        T1 = T // h1
        # two-pointer walk: p = B2^e2 * B3^k with k the largest e3 that fits
        k = _ilog(b3, T1)
        p = b3 ** k
        while k >= 0:
            total += k + 1
            p *= b2
            while k >= 0 and p > T1:
                p //= b3
                k -= 1
        h1 *= b1
    return total


def staircase_size(cutoff: ExactLog, m: Sequence[int], box: BoxBounds) -> int:
    """|E(T)|, the member count of build_exponent_set(cutoff, m, box),
    without building a member.

    Members are the e with B^e <= T, the cutoff height, minus those with
    e >= m in every coordinate, which are m + e' with B^e' <= T // B^m:
    |E(T)| = N(T) - N(T // B^m).
    """
    m = _dominant_vector(m)
    T = cutoff.height
    return _count_below(T, box.bounds) - _count_below(T // box.height(m), box.bounds)


class SetStatistics(tuple):
    """(count, sum_log, sum_e2, sum_e3) with named access."""

    __slots__ = ()

    def __new__(cls, count, sum_log, sum_e2, sum_e3):
        return super().__new__(cls, (count, sum_log, sum_e2, sum_e3))

    count = property(lambda s: s[0])
    sum_log = property(lambda s: s[1])
    sum_e2 = property(lambda s: s[2])
    sum_e3 = property(lambda s: s[3])


def set_statistics(E: ExponentSet) -> SetStatistics:
    """Exact member count, total log-height, and restricted coordinate sums.

    sum_log runs over all members; sum_e2 and sum_e3 run over the
    restricted members only.
    """
    sums = [0, 0, 0]
    for e in E.members:
        sums[0] += e[0]
        sums[1] += e[1]
        sums[2] += e[2]
    logs = E.box.log_heights()
    with workprec():
        sum_log = sums[0] * logs[0] + sums[1] * logs[1] + sums[2] * logs[2]
    se2 = sum(e[1] for e in E.restricted_members)
    se3 = sum(e[2] for e in E.restricted_members)
    return SetStatistics(len(E.members), sum_log, se2, se3)


def main_term_deviation(E: ExponentSet) -> tuple:
    """Relative deviations of count and sum_log from their smooth main terms.

    The smooth reference values are (logT/prod log B_i) Y^2/2 for the
    count and (logT/prod log B_i) Y^3/3 for the log sum, where T is the
    box height of the dominant exponent.  Diagnostic only; both main terms
    vanish at cutoff height 1 (Y = 0), which is rejected.
    """
    if E.cutoff.height == 1:
        raise ContractViolation("main terms vanish at cutoff height 1")
    stats = set_statistics(E)
    logs = E.box.log_heights()
    with workprec():
        log_top = sum(k * lg for k, lg in zip(E.dominant, logs))
        denom = logs[0] * logs[1] * logs[2]
        y = E.cutoff.value
        main_count = log_top / denom * y ** 2 / 2
        main_sum = log_top / denom * y ** 3 / 3
        dev_count = abs(stats.count / main_count - 1)
        dev_sum = abs(stats.sum_log / main_sum - 1)
    return dev_count, dev_sum


# -- growth parameters -------------------------------------------------------


class MethodParams(Record):
    """Scalar parameters steering the auxiliary-curve construction.

    cover_scale grows like the number of curves a cover needs before the
    epsilon slack; cover_scale_eps includes the B^epsilon slack and is
    the threshold the column count sqrt(E)*r has to beat.  modulus_gain
    is the coefficient of log q in log(cover_scale_eps): it measures how
    much each factor of the congruence modulus shrinks the cover.
    """

    box: BoxBounds
    modulus: int
    epsilon: float
    dominant: ExponentVector
    side_exponent: ExponentVector
    side: ExactLog
    top_height: int
    log_top_height: object
    cover_scale: object
    cover_scale_eps: object
    modulus_gain: object


def side_log_height(g: IntegerPolynomial, box: BoxBounds) -> tuple[ExponentVector, ExactLog]:
    """Greatest exponent of g in the box order, with its exact log-height."""
    if g.is_zero:
        raise ContractViolation("side condition polynomial is zero")
    s_star = max_exponent(g, box)
    return s_star, ExactLog(box.height(s_star))


def compute_params(
    f: IntegerPolynomial,
    g: IntegerPolynomial,
    q: int,
    box: BoxBounds,
    epsilon: float,
) -> MethodParams:
    """Derive the growth parameters for surface f with side condition g mod q."""
    if f.nvars != 3 or g.nvars != 3:
        raise ContractViolation("parameters are defined for three variables")
    if g.is_constant:
        raise ContractViolation("side condition polynomial must be non-constant")
    if g.depends_on(0):
        raise ContractViolation("side condition polynomial must not involve x1")
    q = strict_int(q, "modulus")
    if q < 1:
        raise ContractViolation("modulus must be a positive integer")
    if not epsilon > 0:
        raise ContractViolation("epsilon must be positive")
    m = max_exponent(f, box)
    if not any(m):
        raise ContractViolation("dominant exponent of f is zero")

    s_star, side = side_log_height(g, box)
    logs = box.log_heights()
    with workprec():
        log_top = sum(k * lg for k, lg in zip(m, logs))
        prod_logs = logs[0] * logs[1] * logs[2]
        root = mpsqrt(prod_logs / log_top)
        log_q = mplog(q) if q > 1 else to_mpf(0)
        log_bmax = mplog(box.bmax)
        shrink = m[0] * logs[0] * log_q / (2 * side.value * log_top)
        log_k = root * (1 - shrink)
        cover_scale = mpexp(log_k)
        cover_scale_eps = mpexp(log_k + epsilon * log_bmax)
        gain = (
            m[0]
            * logs[0] ** to_mpf(1.5)
            * mpsqrt(logs[1] * logs[2])
            / (2 * side.value * log_top ** to_mpf(1.5))
        )
    return MethodParams(
        box=box,
        modulus=q,
        epsilon=float(epsilon),
        dominant=m,
        side_exponent=s_star,
        side=side,
        top_height=box.height(m),
        log_top_height=log_top,
        cover_scale=cover_scale,
        cover_scale_eps=cover_scale_eps,
        modulus_gain=gain,
    )


# -- shift multiplicities ----------------------------------------------------


def _shift_vector(t) -> ExponentVector:
    t = tuple(strict_int(v, "shift entry") for v in t)
    if len(t) != 3 or any(v < 0 for v in t):
        raise ContractViolation(f"shift {t} must be three nonnegative integers")
    return t


def _chain_start(e: Sequence[int], t: Sequence[int], E: ExponentSet) -> tuple:
    e = tuple(strict_int(v, "exponent entry") for v in e)
    t = _shift_vector(t)
    if e not in E.restricted_set:
        raise ContractViolation(f"{e} is not a restricted member of the set")
    return e, t


def _walk(e: ExponentVector, t: ExponentVector, E: ExponentSet, Hs: int) -> int:
    """Steps k down e - t, e - 2t, ... that stay in the restricted
    staircase and keep B^e * Hs^k <= T * B^(k*t), T the cutoff height.

    Both conditions are monotone in k, so the first failing step ends
    the walk; the caller guarantees one fails.
    """
    restricted = E.restricted_set
    lhs, rhs, Ht = E.box.height(e), E.cutoff.height, E.box.height(t)
    k = 0
    while True:
        e = tuple(a - b for a, b in zip(e, t))
        lhs *= Hs
        rhs *= Ht
        if e not in restricted or lhs > rhs:
            return k
        k += 1


def lambda_single(e: Sequence[int], t: Sequence[int], E: ExponentSet):
    """Largest k with e - k*t still in the restricted staircase set.

    Infinite for t = 0.  The input e must itself be restricted.
    """
    e, t = _chain_start(e, t, E)
    if not any(t):
        return INFINITE
    # side height B^t: the budget B^e <= T holds at every step
    return _walk(e, t, E, E.box.height(t))


def shift_multiplicity(e: Sequence[int], t: Sequence[int], E: ExponentSet, S: ExactLog) -> int:
    """Per-column exponent of the modulus: min of the chain length
    lambda_single(e, t, E) and the budget floor((Y - log B^e)/(S - log B^t)),
    found by one integer walk down the chain.

    The side height must reach the shift height.  For t = 0 only the
    budget ends the walk, within log2 T steps when S > 0; S = 0 leaves it
    unbounded and is refused.
    """
    e, t = _chain_start(e, t, E)
    Ht = E.box.height(t)
    if S.height < Ht:
        raise ContractViolation("side log-height is below the shift log-height")
    if S.height == Ht and not any(t):
        raise ContractViolation("shift multiplicity is unbounded for t = 0 with S = log B^t")
    return _walk(e, t, E, S.height)


def lambda_total(E: ExponentSet, t: Sequence[int], S: ExactLog) -> int:
    """Total modulus exponent factored out of any full minor: sum of
    per-column multiplicities over the restricted members."""
    t = _shift_vector(t)
    return sum(shift_multiplicity(e, t, E, S) for e in E.restricted_members)


# -- cutoff selection --------------------------------------------------------


#: the largest n of the cutoffs B^n an equal box tries, and the points per
#: log grid and most grids any other box tries
POWER_CAP = 512
GRID_POINTS = 64
GRID_COUNT = 24


def default_floor_constant(epsilon: float) -> int:
    """Minimum multiples of log B the cutoff must reach; grows as 1/epsilon."""
    if not epsilon > 0:
        raise ContractViolation("epsilon must be positive")
    return max(10, math.ceil(4 / epsilon))


def choose_Y(
    constraint: Callable[[ExactLog], bool],
    *,
    box: BoxBounds,
    floor_const: int,
    log_top,
) -> ExactLog:
    """Smallest candidate cutoff that reaches floor_const·log Bmax and
    satisfies the constraint, which must be monotone in the cutoff (as a
    bound on the size of E(Y) is).

    An equal box tries the heights B^n, n in [floor_const, POWER_CAP], one
    per block; any other box the GRID_POINTS-point log grids over [Z, 2Z],
    [2Z, 4Z], ..., one per block and GRID_COUNT at most, with
    Z = max(log_top, floor_const·log Bmax) and points snapped to integer
    heights.  The search probes block ends until one holds, galloping
    (0, 1, 3, 7, ...) over powers but taking grids in turn, since each
    doubles log T and a count costs about (log T)^2; then it bisects after
    the last end that failed, so it returns what an increasing scan would.
    """
    if floor_const < 0:
        raise ContractViolation("floor constant must be nonnegative")

    if box.equal:
        size, blocks, first, gallop = 1, POWER_CAP - floor_const + 1, 0, 2
        tried = f"n*log({box.b1}) with n in [{floor_const}, {POWER_CAP}]"

        def candidate(i: int) -> ExactLog:
            return ExactLog.power(box.b1, floor_const + i)

    else:
        size, blocks, gallop = GRID_POINTS, GRID_COUNT, 1
        tried = f"on {GRID_COUNT} log grids from Z above the floor"
        with workprec():
            floor_value = floor_const * mplog(box.bmax)
            z = max(to_mpf(log_top), floor_value)

        @cache
        def candidate(i: int) -> ExactLog:
            g, k = divmod(i, GRID_POINTS)
            low = z
            if g:
                # 2^g·Z rounded to 53 bits, not 96: the recorded cutoffs were
                # chosen on this grid, and box (12, 20, 30) picks another at 96
                with mp.workprec(53):
                    low = z * 2 ** g
            with workprec():
                h = mpexp(low * (1 + to_mpf(k) / (GRID_POINTS - 1)))
                near = int(mp.nint(h))
                # snap heights that are integers up to rounding noise
                if near >= 1 and abs(h - near) < mp.mpf(2) ** -60 * near:
                    height = near
                else:
                    height = int(mp.floor(h))
            return ExactLog(height)

        # heights rise along the grid, and its last point, near exp(2Z),
        # always reaches the floor; later grids lie wholly above it
        first = _first_holding(lambda i: candidate(i).value >= floor_value, 0, GRID_POINTS - 1)

    def holds(i: int) -> bool:
        return constraint(candidate(i))

    lo, b, step = first, 0, 1
    while b < blocks and not holds(b * size + size - 1):
        lo = (b + 1) * size
        b = blocks if b == blocks - 1 else min(b + step, blocks - 1)
        step *= gallop
    if b >= blocks:
        raise ContractViolation(f"no cutoff {tried} satisfies the constraint")
    return candidate(_first_holding(holds, lo, b * size + size - 1))


def _first_holding(holds: Callable[[int], bool], lo: int, hi: int) -> int:
    """Smallest i in [lo, hi] with holds(i), for a monotone holds that is
    known true at hi and not probed there again."""
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi
