"""Exponent staircase sets, growth parameters, and shift multiplicities.

The central objects are the finite staircase set of exponent vectors
below a log-height cutoff, the scalar parameters controlling how many
auxiliary curves a cover needs, and the per-column shift multiplicities
that the determinant reduction factors out.

Exactness policy: box bounds are integers and every cutoff is the log
of a known integer height T, so every membership test and every floor is
decided by integer comparisons of the form B1^e1 * B2^e2 * B3^e3 <= T.
Only the smooth parameters and the log-scale grid that proposes cutoff
heights are not integers: they are 96-bit binary numbers, formed on the
int pairs of ``scalars`` one rounding at a time, that leave as Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Sequence

from .errors import (
    CapExceeded, ContractViolation, Record, SoundnessError, _shown, strict_int, strict_real,
)
from .polynomials import ExponentVector, IntegerPolynomial, _as_exponent, eval_monomial
from .scalars import (
    _ONE, _add, _div, _dot, _exp, _fit, _log, _mul, _pair, _power, _root, _round, _scaled, _sub,
)

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

    def height(self, e: Sequence[int]) -> int:
        """Exact integer B^e."""
        return eval_monomial(self.bounds, e)

    def order_key(self, e: Sequence[int]) -> tuple:
        """Sort key of the box order: (B^e, e)."""
        return (self.height(e), tuple(e))


class SideCondition(Record):
    """Congruence g(x2, x3) = 0 mod q imposed on surface points: the one
    check of a (g, q) pair, passed whole to every function that takes one."""

    g: IntegerPolynomial
    q: int

    def __post_init__(self):
        if self.g.nvars != 3:
            raise ContractViolation("side condition polynomial must use arity 3")
        if self.g.is_constant:
            raise ContractViolation("side condition polynomial must be non-constant")
        if self.g.depends_on(0):
            raise ContractViolation("side condition polynomial must not involve x1")
        q = strict_int(self.q, "modulus")
        if q < 1:
            raise ContractViolation("modulus must be a positive integer")
        object.__setattr__(self, "q", q)

    @classmethod
    def check(cls, side) -> "SideCondition":
        """side if it is a SideCondition, else ContractViolation."""
        if not isinstance(side, cls):
            raise ContractViolation(f"side must be a SideCondition, not {type(side).__name__}")
        return side


def max_exponent(f: IntegerPolynomial, box: BoxBounds) -> ExponentVector:
    """Exponent of f of greatest box height B^e, ties broken
    lexicographically.

    The zero polynomial has no terms and is rejected.
    """
    if f.is_zero:
        raise ContractViolation("max_exponent of the zero polynomial")
    return max(f.terms, key=box.order_key)


# -- log-height cutoffs -----------------------------------------------------


class ExactLog(Record):
    """log T for a known positive integer height T.

    Used for the staircase cutoff and for the side condition's top
    log-height, so comparisons against monomial heights are integer
    comparisons against T; value is the 96-bit log of T, for the smooth
    parameters and the log-scale grid, formed when first read.
    """

    height: int

    def __post_init__(self):
        height = strict_int(self.height, "height")
        if height < 1:
            raise ContractViolation("height must be a positive integer")
        object.__setattr__(self, "height", height)

    @cached_property
    def value(self) -> Fraction:
        return _scaled(*_log(self.height))

    @classmethod
    def power(cls, base: int, n: int) -> "ExactLog":
        """log(base^n) held exactly."""
        base, n = _power_args(base, n)
        return cls(base ** n)

    def __repr__(self):
        return f"ExactLog(log {self.height})"


def _power_args(base, n) -> tuple:
    """(base, n) as ints with base >= 2 and n >= 0, else ContractViolation."""
    base, n = strict_int(base, "cutoff base"), strict_int(n, "cutoff power")
    if base < 2 or n < 0:
        raise ContractViolation("power cutoff needs base >= 2 and n >= 0")
    return base, n


# -- staircase sets ----------------------------------------------------------


def _dominant_vector(m) -> ExponentVector:
    m = _as_exponent(3, m)
    if not any(m):
        raise ContractViolation("dominant exponent must be nonzero")
    return m


class ExponentSet(Record):
    """Staircase set below a cutoff, avoiding the dominant exponent.

    Its members are the e with B^e <= T, T the cutoff height, and
    e_i < dominant_i in at least one coordinate, sorted by the box order;
    the restricted members are those with e_1 < dominant_1.  The record
    holds only the box, the dominant exponent and the cutoff.  len() is
    ``staircase_size``, so it walks no member.  ``prefix`` walks only as
    many members as its reader asks for, and ``members`` runs the full walk
    when first read.  Each walk is checked against ``staircase_size`` at
    its height.
    """

    box: BoxBounds
    dominant: ExponentVector
    cutoff: ExactLog

    @cached_property
    def _size(self) -> int:
        return staircase_size(self.cutoff, self.dominant, self.box)

    def __len__(self) -> int:
        return self._size

    @cached_property
    def members(self) -> tuple:
        """Every member, in box order: the last prefix walked and the band
        above it up to the cutoff."""
        return self._walk(self.cutoff.height, len(self))

    @cached_property
    def restricted_members(self) -> tuple:
        return tuple(e for e in self.members if e[0] < self.dominant[0])

    @cached_property
    def restricted_set(self) -> frozenset:
        return frozenset(self.restricted_members)

    @cached_property
    def _walked(self) -> list:
        """[h, the staircase at height h] of the tallest prefix walked, or
        [0, ()] before the first."""
        return [0, ()]

    def prefix(self, n: int | None) -> tuple:
        """The first n members in box order or more; every member for n None.

        The members with B^e <= h sort before the rest, ties included, and
        are the staircase at cutoff height h.  So a prefix is the staircase
        at the first height of bmin, bmin^2, bmin^4, ... past the last
        prefix walked that holds n members, and every member once that
        height reaches the cutoff.  Each prefix is the last one and the
        band of members above its height, so no member is walked twice.
        """
        if n is None or n >= len(self):
            return self.members
        walked = self._walked
        if n > len(walked[1]):
            h = walked[0]
            while True:
                h = h * h if h else self.box.bmin
                if h >= self.cutoff.height:
                    return self.members
                count = staircase_size(ExactLog(h), self.dominant, self.box)
                if count >= n:
                    break
            walked[:] = h, self._walk(h, count)
        return walked[1]

    def _walk(self, h: int, count: int) -> tuple:
        """The staircase at cutoff height h, checked to hold count members:
        the last prefix walked, of height h_prev, and the band
        h_prev < B^e <= h, walked now and checked to hold the rest."""
        below, head = self._walked
        band = _members_below(h, self.dominant, self.box, below)
        if len(band) != count - len(head):
            raise SoundnessError(
                f"the staircase holds {len(head) + len(band)} columns, not {count}")
        return head + band


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
    """The staircase set below the cutoff for dominant exponent m.

    Nothing is walked here: the set walks its members when they are read.
    """
    return ExponentSet(box=box, dominant=_dominant_vector(m), cutoff=cutoff)


def _members_below(T: int, m: ExponentVector, box: BoxBounds, above: int) -> tuple:
    """The e with above < B^e <= T and e_i < m_i in at least one coordinate,
    sorted by the box order: by height B^e, ties broken lexicographically.

    Only members of the band are visited: each e3 walk starts at the first
    e3 with B^e > above, and once e1 >= m1 and e2 >= m2 a member needs
    e3 < m3, so each e3 walk ends at its first non-member.
    """
    b1, b2, b3 = box.bounds
    keyed = []
    h1 = 1
    e1 = 0
    while h1 <= T:
        h12 = h1
        e2 = 0
        while h12 <= T:
            stop = m[2] if e1 >= m[0] and e2 >= m[1] else INFINITE
            if not stop:
                break
            # the smallest e3 with h12 * b3^e3 > above
            e3 = _ilog(b3, above // h12) + 1 if h12 <= above else 0
            h = h12 * b3 ** e3
            while h <= T and e3 < stop:
                keyed.append((h, (e1, e2, e3)))
                h *= b3
                e3 += 1
            h12 *= b2
            e2 += 1
        h1 *= b1
        e1 += 1
    keyed.sort()
    return tuple(e for _, e in keyed)


def _pair_sums(T: int, b: int, c: int) -> tuple:
    """(n, Σu, Σv) over the n pairs (u, v) >= 0 with b^u * c^v <= T, for
    T >= 1: C(k + 2, 2) pairs and both sums C(k + 2, 3), with
    k = floor(log_b T), when b = c, else one two-pointer walk."""
    if b == c:
        k = _ilog(b, T)
        s = math.comb(k + 2, 3)
        return math.comb(k + 2, 2), s, s
    # row u holds v = 0..k, k the largest that fits, with p = b^u * c^k and
    # tri = Σv over the row; over the U = floor(log_b T) + 1 rows, with
    # running totals N_u, Σu = U·N - Σ N_u
    total = running = sv = 0
    k = _ilog(c, T)
    p = c ** k
    tri = k * (k + 1) // 2
    while k >= 0:
        total += k + 1
        running += total
        sv += tri
        p *= b
        while k >= 0 and p > T:
            p //= c
            tri -= k
            k -= 1
    return total, (_ilog(b, T) + 1) * total - running, sv


def _pair_count(T: int, b: int, c: int) -> tuple:
    """(n, 0, 0): ``_pair_sums``' count n alone, by the same two-pointer
    walk with no sums kept."""
    if b == c:
        return math.comb(_ilog(b, T) + 2, 2), 0, 0
    total = 0
    k = _ilog(c, T)
    p = c ** k
    while k >= 0:
        total += k + 1
        p *= b
        while k >= 0 and p > T:
            p //= c
            k -= 1
    return total, 0, 0


# each slab's bounded coordinate, then the two coordinates of its pairs
_SLABS = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


def _slab_sums(cutoff: ExactLog, m: Sequence[int], box: BoxBounds, pairs=_pair_sums) -> tuple:
    """(|E(T)|, the three coordinate sums over E(T), (Σe2, Σe3) over its
    restricted members), with no member built.  With pairs ``_pair_count``
    the pair walks keep no sums, and only the count is right.

    E(T) is the disjoint slabs {e1 < m1}, {e1 >= m1, e2 < m2} and
    {e1 >= m1, e2 >= m2, e3 < m3}; the first is the restricted members.
    Each value k of slab i's bounded coordinate e_i, the earlier ones at m,
    is a height h; it leaves the pairs (u, v) of the other two coordinates
    under T // h, each offset by m where it is earlier, until h > T.
    """
    m = _dominant_vector(m)
    T = cutoff.height
    bounds = box.bounds
    total = 0
    sums = [0, 0, 0]
    h = 1
    for i, j, l in _SLABS:
        b, bj, bl = bounds[i], bounds[j], bounds[l]
        mj, ml = (m[j] if j < i else 0), (m[l] if l < i else 0)
        for k in range(m[i]):
            if h > T:
                break
            n, su, sv = pairs(T // h, bj, bl)
            total += n
            sums[i] += k * n
            sums[j] += su + mj * n
            sums[l] += sv + ml * n
            h *= b
        if not i:
            restricted = (sums[1], sums[2])
    return total, tuple(sums), restricted


def staircase_size(cutoff: ExactLog, m: Sequence[int], box: BoxBounds) -> int:
    """|E(T)|, the member count of build_exponent_set(cutoff, m, box),
    counted by its slabs without building a member or a sum (``_slab_sums``
    on ``_pair_count``)."""
    return _slab_sums(cutoff, m, box, _pair_count)[0]


class SetStatistics(Record):
    """What set_statistics measures of an ExponentSet."""

    count: int
    sum_log: Fraction
    sum_e2: int
    sum_e3: int


def set_statistics(E: ExponentSet) -> SetStatistics:
    """Exact member count, total log-height, and restricted coordinate sums,
    read off the slabs (``_slab_sums``) with no member built.

    sum_log runs over all members; sum_e2 and sum_e3 run over the
    restricted members only.
    """
    count, sums, (se2, se3) = _slab_sums(E.cutoff, E.dominant, E.box)
    return SetStatistics(count, _scaled(*_dot(sums, map(_log, E.box.bounds))), se2, se3)


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
    logs = tuple(map(_log, E.box.bounds))
    ratio = _div(_dot(E.dominant, logs), _mul(_mul(logs[0], logs[1]), logs[2]))
    y = _log(E.cutoff.height)
    m, e = _mul(ratio, _mul(y, y))
    main_count = m, e - 1
    main_sum = _div(_mul(ratio, _power(y, (3, 0))), (3, 0))
    dev_count = _sub(_div((stats.count, 0), main_count), _ONE)
    dev_sum = _sub(_div(_pair(stats.sum_log), main_sum), _ONE)
    return _scaled(abs(dev_count[0]), dev_count[1]), _scaled(abs(dev_sum[0]), dev_sum[1])


# -- growth parameters -------------------------------------------------------


class MethodParams(Record):
    """Scalar parameters steering the auxiliary-curve construction.

    cover_scale grows like the number of curves a cover needs before the
    epsilon slack; cover_scale_eps includes the B^epsilon slack and is
    the threshold the column count sqrt(E)*r has to beat.  modulus_gain
    is the coefficient of log q in log(cover_scale_eps): it measures how
    much each factor of the congruence modulus shrinks the cover.
    """

    modulus: int
    epsilon: float
    dominant: ExponentVector
    side_exponent: ExponentVector
    side: ExactLog
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


#: the largest epsilon admitted: the B^epsilon slack of the cover scale is
#: meaningless past a few units, and the largest epsilon a test, CI, the
#: README or the benchmark uses is 3
EPSILON_CAP = 10


def check_epsilon(epsilon):
    """epsilon if it is an int, float or Fraction in (0, EPSILON_CAP], else
    ContractViolation: the one epsilon rule, checked before any work."""
    strict_real(epsilon, "epsilon", "positive")
    if epsilon > EPSILON_CAP:
        raise ContractViolation(f"epsilon must be at most {EPSILON_CAP}")
    return epsilon


def compute_params(
    f: IntegerPolynomial,
    side: SideCondition,
    box: BoxBounds,
    epsilon: float,
) -> MethodParams:
    """Derive the growth parameters for surface f with side condition g mod q."""
    g, q = SideCondition.check(side).g, side.q
    if f.nvars != 3:
        raise ContractViolation("parameters are defined for three variables")
    check_epsilon(epsilon)
    m = max_exponent(f, box)
    if not any(m):
        raise ContractViolation("dominant exponent of f is zero")

    s_star, S = side_log_height(g, box)
    logs = tuple(map(_log, box.bounds))
    log_top = _dot(m, logs)
    prod_logs = _mul(_mul(logs[0], logs[1]), logs[2])
    sm, se = _log(S.height)
    twice_side = 2 * sm, se
    shrink = _div(_mul(_mul((m[0], 0), logs[0]), _log(q)), _mul(twice_side, log_top))
    log_k = _mul(_root(_div(prod_logs, log_top)), _sub(_ONE, shrink))
    # epsilon (an int, float or Fraction) times log Bmax, one rounding
    n, d = epsilon.as_integer_ratio()
    lm, le = _log(box.bmax)
    slack = _div((n * lm, le), (d, 0))
    three_halves = 3, -1  # 3·2^-1
    gain = _div(
        _mul(_mul((m[0], 0), _power(logs[0], three_halves)), _root(_mul(logs[1], logs[2]))),
        _mul(twice_side, _power(log_top, three_halves)),
    )
    return MethodParams(
        modulus=q,
        epsilon=float(epsilon),
        dominant=m,
        side_exponent=s_star,
        side=S,
        log_top_height=_scaled(*log_top),
        cover_scale=_scaled(*_exp(log_k)),
        cover_scale_eps=_scaled(*_exp(_add(log_k, slack))),
        modulus_gain=_scaled(*gain),
    )


# -- shift multiplicities ----------------------------------------------------


def _chain_start(e: Sequence[int], t: Sequence[int], E: ExponentSet) -> tuple:
    e, t = _as_exponent(3, e), _as_exponent(3, t)
    if e not in E.restricted_set:
        raise ContractViolation(f"{_shown(e)} is not a restricted member of the set")
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
    t = _as_exponent(3, t)
    return sum(shift_multiplicity(e, t, E, S) for e in E.restricted_members)


# -- cutoff selection --------------------------------------------------------


#: the largest n of the cutoffs B^n an equal box tries, and the points per
#: log grid and most grids any other box tries
POWER_CAP = 512
GRID_POINTS = 64
GRID_COUNT = 24

#: the most staircase columns a cutoff may be sure to hold before its
#: height is formed, and that power_cutoff admits: far above the 16 384
#: of the largest staircase a test, the README, CI or the benchmark builds.
COLUMN_CAP = 10 ** 6


def _log_bits(x) -> int:
    """a = floor(1.44 x) - 1 for an int, float or Fraction x, so that
    floor(e^x) >= 2^a, as e > 2^1.44."""
    n, d = x.as_integer_ratio()
    return 144 * n // (100 * d) - 1


def _sure_columns(a: int, box: BoxBounds, m: Sequence[int] = (1, 1, 1)) -> int:
    """A lower bound on the columns of any staircase in the box whose
    cutoff height is 2^a or more, and whose dominant exponent is nonzero
    only where m is.

    Some m_i > 0, so each e with e_i = 0 and B_j^e_j B_k^e_k <= 2^a is a
    column; with b the bit lengths of the bounds, that takes in every
    (u, v) with u b_j + v b_k <= a, at least (a // b_j + 1) a / (2 b_k)
    of them.
    """
    if a < 1:
        return 0
    b1, b2, b3 = (b.bit_length() for b in box.bounds)
    pairs = ((b2, b3), (b1, b3), (b1, b2))
    return min((a // bj + 1) * a // (2 * bk) for (bj, bk), mi in zip(pairs, m) if mi)


def power_cutoff(base: int, n: int, m: Sequence[int], box: BoxBounds) -> ExactLog:
    """The cutoff base^n, refused (CapExceeded) if its staircase for the
    dominant exponent m holds over COLUMN_CAP columns.

    base^n >= 2^a with a = n (bits of base - 1), so ``_sure_columns``
    refuses a huge n before base ** n is formed; then ``staircase_size``
    decides.
    """
    m = _dominant_vector(m)
    base, n = _power_args(base, n)
    if _sure_columns(n * (base.bit_length() - 1), box, m) <= COLUMN_CAP:
        cutoff = ExactLog.power(base, n)
        if staircase_size(cutoff, m, box) <= COLUMN_CAP:
            return cutoff
    raise CapExceeded(f"the cutoff {_shown(base)}^{_shown(n)} needs over {COLUMN_CAP} "
                      "staircase columns")


def check_columns(size: int) -> None:
    """Refuse (CapExceeded) a chosen cutoff of over COLUMN_CAP columns.
    Never inside a search's constraint: probes past the answer hold more."""
    if size > COLUMN_CAP:
        raise CapExceeded(f"the chosen cutoff needs {size} staircase columns, "
                          f"over {COLUMN_CAP}")


def default_floor_constant(epsilon: float) -> int:
    """Minimum multiples of log B the cutoff must reach; grows as 1/epsilon."""
    return max(10, math.ceil(4 / check_epsilon(epsilon)))


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
    (0, 1, 3, 7, ...) over powers but taking grids in turn, then bisects
    after the last end that failed, so it returns what an increasing scan would.

    Before it forms a height of a grid, it refuses (CapExceeded) the grid
    if its top, near exp(2^(g+1) Z), is sure to hold more than COLUMN_CAP
    staircase columns; below that the constraint decides.  So a gallop over
    grids could refuse a search that an increasing scan would complete.
    """
    if strict_int(floor_const, "floor constant") < 0:
        raise ContractViolation("floor constant must be nonnegative")

    if box.equal:
        size, blocks, first, gallop = 1, POWER_CAP - floor_const + 1, 0, 2
        tried = f"n*log({box.b1}) with n in [{_shown(floor_const)}, {POWER_CAP}]"

        def candidate(i: int) -> ExactLog:
            return ExactLog.power(box.b1, floor_const + i)

    else:
        size, blocks, gallop = GRID_POINTS, GRID_COUNT, 1
        tried = f"on {GRID_COUNT} log grids from Z above the floor"
        lm, le = _log(box.bmax)
        floor_value = _fit(floor_const * lm, le)
        z = _round(*log_top.as_integer_ratio())
        z = _scaled(*(floor_value if _sub(floor_value, z)[0] > 0 else z))

        @cache
        def grid(g: int) -> Fraction:
            start = _grid_start(z, g)
            # the grid tops out at log height 2·start
            if _sure_columns(_log_bits(2 * start), box) > COLUMN_CAP:
                raise CapExceeded(
                    f"cutoff search reaches log grid {g}, whose top height "
                    f"holds over {COLUMN_CAP} staircase columns"
                )
            return start

        @cache
        def candidate(i: int) -> ExactLog:
            g, k = divmod(i, GRID_POINTS)
            return ExactLog(_grid_height(grid(g), k))

        # heights rise along the grid, and its last point, near exp(2Z),
        # always reaches the floor; later grids lie wholly above it
        first = _first_holding(
            lambda i: _sub(_log(candidate(i).height), floor_value)[0] >= 0, 0, GRID_POINTS - 1)

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


def _grid_start(z: Fraction, g: int) -> Fraction:
    """2^g·Z, the log height grid g starts from, for a binary Z.  For g > 0
    it is rounded to 53 bits, not 96: the recorded cutoffs were chosen on
    this grid, and box (12, 20, 30) picks another at 96."""
    if not g:
        return z
    m, e = _fit(*_pair(z), 53)
    return _scaled(m, e + g)


def _grid_height(start: Fraction, k: int) -> int:
    """The height at point k of the grid from the binary log height start:
    h = exp(start·(1 + k/(GRID_POINTS - 1))), snapped to the nearest
    integer when within 2^-60 of it relative, else floored."""
    x = _mul(_pair(start), _add(_ONE, _round(k, GRID_POINTS - 1)))
    m, e = _exp(x)
    if e >= 0:
        return m << e
    # h = m / 2^s = floor + rem / 2^s; near is h rounded half to even
    s = -e
    floor, rem = m >> s, m & ((1 << s) - 1)
    near = floor + (2 * rem > 1 << s or (2 * rem == 1 << s and floor & 1))
    if near >= 1 and abs(m - (near << s)) << 60 < near << s:
        return near
    return floor


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
