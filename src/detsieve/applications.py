"""Counting applications: diagonal quadrics and sums of unlike powers.

Both counts are exact.  The quadric count can additionally run the full
certificate pipeline with its sharpened cover scale; the unlike-powers
count can be recomputed through hyperplane slices, exercising the
congruence machinery slice by slice.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .arith import divisors, is_prime
from .determinant import CoverReport, _sample_count, aux_pipeline
from .enumeration import PointSet, SideCondition, enumerate_points
from .errors import ContractViolation, Record, SoundnessError, strict_int
from .exponents import BoxBounds
from .polynomials import (
    IntegerPolynomial,
    _pseudo_remainder,
    _require_univariate,
    wronskian,
)
from mpmath import mp, mpf

from .scalars import to_mpf, workprec


def _is_perfect_square(v: int) -> bool:
    return v >= 0 and math.isqrt(v) ** 2 == v


def _integer_nth_root(v: int, n: int) -> int | None:
    """The integer r with r^n = v, if one exists."""
    if n < 1:
        raise ContractViolation("root index must be positive")
    if v < 0 and n % 2 == 0:
        return None
    neg = v < 0
    a = -v if neg else v
    if a == 0:
        return 0
    if n == 1:
        return v
    # integer Newton from 2^ceil(bits/n) > a^(1/n): it falls strictly
    # until it reaches floor(a^(1/n)), where the next step stops falling
    r = 1 << -(-a.bit_length() // n)
    while True:
        s = ((n - 1) * r + a // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    if r ** n != a:
        return None
    return -r if neg else r


# -- diagonal quadrics ----------------------------------------------------------


class QuadricInstance(Record):
    """Diagonal quadric a1*x1^2 + a2*x2^2 + a3*x3^2 = n inside a cube."""

    a1: int
    a2: int
    a3: int
    n: int
    B: int

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "n", "B"):
            object.__setattr__(self, name, strict_int(getattr(self, name), name))
        if self.a1 * self.a2 * self.a3 == 0:
            raise ContractViolation("quadric coefficients must be nonzero")
        if self.B < 1:
            raise ContractViolation("box size must be positive")
        if math.gcd(self.a1, self.a2, self.a3, self.n) != 1:
            raise ContractViolation(
                "coefficients and target must not share a common factor"
            )
        if _is_perfect_square(-self.a1 * self.a2 * self.a3 * self.n):
            raise ContractViolation("rational lines possible")

    @property
    def coefficients(self) -> tuple:
        return (self.a1, self.a2, self.a3)

    def surface(self) -> IntegerPolynomial:
        return IntegerPolynomial(
            3,
            {(2, 0, 0): self.a1, (0, 2, 0): self.a2,
             (0, 0, 2): self.a3, (0, 0, 0): -self.n},
        )


def q_of_n(n: int) -> int:
    """Column count of the cutoff-n staircase: C(n+3,3) - C(n+1,3)."""
    n = strict_int(n, "cutoff index")
    if n < 0:
        raise ContractViolation("cutoff index must be nonnegative")
    return math.comb(n + 3, 3) - math.comb(n + 1, 3)


def quadric_cover_scale(q: int, B: int):
    """Sharpened cover scale q^(-1/6) * B^(2/3) for the quadric pipeline."""
    if q < 1 or B < 1:
        raise ContractViolation("cover scale needs positive modulus and box")
    with workprec():
        # integer powers first so perfect-power inputs stay exact
        return mp.root(to_mpf(B) ** 2, 3) / mp.root(to_mpf(q), 6)


class QuadricCount(Record):
    count: int
    points: PointSet
    mode: str
    permutation: tuple | None = None
    modulus: int | None = None
    report: CoverReport | None = None


def count_quadric(
    inst: QuadricInstance,
    mode: str = "brute",
    *,
    epsilon: float = 0.5,
    floor_const: int | None = None,
    seed: int = 0,
    minor_samples: int = 32,
) -> QuadricCount:
    """Exact point count on the quadric, by direct enumeration or through
    the certificate pipeline with the sharpened quadric cover scale.

    Pipeline mode permutes coordinates so the largest coefficient sits
    first, takes its absolute value as the modulus, and cross-checks that
    every point ends up covered by an emitted polynomial or the leftover
    list.
    """
    box = BoxBounds(inst.B, inst.B, inst.B)
    if mode == "brute":
        f = inst.surface()
        side = SideCondition(IntegerPolynomial.variable(3, 1), 1)
        pts = enumerate_points(f, side, box)
        return QuadricCount(count=len(pts), points=pts, mode=mode)
    if mode != "pipeline":
        raise ContractViolation(f"unknown quadric mode {mode!r}")
    minor_samples = _sample_count(minor_samples)

    a = inst.coefficients
    lead = max(range(3), key=lambda i: (abs(a[i]), -i))
    perm = (lead,) + tuple(i for i in range(3) if i != lead)
    ap = tuple(a[i] for i in perm)
    q = abs(ap[0])
    f = IntegerPolynomial(
        3,
        {(2, 0, 0): ap[0], (0, 2, 0): ap[1], (0, 0, 2): ap[2], (0, 0, 0): -inst.n},
    )
    g = IntegerPolynomial(
        3, {(0, 2, 0): ap[1], (0, 0, 2): ap[2], (0, 0, 0): -inst.n}
    )
    pts = enumerate_points(f, SideCondition(g, q), box)
    with workprec():
        scale = quadric_cover_scale(q, inst.B) * to_mpf(inst.B) ** to_mpf(epsilon)
    report = aux_pipeline(
        f, g, q, box, None, epsilon, list(pts),
        seed=seed, minor_samples=minor_samples,
        floor_const=floor_const, scale_override=scale,
    )
    if not report.coverage_complete:
        raise SoundnessError("a quadric point escaped every emitted cover")
    return QuadricCount(
        count=len(pts), points=pts, mode=mode,
        permutation=perm, modulus=q, report=report,
    )


# -- sums of unlike powers ------------------------------------------------------


class UnlikePowersInstance(Record):
    """x1^k + x2^l + x3^m + x4^k = N inside a cube."""

    k: int
    l: int
    m: int
    N: int
    B: int

    def __post_init__(self):
        for name in ("k", "l", "m", "N", "B"):
            object.__setattr__(self, name, strict_int(getattr(self, name), name))
        if min(self.k, self.l, self.m) < 2:
            raise ContractViolation("all exponents must be at least 2")
        if self.N == 0:
            raise ContractViolation("target must be nonzero")
        if self.B < 1:
            raise ContractViolation("box size must be positive")

    def validate_theorem_mode(self) -> None:
        if self.k % 2 == 0 or self.k < 13:
            raise ContractViolation("leading exponent must be odd and at least 13")
        if not (self.k > self.l > self.m >= 2):
            raise ContractViolation("exponents must be strictly decreasing")

    def hypersurface(self) -> IntegerPolynomial:
        return IntegerPolynomial(
            4,
            {(self.k, 0, 0, 0): 1, (0, self.l, 0, 0): 1,
             (0, 0, self.m, 0): 1, (0, 0, 0, self.k): 1,
             (0, 0, 0, 0): -self.N},
        )


class ThreefoldSlice(Record):
    """One hyperplane slice u = alpha*x1 + beta*x4 + gamma of a threefold.

    h_u is the integer polynomial beta^k' * h(x1, x2, x3, (u-alpha*x1-gamma)/beta)
    and the slice surface is u*h_u + beta^k' * g.
    """

    alpha: int
    beta: int
    gamma: int
    h: IntegerPolynomial
    g: IntegerPolynomial
    u: int
    h_u: IntegerPolynomial
    slice_poly: IntegerPolynomial
    degenerate: bool

    @property
    def modulus(self) -> int:
        """Congruence modulus forced on g along the slice."""
        if self.u == 0:
            return 1
        kp = self.h.total_degree()
        return abs(self.u) // math.gcd(self.u, self.beta ** kp)


def build_slice(
    alpha: int, beta: int, gamma: int,
    h: IntegerPolynomial, g: IntegerPolynomial, u: int,
) -> ThreefoldSlice:
    """Substitute x4 = (u - alpha*x1 - gamma)/beta into h and clear beta powers.

    The two steps ``count_unlike`` shares: ``_substitute`` once with u
    kept as a variable, then ``_slice`` at this u.
    """
    alpha, beta, gamma, u = (
        strict_int(v, name)
        for v, name in zip((alpha, beta, gamma, u), ("alpha", "beta", "gamma", "u"))
    )
    if beta == 0:
        raise ContractViolation("beta must be nonzero")
    if h.nvars != 4:
        raise ContractViolation("slicing expects a four-variable polynomial")
    if g.nvars != 3 or g.depends_on(0):
        raise ContractViolation("side polynomial must be in (x2, x3) only")
    return _slice(_substitute(alpha, beta, gamma, h), alpha, beta, gamma, h, g, u)


def _substitute(alpha: int, beta: int, gamma: int, h: IntegerPolynomial) -> IntegerPolynomial:
    """beta^k' * h(x1, x2, x3, (u - alpha*x1 - gamma)/beta), k' = deg h, over the
    integers in (x1, x2, x3, u), u in the slot that held x4: for
    h = sum_j c_j(x1,x2,x3) * x4^j it is sum_j c_j * (u - gamma - alpha*x1)^j * beta^(k'-j).
    """
    kp = h.total_degree()
    linear = IntegerPolynomial(
        4, {(0, 0, 0, 1): 1, (0, 0, 0, 0): -gamma, (1, 0, 0, 0): -alpha})
    out = IntegerPolynomial.zero(4)
    pows = [IntegerPolynomial.constant(4, 1)]  # pows[j] = linear ** j
    for j, cj in h.coefficients_in(3).items():
        while len(pows) <= j:
            pows.append(pows[-1] * linear)
        out = out + cj * pows[j] * (beta ** (kp - j))
    return out


def _slice(sub: IntegerPolynomial, alpha: int, beta: int, gamma: int,
           h: IntegerPolynomial, g: IntegerPolynomial, u: int) -> ThreefoldSlice:
    """The slice at u of ``sub = _substitute(alpha, beta, gamma, h)``: only
    its u-powers are evaluated, and no polynomial is multiplied."""
    h_acc: dict = {}
    for (e1, e2, e3, eu), c in sub.terms.items():
        h_acc[e1, e2, e3] = h_acc.get((e1, e2, e3), 0) + c * u ** eu
    bk = beta ** h.total_degree()
    s_acc = {e: c * u for e, c in h_acc.items()}
    for e, c in g.terms.items():
        s_acc[e] = s_acc.get(e, 0) + c * bk
    h_u, slice_poly = (IntegerPolynomial._canonical(3, {e: c for e, c in acc.items() if c})
                       for acc in (h_acc, s_acc))
    return ThreefoldSlice(
        alpha=alpha, beta=beta, gamma=gamma, h=h, g=g, u=u,
        h_u=h_u, slice_poly=slice_poly, degenerate=(u == 0),
    )


def _alternating_factor(k: int) -> IntegerPolynomial:
    """h with x1^k + x4^k = (x1 + x4) * h, for odd k."""
    terms = {}
    for i in range(k):
        e = [0, 0, 0, 0]
        e[0] = k - 1 - i
        e[3] = i
        terms[tuple(e)] = -1 if i % 2 else 1
    return IntegerPolynomial(4, terms)


class UnlikeCount(Record):
    count: int
    mode: str
    zero_slice: int | None = None
    per_slice: tuple | None = None
    assumed_hypothesis: str | None = None


def count_unlike(inst: UnlikePowersInstance, mode: str = "brute") -> UnlikeCount:
    """Exact count of box points on the unlike-powers hypersurface.

    brute loops over all quadruples; meet-in-middle hashes the multiset
    of x1^k + x4^k values; sliced-pipeline splits along u = x1 + x4 and
    enumerates each slice surface under its congruence side condition,
    so agreement with brute also validates the per-slice congruences.
    """
    if mode not in ("brute", "meet-in-middle", "sliced-pipeline"):
        raise ContractViolation(f"unknown unlike-powers mode {mode!r}")
    B, k, l, m, N = inst.B, inst.k, inst.l, inst.m, inst.N
    rng = range(-B, B + 1)
    pk = {v: v ** k for v in rng}
    pl = {v: v ** l for v in rng}
    pm = {v: v ** m for v in rng}

    if mode == "brute":
        count = 0
        for x1 in rng:
            for x2 in rng:
                s12 = pk[x1] + pl[x2]
                for x3 in rng:
                    s123 = s12 + pm[x3]
                    for x4 in rng:
                        if s123 + pk[x4] == N:
                            count += 1
        return UnlikeCount(count=count, mode=mode)

    if mode == "meet-in-middle":
        outer = Counter(pk[x1] + pk[x4] for x1 in rng for x4 in rng)
        count = sum(
            outer.get(N - pl[x2] - pm[x3], 0) for x2 in rng for x3 in rng
        )
        return UnlikeCount(count=count, mode=mode)

    inst.validate_theorem_mode()
    h = _alternating_factor(k)
    sub = _substitute(1, 1, 0, h)
    g3 = IntegerPolynomial(3, {(0, l, 0): 1, (0, 0, m): 1, (0, 0, 0): -N})
    box = BoxBounds(B, B, B)

    # u = 0 forces x4 = -x1 for odd k; the count splits off as a cylinder
    fibers = sum(
        1 for x2 in rng for x3 in rng if pl[x2] + pm[x3] == N
    )
    zero_slice = fibers * (2 * B + 1)

    total = zero_slice
    per_slice = []
    for u in range(-3 * B, 3 * B + 1):
        if u == 0:
            continue
        sl = _slice(sub, 1, 1, 0, h, g3, u)
        side = SideCondition(g3, sl.modulus)
        pts = enumerate_points(sl.slice_poly, side, box)
        here = sum(1 for (x1, _, _) in pts if abs(u - x1) <= B)
        if here:
            per_slice.append((u, here))
        total += here
    return UnlikeCount(
        count=total, mode=mode,
        zero_slice=zero_slice, per_slice=tuple(per_slice),
        assumed_hypothesis="slice surfaces assumed geometrically irreducible "
                           "for every nonzero u",
    )


# -- gcd-twisted power sums ------------------------------------------------------


class GcdPowerSum(Record):
    total: object
    majorant: object
    terms: int


#: fractional bits of the fixed-point power table: 96 plus 32 guard bits
_FRACTION_BITS = 96 + 32


def _power_table(a: int, X: int) -> list:
    """[0, 1^alpha, ..., X^alpha] in fixed point: ints near u^alpha * 2^F,
    with F = ``_FRACTION_BITS`` and alpha = a / 2^F in [-1, 0].

    A smallest-prime-factor sieve writes each composite u as p * (u // p),
    so its entry is one product and one shift.  A prime p takes
    p^alpha = (p-1)^alpha * (1 - 1/p)^beta, beta = -alpha, from the entry
    below it.  1 - (1 - 1/p)^beta is the binomial series sum c_k p^-k with
    c_k = beta(1-beta)...(k-1-beta)/k! in [0, 1/k]; the c_k are fixed per
    call, and the series runs by Horner's rule, with integer division by
    p, over its first ceil(F / floor(log2 p)) terms.

    Error.  All work is in units of 2^-F.  In the series the c_k lose
    at most k - 1 units each (weight p^-k), Horner's floors under 2 and the
    dropped tail under 1, so the factor (1 - 1/p)^beta >= 1/2 comes out
    high by under 4 units, relatively by under 8 * 2^-F.  Each product's
    shift loses under one unit of an entry of at least u^alpha, relatively
    at most u^-alpha * 2^-F.  So one step (a composite product, or a
    prime's series and product) moves an entry by a factor within
    1 +- (u^-alpha + 8) * 2^-F.  Entry u rests on fewer than 3 * log2(u)
    steps: a composite on its two factors' steps and one more, a prime
    p >= 5 on those of (p-1)/2 and of 2, then p - 1 and p.  Rounding alpha
    to a / 2^F adds at most 2^-F * ln(u) / 2.  Altogether, in units,

        |pw[u] - u^alpha * 2^F| <= 3 * log2(u) * (1 + 9 * u^alpha),

    a relative error below 2^-109 for u <= 10^4, whatever alpha.
    """
    F = _FRACTION_BITS
    one = 1 << F
    b = -a
    c = [0, b]
    for k in range(2, F + 1):
        c.append(c[-1] * (((k - 1) << F) - b) // (k << F))
    spf = [0] * (X + 1)
    # the smallest prime is assigned last, so it is the one that stays
    for p in reversed([p for p in range(2, math.isqrt(X) + 1) if is_prime(p)]):
        spf[p * p::p] = [p] * len(range(p * p, X + 1, p))
    pw = [0, one]
    for u in range(2, X + 1):
        p = spf[u]
        if p:
            pw.append(pw[p] * pw[u // p] >> F)
            continue
        acc = 0
        # c_K down to c_1, K = ceil(F / floor(log2 u)), so that u^K >= 2^F
        for ck in c[-(-F // (u.bit_length() - 1)):0:-1]:
            acc = acc // u + ck
        pw.append(pw[u - 1] * (one - acc // u) >> F)
    return pw


def _fixed_exponent(alpha) -> int:
    """round(alpha * 2^F) for an int, float, Fraction or mpf alpha in (-1, 0)."""
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float, Fraction, mpf)):
        raise ContractViolation(
            f"exponent must be an int, float, Fraction or mpf, not {alpha!r}"
        )
    if not -1 < alpha < 0:
        raise ContractViolation("exponent must lie strictly between -1 and 0")
    if isinstance(alpha, mpf):
        man, exp = alpha.man_exp  # the mantissa of |alpha|
        alpha = -int(man) * Fraction(2) ** exp
    return round(Fraction(alpha) * (1 << _FRACTION_BITS))


def _power_sums(a: int, X: int, n: int) -> tuple:
    """(total, majorant, terms), both sums exact over ``_power_table(a, X)``."""
    pw = _power_table(a, X)
    total = sum(pw[u // math.gcd(u, n)] for u in range(1, X + 1))
    prefix = list(accumulate(pw))  # prefix[m] = pw[1] + ... + pw[m]
    divs = divisors(n)
    majorant = sum(prefix[X // d] for d in divs)
    return total, majorant, X + sum(X // d for d in divs)


def gcd_power_sum(alpha, X: int, n: int) -> GcdPowerSum:
    """Sum of (u / gcd(u, n))^alpha for u up to X, with its divisor majorant.

    The majorant sums u^alpha for u up to X/d over every divisor d of n.
    Both sums add the same fixed-point table of u^alpha (see
    ``_power_table``) as Python ints, so they are exact sums of the
    entries.  Each term of the twisted sum injects into the majorant's
    terms as the very same entry (u -> (d, u/d) with d = gcd(u, n)), and
    every entry is positive, so total <= majorant holds on the integers;
    a failure is a ``SoundnessError``.  Each sum then becomes an ``mpf``
    once, rounded to nearest at 96 bits and scaled by 2^-F exactly;
    rounding is monotone, so the order survives, and each result is
    within 2^-96 plus the table's entry error of the true sum.

    ``alpha`` is an int, float, ``Fraction`` or ``mpf`` strictly between
    -1 and 0, taken to the nearest multiple of 2^-F (exactly, for a
    float); ``X`` and ``n`` are positive ints.  Anything else, bools and
    strings included, is a ``ContractViolation``.
    """
    a = _fixed_exponent(alpha)
    X = strict_int(X, "range X")
    n = strict_int(n, "twist n")
    if X < 1 or n < 1:
        raise ContractViolation(f"range X = {X} and twist n = {n} must be positive")
    total, majorant, terms = _power_sums(a, X, n)
    if total > majorant:
        raise SoundnessError(f"power sum exceeds its majorant for {(alpha, X, n)}")
    with workprec():
        return GcdPowerSum(
            total=mp.ldexp(mpf(total), -_FRACTION_BITS),
            majorant=mp.ldexp(mpf(majorant), -_FRACTION_BITS),
            terms=terms,
        )


# -- Wronskian exclusion ----------------------------------------------------------


class WronskianReport(Record):
    applicable: bool
    wronskian_nonzero: bool
    lhs: int
    rhs: int
    passed: bool
    divisibility_ok: bool
    degrees: tuple
    exps: tuple


def wronskian_bound_check(
    gammas: Sequence[IntegerPolynomial], exps: Sequence[int]
) -> WronskianReport:
    """Degree bound for power families whose sum is a nonzero constant.

    Takes nonzero ``IntegerPolynomial``s in one variable, one positive
    integer exponent each; anything else is a ContractViolation.  Checks
    max(d_i * l_i) <= (r-1) * sum(d_i) - r(r-1)/2 whenever the powers
    gamma_i^(l_i) are independent (nonzero Wronskian), and records as
    ``divisibility_ok`` whether the product of gamma_i^max(l_i - r + 1, 0)
    divides the Wronskian over Q.  A dependent family yields an
    inapplicable report, not an error.
    """
    gammas = _require_univariate(gammas, "component polynomials")
    exps = tuple(strict_int(v, "exponent") for v in exps)
    r = len(gammas)
    if r == 0 or len(exps) != r:
        raise ContractViolation("need one exponent per polynomial")
    if any(v < 1 for v in exps):
        raise ContractViolation("exponents must be positive")
    if any(g.is_zero for g in gammas):
        raise ContractViolation("component polynomials must be nonzero")

    powers = [g ** l for g, l in zip(gammas, exps)]
    total = powers[0]
    for p in powers[1:]:
        total = total + p
    if total.total_degree() > 0 or total.is_zero:
        raise ContractViolation("the powers must sum to a nonzero constant")

    degrees = tuple(g.total_degree() for g in gammas)
    w = wronskian(powers)
    if w.is_zero:
        return WronskianReport(
            applicable=False, wronskian_nonzero=False,
            lhs=0, rhs=0, passed=False, divisibility_ok=False,
            degrees=degrees, exps=exps,
        )

    lhs = max(d * l for d, l in zip(degrees, exps))
    rhs = (r - 1) * sum(degrees) - r * (r - 1) // 2
    divisor = IntegerPolynomial.constant(1, 1)
    for g, l in zip(gammas, exps):
        s = max(l - r + 1, 0)
        if s:
            divisor = divisor * g ** s
    # prem(w, divisor) vanishes exactly when divisor divides w over Q
    return WronskianReport(
        applicable=True, wronskian_nonzero=True,
        lhs=lhs, rhs=rhs, passed=lhs <= rhs,
        divisibility_ok=_pseudo_remainder(w, divisor, 0).is_zero,
        degrees=degrees, exps=exps,
    )


# -- excluded subvarieties ---------------------------------------------------------


class SubvarietySystem(Record):
    equations: tuple
    points: tuple

    @property
    def count(self) -> int:
        return len(self.points)


class SubvarietyReport(Record):
    systems: tuple
    union_points: tuple

    @property
    def union_count(self) -> int:
        return len(self.union_points)


def excluded_subvarieties(inst: UnlikePowersInstance) -> SubvarietyReport:
    """The four coordinate-subsum systems that can carry excess points,
    each intersected with the hypersurface, with exact box point counts."""
    inst.validate_theorem_mode()
    k, l, m, N, B = inst.k, inst.l, inst.m, inst.N, inst.B
    rng = range(-B, B + 1)
    f4 = inst.hypersurface()

    def poly4(terms):
        return IntegerPolynomial(4, terms)

    sys_polys = (
        poly4({(k, 0, 0, 0): 1, (0, 0, 0, k): 1}),
        poly4({(0, l, 0, 0): 1, (0, 0, m, 0): 1}),
        poly4({(k, 0, 0, 0): 1, (0, l, 0, 0): 1, (0, 0, 0, k): 1}),
        poly4({(k, 0, 0, 0): 1, (0, 0, m, 0): 1, (0, 0, 0, k): 1}),
    )

    # system 1: odd k forces x4 = -x1, leaving the fiber x2^l + x3^m = N
    pts1 = sorted(
        (x1, x2, x3, -x1)
        for x1 in rng for x2 in rng for x3 in rng
        if x2 ** l + x3 ** m == N
    )

    # system 2: x2^l = -x3^m, and x1^k + x4^k = N
    pairs2 = [(x2, x3) for x2 in rng for x3 in rng if x2 ** l + x3 ** m == 0]
    halves2 = []
    for x1 in rng:
        x4 = _integer_nth_root(N - x1 ** k, k)
        if x4 is not None and abs(x4) <= B:
            halves2.append((x1, x4))
    pts2 = sorted(
        (x1, x2, x3, x4) for (x1, x4) in halves2 for (x2, x3) in pairs2
    )

    # system 3: forces x3^m = N on the hypersurface
    thirds3 = [x3 for x3 in rng if x3 ** m == N]
    triples3 = []
    for x1 in rng:
        for x2 in rng:
            x4 = _integer_nth_root(-(x1 ** k) - x2 ** l, k)
            if x4 is not None and abs(x4) <= B:
                triples3.append((x1, x2, x4))
    pts3 = sorted(
        (x1, x2, x3, x4) for (x1, x2, x4) in triples3 for x3 in thirds3
    )

    # system 4: forces x2^l = N on the hypersurface
    seconds4 = [x2 for x2 in rng if x2 ** l == N]
    triples4 = []
    for x1 in rng:
        for x3 in rng:
            x4 = _integer_nth_root(-(x1 ** k) - x3 ** m, k)
            if x4 is not None and abs(x4) <= B:
                triples4.append((x1, x3, x4))
    pts4 = sorted(
        (x1, x2, x3, x4) for (x1, x3, x4) in triples4 for x2 in seconds4
    )

    systems = []
    union: set = set()
    for sp, pts in zip(sys_polys, (pts1, pts2, pts3, pts4)):
        for pt in pts:
            if sp.evaluate(pt) != 0 or f4.evaluate(pt) != 0:
                raise SoundnessError(f"subvariety point {pt} fails its equations")
        systems.append(SubvarietySystem(equations=(sp, f4), points=tuple(pts)))
        union.update(pts)
    return SubvarietyReport(
        systems=tuple(systems), union_points=tuple(sorted(union))
    )


# -- predicted exponents -----------------------------------------------------------


class QuadricExponents(Record):
    box_powers: tuple
    coefficient_powers: tuple


class UnlikeExponents(Record):
    main: float
    secondary: float
    comparison: float


def predicted_exponents(inst):
    """Growth exponents the counting bounds predict for this instance."""
    if isinstance(inst, QuadricInstance):
        return QuadricExponents(
            box_powers=(Fraction(4, 3), Fraction(7, 6), Fraction(1, 2)),
            coefficient_powers=(Fraction(-1, 3), Fraction(-1, 6), Fraction(0)),
        )
    if isinstance(inst, UnlikePowersInstance):
        k, l = inst.k, inst.l
        root = math.sqrt(k - 1)
        trim = 1 - 1 / (2 * l)
        return UnlikeExponents(
            main=4 / 3 + trim / root,
            secondary=1 + 2 * trim / root,
            comparison=4 / 3 + 1 / math.sqrt(k),
        )
    raise ContractViolation(f"no exponent prediction for {type(inst).__name__}")
