"""Exact enumeration of box points on a surface under a congruence.

The target sets are the integer points x in a box with f(x) = 0 and
g(x2, x3) congruent to 0 mod q.  Enumeration finds the admissible
(x2, x3) pairs on a window of at most q values per axis, repeats them
with period q across the box, then finds the integer roots of each
resulting univariate fiber polynomial in x1, or looks them up in one
value table when the x1 part is the same on every fiber.  A table-served
row looks up each distinct -P(x3) once when the fiber constant splits as
c_0 = A(x2) + P(x3), and each fiber once otherwise.  Everything is
integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Mapping, Sequence

from .arith import is_prime
from .errors import (
    CapExceeded, ContractViolation, Record, _shown, strict_int, strict_point, strict_real,
)
from .exponents import BoxBounds, SideCondition
from .polynomials import IntegerPolynomial


def _horner_row(coeffs: Sequence[int], xs: Sequence[int]) -> list[int]:
    """Values of sum(coeffs[k] x^k) at every x of xs, one pass per degree."""
    if not coeffs:
        return [0] * len(xs)
    vals = [coeffs[-1]] * len(xs)
    for c in reversed(coeffs[:-1]):
        vals = [v * x + c for v, x in zip(vals, xs)]
    return vals


def _z_groups(p: IntegerPolynomial) -> list[list[tuple[int, int]]]:
    """The terms c * x2^e2 * x3^e3 of p, listed by e3 as (e2, c); x1 is ignored."""
    groups: list[list[tuple[int, int]]] = [[] for _ in range(p.degree_in(2) + 1)]
    for (_, e2, e3), c in p.terms.items():
        groups[e3].append((e2, c))
    return groups


def _z_row(groups: list[list[tuple[int, int]]], y: int) -> list[int]:
    """Dense x3-coefficients of p(., y, x3), from ``_z_groups(p)``."""
    return [sum(c * y ** e2 for e2, c in group) for group in groups]


def _row_roots(cols: Sequence[Sequence[int]], lo: int, hi: int):
    """Integer roots in [lo, hi] of every fiber of a row.

    The solver for a surface that is not x1-separable, and for a
    separable one whose fibers are too few to pay for a value table.
    ``cols[j][i]`` is the x^j coefficient of fiber i.  Yields (i, roots),
    roots ascending, for each fiber i with a root there; a fiber that
    vanishes identically has every x in [lo, hi] as a root.  The degree
    case is chosen once per row from len(cols).  Degree 2 screens the
    whole row's discriminants in one pass; beyond that every integer
    root divides the lowest nonzero coefficient, so trial division of it
    by 1 .. max(-lo, hi) finds every candidate, for a term of any size.
    A fiber whose leading coefficient vanishes is solved as a one-fiber
    row of its true degree.
    """
    d = len(cols) - 1
    if d == 0:
        full = range(lo, hi + 1)
        for i, c0 in enumerate(cols[0]):
            if not c0:
                yield i, full
    elif d == 1:
        for i, (c0, c1) in enumerate(zip(*cols)):
            if not c1:
                xs = _integer_roots((c0,), lo, hi)
            elif c0 % c1 == 0 and lo <= -(c0 // c1) <= hi:
                xs = (-(c0 // c1),)
            else:
                continue
            if xs:
                yield i, xs
    elif d == 2:
        c0s, c1s, c2s = cols
        discs = [c1 * c1 - 4 * c2 * c0 for c0, c1, c2 in zip(c0s, c1s, c2s)]
        for i, disc in enumerate(discs):
            if disc < 0:
                continue
            c2 = c2s[i]
            if not c2:
                xs = _integer_roots((c0s[i], c1s[i]), lo, hi)
            else:
                s = math.isqrt(disc)
                if s * s != disc:
                    continue
                den = 2 * c2
                xs = sorted({num // den for num in (-c1s[i] - s, -c1s[i] + s)
                             if num % den == 0 and lo <= num // den <= hi})
            if xs:
                yield i, xs
    else:
        bound = max(-lo, hi)
        for i, fiber in enumerate(zip(*cols)):
            if not fiber[-1]:
                xs = _integer_roots(fiber[:-1], lo, hi)
            else:
                k = 0
                while not fiber[k]:
                    k += 1
                a0 = abs(fiber[k])
                xs = [0] if k and lo <= 0 <= hi else []
                for dv in range(1, min(bound, a0) + 1):
                    if a0 % dv:
                        continue
                    for x in (-dv, dv):
                        if lo <= x <= hi:
                            v = 0
                            for c in reversed(fiber):
                                v = v * x + c
                            if not v:
                                xs.append(x)
                xs.sort()
            if xs:
                yield i, xs


def _integer_roots(coeffs: Sequence[int], lo: int, hi: int) -> list[int]:
    """Ascending integer roots in [lo, hi] of one fiber sum(coeffs[k] x^k).

    A one-fiber row of the polynomial's true degree for ``_row_roots``;
    the zero polynomial has every x in [lo, hi] as a root.
    """
    d = len(coeffs)
    while d and not coeffs[d - 1]:
        d -= 1
    if not d:
        return list(range(lo, hi + 1))
    for _, xs in _row_roots([[c] for c in coeffs[:d]], lo, hi):
        return list(xs)
    return []


def _value_table(p: Sequence[int], lo: int, hi: int) -> dict[int, list[int]]:
    """{v: the ascending x in [lo, hi] with sum(p[k] x^k) = v}."""
    xs = range(lo, hi + 1)
    table: dict[int, list[int]] = {}
    for x, v in zip(xs, _horner_row(p, xs)):
        table.setdefault(v, []).append(x)
    return table


# The most fibers (x2, x3) enumerate_points walks, (2 B2 + 1)(2 B3 + 1).
# B1 does not count: a fiber's x1 values are roots, and a value table over
# [-B1, B1] is built only when the fibers outnumber its entries.  The largest
# box the tests, CI, README and benchmark enumerate is the certify box
# [10^6, 1000, 1001], with 2001 * 2003 < 5 * 10^6 fibers.
BOX_FIBER_CAP = 10 ** 8


# The highest total degree of f and of g that enumerate_points takes, and the
# highest unlike exponent k, l or m.  The tests, CI, README and benchmark use
# at most 14 for f, 6 for g and 15 for an exponent; an x3^100000 in f, or an
# unlike k of 10^7, ran for seconds to minutes before any result.
DEGREE_CAP = 1000


def check_fibers(box: BoxBounds) -> None:
    """Refuse (CapExceeded) a box with over BOX_FIBER_CAP fibers (x2, x3)."""
    if (2 * box.b2 + 1) * (2 * box.b3 + 1) > BOX_FIBER_CAP:
        raise CapExceeded(f"a box with x2, x3 bounds {box.b2}, {box.b3} needs over "
                          f"{BOX_FIBER_CAP} fibers")


def enumerate_points(
    f: IntegerPolynomial,
    side: SideCondition,
    box: BoxBounds,
    nonsingular_only: bool = False,
) -> tuple:
    """Exact enumeration of the congruence-constrained surface points.

    Returns the sorted tuple of points (x1, x2, x3).

    Fibers over admissible (x2, x3); each fiber reduces to integer root
    finding for f(., x2, x3).  g mod q depends only on x2 and x3 mod q,
    so a window of min(q, 2B + 1) consecutive values per axis meets
    every residue once.  For each y0 of the x2-window one Horner pass of
    g over the x3-window finds the admissible z0, and each extends by
    steps of q to the box edge; those x3 values serve every row
    y = y0, y0 + q, ... of the box.  Each x1-coefficient c_j(y, .) is
    then evaluated at all of them in one Horner pass per x3-degree,
    giving one column per j, and ``_row_roots`` solves the row's fibers
    from those columns.  A fiber polynomial that vanishes identically
    contributes its full x1 range.  Only one residue's x3 values and one
    row of columns are held at a time.

    An x1-separable f, every x1^j coefficient with j >= 1 a constant, has
    fibers p(x1) = -c_0(y, z) for one p.  Its residues are counted first,
    keeping their admissible z0; once their fibers reach 2 B1 + 1, one
    value table of p over [-B1, B1] serves each fiber by a dict lookup of
    its c_0.  So the table never costs more evaluations than the fibers
    it serves, and a huge B1 with few fibers builds none.  When no term
    of c_0 mixes x2 and x3, c_0 = A(x2) + P(x3): the fibers of a residue
    are grouped once by their value -P(z), and each row looks up each
    distinct value shifted by A(y) once, for all the fibers sharing it.
    A c_0 that mixes them is looked up once per fiber.

    A box with over BOX_FIBER_CAP fibers, or an f or g of total degree
    over DEGREE_CAP, is refused (CapExceeded) before anything is allocated.
    """
    check_fibers(box)
    if f.nvars != 3:
        raise ContractViolation("surface polynomial must use arity 3")
    if f.is_zero:
        raise ContractViolation("surface polynomial is zero")
    b1, b2, b3 = box.bounds
    q = SideCondition.check(side).q
    for p, what in ((f, "surface"), (side.g, "side")):
        if p.total_degree() > DEGREE_CAP:
            raise CapExceeded(f"the {what} polynomial has degree {p.total_degree()}, "
                              f"over the degree cap {DEGREE_CAP}")
    coeff_polys = f.coefficients_in(0)
    zero = IntegerPolynomial.zero(3)
    # c_j(x2, x3) = coefficient of x1^j, grouped once so each row y costs
    # one pass over the terms and one Horner pass per x3-degree
    coeff_groups = [_z_groups(coeff_polys.get(j, zero))
                    for j in range(f.degree_in(0) + 1)]
    if nonsingular_only:
        grads = [f.partial_derivative(i) for i in range(3)]
    g_groups = _z_groups(side.g)
    z_window = range(-b3, min(b3, q - b3 - 1) + 1)

    def residues():
        """(y0, the admissible z0 of the x3-window) for each y0 of the x2-window."""
        for y0 in range(-b2, min(b2, q - b2 - 1) + 1):
            g_vals = _horner_row(_z_row(g_groups, y0), z_window)
            z0s = [z0 for z0, v in zip(z_window, g_vals) if v % q == 0]
            if z0s:
                yield y0, z0s

    scan, counted, table = residues(), [], None
    if all(c.is_constant for j, c in coeff_polys.items() if j):
        fibers = 0
        for y0, z0s in scan:
            counted.append((y0, z0s))
            rows = len(range(y0, b2 + 1, q))
            fibers += rows * sum(len(range(z0, b3 + 1, q)) for z0 in z0s)
            if fibers >= 2 * b1 + 1:
                p = [0] + [coeff_polys.get(j, zero).constant_term()
                           for j in range(1, len(coeff_groups))]
                table = _value_table(p, -b1, b1)
                break

    # c_0 = A(x2) + P(x3) when no term of c_0 mixes x2 and x3: then fiber
    # (y, z) looks up -P(z) - A(y), and a row needs one lookup per distinct
    # -P(z) of the residue, found once for all its rows
    c0_terms = coeff_polys.get(0, zero).terms
    split = table is not None and not any(e2 and e3 for _, e2, e3 in c0_terms)
    if split:
        p_row = _z_row(coeff_groups[0], 0)
        a_terms = [(e2, c) for (_, e2, _), c in c0_terms.items() if e2]

    points: list[tuple] = []
    for y0, z0s in chain(counted, scan):
        zs = [z for z0 in z0s for z in range(z0, b3 + 1, q)]
        if split:
            by_value: dict[int, list[int]] = {}
            for i, v in enumerate(_horner_row(p_row, zs)):
                by_value.setdefault(-v, []).append(i)
        for y in range(y0, b2 + 1, q):
            if table is None:
                cols = [_horner_row(_z_row(groups, y), zs) for groups in coeff_groups]
                solved = _row_roots(cols, -b1, b1)
            elif split:
                a = sum(c * y ** e2 for e2, c in a_terms)
                solved = ((i, xs) for v, idxs in by_value.items()
                          if (xs := table.get(v - a)) for i in idxs)
            else:
                c0s = _horner_row(_z_row(coeff_groups[0], y), zs)
                solved = ((i, xs) for i, c in enumerate(c0s) if (xs := table.get(-c)))
            for i, xs in solved:
                z = zs[i]
                for x1 in xs:
                    pt = (x1, y, z)
                    if nonsingular_only and all(gr.evaluate(pt) == 0 for gr in grads):
                        continue
                    points.append(pt)

    points.sort()
    return tuple(points)


# -- residue-class splitting -------------------------------------------------


class ResidueData(Record):
    """Auxiliary reduction primes used to split points into classes."""

    primes: tuple = ()

    def __post_init__(self):
        ps = tuple(strict_int(p, "residue prime") for p in self.primes)
        if len(set(ps)) != len(ps):
            raise ContractViolation("residue primes must be distinct")
        for p in ps:
            if not is_prime(p):
                raise ContractViolation(f"residue modulus {_shown(p)} is not prime")
        object.__setattr__(self, "primes", tuple(sorted(ps)))

    @property
    def product(self) -> int:
        return math.prod(self.primes)


def residue_split(
    points: Sequence[tuple], residues: ResidueData, f: IntegerPolynomial
) -> dict[tuple, tuple]:
    """Partition points by their reductions mod each residue prime.

    Returns {label: sorted tuple of points}, labels in sorted order.  The
    class label is the tuple of reduced points.  A point whose
    reduction mod some prime is a singular point of the reduced surface
    is dropped from every class.  With no primes at all there is a
    single class labelled () holding everything.
    """
    if f.nvars != 3:
        raise ContractViolation("surface polynomial must use arity 3")
    grads = [f.partial_derivative(i) for i in range(3)]
    classes: dict[tuple, list] = {}
    for pt in map(strict_point, points):
        labels = []
        keep = True
        for p in residues.primes:
            red = tuple(x % p for x in pt)
            if all(gr.evaluate(red) % p == 0 for gr in grads):
                keep = False
                break
            labels.append(red)
        if keep:
            classes.setdefault(tuple(labels), []).append(pt)
    return {label: tuple(sorted(pts)) for label, pts in sorted(classes.items())}


def split_leftover(points: Sequence[tuple], classes: Mapping[tuple, Sequence]) -> tuple:
    """Points not present in any class (singular reductions)."""
    seen = set()
    for pts in classes.values():
        seen.update(pts)
    return tuple(pt for pt in points if pt not in seen)


# -- bad prime products --------------------------------------------------------

#: the most evaluations of f, p^3 for each prime p up to the prime cap, that
#: the point-count heuristic makes: prime caps up to 61 (966 291 of them)
HEURISTIC_EVALUATION_CAP = 10 ** 6


def bad_prime_product(
    source: str,
    *,
    value: int | None = None,
    a: Sequence[int] | None = None,
    n: int | None = None,
    f: IntegerPolynomial | None = None,
    prime_cap: int = 20,
    slack: float = 1.0,
) -> int:
    """Product of primes at which the surface degenerates.

    Three sources: a user-supplied value taken on trust, the closed-form
    |2 a1 a2 a3 n| for diagonal quadrics, and a point-count heuristic
    flagging p when the count of solutions mod p strays from p^2 by more
    than slack * p^(3/2), compared exactly; slack is a finite nonnegative
    int, float or Fraction.  The heuristic is explicitly that, a guess;
    no report or CLI command carries its output.  It evaluates f at p^3
    points per prime, and refuses (CapExceeded) before counting any when
    they sum to over HEURISTIC_EVALUATION_CAP.
    """
    if source == "user-supplied":
        value = 0 if value is None else strict_int(value, "bad prime product")
        if value == 0:
            raise ContractViolation("user-supplied bad prime product must be nonzero")
        return abs(value)
    if source == "quadric-formula":
        if a is None or n is None:
            raise ContractViolation("quadric formula needs coefficients a and n")
        if len(a) != 3:
            raise ContractViolation("quadric formula needs three coefficients a")
        a1, a2, a3 = (strict_int(v, "quadric coefficient") for v in a)
        prod = 2 * a1 * a2 * a3 * strict_int(n, "quadric constant n")
        if prod == 0:
            raise ContractViolation("degenerate quadric: zero coefficient product")
        return abs(prod)
    if source == "point-count-heuristic":
        if f is None:
            raise ContractViolation("heuristic mode needs the surface polynomial")
        # |count - p^2| > slack p^(3/2), squared on both sides to stay exact
        slack_sq = Fraction(strict_real(slack, "slack", "nonnegative")) ** 2
        primes, evaluations = [], 0
        for p in filter(is_prime, range(2, strict_int(prime_cap, "prime cap") + 1)):
            primes.append(p)
            evaluations += p ** 3
            if evaluations > HEURISTIC_EVALUATION_CAP:
                raise CapExceeded(f"the point-count heuristic to prime cap {prime_cap} "
                                  f"needs over {HEURISTIC_EVALUATION_CAP} evaluations")
        out = 1
        for p in primes:
            count = 0
            for x1 in range(p):
                for x2 in range(p):
                    for x3 in range(p):
                        if f.evaluate((x1, x2, x3)) % p == 0:
                            count += 1
            if (count - p * p) ** 2 > slack_sq * p ** 3:
                out *= p
        return out
    raise ContractViolation(f"unknown bad prime source {source!r}")
