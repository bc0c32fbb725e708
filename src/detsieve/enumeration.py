"""Exact enumeration of box points on a surface under a congruence.

The target sets are the integer points x in a box with f(x) = 0 and
g(x2, x3) congruent to 0 mod q.  Enumeration sieves admissible residue
pairs for (x2, x3), then finds the integer roots of the resulting
univariate fiber polynomial in x1.  Everything is integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .arith import is_prime
from .errors import ContractViolation, strict_int
from .exponents import BoxBounds
from .polynomials import IntegerPolynomial

#: build the residue table only while q^2 stays below this
SIEVE_TABLE_CAP = 10 ** 8


@dataclass(frozen=True)
class SideCondition:
    """Congruence g(x2, x3) = 0 mod q imposed on surface points."""

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


@dataclass(frozen=True)
class PointSet:
    """Sorted integer points found in a box, with the flags that shaped them."""

    points: tuple
    box: BoxBounds
    nonsingular_only: bool = False

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def _horner(coeffs: Sequence[int], x: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


def _z_groups(p: IntegerPolynomial) -> list[list[tuple[int, int]]]:
    """The terms c * x2^e2 * x3^e3 of p, listed by e3 as (e2, c); x1 is ignored."""
    groups: list[list[tuple[int, int]]] = [[] for _ in range(p.degree_in(2) + 1)]
    for (_, e2, e3), c in p.terms.items():
        groups[e3].append((e2, c))
    return groups


def _z_row(groups: list[list[tuple[int, int]]], y: int) -> list[int]:
    """Dense x3-coefficients of p(., y, x3), from ``_z_groups(p)``."""
    return [sum(c * y ** e2 for e2, c in group) for group in groups]


def _integer_roots(coeffs: Sequence[int], lo: int, hi: int) -> list[int]:
    """All integer roots of the nonzero polynomial sum(coeffs[k] x^k) in [lo, hi].

    Degree 1 and 2 are solved directly; beyond that every integer root
    divides the (nonzero) constant term, so trial division of that term
    by 1 .. max(-lo, hi) finds every candidate, for a term of any size.
    """
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ContractViolation("root search on the zero polynomial")
    roots = set()
    had_zero = False
    while cs[0] == 0:
        cs.pop(0)
        had_zero = True
    if had_zero and lo <= 0 <= hi:
        roots.add(0)
    d = len(cs) - 1
    if d == 1:
        c0, c1 = cs
        if c0 % c1 == 0:
            x = -(c0 // c1)
            if lo <= x <= hi:
                roots.add(x)
    elif d == 2:
        c0, c1, c2 = cs
        disc = c1 * c1 - 4 * c2 * c0
        if disc >= 0:
            s = math.isqrt(disc)
            if s * s == disc:
                for num in (-c1 + s, -c1 - s):
                    if num % (2 * c2) == 0:
                        x = num // (2 * c2)
                        if lo <= x <= hi:
                            roots.add(x)
    elif d >= 3:
        a0 = abs(cs[0])
        for dv in range(1, min(max(-lo, hi), a0) + 1):
            if a0 % dv == 0:
                for x in (dv, -dv):
                    if lo <= x <= hi and _horner(cs, x) == 0:
                        roots.add(x)
    return sorted(roots)


def _residue_table(g: IntegerPolynomial, q: int) -> dict[int, list[int]]:
    """Map r2 -> sorted r3 with g(r2, r3) = 0 mod q."""
    gterms = [(e[1], e[2], c % q) for e, c in g.terms.items()]
    e2s = sorted({t[0] for t in gterms})
    e3s = sorted({t[1] for t in gterms})
    table: dict[int, list[int]] = {}
    pow3 = [{e: pow(r3, e, q) for e in e3s} for r3 in range(q)]
    for r2 in range(q):
        p2 = {e: pow(r2, e, q) for e in e2s}
        row = [
            r3
            for r3 in range(q)
            if sum(c * p2[e2] * pow3[r3][e3] for e2, e3, c in gterms) % q == 0
        ]
        if row:
            table[r2] = row
    return table


def enumerate_points(
    f: IntegerPolynomial,
    side: SideCondition,
    box: BoxBounds,
    nonsingular_only: bool = False,
) -> PointSet:
    """Exact enumeration of the congruence-constrained surface points.

    Fibers over admissible (x2, x3); each fiber reduces to integer root
    finding for f(., x2, x3).  Rows x2 = y come outermost: the
    x1-coefficients of f are reduced to dense polynomials in x3 once per
    row, and each fiber evaluates them by Horner's rule at its x3.  A
    fiber polynomial that vanishes identically contributes its full x1
    range.
    """
    if f.nvars != 3:
        raise ContractViolation("surface polynomial must use arity 3")
    if f.is_zero:
        raise ContractViolation("surface polynomial is zero")
    b1, b2, b3 = box.bounds
    q = side.q
    coeff_polys = f.coefficients_in(0)
    zero = IntegerPolynomial.zero(3)
    # c_j(x2, x3) = coefficient of x1^j, grouped once so each row y costs
    # one pass over the terms and each fiber one Horner per j
    coeff_groups = [_z_groups(coeff_polys.get(j, zero))
                    for j in range(f.degree_in(0) + 1)]
    grads = [f.partial_derivative(i) for i in range(3)]

    points: list[tuple] = []

    def row_at(y: int) -> list[list[int]]:
        """For each x1-power j, the dense x3-coefficients of c_j(y, x3)."""
        return [_z_row(groups, y) for groups in coeff_groups]

    def visit_fiber(row: list[list[int]], y: int, z: int) -> None:
        dense = [_horner(zc, z) for zc in row]
        if any(dense):
            xs = _integer_roots(dense, -b1, b1)
        else:
            xs = range(-b1, b1 + 1)
        for x1 in xs:
            pt = (x1, y, z)
            if nonsingular_only and all(gr.evaluate(pt) == 0 for gr in grads):
                continue
            points.append(pt)

    if q * q <= SIEVE_TABLE_CAP:
        # q = 1 runs here too: its table is {0: [0]}, every fiber of the box
        table = _residue_table(side.g, q)
        for y in range(-b2, b2 + 1):
            r3s = table.get(y % q)
            if not r3s:
                continue
            row = row_at(y)
            for r3 in r3s:
                for z in range(-b3 + ((r3 + b3) % q), b3 + 1, q):
                    visit_fiber(row, y, z)
    else:
        g_groups = _z_groups(side.g)
        for y in range(-b2, b2 + 1):
            row = row_at(y)
            g_row = _z_row(g_groups, y)
            for z in range(-b3, b3 + 1):
                if _horner(g_row, z) % q == 0:
                    visit_fiber(row, y, z)

    points.sort()
    return PointSet(tuple(points), box, nonsingular_only)


# -- residue-class splitting -------------------------------------------------


@dataclass(frozen=True)
class ResidueData:
    """Auxiliary reduction primes used to split points into classes."""

    primes: tuple = ()

    def __post_init__(self):
        ps = tuple(strict_int(p, "residue prime") for p in self.primes)
        if len(set(ps)) != len(ps):
            raise ContractViolation("residue primes must be distinct")
        for p in ps:
            if not is_prime(p):
                raise ContractViolation(f"residue modulus {p} is not prime")
        object.__setattr__(self, "primes", tuple(sorted(ps)))

    @property
    def product(self) -> int:
        out = 1
        for p in self.primes:
            out *= p
        return out


def residue_split(
    P: PointSet, residues: ResidueData, f: IntegerPolynomial
) -> dict[tuple, PointSet]:
    """Partition points by their reductions mod each residue prime.

    The class label is the tuple of reduced points.  A point whose
    reduction mod some prime is a singular point of the reduced surface
    is dropped from every class.  With no primes at all there is a
    single class labelled () holding everything.
    """
    if f.nvars != 3:
        raise ContractViolation("surface polynomial must use arity 3")
    grads = [f.partial_derivative(i) for i in range(3)]
    classes: dict[tuple, list] = {}
    for pt in P.points:
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
    return {
        label: PointSet(tuple(sorted(pts)), P.box, P.nonsingular_only)
        for label, pts in sorted(classes.items())
    }


def split_leftover(P: PointSet, classes: Mapping[tuple, PointSet]) -> tuple:
    """Points of P not present in any class (singular reductions)."""
    seen = set()
    for ps in classes.values():
        seen.update(ps.points)
    return tuple(pt for pt in P.points if pt not in seen)


# -- bad prime products --------------------------------------------------------


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
    than slack * p^(3/2).  The heuristic is explicitly that, and its
    output is labelled accordingly in reports.
    """
    if source == "user-supplied":
        if value is None or int(value) == 0:
            raise ContractViolation("user-supplied bad prime product must be nonzero")
        return abs(int(value))
    if source == "quadric-formula":
        if a is None or n is None:
            raise ContractViolation("quadric formula needs coefficients a and n")
        a1, a2, a3 = (int(v) for v in a)
        prod = 2 * a1 * a2 * a3 * int(n)
        if prod == 0:
            raise ContractViolation("degenerate quadric: zero coefficient product")
        return abs(prod)
    if source == "point-count-heuristic":
        if f is None:
            raise ContractViolation("heuristic mode needs the surface polynomial")
        out = 1
        for p in range(2, prime_cap + 1):
            if not is_prime(p):
                continue
            count = 0
            for x1 in range(p):
                for x2 in range(p):
                    for x3 in range(p):
                        if f.evaluate((x1, x2, x3)) % p == 0:
                            count += 1
            if abs(count - p * p) > slack * p ** 1.5:
                out *= p
        return out
    raise ContractViolation(f"unknown bad prime source {source!r}")
