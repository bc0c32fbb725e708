"""Sparse multivariate integer polynomials and exact helpers on them.

Everything here is exact: integer coefficients throughout, with no
rational arithmetic; Wronskians are taken on integer polynomials in one
variable.  The GCD runs a recursive subresultant polynomial remainder
sequence, so coprimality tests never touch floating point.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import ContractViolation, SoundnessError, _shown, strict_int

ExponentVector = tuple[int, ...]


def _as_exponent(nvars: int, e) -> ExponentVector:
    e = tuple(strict_int(v, "exponent entry") for v in e)
    if len(e) != nvars:
        raise ContractViolation(f"exponent {e} has arity {len(e)}, expected {nvars}")
    if any(v < 0 for v in e):
        raise ContractViolation(f"exponent {e} has a negative entry")
    return e


def _variable_index(nvars: int, i) -> int:
    """i as the index of one of nvars variables, else ContractViolation."""
    if type(i) is not int:
        i = strict_int(i, "variable index")
    if not 0 <= i < nvars:
        raise ContractViolation(f"variable index {_shown(i)} out of range for {nvars} variables")
    return i


def eval_monomial(point: Sequence[int], e: ExponentVector) -> int:
    """x^e at an integer point, with 0^0 = 1."""
    out = 1
    for x, k in zip(point, e):
        if k:
            out *= x ** k
    return out


class IntegerPolynomial:
    """Immutable sparse polynomial over the integers.

    Terms are stored as a map from exponent vectors to nonzero integer
    coefficients.  ``nvars`` fixes the arity even when some variables do
    not occur.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[ExponentVector, int] | Iterable):
        nvars = strict_int(nvars, "nvars")
        if nvars < 1:
            raise ContractViolation("nvars must be at least 1")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[ExponentVector, int] = {}
        for e, c in items:
            e = _as_exponent(nvars, e)
            c = strict_int(c, "coefficient") + acc.get(e, 0)
            if c:
                acc[e] = c
            else:
                acc.pop(e, None)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", acc)

    @classmethod
    def _canonical(cls, nvars: int, terms: dict) -> "IntegerPolynomial":
        """Wrap a term dict that is already canonical, without checking it:
        int exponent tuples of arity nvars mapped to nonzero ints."""
        p = cls.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "_terms", terms)
        return p

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("IntegerPolynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "IntegerPolynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: int) -> "IntegerPolynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars: int, e, c: int = 1) -> "IntegerPolynomial":
        return cls(nvars, {tuple(e): c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "IntegerPolynomial":
        e = [0] * nvars
        e[_variable_index(nvars, i)] = 1
        return cls(nvars, {tuple(e): 1})

    # -- basic queries -------------------------------------------------

    @property
    def terms(self) -> Mapping[ExponentVector, int]:
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self._terms)

    def constant_term(self) -> int:
        return self._terms.get((0,) * self.nvars, 0)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def degree_in(self, i: int) -> int:
        i = _variable_index(self.nvars, i)
        if not self._terms:
            return -1
        return max(e[i] for e in self._terms)

    def variables_used(self) -> frozenset[int]:
        used = set()
        for e in self._terms:
            for i, v in enumerate(e):
                if v:
                    used.add(i)
        return frozenset(used)

    def depends_on(self, i: int) -> bool:
        i = _variable_index(self.nvars, i)
        return any(e[i] for e in self._terms)

    def content(self) -> int:
        """gcd of the coefficients; 0 for the zero polynomial."""
        return math.gcd(*self._terms.values()) if self._terms else 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntegerPolynomial)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            factors = [f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k]
            body = "*".join(factors)
            if body:
                if c == 1:
                    parts.append(body)
                elif c == -1:
                    parts.append(f"-{body}")
                else:
                    parts.append(f"{c}*{body}")
            else:
                parts.append(str(c))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    # -- ring operations ----------------------------------------------

    def _require_same_arity(self, other: "IntegerPolynomial") -> None:
        if self.nvars != other.nvars:
            raise ContractViolation("polynomials have different arities")

    def __add__(self, other):
        if not isinstance(other, IntegerPolynomial):
            other = IntegerPolynomial.constant(self.nvars, other)
        self._require_same_arity(other)
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return self._canonical(self.nvars, acc)

    __radd__ = __add__

    def __neg__(self):
        return self._canonical(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, IntegerPolynomial):
            other = IntegerPolynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, IntegerPolynomial):
            other = strict_int(other, "polynomial scalar")
            if other == 0:
                return IntegerPolynomial.zero(self.nvars)
            return self._canonical(
                self.nvars, {e: c * other for e, c in self._terms.items()}
            )
        self._require_same_arity(other)
        acc: dict[ExponentVector, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        return self._canonical(self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        k = strict_int(k, "polynomial power")
        if k < 0:
            raise ContractViolation("negative power of a polynomial")
        out = IntegerPolynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- calculus and evaluation ----------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.nvars:
            raise ContractViolation(
                f"point has arity {len(point)}, polynomial has {self.nvars}"
            )
        point = tuple(x if type(x) is int else strict_int(x, "point coordinate")
                      for x in point)
        return sum(c * eval_monomial(point, e) for e, c in self._terms.items())

    def partial_derivative(self, i: int) -> "IntegerPolynomial":
        i = _variable_index(self.nvars, i)
        acc = {}
        for e, c in self._terms.items():
            if e[i]:
                d = list(e)
                d[i] -= 1
                acc[tuple(d)] = c * e[i]
        return self._canonical(self.nvars, acc)

    def coefficients_in(self, i: int) -> dict[int, "IntegerPolynomial"]:
        """Split into coefficients of powers of variable ``i``.

        Returns {j: c_j} with self = sum c_j * x_i^j, each c_j in the
        same arity but free of x_i.
        """
        i = _variable_index(self.nvars, i)
        buckets: dict[int, dict] = {}
        for e, c in self._terms.items():
            j = e[i]
            d = list(e)
            d[i] = 0
            buckets.setdefault(j, {})[tuple(d)] = c
        return {j: self._canonical(self.nvars, t) for j, t in sorted(buckets.items())}


# -- homogeneous parts -----------------------------------------------------


def top_degree_part(f: IntegerPolynomial) -> IntegerPolynomial:
    """The homogeneous part of highest total degree."""
    if f.is_zero:
        raise ContractViolation("top-degree part of the zero polynomial")
    d = f.total_degree()
    return f._canonical(f.nvars, {e: c for e, c in f.terms.items() if sum(e) == d})


# -- gcd and coprimality ---------------------------------------------------


def _lex_leading(f: IntegerPolynomial) -> tuple[ExponentVector, int]:
    e = max(f.terms)
    return e, f.terms[e]


def exact_divide(f: IntegerPolynomial, g: IntegerPolynomial) -> IntegerPolynomial | None:
    """Quotient f/g when g divides f exactly over Z, else None.

    Divides by lex-leading terms on a plain remainder dict: each step
    takes qc x^de * g off it term by term, so every quotient term is a
    new lex-smaller exponent and the quotient is wrapped once at the end.
    """
    f._require_same_arity(g)
    if g.is_zero:
        raise ContractViolation("division by the zero polynomial")
    quot: dict[ExponentVector, int] = {}
    rem = dict(f._terms)
    ge, gc = _lex_leading(g)
    g_terms = g._terms.items()
    while rem:
        re = max(rem)
        de = tuple(a - b for a, b in zip(re, ge))
        if any(v < 0 for v in de) or rem[re] % gc:
            return None
        qc = quot[de] = rem[re] // gc
        for e, c in g_terms:
            e = tuple(a + b for a, b in zip(de, e))
            r = rem.get(e, 0) - qc * c
            if r:
                rem[e] = r
            else:
                del rem[e]
    return IntegerPolynomial._canonical(f.nvars, quot)


def _pseudo_remainder(a: IntegerPolynomial, b: IntegerPolynomial, v: int) -> IntegerPolynomial:
    """prem(a, b) in variable v: lc(b)^(da-db+1) * a reduced mod b."""
    da, db = a.degree_in(v), b.degree_in(v)
    if db < 0:
        raise ContractViolation("pseudo-remainder by zero")
    lead_b = b.coefficients_in(v)[db]
    r = a
    steps = 0
    while True:
        dr = r.degree_in(v)
        if r.is_zero or dr < db:
            break
        lead_r = r.coefficients_in(v)[dr]
        shift = IntegerPolynomial.monomial(
            a.nvars, tuple(dr - db if i == v else 0 for i in range(a.nvars))
        )
        r = r * lead_b - b * (lead_r * shift)
        steps += 1
    # cancellation can finish early; pad to the full lc(b)^(da-db+1) scale
    pad = da - db + 1 - steps
    if pad > 0 and not r.is_zero:
        r = r * lead_b ** pad
    return r


def _content_wrt(f: IntegerPolynomial, v: int) -> IntegerPolynomial:
    coeffs = list(f.coefficients_in(v).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        g = polynomial_gcd(g, c)
        if g.is_constant and abs(g.constant_term()) == 1:
            break
    return _normalize_sign(g)


def _normalize_sign(f: IntegerPolynomial) -> IntegerPolynomial:
    if f.is_zero:
        return f
    _, c = _lex_leading(f)
    return -f if c < 0 else f


def polynomial_gcd(f: IntegerPolynomial, g: IntegerPolynomial) -> IntegerPolynomial:
    """GCD over Z[x_1..x_n] by a recursive subresultant remainder sequence.

    Sign-normalized so the lexicographically leading coefficient is
    positive.  gcd(0, 0) = 0.
    """
    f._require_same_arity(g)
    n = f.nvars
    if f.is_zero:
        return _normalize_sign(g)
    if g.is_zero:
        return _normalize_sign(f)

    f_vars, g_vars = f.variables_used(), g.variables_used()
    shared = f_vars & g_vars
    if not shared:
        # no common variable, so any common divisor is an integer
        return IntegerPolynomial.constant(n, math.gcd(f.content(), g.content()))
    # a variable w that only one side uses divides out through that side's
    # content: gcd(f, g) = gcd(cont_w(f), g) when g is free of w
    if f_vars - shared:
        return polynomial_gcd(_content_wrt(f, max(f_vars - shared)), g)
    if g_vars - shared:
        return polynomial_gcd(f, _content_wrt(g, max(g_vars - shared)))
    v = max(shared)

    cf, cg = _content_wrt(f, v), _content_wrt(g, v)
    a = exact_divide(f, cf)
    b = exact_divide(g, cg)
    if a is None or b is None:
        raise SoundnessError("a content failed to divide its polynomial")
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a

    one = IntegerPolynomial.constant(n, 1)
    gg, hh = one, one
    while True:
        delta = a.degree_in(v) - b.degree_in(v)
        r = _pseudo_remainder(a, b, v)
        if r.is_zero:
            break
        if r.degree_in(v) == 0:
            b = one
            break
        a, b = b, r
        scale = gg * hh ** delta
        b = exact_divide(b, scale)
        if b is None:
            raise SoundnessError("subresultant scale failed to divide")
        gg = a.coefficients_in(v)[a.degree_in(v)]
        if delta:
            hh = gg if delta == 1 else exact_divide(gg ** delta, hh ** (delta - 1))
            if hh is None:
                raise SoundnessError("subresultant h update failed to divide")

    if b.degree_in(v) <= 0:
        pp = one
    else:
        pp = exact_divide(b, _content_wrt(b, v))
        if pp is None:
            raise SoundnessError("the gcd's content failed to divide it")
    return _normalize_sign(polynomial_gcd(cf, cg) * pp)


def is_coprime(f: IntegerPolynomial, g: IntegerPolynomial) -> bool:
    """True when f and g share no nonconstant factor."""
    if f.is_zero and g.is_zero:
        return False
    if f.is_zero:
        return g.is_constant
    if g.is_zero:
        return f.is_constant
    # a degree-1 a has an irreducible primitive part, dividing b iff a | content(a) b
    for a, b in ((f, g), (g, f)):
        if a.total_degree() == 1:
            return exact_divide(b * a.content(), a) is None
    return polynomial_gcd(f, g).is_constant


# -- Wronskians -------------------------------------------------------------


def _require_univariate(polys: Iterable, what: str) -> list[IntegerPolynomial]:
    """polys as a list of IntegerPolynomials in one variable, else
    ContractViolation."""
    ps = list(polys)
    for p in ps:
        if not isinstance(p, IntegerPolynomial) or p.nvars != 1:
            raise ContractViolation(
                f"{what} must be IntegerPolynomials in one variable, not {p!r}"
            )
    return ps


def wronskian(polys: Sequence[IntegerPolynomial]) -> IntegerPolynomial:
    """Wronskian determinant of integer polynomials in one variable.

    Takes a nonempty sequence of ``IntegerPolynomial``s with ``nvars == 1``
    (anything else is a ContractViolation).  Row i holds the i-th
    derivatives, so a single polynomial is its own Wronskian and
    W(1, t) = 1.  W is read off ``integer_determinant`` of that matrix at
    one integer point t = N (Kronecker substitution).
    """
    ps = _require_univariate(polys, "wronskian entries")
    if not ps:
        raise ContractViolation("wronskian of an empty family")
    rows = [ps]
    for _ in range(len(ps) - 1):
        rows.append([p.partial_derivative(0) for p in rows[-1]])
    # determinant imports this module, so it is imported at the call
    from .determinant import integer_determinant

    # W is a signed sum over permutations of products of one entry per row,
    # so each coefficient of W is at most, in absolute value, the permanent
    # of the entries' coefficient sums ||p||_1, and that is at most S, the
    # product of the row sums of ||p||_1.  With N = 2S + 1 each coefficient
    # is exactly one balanced base-N digit of W(N).
    S = math.prod(sum(sum(map(abs, p._terms.values())) for p in row) for row in rows)
    N = 2 * S + 1
    v = integer_determinant([[p.evaluate((N,)) for p in row] for row in rows])
    digits = []
    while v:
        v, d = divmod(v + S, N)  # d - S is the lowest digit, in -S..S
        digits.append(((len(digits),), d - S))
    return IntegerPolynomial(1, digits)
