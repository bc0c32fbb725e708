"""Polynomial layer: arithmetic, GCD, Wronskians."""

import math
import random

import pytest

from detsieve.errors import ContractViolation
from detsieve.polynomials import (
    IntegerPolynomial,
    exact_divide,
    is_coprime,
    polynomial_gcd,
    top_degree_part,
    wronskian,
)

P = IntegerPolynomial


def R(coeffs):
    """The polynomial in one variable with these coefficients, constant first."""
    return IntegerPolynomial(1, {(k,): c for k, c in enumerate(coeffs)})


def poly3(terms):
    return P(3, terms)


class TestEvaluate:
    def test_known_solution(self):
        p = poly3({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -5})
        assert p.evaluate((0, 1, 2)) == 0

    def test_constant(self):
        p = P.constant(3, 7)
        assert p.evaluate((11, -4, 9)) == 7

    def test_surface_point(self):
        p = poly3({(2, 0, 0): 5, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        assert p.evaluate((1, 1, 0)) == 0

    def test_arity_mismatch(self):
        p = P.constant(3, 1)
        with pytest.raises(ContractViolation):
            p.evaluate((1, 2))

    def test_bignum_exact(self):
        p = poly3({(3, 0, 0): 1})
        assert p.evaluate((10 ** 6, 0, 0)) == 10 ** 18

    @pytest.mark.parametrize("bad", (1.9, True, "1"), ids=("float", "bool", "str"))
    def test_non_integer_coordinate_rejected(self, bad):
        # int(x) read each of these as 1, so the sphere of five gave 0
        sphere = poly3({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -5})
        with pytest.raises(ContractViolation, match="coordinate must be an integer"):
            sphere.evaluate((bad, 2, 0))

    def test_int_subclass_coordinate_accepted(self):
        class Tagged(int):
            pass

        sphere = poly3({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -5})
        assert sphere.evaluate((Tagged(1), 2, 0)) == 0
        assert sphere.evaluate((Tagged(3), Tagged(-2), 0)) == 8


class TestDerivative:
    def test_sum_of_squares(self):
        p = poly3({(2, 0, 0): 1, (0, 2, 0): 1})
        assert p.partial_derivative(0) == poly3({(1, 0, 0): 2})

    def test_constant_drops(self):
        assert P.constant(3, 9).partial_derivative(1).is_zero

    def test_monomial(self):
        p = poly3({(3, 1, 0): 1})
        assert p.partial_derivative(1) == poly3({(3, 0, 0): 1})

    def test_linearity_and_leibniz_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a = _random_poly(rng, 3, max_terms=4, max_deg=3)
            b = _random_poly(rng, 3, max_terms=4, max_deg=3)
            i = rng.randrange(3)
            assert (a + b).partial_derivative(i) == (
                a.partial_derivative(i) + b.partial_derivative(i)
            )
            assert (a * b).partial_derivative(i) == (
                a.partial_derivative(i) * b + a * b.partial_derivative(i)
            )


class TestTopDegreePart:
    def test_circle(self):
        g = poly3({(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        assert top_degree_part(g) == poly3({(0, 2, 0): 1, (0, 0, 2): 1})

    def test_unlike_powers_side(self):
        g = poly3({(0, 3, 0): 1, (0, 0, 2): 1, (0, 0, 0): -4})
        assert top_degree_part(g) == poly3({(0, 3, 0): 1})

    def test_homogeneous_identity(self):
        g = poly3({(0, 2, 0): 2, (0, 1, 1): -3, (0, 0, 2): 5})
        assert top_degree_part(g) == g

    def test_zero_rejected(self):
        with pytest.raises(ContractViolation):
            top_degree_part(P.zero(3))


def _random_poly(rng, nvars, max_terms, max_deg, coeff=9):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        e = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
        c = rng.randrange(-coeff, coeff + 1)
        if c:
            terms[e] = c
    return P(nvars, terms)


class TestGcdAndCoprime:
    def test_coprime_pair(self):
        a = poly3({(2, 0, 0): 1, (0, 2, 0): 1})
        b = poly3({(1, 0, 0): 1, (0, 1, 0): 1})
        assert is_coprime(a, b)

    def test_shared_factor(self):
        a = poly3({(1, 1, 0): 1})
        b = poly3({(1, 0, 0): 1})
        assert not is_coprime(a, b)

    def test_self_not_coprime(self):
        f = poly3({(2, 0, 0): 5, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        assert not is_coprime(f, f)

    def test_gcd_recovers_common_factor(self):
        f = poly3({(1, 0, 0): 1, (0, 1, 0): 1})
        a = f * poly3({(1, 0, 0): 2, (0, 0, 1): -1})
        b = f * poly3({(0, 2, 0): 3, (0, 0, 0): 1})
        g = polynomial_gcd(a, b)
        assert g == f or g == f * P.constant(3, -1)

    def test_integer_contents(self):
        a = P.constant(3, 12)
        b = P.constant(3, 18)
        assert polynomial_gcd(a, b) == P.constant(3, 6)

    def test_agrees_with_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x1 x2 x3")

        def convert(p):
            return sum(
                c * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2]
                for e, c in p.terms.items()
            )

        rng = random.Random(20240817)
        checked = 0
        for _ in range(300):
            a = _random_poly(rng, 3, max_terms=4, max_deg=4, coeff=5)
            b = _random_poly(rng, 3, max_terms=4, max_deg=4, coeff=5)
            if a.is_zero or b.is_zero:
                continue
            expected = sympy.gcd(convert(a), convert(b))
            assert is_coprime(a, b) == (expected.is_number), (a, b, expected)
            checked += 1
        assert checked > 200

    @pytest.mark.parametrize("family", ("one-sided", "multivariate-content", "integer-content"))
    def test_one_sided_variables_agree_with_sympy(self, family):
        # a variable that only one side uses is divided out through that
        # side's content; the gcd must still be sympy's, up to sign
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x1 x2 x3")

        def in_vars(rng, used, max_terms=3, max_deg=2):
            terms = {}
            for _ in range(rng.randrange(1, max_terms + 1)):
                e = tuple(rng.randrange(max_deg + 1) if i in used else 0 for i in range(3))
                terms[e] = terms.get(e, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
            return P(3, terms)

        def sympy_gcd(a, b):
            convert = lambda p: sum(
                c * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2] for e, c in p.terms.items()
            )
            got = sympy.Poly(sympy.gcd(convert(a), convert(b)), *xs)
            return P(3, {e: int(c) for e, c in got.terms()})

        rng = random.Random({"one-sided": 1, "multivariate-content": 2,
                             "integer-content": 3}[family])
        checked = nonconstant = 0
        for _ in range(60):
            common = in_vars(rng, {1, 2})
            if family == "one-sided":
                # x1 only in a, x3 only in b
                a = common * in_vars(rng, {0, 1}) * (P.monomial(3, (1, 0, 0)) + in_vars(rng, {1}))
                b = common * in_vars(rng, {1, 2})
            elif family == "multivariate-content":
                # a's content in x1 is a polynomial in both x2 and x3
                content = in_vars(rng, {1, 2}) * (P.monomial(3, (0, 1, 1)) + in_vars(rng, {2}))
                a = common * content * (P.monomial(3, (3, 0, 0)) + in_vars(rng, {0, 1}))
                b = common * in_vars(rng, {1, 2}) * in_vars(rng, {1, 2})
            else:
                k = rng.choice((2, 6, 10, 12))
                a = common * in_vars(rng, {0, 2}) * P.constant(3, k * rng.choice((1, 3, 5)))
                b = common * in_vars(rng, {1}) * P.constant(3, k * rng.choice((1, 7)))
            if a.is_zero or b.is_zero:
                continue
            assert a.variables_used() != b.variables_used() or family == "integer-content"
            want = sympy_gcd(a, b)
            assert polynomial_gcd(a, b) in (want, -want), (a, b, want)
            assert is_coprime(a, b) == want.is_constant
            checked += 1
            nonconstant += not want.is_constant
        assert checked >= 50 and nonconstant >= 25


    def test_degree_one_side_agrees_with_the_gcd(self):
        # a degree-1 side is settled by one exact division by its primitive
        # part; the gcd decides the same pairs, in both argument orders
        rng = random.Random(28)
        f = poly3({(2, 0, 0): 3, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -1001})
        x1, x2, x3 = (P.variable(3, i) for i in range(3))

        def random_line():
            while True:
                used = rng.sample(range(3), rng.randint(1, 3))
                line = sum((P.variable(3, i) * P.constant(3, rng.choice((-3, -1, 1, 2, 5)))
                            for i in used), P.constant(3, rng.randint(-6, 6)))
                if line.total_degree() == 1:
                    return line * P.constant(3, rng.choice((1, 1, 2, -4, 6)))

        lines = [
            x1 - x2,                                              # divides x1^2 - x2^2
            poly3({(1, 0, 0): 2, (0, 1, 0): 4, (0, 0, 0): -6}),  # content 2
            x3 + P.constant(3, 5),                                # x3 alone
        ] + [random_line() for _ in range(60)]
        partners = [f, x1 * x1 - x2 * x2, P.constant(3, 4)]
        checked = seen_factor = 0
        for line in lines:
            k = P.constant(3, rng.choice((1, 2, -3)))
            others = partners + [
                line * _random_poly(rng, 3, 3, 2) * k,
                _random_poly(rng, 3, max_terms=4, max_deg=2),
                line * k,
                random_line(),
            ]
            for other in others:
                if other.is_zero:
                    continue
                want = polynomial_gcd(line, other).is_constant
                assert is_coprime(line, other) == is_coprime(other, line) == want, (line, other)
                checked += 1
                seen_factor += not want
        assert checked > 350 and seen_factor > 100, (checked, seen_factor)
        # 2x1 + 4x2 - 6 divides a multiple of x1 + 2x2 - 3 that 2 does not divide
        half = poly3({(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 0): -3})
        assert not is_coprime(lines[1], half * x3) and not is_coprime(half * x3, lines[1])
        assert not is_coprime(x1 - x2, x1 * x1 - x2 * x2)
        # a line in a variable the other side does not use
        w = P(4, {(0, 0, 0, 1): 2, (0, 0, 0, 0): 1})
        g = P(4, {(2, 0, 0, 0): 1, (0, 1, 0, 0): -7})
        assert is_coprime(w, g) and is_coprime(g, w)
        assert not is_coprime(w, g * w) and not is_coprime(g * w, w)

    def test_zero_cases_are_unchanged(self):
        x1 = P.variable(3, 0)
        zero = P.zero(3)
        assert not is_coprime(zero, zero)
        assert not is_coprime(zero, x1) and not is_coprime(x1, zero)
        assert is_coprime(zero, P.constant(3, 2)) and is_coprime(P.constant(3, -1), zero)


def exact_divide_by_polynomials(f, g):
    """The former exact_divide, one polynomial subtraction per quotient term:
    the oracle for the dict remainder."""
    quot = {}
    rem = f
    ge = max(g.terms)
    gc = g.terms[ge]
    while not rem.is_zero:
        re = max(rem.terms)
        rc = rem.terms[re]
        de = tuple(a - b for a, b in zip(re, ge))
        if any(v < 0 for v in de) or rc % gc:
            return None
        qc = rc // gc
        quot[de] = quot.get(de, 0) + qc
        rem = rem - P.monomial(f.nvars, de, qc) * g
    return P(f.nvars, quot)


class TestExactDivide:
    @pytest.mark.parametrize("nvars", (1, 2, 3))
    def test_matches_the_polynomial_oracle(self, nvars):
        rng = random.Random(3300 + nvars)
        divisible = undivisible = 0
        for _ in range(300):
            g = _random_poly(rng, nvars, 4, 3)
            if g.is_zero:
                continue
            h = _random_poly(rng, nvars, 4, 3)
            # a multiple of g, a multiple plus a small remainder, or anything
            f = rng.choice((g * h, g * h + _random_poly(rng, nvars, 2, 2, 3), h))
            got, want = exact_divide(f, g), exact_divide_by_polynomials(f, g)
            assert got == want, (f, g)
            if want is None:
                undivisible += 1
            else:
                assert want * g == f
                divisible += 1
        assert divisible > 80 and undivisible > 80, (divisible, undivisible)

    def test_known_quotients(self):
        x1, x2 = P.variable(3, 0), P.variable(3, 1)
        assert exact_divide(x1 * x1 - x2 * x2, x1 - x2) == x1 + x2
        assert exact_divide(6 * x1 * x2 + 4 * x2, 2 * x2) == 3 * x1 + 2
        assert exact_divide(P.zero(3), x1) == P.zero(3)
        assert exact_divide(x1 + 1, 2 * x1 + 2) is None
        assert exact_divide(x2, x1) is None
        with pytest.raises(ContractViolation):
            exact_divide(x1, P.zero(3))


class TestWronskian:
    def test_constant_and_t(self):
        one = R([1])
        t = R([0, 1])
        assert wronskian([one, t]) == one

    def test_t_and_t_squared(self):
        t = R([0, 1])
        assert wronskian([t, t * t]) == t * t

    def test_cube_and_shifted_square(self):
        t = R([0, 1])
        one = R([1])
        w = wronskian([t ** 3, (t + one) ** 2])
        # t^2 (t+1) (-t-3), expanded
        expected = (t * t) * (t + one) * (R([-3]) - t)
        assert w == expected

    def test_single_entry(self):
        t = R([0, 1])
        assert wronskian([t ** 4]) == t ** 4

    def test_dependent_rows_vanish(self):
        t = R([0, 1])
        w = wronskian([t, t + t])
        assert w.is_zero

    def test_refuses_anything_but_univariate_integer_polynomials(self):
        t = R([0, 1])
        for family in ([t, P(2, {(1, 0): 1})], [t, [1, 2]], [1, 2, 3], []):
            with pytest.raises(ContractViolation):
                wronskian(family)

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(2024)
        for _ in range(60):
            r = rng.randrange(2, 4)
            gammas = [R([rng.randrange(-4, 5) for _ in range(rng.randrange(0, 4) + 1)])
                      for _ in range(r)]
            exps = [rng.randrange(1, 5) for _ in range(r)]
            powers = [g ** l for g, l in zip(gammas, exps)]
            want = sympy.Poly(
                sympy.wronskian(
                    [sum(c * x ** e[0] for e, c in p.terms.items()) for p in powers], x
                ),
                x,
            )
            got = wronskian(powers)
            assert got.terms == {
                (k,): int(c) for (k,), c in want.terms() if c
            }, (gammas, exps)

    def test_divisibility_of_power_products(self):
        # gamma_i^(max(l_i - r + 1, 0)) always divides a nonzero Wronskian
        rng = random.Random(99)
        checked = 0
        for _ in range(1000):
            r = rng.randrange(2, 4)
            gammas = []
            for _ in range(r):
                deg = rng.randrange(0, 3)
                coeffs = [rng.randrange(-4, 5) for _ in range(deg + 1)]
                if not any(coeffs):
                    coeffs[0] = 1
                gammas.append(R(coeffs))
            exps = [rng.randrange(1, 5) for _ in range(r)]
            w = wronskian([g ** l for g, l in zip(gammas, exps)])
            if w.is_zero:
                continue
            divisor = R([1])
            for g, l in zip(gammas, exps):
                s = max(l - r + 1, 0)
                if s:
                    divisor = divisor * g ** s
            assert exact_divide(w, divisor) is not None, (gammas, exps)
            checked += 1
        assert checked > 300


class TestStrictConstruction:
    def test_non_integer_entries_rejected(self):
        for bad in (2.5, 2.0, True, "5", None, [1], math.inf):
            with pytest.raises(ContractViolation, match="must be an integer"):
                P(3, [((bad, 0, 0), 1)])
            with pytest.raises(ContractViolation, match="must be an integer"):
                P(3, [((1, 0, 0), bad)])
            with pytest.raises(ContractViolation, match="must be an integer"):
                P(bad, {})

    def test_exponent_checked_even_when_coefficient_is_zero(self):
        with pytest.raises(ContractViolation, match="must be an integer"):
            P(3, [((2.5, 0, 0), 0)])
        with pytest.raises(ContractViolation, match="negative"):
            P(3, [((-1, 0, 0), 0)])

    def test_repeated_exponents_accumulate(self):
        p = P(2, [((1, 0), 3), ((1, 0), -3), ((0, 1), 2), ((0, 1), 2)])
        assert p.terms == {(0, 1): 4}

    def test_constructors_are_strict(self):
        for bad in (2.5, True, "5"):
            with pytest.raises(ContractViolation):
                P.constant(3, bad)
            with pytest.raises(ContractViolation):
                P.monomial(3, (1, 0, 0), bad)

    def test_arithmetic_results_are_canonical(self):
        # results skip re-validation, so check them against the strict
        # constructor: int exponents of the right arity, no zero coefficient
        rng = random.Random(11)
        for _ in range(300):
            a = _random_poly(rng, 3, max_terms=5, max_deg=3)
            b = _random_poly(rng, 3, max_terms=5, max_deg=3)
            k = rng.randrange(-3, 4)
            i = rng.randrange(3)
            results = [a + b, a - a, -a, a * b, a * k, a - b * k,
                       a.partial_derivative(i), top_degree_part(a) if a else b]
            results += a.coefficients_in(i).values()
            for r in results:
                assert r == P(r.nvars, dict(r.terms))
                assert all(type(c) is int and c for c in r.terms.values())
                assert all(len(e) == r.nvars and all(type(v) is int for v in e)
                           for e in r.terms)
            assert (a - a).is_zero and not (a - a).terms
