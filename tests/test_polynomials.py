"""Polynomial layer: arithmetic, orders, GCD, Wronskians."""

import math
import random

import pytest

from detsieve.errors import ContractViolation
from detsieve.polynomials import (
    IntegerPolynomial,
    MonomialOrder,
    compare,
    evaluate,
    exact_divide,
    is_coprime,
    max_exponent,
    partial_derivative,
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
        assert evaluate(p, (0, 1, 2)) == 0

    def test_constant(self):
        p = P.constant(3, 7)
        assert evaluate(p, (11, -4, 9)) == 7

    def test_surface_point(self):
        p = poly3({(2, 0, 0): 5, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        assert evaluate(p, (1, 1, 0)) == 0

    def test_arity_mismatch(self):
        p = P.constant(3, 1)
        with pytest.raises(ContractViolation):
            evaluate(p, (1, 2))

    def test_bignum_exact(self):
        p = poly3({(3, 0, 0): 1})
        assert evaluate(p, (10 ** 6, 0, 0)) == 10 ** 18

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
        assert partial_derivative(p, 0) == poly3({(1, 0, 0): 2})

    def test_constant_drops(self):
        assert partial_derivative(P.constant(3, 9), 1).is_zero

    def test_monomial(self):
        p = poly3({(3, 1, 0): 1})
        assert partial_derivative(p, 1) == poly3({(3, 0, 0): 1})

    def test_linearity_and_leibniz_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a = _random_poly(rng, 3, max_terms=4, max_deg=3)
            b = _random_poly(rng, 3, max_terms=4, max_deg=3)
            i = rng.randrange(3)
            assert partial_derivative(a + b, i) == (
                partial_derivative(a, i) + partial_derivative(b, i)
            )
            assert partial_derivative(a * b, i) == (
                partial_derivative(a, i) * b + a * partial_derivative(b, i)
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


class TestMaxExponent:
    def test_diagonal_lex(self):
        f = poly3({(2, 0, 0): 5, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        assert max_exponent(f, MonomialOrder.lex()) == (2, 0, 0)

    def test_lex_prefers_first_variable(self):
        f = poly3({(0, 3, 0): 1, (1, 1, 0): 1})
        assert max_exponent(f, MonomialOrder.lex()) == (1, 1, 0)

    def test_general_diagonal(self):
        f = poly3({(2, 0, 0): 3, (0, 2, 0): -2, (0, 0, 2): 7, (0, 0, 0): -11})
        assert max_exponent(f, MonomialOrder.lex()) == (2, 0, 0)

    def test_zero_rejected(self):
        with pytest.raises(ContractViolation):
            max_exponent(P.zero(3), MonomialOrder.lex())


class TestCompare:
    def test_lex_greater(self):
        assert compare((1, 0, 0), (0, 3, 0), MonomialOrder.lex()) > 0

    def test_origin_less(self):
        for order in (MonomialOrder.lex(), MonomialOrder.weighted((10, 10, 10))):
            assert compare((0, 0, 0), (0, 0, 1), order) < 0

    def test_weighted_tie_falls_to_lex(self):
        order = MonomialOrder.weighted((10, 10, 10))
        # weights equal: both monomials have height 10^2
        assert compare((1, 1, 0), (0, 0, 2), order) > 0

    def test_weighted_order_needs_integer_heights(self):
        for heights in ((2.5, 3, 4), (2.0, 3, 4), (1, 3, 4), ()):
            with pytest.raises(ContractViolation):
                MonomialOrder.weighted(heights)

    def test_equal_vectors(self):
        assert compare((1, 2, 3), (1, 2, 3), MonomialOrder.lex()) == 0

    def test_order_linearity_random(self):
        # a < b and c < d must force a+c < b+d, for both order kinds
        rng = random.Random(123)
        orders = [
            MonomialOrder.lex(),
            MonomialOrder.weighted((3, 5, 17)),
        ]
        for _ in range(10_000):
            order = orders[rng.randrange(2)]
            a, b, c, d = (
                tuple(rng.randrange(6) for _ in range(3)) for _ in range(4)
            )
            if compare(a, b, order) < 0 and compare(c, d, order) < 0:
                ac = tuple(x + y for x, y in zip(a, c))
                bd = tuple(x + y for x, y in zip(b, d))
                assert compare(ac, bd, order) < 0


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
                       partial_derivative(a, i), top_degree_part(a) if a else b]
            results += a.coefficients_in(i).values()
            for r in results:
                assert r == P(r.nvars, dict(r.terms))
                assert all(type(c) is int and c for c in r.terms.values())
                assert all(len(e) == r.nvars and all(type(v) is int for v in e)
                           for e in r.terms)
            assert (a - a).is_zero and not (a - a).terms
