"""Monomial matrices, exact minors, divisibility certificates, kernel covers."""

import math
import random
from fractions import Fraction

import pytest

import detsieve.determinant as determinant
from detsieve.applications import QuadricInstance, count_quadric
from detsieve.determinant import (
    MINOR_SAMPLE_CAP,
    AuxiliaryPolynomial,
    MonomialMatrix,
    _kernel_polynomial,
    _row_reduce,
    aux_pipeline,
    build_matrix,
    congruence_certificates,
    congruence_reduce,
    integer_determinant,
    minor_determinant,
    null_space_polynomial,
    p_adic_valuation,
    prime_power_valuation,
    rank_over_rationals,
    select_shift,
)
from detsieve.enumeration import ResidueData, SideCondition, enumerate_points
from detsieve.errors import ContractViolation, HypothesisViolation, SoundnessError
from detsieve.exponents import (
    INFINITE,
    BoxBounds,
    ExactLog,
    build_exponent_set,
    max_exponent,
    side_log_height,
    staircase_size,
)
from detsieve.polynomials import IntegerPolynomial, eval_monomial

P = IntegerPolynomial


def staircase(base, n, m=(2, 0, 0)):
    box = BoxBounds(base, base, base)
    return build_exponent_set(ExactLog.power(base, n), m, box)


def quadric_instance():
    """Eight symmetric points of a rank-deficient congruence instance."""
    f = P(3, {(2, 0, 0): 5, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
    g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
    box = BoxBounds(2, 2, 2)
    pts = enumerate_points(f, SideCondition(g, 5), box)
    return f, g, box, pts


def point_free_instance():
    """quadric_instance with 5 x1^2 + x2^2 + x3^2 = 3: no points in the box."""
    f = P(3, {(2, 0, 0): 5, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -3})
    g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -3})
    box = BoxBounds(2, 2, 2)
    pts = enumerate_points(f, SideCondition(g, 5), box)
    return f, g, box, pts


def rich_instance():
    """Thirty-two points giving a full-rank matrix with nonzero minors."""
    f = P(3, {(2, 0, 0): 5, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -174})
    g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -174})
    box = BoxBounds(13, 13, 13)
    pts = enumerate_points(f, SideCondition(g, 5), box)
    return f, g, box, pts


def grid_matrix(entries, cols=None):
    """Wrap a raw integer grid for the rank and minor helpers."""
    rows = tuple((i, 0, 0) for i in range(len(entries)))
    if cols is None:
        cols = tuple((i, 0, 0) for i in range(len(entries[0])))
    return MonomialMatrix(rows, tuple(cols), tuple(tuple(r) for r in entries))


def cover_matrix():
    """(f, M) of the cover-B16 benchmark op: the one class of
    3 x1^2 + x2^2 + x3^2 = 1001 in the box 16^3, 16 points against E(Y)."""
    quadric = QuadricInstance(3, 1, 1, 1001, 16)
    report = count_quadric(quadric, "pipeline").report
    (cls,) = report.classes
    return quadric.surface(), build_matrix(cls.points, report.exponent_set)


class TestBuildMatrix:
    def test_single_point_row(self):
        E = staircase(3, 2)
        M = build_matrix([(1, 2, 3)], E)
        row = {e: M.entry(0, i) for i, e in enumerate(M.cols)}
        assert row[(0, 0, 0)] == 1
        assert row[(1, 0, 0)] == 1
        assert row[(0, 1, 1)] == 6
        assert row[(0, 2, 0)] == 4
        assert row[(0, 0, 2)] == 9

    def test_origin_row(self):
        E = staircase(3, 2)
        M = build_matrix([(0, 0, 0)], E)
        for i, e in enumerate(M.cols):
            assert M.entry(0, i) == (1 if e == (0, 0, 0) else 0)

    def test_first_axis_zero_kills_column(self):
        E = staircase(3, 2)
        pts = [(0, 1, 2), (0, -1, 1), (0, 3, 3)]
        M = build_matrix(pts, E)
        i = M.cols.index((1, 0, 0))
        assert all(M.entry(j, i) == 0 for j in range(len(pts)))

    def test_empty_points_rejected(self):
        with pytest.raises(ContractViolation):
            build_matrix([], staircase(3, 2))

    def test_power_tables_match_eval_monomial(self):
        # zero, negative and large coordinates, on staircases whose top
        # exponent differs by axis
        big = 2**70 + 3
        pts = [(0, 0, 0), (0, -1, 5), (-3, 0, -2), (big, -big, 1), (-7, 11, -13),
               (1, -1, 0), (-big, 0, big)]
        for E in (staircase(3, 4), staircase(4, 6, (3, 1, 0)),
                  build_exponent_set(ExactLog.power(9, 3), (2, 0, 0),
                                     BoxBounds(2, 9, 30))):
            M = build_matrix(pts, E)
            assert M.entries == tuple(
                tuple(eval_monomial(p, e) for e in E.members) for p in pts
            )


class TestIntegerInputs:
    """Points and moduli must be integers: a float, a bool or a string is
    refused instead of truncated or parsed."""

    BAD = (1.5, True, "5")

    def test_build_matrix_rejects_non_integer_coordinates(self):
        E = staircase(3, 2)
        for bad in self.BAD:
            with pytest.raises(ContractViolation, match="point coordinate must be an integer"):
                build_matrix([(bad, 2, 0)], E)

    def test_aux_pipeline_rejects_non_integer_points_and_modulus(self):
        f, g, box, pts = quadric_instance()
        for bad in self.BAD:
            with pytest.raises(ContractViolation, match="modulus must be an integer"):
                aux_pipeline(f, g, bad, box, ResidueData(()), 0.5, pts, floor_const=10)
            points = [(bad, 1, 0)] + list(pts)
            with pytest.raises(ContractViolation, match="point coordinate must be an integer"):
                aux_pipeline(f, g, 5, box, ResidueData(()), 0.5, points, floor_const=10)

    def test_certificates_reject_non_integer_modulus(self):
        _, g, box, pts = quadric_instance()
        E = staircase(2, 2)
        M = build_matrix(pts, E)
        S = side_log_height(g, box)[1]
        for bad in self.BAD:
            with pytest.raises(ContractViolation, match="modulus must be an integer"):
                congruence_certificates(M, g, bad, E, S)

    def test_reduce_and_shift_reject_non_integer_modulus(self):
        # 5.0 and 5.7 used to reach math.gcd as a bare TypeError, and True
        # was read as the modulus 1
        _, g, _, pts = quadric_instance()
        E = staircase(2, 3)
        M = build_matrix(pts, E)
        for bad in (5.0, 5.7, True, "5"):
            with pytest.raises(ContractViolation, match="modulus must be an integer"):
                congruence_reduce(M, g, bad, (0, 0, 0), E, ExactLog.power(2, 2))
            with pytest.raises(ContractViolation, match="modulus must be an integer"):
                select_shift(g, bad)

    def test_minor_rows_must_be_integers(self):
        # rows (0.9, 1.7) used to be read as rows (0, 1)
        M = grid_matrix([[2, 3], [5, 7]])
        for rows in ((0.9, 1.7), (False, True), ("0", "1")):
            with pytest.raises(ContractViolation, match="row index must be an integer"):
                minor_determinant(M, rows)
        # a negative index used to count from the end
        for rows in ((-1, 0), (0, 2)):
            with pytest.raises(ContractViolation, match="outside 0..1"):
                minor_determinant(M, rows)

    def test_valuation_arguments_must_be_integers(self):
        # p_adic_valuation(8.9, 2.5) used to read as p_adic_valuation(8, 2) = 3
        with pytest.raises(ContractViolation, match="prime p must be an integer"):
            p_adic_valuation(8.9, 2.5)
        with pytest.raises(ContractViolation, match="prime p must be an integer"):
            p_adic_valuation(8, True)
        for bad in self.BAD:
            with pytest.raises(ContractViolation, match="argument n must be an integer"):
                p_adic_valuation(bad, 2)

    def test_extra_subsets_must_be_integers(self):
        f, g, box, pts = rich_instance()
        E = staircase(2, 2)
        M = build_matrix(pts, E)
        S = side_log_height(g, box)[1]
        ncols = M.shape[1]
        assert M.shape[0] > ncols
        for bad in self.BAD:
            extra = [bad] + list(range(1, ncols))
            with pytest.raises(ContractViolation, match="row index must be an integer"):
                congruence_certificates(M, g, 5, E, S, extra_subsets=(extra,))


class TestRankAndMinors:
    def test_rank_of_repeated_rows(self):
        assert rank_over_rationals(grid_matrix([[1, 1], [1, 1]])) == 1

    def test_rank_of_identity(self):
        assert rank_over_rationals(grid_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3

    def test_underdetermined_instance_rank(self):
        _, _, _, pts = quadric_instance()
        E = staircase(2, 3)
        M = build_matrix(pts, E)
        assert len(pts) == 8
        assert len(E.members) == 16
        assert rank_over_rationals(M) == 8

    def test_two_by_two_minor(self):
        assert minor_determinant(grid_matrix([[2, 3], [5, 7]]), (0, 1)) == -1

    def test_repeated_row_minor_vanishes(self):
        assert minor_determinant(grid_matrix([[2, 3], [5, 7]]), (0, 0)) == 0

    def test_vandermonde_minor(self):
        M = grid_matrix([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
        assert minor_determinant(M, (0, 1, 2)) == 2

    def test_non_square_selection_rejected(self):
        M = grid_matrix([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
        with pytest.raises(ContractViolation):
            minor_determinant(M, (0, 1))

    def test_matches_cofactor_expansion(self):
        def cofactor(rows):
            if len(rows) == 1:
                return rows[0][0]
            total = 0
            for i, head in enumerate(rows[0]):
                rest = [r[:i] + r[i + 1:] for r in rows[1:]]
                total += (-1) ** i * head * cofactor(rest)
            return total

        rng = random.Random(1009)
        for _ in range(1000):
            n = rng.randrange(1, 6)
            rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            assert integer_determinant(rows) == cofactor(rows)

    def test_zero_column_short_circuit(self):
        assert integer_determinant([[0, 3], [0, 7]]) == 0
        assert integer_determinant([[0, 1], [1, 0]]) == -1


class TestValuations:
    def test_frozen_values(self):
        assert p_adic_valuation(48, 2) == 4
        assert p_adic_valuation(5**4 * 7, 5) == 4
        assert p_adic_valuation(0, 3) == INFINITE

    def test_composite_base_rejected(self):
        with pytest.raises(ContractViolation):
            p_adic_valuation(48, 6)

    def test_prime_power_scaling(self):
        assert prime_power_valuation(5**4 * 7, 5, 2) == 2
        assert prime_power_valuation(5**4 * 7, 5, 3) == 1
        assert prime_power_valuation(0, 5, 2) == INFINITE


class TestSelectShift:
    def test_unit_constant_prefers_origin(self):
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        assert select_shift(g, 5) == (0, 0, 0)

    def test_falls_back_to_second_axis(self):
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): -1, (0, 0, 0): -20})
        assert select_shift(g, 5) == (0, 2, 0)

    def test_falls_back_to_third_axis(self):
        g = P(3, {(0, 2, 0): 5, (0, 0, 2): -1, (0, 0, 0): -20})
        assert select_shift(g, 5) == (0, 0, 2)

    def test_no_admissible_shift(self):
        g = P(3, {(0, 2, 0): 5, (0, 0, 2): -5, (0, 0, 0): -10})
        with pytest.raises(ContractViolation):
            select_shift(g, 5)


class TestCongruenceReduce:
    def test_frozen_lambda_four(self):
        _, g, _, pts = quadric_instance()
        E = staircase(2, 3)
        M = build_matrix(pts, E)
        cert = congruence_reduce(M, g, 5, (0, 0, 0), E, ExactLog.power(2, 2))
        assert cert.lam == 4
        assert cert.certified_divisor == 5**4
        assert cert.det_transform == 1
        # Bezout data is exact
        assert cert.inverse * cert.coefficient - 5 * cert.lift == 1
        # underdetermined: no full minors exist to sample
        assert cert.checked_minors == ()

    def test_tiny_cutoff_gives_trivial_certificate(self):
        _, g, _, pts = quadric_instance()
        E = staircase(2, 1)
        M = build_matrix(pts, E)
        cert = congruence_reduce(M, g, 5, (0, 0, 0), E, ExactLog.power(2, 2))
        assert cert.lam == 0
        assert cert.certified_divisor == 1

    def test_saturated_quadratic_shift(self):
        # side height equals shift height: only the staircase walk
        # limits each column, so the multiplicity is 1 exactly on the
        # columns with a full quadratic step available
        q, c = 5, 2
        f = P(3, {(2, 0, 0): q, (0, 2, 0): 1, (0, 0, 2): -1, (0, 0, 0): -q * c * c})
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): -1, (0, 0, 0): -q * c * c})
        box = BoxBounds(4, 4, 4)
        pts = enumerate_points(f, SideCondition(g, q), box)
        assert len(pts) == 42
        E = staircase(4, 3)
        M = build_matrix(pts, E)
        cert = congruence_reduce(
            M, g, q, (0, 2, 0), E, ExactLog.power(4, 2),
            samples=8, rng=random.Random(3),
        )
        assert cert.lam == 4
        for e, mu in cert.multiplicities:
            assert mu == (1 if e[1] >= 2 else 0)

    def test_full_rank_instance_minors_validate(self):
        _, g, _, pts = rich_instance()
        E = staircase(13, 2)
        M = build_matrix(pts, E)
        assert len(pts) == 32
        assert rank_over_rationals(M) == 9
        S = side_log_height(g, BoxBounds(13, 13, 13))[1]
        cert = congruence_reduce(
            M, g, 5, (0, 0, 0), E, S, samples=16, rng=random.Random(7)
        )
        assert cert.lam == 1
        nonzero = [m for m in cert.checked_minors if not m.determinant_zero]
        assert nonzero
        for m in cert.checked_minors:
            if not m.determinant_zero:
                assert m.valuation >= cert.lam
                # cross-check one exact valuation against the raw minor
                delta = minor_determinant(M, m.rows)
                assert delta % 5**m.valuation == 0
                assert delta % 5 ** (m.valuation + 1) != 0

    def test_synthetic_two_by_two_leg(self):
        # columns built from explicit unit-inverse multiples of the side
        # polynomial: the exact determinant picks up both factors
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        q, c = 5, -6
        z = pow(c, -1, q)
        s = (z * c - 1) // q
        assert z * c - q * s == 1
        gq = {e: z * v for e, v in g.terms.items()}
        gq[(0, 0, 0)] -= q * s

        def gq_at(pt):
            return sum(v * pt[1] ** e[1] * pt[2] ** e[2] for e, v in gq.items())

        p1, p2 = (0, 1, 0), (0, 0, 1)
        for pt in (p1, p2):
            assert g.evaluate(pt) % q == 0
        grid = [[gq_at(p1), p1[1] * gq_at(p1)], [gq_at(p2), p2[1] * gq_at(p2)]]
        det = integer_determinant(grid)
        assert det != 0
        assert det % q**2 == 0

    def test_composite_modulus_rejected(self):
        _, g, _, pts = quadric_instance()
        E = staircase(2, 3)
        M = build_matrix(pts, E)
        with pytest.raises(ContractViolation):
            congruence_reduce(M, g, 6, (0, 0, 0), E, ExactLog.power(2, 2))

    def test_non_unit_coefficient_rejected(self):
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -5})
        pts = [(0, 0, 0), (0, 1, 2), (0, 2, 1)]
        assert all(g.evaluate(p) % 5 == 0 for p in pts)
        E = staircase(2, 3)
        M = build_matrix(pts, E)
        with pytest.raises(ContractViolation, match="not a unit"):
            congruence_reduce(M, g, 5, (0, 0, 0), E, ExactLog.power(2, 2))

    def test_violating_point_named(self):
        _, g, _, pts = quadric_instance()
        bad = (1, 1, 1)
        E = staircase(2, 3)
        M = build_matrix(list(pts) + [bad], E)
        with pytest.raises(ContractViolation, match=r"\(1, 1, 1\)"):
            congruence_reduce(M, g, 5, (0, 0, 0), E, ExactLog.power(2, 2))

    def test_negative_sample_count_rejected(self):
        # -3 used to sample no subsets and check the identity subset alone
        f, g, box, pts = rich_instance()
        E = staircase(13, 2)
        M = build_matrix(pts, E)
        S = side_log_height(g, box)[1]
        for bad in (-3, -1, 2.5, True):
            with pytest.raises(ContractViolation, match="minor sample count"):
                congruence_reduce(M, g, 5, (0, 0, 0), E, S, samples=bad)
            for q in (5, 1):
                with pytest.raises(ContractViolation, match="minor sample count"):
                    congruence_certificates(M, g, q, E, S, samples=bad)
            with pytest.raises(ContractViolation, match="minor sample count"):
                aux_pipeline(f, g, 5, box, None, 0.5, pts, minor_samples=bad)
        cert = congruence_reduce(M, g, 5, (0, 0, 0), E, S, samples=0)
        assert [m.rows for m in cert.checked_minors] == [tuple(range(9))]

    def test_over_the_cap_refused_before_sampling(self, monkeypatch):
        class Sampled(Exception):
            pass

        def sample(self, population, k):
            raise Sampled

        monkeypatch.setattr(random.Random, "sample", sample)
        f, g, box, pts = rich_instance()
        E = staircase(13, 2)
        M = build_matrix(pts, E)
        S = side_log_height(g, box)[1]
        quadric = QuadricInstance(3, 1, 1, 1001, 16)
        for bad in (MINOR_SAMPLE_CAP + 1, 10 ** 8):
            with pytest.raises(ContractViolation, match="minor sample count"):
                congruence_reduce(M, g, 5, (0, 0, 0), E, S, samples=bad)
            for q in (5, 1):
                with pytest.raises(ContractViolation, match="minor sample count"):
                    congruence_certificates(M, g, q, E, S, samples=bad)
            with pytest.raises(ContractViolation, match="minor sample count"):
                aux_pipeline(f, g, 5, box, None, 0.5, pts, minor_samples=bad)
            with pytest.raises(ContractViolation, match="minor sample count"):
                count_quadric(quadric, "pipeline", minor_samples=bad)
        # at the cap, sampling starts
        with pytest.raises(Sampled):
            congruence_reduce(M, g, 5, (0, 0, 0), E, S, samples=MINOR_SAMPLE_CAP)

    def test_first_axis_shift_rejected(self):
        _, g, _, pts = quadric_instance()
        E = staircase(2, 3)
        M = build_matrix(pts, E)
        with pytest.raises(ContractViolation):
            congruence_reduce(M, g, 5, (1, 0, 0), E, ExactLog.power(2, 2))

    @pytest.mark.parametrize("t, g_terms", (
        ((0, 1, 1), {(0, 1, 1): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6}),
        ((0, 2, 0), {(0, 0, 3): 1, (0, 2, 0): 1, (0, 1, 0): 1, (0, 0, 0): -6}),
    ), ids=("mixed", "below-top-degree"))
    def test_slot_outside_the_three_refused(self, t, g_terms):
        # the slot's coefficient is a unit, but A need not be unitriangular
        g = P(3, g_terms)
        assert math.gcd(g.terms[t], 5) == 1
        pts = [(x, y, z) for x in range(2) for y in range(-2, 3) for z in range(-2, 3)
               if g.evaluate((x, y, z)) % 5 == 0]
        E = staircase(2, 3)
        M = build_matrix(pts, E)
        with pytest.raises(ContractViolation, match="neither the constant slot"):
            congruence_reduce(M, g, 5, t, E, ExactLog.power(2, 2))


class TestCompositeCertificates:
    def test_two_prime_factors(self):
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -26})
        box = BoxBounds(6, 6, 6)
        pts = [
            (x1, x2, x3)
            for x1 in range(-6, 7)
            for x2, x3 in ((5, 1), (5, -1), (-5, 1), (-5, -1),
                           (1, 5), (1, -5), (-1, 5), (-1, -5))
        ]
        assert all(g.evaluate(p) % 15 == 0 for p in pts)
        E = staircase(6, 2)
        M = build_matrix(pts, E)
        S = side_log_height(g, box)[1]
        certs = congruence_certificates(M, g, 15, E, S, rng=random.Random(11))
        assert len(certs) == 2
        assert [c.prime for c in certs] == [3, 5]
        assert all(c.base_modulus in (3, 5) for c in certs)
        divisor = math.prod(c.certified_divisor for c in certs)
        for m in certs[0].checked_minors:
            if not m.determinant_zero:
                delta = minor_determinant(M, m.rows)
                assert delta % divisor == 0

    def test_unit_modulus_no_certificates(self):
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        E = staircase(2, 2)
        M = build_matrix([(0, 1, 0)], E)
        S = side_log_height(g, BoxBounds(2, 2, 2))[1]
        assert congruence_certificates(M, g, 1, E, S) == ()


class TestNullSpace:
    def test_two_column_kernel(self):
        M = MonomialMatrix(
            rows=((1, 0, 0), (1, 2, 2)),
            cols=((0, 0, 0), (1, 0, 0)),
            entries=((1, 1), (1, 1)),
        )
        f = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        aux = null_space_polynomial(M, f)
        assert aux.poly.terms in (
            {(0, 0, 0): 1, (1, 0, 0): -1},
            {(0, 0, 0): -1, (1, 0, 0): 1},
        )
        assert aux.coprime_to_f

    def test_full_rank_rejected(self):
        M = grid_matrix([[1, 0], [0, 1]])
        with pytest.raises(ContractViolation, match="no null vector"):
            null_space_polynomial(M, P(3, {(2, 0, 0): 1, (0, 0, 0): -1}))

    def test_quadric_instance_kernel(self):
        f, _, _, pts = quadric_instance()
        E = staircase(2, 3)
        M = build_matrix(pts, E)
        aux = null_space_polynomial(M, f)
        assert aux.poly.terms == {(0, 1, 1): 1}
        assert aux.coprime_to_f
        for pt in pts:
            assert aux.poly.evaluate(pt) == 0

    def test_echelon_narrower_than_free_column_is_unsound(self):
        f, M = cover_matrix()
        _, pivot_cols, _, echelon = _row_reduce(M.entries)
        free = next(c for c in range(len(M.cols)) if c not in pivot_cols)
        aux = _kernel_polynomial(M, f, pivot_cols, echelon)
        assert aux.poly.terms == {(0, 0, 0): 233, (0, 2, 0): -1, (0, 0, 2): -1}
        for cut in (free, free - 1):
            short = [row[:cut] for row in echelon]
            with pytest.raises(SoundnessError, match="first free column"):
                _kernel_polynomial(M, f, pivot_cols, short)

    def test_support_and_content(self):
        f, _, _, pts = rich_instance()
        E = staircase(13, 3)
        head = list(pts)[:10]  # few enough rows to force a kernel
        M = build_matrix(head, E)
        aux = null_space_polynomial(M, f)
        members = set(E.members)
        assert set(aux.poly.terms) <= members
        assert math.gcd(*aux.poly.terms.values()) == 1
        for pt in head:
            assert aux.poly.evaluate(pt) == 0


class TestAuxPipeline:
    def test_standard_branch_emits_cover(self):
        f, g, box, pts = quadric_instance()
        rep = aux_pipeline(f, g, 5, box, ResidueData(()), 0.5, pts, floor_const=10)
        assert rep.branch == "standard"
        assert rep.hypothesis_route == "constant-term"
        assert [c.outcome for c in rep.classes] == ["aux"]
        assert [a.role for a in rep.auxiliaries] == ["class-cover", "singular-cover"]
        assert rep.set_size == 121
        assert rep.coverage_complete
        assert rep.leftover == ()
        assert rep.falsifications == ()
        cover = rep.auxiliaries[0]
        for pt in pts:
            assert cover.poly.evaluate(pt) == 0

    def test_unequal_box_cutoff_on_the_53_bit_grid(self):
        # grids after the first start from the doubled start rounded to 53
        # bits; at 96 bits this cutoff would be ...886887789... instead
        f, g, _, _ = quadric_instance()
        box = BoxBounds(12, 20, 30)
        pts = enumerate_points(f, SideCondition(g, 5), box)
        rep = aux_pipeline(f, g, 5, box, ResidueData(()), 0.5, pts)
        assert rep.cutoff.height == 353265586727888747578466418333164285171073024
        assert rep.set_size == 1443

    def test_negative_floor_constant_refused_for_every_box_shape(self):
        f, g, _, _ = quadric_instance()
        for box in (BoxBounds(12, 20, 30), BoxBounds(12, 12, 12)):
            pts = enumerate_points(f, SideCondition(g, 5), box)
            with pytest.raises(ContractViolation, match="floor constant must be nonnegative"):
                aux_pipeline(f, g, 5, box, ResidueData(()), 0.5, pts, floor_const=-1)

    def test_singular_cover_is_partial_derivative(self):
        f, g, box, pts = quadric_instance()
        rep = aux_pipeline(f, g, 5, box, ResidueData(()), 0.5, pts, floor_const=10)
        last = rep.auxiliaries[-1]
        assert last.role == "singular-cover"
        assert last.poly.terms in (
            f.partial_derivative(i).terms for i in range(3)
        )

    def test_falsified_branch_reports_exact_minor(self):
        f, g, box, pts = rich_instance()
        rep = aux_pipeline(
            f, g, 5, box, ResidueData(()), 0.5, pts,
            scale_override=2, floor_const=2,
        )
        assert [c.outcome for c in rep.classes] == ["falsified"]
        assert rep.set_size == 9
        assert len(rep.falsifications) == 1
        rec = rep.falsifications[0]
        assert rec.determinant != 0
        (cls,) = rep.classes
        M = build_matrix(cls.points, rep.exponent_set)
        assert rec.determinant == minor_determinant(M, rec.rows)
        assert rec.determinant == fraction_determinant([M.entries[i] for i in rec.rows])
        for prime, _, lam, val in rec.valuations:
            assert prime == 5
            assert val >= lam
        assert set(rep.leftover) == set(pts)
        assert rep.coverage_complete
        # certificates still emitted for the full-rank class
        assert cls.certificates
        assert cls.certificates[0].lam == 1

    def test_single_cover_branch(self):
        f, g, box, pts = rich_instance()
        rep = aux_pipeline(
            f, g, 5, box, ResidueData(()), 0.5, pts, scale_override=0.5
        )
        assert rep.branch == "single-cover"
        assert len(rep.classes) == 1
        assert rep.coverage_complete

    def test_residue_split_classes(self):
        f, g, box, pts = quadric_instance()
        rep = aux_pipeline(f, g, 5, box, ResidueData((3,)), 0.5, pts, floor_const=10)
        assert rep.residue_product == 3
        assert len(rep.classes) == 8
        covered = set()
        for cls in rep.classes:
            covered.update(cls.points)
        assert covered == set(pts)
        assert rep.coverage_complete

    def test_constant_term_hypothesis_enforced(self):
        f, _, _, _ = quadric_instance()
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -5})
        with pytest.raises(HypothesisViolation):
            aux_pipeline(f, g, 5, BoxBounds(2, 2, 3), ResidueData(()), 0.5, [])

    def test_equal_box_top_degree_route(self):
        f, _, box, pts = quadric_instance()
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -5})
        kept = [p for p in pts if g.evaluate(p) % 5 == 0]
        rep = aux_pipeline(f, g, 5, box, ResidueData(()), 0.5, kept, floor_const=10)
        assert rep.hypothesis_route == "top-degree"

    def test_residue_prime_dividing_modulus_rejected(self):
        f, g, box, pts = quadric_instance()
        with pytest.raises(HypothesisViolation):
            aux_pipeline(f, g, 5, box, ResidueData((5,)), 0.5, pts)

    def test_off_surface_point_rejected(self):
        f, g, box, _ = quadric_instance()
        with pytest.raises(ContractViolation):
            aux_pipeline(f, g, 5, box, ResidueData(()), 0.5, [(1, 1, 1)])

    def test_builds_the_staircase_once(self, monkeypatch):
        import detsieve.determinant
        import detsieve.exponents

        built = []

        def counting(*args, **kwargs):
            E = build_exponent_set(*args, **kwargs)
            built.append(E)
            return E

        for module in (detsieve.determinant, detsieve.exponents):
            monkeypatch.setattr(module, "build_exponent_set", counting)
        f, g, box, pts = quadric_instance()
        uneven = BoxBounds(2, 2, 3)
        uneven_pts = enumerate_points(f, SideCondition(g, 5), uneven)
        # powers; the first log grid; the second log grid
        for b, p, kw in ((box, pts, {"floor_const": 10}),
                         (uneven, uneven_pts, {"floor_const": 10}),
                         (uneven, uneven_pts, {"floor_const": 10, "scale_override": 40})):
            built.clear()
            rep = aux_pipeline(f, g, 5, b, ResidueData(()), 0.5, p, **kw)
            assert built == [rep.exponent_set]
            assert rep.set_size == staircase_size(rep.cutoff, rep.params.dominant, b)
        # no points, so no class builds a matrix and nothing is built
        f, g, box, pts = point_free_instance()
        assert not pts
        built.clear()
        rep = aux_pipeline(f, g, 5, box, ResidueData(()), 0.5, pts, floor_const=10)
        assert built == []
        assert rep.exponent_set is None
        assert rep.classes == ()
        assert rep.set_size == staircase_size(rep.cutoff, rep.params.dominant, box)
        assert rep.set_size == len(build_exponent_set(rep.cutoff, rep.params.dominant, box))

    def test_deterministic_across_seeds_for_structure(self):
        f, g, box, pts = quadric_instance()
        a = aux_pipeline(f, g, 5, box, ResidueData(()), 0.5, pts, floor_const=10, seed=1)
        b = aux_pipeline(f, g, 5, box, ResidueData(()), 0.5, pts, floor_const=10, seed=9)
        assert [c.outcome for c in a.classes] == [c.outcome for c in b.classes]
        assert a.auxiliaries[0].poly.terms == b.auxiliaries[0].poly.terms


# -- the fraction-free elimination against the rational one it replaced -----------


def reference_row_reduce(grid):
    """Gauss-Jordan elimination over Fraction: the oracle for _row_reduce.

    Returns (rank, pivot_cols, pivot_rows, rref restricted to the pivot rows).
    """
    rows = [[Fraction(v) for v in r] for r in grid]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    origin = list(range(nrows))
    pivot_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        origin[r], origin[piv] = origin[piv], origin[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivot_cols, origin[:r], rows[:r]


def fraction_determinant(grid):
    """Gaussian elimination over Fraction: the determinant oracle."""
    rows = [[Fraction(v) for v in r] for r in grid]
    det = Fraction(1)
    for c in range(len(rows)):
        piv = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            if rows[i][c]:
                factor = rows[i][c] / rows[c][c]
                rows[i][c:] = [a - factor * b for a, b in zip(rows[i][c:], rows[c][c:])]
    assert det.denominator == 1
    return det.numerator


def reference_kernel_terms(M):
    """Primitive, sign-normalized kernel vector for the first free column,
    from the rational RREF, as polynomial terms."""
    _, pivot_cols, _, rref = reference_row_reduce(M.entries)
    ncols = len(M.cols)
    pivot_set = set(pivot_cols)
    free = next(c for c in range(ncols) if c not in pivot_set)
    vec = [Fraction(0)] * ncols
    vec[free] = Fraction(1)
    for k, c in enumerate(pivot_cols):
        vec[c] = -rref[k][free]
    denom = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * denom) for v in vec]
    content = math.gcd(*ints)
    ints = [v // content for v in ints]
    if next(v for v in ints if v) < 0:
        ints = [-v for v in ints]
    return {e: c for e, c in zip(M.cols, ints) if c}


def low_rank_grid(rng, nrows, ncols, rank, bits, sparse):
    """Product of random nrows x rank and rank x ncols factors; sparse
    factors put zeros in the way of the pivot search."""

    def entry():
        if sparse and rng.random() < 0.6:
            return 0
        return rng.randrange(-(2**bits), 2**bits + 1)

    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    return [
        [sum(a * right[k][j] for k, a in enumerate(row)) for j in range(ncols)]
        for row in left
    ]


def assert_matches_reference(grid):
    """_row_reduce against the Fraction oracle: rank, pivot columns and
    rows, and each echelon row up to scale on the columns it covers.
    Scaled to a unit pivot, the k-th echelon row of forward elimination is
    the k-th reduced row plus its own entry at each later pivot column
    times that pivot's row.  The echelon rows share one width, which takes
    in every pivot column and the first free column."""
    rank, pivot_cols, pivot_rows, echelon = _row_reduce(grid)
    want_rank, want_cols, want_rows, rref = reference_row_reduce(grid)
    assert (rank, pivot_cols, pivot_rows) == (want_rank, want_cols, want_rows)
    assert len(echelon) == rank
    if not echelon:
        return rank
    (width,) = {len(row) for row in echelon}
    # the first free column, or the last column if none is free
    ncols = len(grid[0])
    free = next((c for c in range(ncols) if c not in pivot_cols), ncols - 1)
    assert free < width <= ncols
    for k, c in enumerate(pivot_cols):
        row = [Fraction(v, echelon[k][c]) for v in echelon[k]]
        want = list(rref[k])
        for l in range(k + 1, rank):
            x = row[pivot_cols[l]]
            want = [w + x * b for w, b in zip(want, rref[l])]
        assert row == want[:width]
    return rank


def tall_grids():
    """Seeded grids of 200 rows or more over at most 12 columns."""
    rng = random.Random(330)
    out = []
    # full column rank, dense and sparse
    for bits, sparse in ((4, False), (70, False), (4, True)):
        out.append(low_rank_grid(rng, 240, 12, 12, bits, sparse))
    # leading zero rows, then rows whose only nonzero entries sit in the
    # last columns: each early pivot is found far down and swapped up past
    # rows the scan has already caught up
    ncols = 10
    late = [[0] * (ncols - 2) + [rng.randrange(1, 9), rng.randrange(-8, 9)]
            for _ in range(150)]
    dense = low_rank_grid(rng, 40, ncols, ncols, 6, False)
    out.append([[0] * ncols for _ in range(30)] + late + dense)
    stairs = [[0] * k + [rng.randrange(1, 50)] + [0] * (ncols - k - 1)
              for k in range(ncols)]
    filler = [[0] * (ncols - 1) + [rng.randrange(-9, 10)] for _ in range(200)]
    out.append(filler[:100] + stairs[::-1] + filler[100:])
    # rank deficient: duplicated rows and columns with no pivot
    for rank in (1, 4, 9):
        grid = low_rank_grid(rng, 220, 12, rank, 5, rank == 4)
        for _ in range(40):
            i, j = rng.sample(range(220), 2)
            grid[j] = list(grid[i])
        dead = rng.sample(range(12), 2)
        out.append([[0 if j in dead else v for j, v in enumerate(r)] for r in grid])
    return out


SHAPES = [(1, 1), (1, 7), (7, 1), (3, 3), (5, 9), (9, 5), (12, 4), (4, 12), (8, 8)]


def oracle_grids():
    """Seeded grids over every shape: full and deficient rank, small and
    200-bit-plus entries, dense and sparse, with zero rows, zero columns
    and duplicate rows mixed in."""
    rng = random.Random(20240821)
    out = [[], [[], []], [[0, 0, 0]], [[0], [0], [0]]]
    for nrows, ncols in SHAPES:
        small = min(nrows, ncols)
        for rank in sorted({0, 1, max(small - 1, 0), small}):
            for bits in (3, 105):
                for sparse in (False, True):
                    grid = low_rank_grid(rng, nrows, ncols, rank, bits, sparse)
                    out.append(grid)
                    if nrows > 1:
                        zero_row = [list(r) for r in grid]
                        zero_row[rng.randrange(nrows)] = [0] * ncols
                        out.append(zero_row)
                        dup = [list(r) for r in grid]
                        i, j = rng.sample(range(nrows), 2)
                        dup[j] = list(dup[i])
                        out.append(dup)
                    if ncols > 1:
                        col = rng.randrange(ncols)
                        out.append([[0 if j == col else v for j, v in enumerate(r)]
                                    for r in grid])
    return out


class TestEliminationOracle:
    def test_grids_cover_the_cases(self):
        grids = oracle_grids()
        ranks = [reference_row_reduce(g)[0] for g in grids]
        assert any(r < min(len(g), len(g[0])) for g, r in zip(grids, ranks) if g and g[0])
        assert any(abs(v).bit_length() > 200 for g in grids for row in g for v in row)
        assert any(len(set(map(tuple, g))) < len(g) for g in grids if any(map(any, g)))

    def test_rank_and_pivots_match_rational_elimination(self):
        # the wide shapes start on a frontier of nrows + 1 columns
        for grid in oracle_grids():
            assert_matches_reference(grid)
            _, pivot_cols, pivot_rows, echelon = _row_reduce(grid)
            for k, c in enumerate(pivot_cols):
                # the k-th pivot is the leading (k+1)-minor on the pivot rows
                minor = [[grid[i][j] for j in pivot_cols[:k + 1]]
                         for i in pivot_rows[:k + 1]]
                assert echelon[k][c] == fraction_determinant(minor)
                assert not any(echelon[k][:c])

    def test_determinant_matches_fraction_elimination(self):
        rng = random.Random(1968)
        parities = set()
        for n in range(6, 31):
            bits = 210 if n % 7 == 6 else 5
            dense = [[rng.randrange(-(2**bits), 2**bits + 1) for _ in range(n)]
                     for _ in range(n)]
            a, b, j = rng.sample(range(n), 3)
            dependent = [list(r) for r in dense]
            dependent[j] = [x - 3 * y for x, y in zip(dense[a], dense[b])]
            low_rank = low_rank_grid(rng, n, n, n - 1 - n % 2, 5, n % 4 == 1)
            # rows of an upper-triangular grid, shuffled: the pivot search
            # must swap rows back, an odd or even number of times
            diag = [rng.choice((-1, 1)) * rng.randrange(1, 2**bits) for _ in range(n)]
            upper = [[0] * k + [diag[k]]
                     + [rng.randrange(-(2**bits), 2**bits + 1) for _ in range(n - k - 1)]
                     for k in range(n)]
            perm = list(range(n))
            rng.shuffle(perm)
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            parities.add(inversions % 2)
            shuffled = [upper[i] for i in perm]
            assert integer_determinant(shuffled) == (-1) ** inversions * math.prod(diag)
            for grid in (dense, dependent, low_rank, shuffled):
                assert integer_determinant(grid) == fraction_determinant(grid), grid
            assert integer_determinant(dependent) == integer_determinant(low_rank) == 0
        assert parities == {0, 1}

    def test_identity_plus_dense_columns(self):
        # shaped like the column-operation matrix of congruence_reduce: the
        # identity, except that some columns are replaced by coefficient
        # vectors supported on a restricted set of rows
        rng = random.Random(169)
        n = 170
        restricted = rng.sample(range(n), 40)
        grid = [[int(r == c) for c in range(n)] for r in range(n)]
        for c in rng.sample(restricted, 20):
            for r in range(n):
                grid[r][c] = 0
            for r in rng.sample(restricted, 12):
                grid[r][c] = rng.randrange(-(2**210), 2**210 + 1)
        det = integer_determinant(grid)
        assert det != 0
        assert det == fraction_determinant(grid)

    def test_rank_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for grid in oracle_grids():
            if grid and grid[0]:
                assert _row_reduce(grid)[0] == sympy.Matrix(grid).rank()

    def test_empty_grids(self):
        assert _row_reduce([]) == (0, [], [], [])
        assert _row_reduce([[], []]) == (0, [], [], [])

    def test_tall_grids_match_rational_elimination(self):
        # rows are eliminated lazily, when the pivot scan reaches them, so
        # tall grids whose scan stops early or runs far down are the risk
        for grid in tall_grids():
            assert_matches_reference(grid)

    def test_certify_matrix_matches_rational_elimination(self):
        # the 330x25 full-column-rank matrix of the certify-q7-B25 config
        f = P(3, {(2, 0, 0): 7, (0, 2, 0): 1, (0, 0, 2): -1, (0, 0, 0): -7})
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): -1, (0, 0, 0): -7})
        box = BoxBounds(25, 25, 25)
        E = build_exponent_set(ExactLog.power(25, 4), max_exponent(f, box), box)
        M = build_matrix(list(enumerate_points(f, SideCondition(g, 7), box)), E)
        assert M.shape == (330, 25)
        assert assert_matches_reference(M.entries) == 25

    def test_frontier_grids_match_rational_elimination(self):
        # the frontier starts at nrows + 1 columns and doubles when the
        # pivot scan reaches it
        rng = random.Random(484)

        def dense(ncols, zeros=0, bits=90):
            return [0] * zeros + [rng.randrange(-(2**bits), 2**bits + 1) | 1
                                  for _ in range(ncols - zeros)]

        # leading zero columns: the first pivot lies past two widenings
        lead = [dense(40, zeros=12) for _ in range(4)]
        assert _row_reduce(lead)[1] == [12, 13, 14, 15]
        assert_matches_reference(lead)
        # pivots on both sides of each widening, 4 -> 8 -> 16: rows 1 and
        # 2 took the first step before either widening and replay it
        b, v, w = dense(40), dense(40, zeros=6), dense(40, zeros=10)
        straddle = [b, [2 * x + y for x, y in zip(b, v)],
                    [-3 * x + 5 * y + z for x, y, z in zip(b, v, w)]]
        _, pivot_cols, _, echelon = _row_reduce(straddle)
        assert pivot_cols == [0, 6, 10]
        assert {len(row) for row in echelon} == {16}
        assert_matches_reference(straddle)
        # rank deficient: the scan widens all the way
        deficient = low_rank_grid(rng, 6, 40, 3, 60, False)
        rank, _, _, echelon = _row_reduce(deficient)
        assert rank == 3
        assert {len(row) for row in echelon} == {40}
        assert_matches_reference(deficient)

    def test_cover_matrix_matches_rational_elimination(self):
        # the 16x484 matrix of the cover-B16 op: full row rank by column 32,
        # so the echelon stops far short of the last column
        _, M = cover_matrix()
        assert M.shape == (16, 484)
        assert assert_matches_reference(M.entries) == 16
        (width,) = {len(row) for row in _row_reduce(M.entries)[3]}
        assert width < 484

    def test_kernel_polynomial_matches_rational_kernel(self):
        f = P(3, {(2, 0, 0): 3, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -1001})
        rng = random.Random(1968)
        cases = 0
        for trial in range(45):
            E = staircase(2, 4) if trial % 3 == 0 else staircase(rng.choice((2, 3)), 3)
            J = rng.randrange(1, 21)
            if trial % 3 == 0:
                # coordinates near 2^55: entries of degree four pass 200 bits
                pts = [tuple(rng.randrange(-(2**55), 2**55) for _ in range(3))
                       for _ in range(J)]
            elif trial % 3 == 1:
                # a plane and repeated points: rank below min(J, E)
                pts = [(0, rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(J)]
            else:
                pts = [tuple(rng.randrange(-4, 5) for _ in range(3)) for _ in range(J)]
            M = build_matrix(pts, E)
            if rank_over_rationals(M) == len(E.members):
                with pytest.raises(ContractViolation, match="no null vector"):
                    null_space_polynomial(M, f)
                continue
            aux = null_space_polynomial(M, f)
            assert aux.poly.terms == reference_kernel_terms(M)
            cases += 1
        assert cases >= 30


# -- certificates: one whole-matrix identity, one determinant per minor ----------


# the benchmark's certify ops: a1 x1^2 + a2 x2^2 + a3 x3^2 = n with side
# g = f - a1 x1^2 mod q, box B^3 and cutoff B^power
BENCHMARK_CERTIFY = {
    "certify-Y16^12": ((3, 1, 1), 1001, 3, 16, 12),
    "certify-q7-B25": ((7, 1, -1), 7, 7, 25, 4),
    "certify-q9-B35": ((9, 1, -1), 9, 9, 35, 4),
}


def diagonal_certify(a, n, q, B, power):
    """(M, g, q, E, S) as ``detsieve certify`` builds them for a diagonal quadric."""
    a1, a2, a3 = a
    f = P(3, {(2, 0, 0): a1, (0, 2, 0): a2, (0, 0, 2): a3, (0, 0, 0): -n})
    g = P(3, {(0, 2, 0): a2, (0, 0, 2): a3, (0, 0, 0): -n})
    box = BoxBounds(B, B, B)
    E = build_exponent_set(ExactLog.power(B, power), max_exponent(f, box), box)
    pts = enumerate_points(f, SideCondition(g, q), box)
    return build_matrix(list(pts), E), g, q, E, side_log_height(g, box)[1]


def certificate_corpus():
    """Seeded tall diagonal-quadric certificates with a nonzero sampled minor."""
    rng = random.Random(2026)
    out = []
    while len(out) < 24:
        q = rng.choice((2, 3, 4, 5, 7, 8, 9, 12, 25))
        a = tuple(rng.choice((-3, -2, -1, 1, 2, 3, 5)) for _ in range(3))
        n, B, power = rng.randint(-60, 60), rng.randint(5, 12), rng.choice((2, 3))
        try:
            M, g, q, E, S = diagonal_certify(a, n, q, B, power)
        except ContractViolation:  # no points
            continue
        if not len(E) <= M.shape[0] or len(E) > 20:
            continue
        try:
            certs = congruence_certificates(
                M, g, q, E, S, samples=6, rng=random.Random(len(out))
            )
        except ContractViolation:  # no admissible shift
            continue
        if any(not m.determinant_zero for c in certs for m in c.checked_minors):
            out.append((M, certs))
    return out


def assert_two_determinant_relation(M, cert):
    """The per-subset check the certificate used to make, as an oracle:
    det M_S * det A = q^lam * det R_S, and every checked minor's record
    matches det M_S computed directly."""
    for m in cert.checked_minors:
        delta = integer_determinant([M.entries[i] for i in m.rows])
        delta_red = integer_determinant([cert.reduced_entries[i] for i in m.rows])
        assert delta * cert.det_transform == cert.certified_divisor * delta_red
        assert m.determinant_zero == (delta == 0)
        want = (None if delta == 0
                else prime_power_valuation(delta, cert.prime, cert.prime_exponent))
        assert m.valuation == want


def spy_determinants(monkeypatch, M):
    """Count integer_determinant calls by the matrix they read: rows of M,
    rows of some certificate's reduced matrix, or any other grid, such as
    the column-operation matrix A."""
    calls = {"M": 0, "R": 0, "A": 0}
    m_rows = {id(r) for r in M.entries}
    real = determinant.integer_determinant

    def spy(grid):
        if all(id(r) in m_rows for r in grid):
            calls["M"] += 1
        elif all(isinstance(r, tuple) for r in grid):
            calls["R"] += 1
        else:
            calls["A"] += 1
        return real(grid)

    monkeypatch.setattr(determinant, "integer_determinant", spy)
    return calls


def slot_certificate(slot):
    """(M, g, q, t, E, S) of a certificate on the constant, x2^2 or x3^2 slot."""
    if slot == "constant":
        _, g, _, pts = quadric_instance()
        E = staircase(2, 3)
        return build_matrix(pts, E), g, 5, (0, 0, 0), E, ExactLog.power(2, 2)
    # g = x2^2 - x3^2 - 20: both pure top-degree coefficients are units mod 5
    q, c = 5, 2
    g = P(3, {(0, 2, 0): 1, (0, 0, 2): -1, (0, 0, 0): -q * c * c})
    f = g + P(3, {(2, 0, 0): q})
    pts = enumerate_points(f, SideCondition(g, q), BoxBounds(4, 4, 4))
    E = staircase(4, 3)
    t = (0, 2, 0) if slot == "x2" else (0, 0, 2)
    return build_matrix(pts, E), g, q, t, E, ExactLog.power(4, 2)


# per slot, the member farthest on the wrong side of any diagonal: the
# constant slot needs higher total degree off the diagonal, the x2^l and
# x3^l slots need a lower graded key
WRONG_SIDE = {
    "constant": lambda E: min(E.members, key=sum),
    "x2": lambda E: max(E.members, key=lambda u: (sum(u), u[1], u[2])),
    "x3": lambda E: max(E.members, key=lambda u: (sum(u), u[2], u[1])),
}


class TestCertificateChecks:
    @pytest.mark.parametrize("name", sorted(BENCHMARK_CERTIFY))
    def test_benchmark_matrices_match_two_determinant_oracle(self, name):
        M, g, q, E, S = diagonal_certify(*BENCHMARK_CERTIFY[name])
        (cert,) = congruence_certificates(M, g, q, E, S, rng=random.Random(3))
        if name == "certify-Y16^12":
            # 16 points under 169 columns: no full row subset to sample
            assert M.shape == (16, 169)
            assert cert.checked_minors == ()
        else:
            assert M.shape[1] == 25 and cert.lam == 10
            assert len(cert.checked_minors) == 33
            assert any(not m.determinant_zero for m in cert.checked_minors)
        assert_two_determinant_relation(M, cert)

    def test_corpus_matches_two_determinant_oracle(self):
        corpus = certificate_corpus()
        certs = [c for _, cs in corpus for c in cs]
        # the corpus reaches several prime powers, both shift policies and lam > 1
        assert len({c.base_modulus for c in certs}) >= 4
        assert {c.shift == (0, 0, 0) for c in certs} == {True, False}
        assert max(c.lam for c in certs) > 1
        for M, cs in corpus:
            for cert in cs:
                assert_two_determinant_relation(M, cert)

    def test_row_subset_with_a_repeated_row_raises(self):
        # [0, 0, 2, ..., 24] is no minor; it used to be recorded as a
        # checked minor with determinant zero
        M, g, q, E, S = diagonal_certify(*BENCHMARK_CERTIFY["certify-q7-B25"])
        ncols = M.shape[1]
        for bad in ([0, 0] + list(range(2, ncols)), [5] * ncols):
            with pytest.raises(ContractViolation, match="distinct rows"):
                congruence_certificates(M, g, q, E, S, samples=0, extra_subsets=(bad,))
        (cert,) = congruence_certificates(M, g, q, E, S, samples=0,
                                          extra_subsets=(range(1, ncols + 1),))
        assert [m.rows for m in cert.checked_minors] == [
            tuple(range(ncols)), tuple(range(1, ncols + 1))]

    def test_one_determinant_per_sampled_minor(self, monkeypatch):
        M, g, q, E, S = diagonal_certify(*BENCHMARK_CERTIFY["certify-q7-B25"])
        calls = spy_determinants(monkeypatch, M)
        (cert,) = congruence_certificates(M, g, q, E, S, rng=random.Random(3))
        # det R_S per subset; det A = 1 by structure and det M_S is never formed
        assert calls == {"A": 0, "R": len(cert.checked_minors), "M": 0}

    def test_one_determinant_per_vanishing_minor(self, monkeypatch):
        # points on the plane x1 = 0 zero the column of x1: every minor vanishes
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        pts = [(0, y, z) for y in range(-6, 7) for z in range(-6, 7)
               if g.evaluate((0, y, z)) % 5 == 0]
        E = staircase(3, 2)
        M = build_matrix(pts, E)
        assert M.shape[0] >= len(E)
        calls = spy_determinants(monkeypatch, M)
        cert = congruence_reduce(M, g, 5, (0, 0, 0), E, ExactLog.power(2, 2), samples=4)
        assert cert.checked_minors
        assert all(m.determinant_zero for m in cert.checked_minors)
        assert calls == {"A": 0, "R": len(cert.checked_minors), "M": 0}

    @staticmethod
    def rich_certificate():
        _, g, box, pts = rich_instance()
        E = staircase(13, 2)
        M = build_matrix(pts, E)
        S = side_log_height(g, box)[1]
        return M, g, E, S

    def reduce(self, M, g, E, S):
        return congruence_reduce(M, g, 5, (0, 0, 0), E, S, samples=16, rng=random.Random(7))

    def corrupt_operations(self, monkeypatch, corrupt):
        real = determinant._column_operations

        def wrapped(*args):
            a_cols, divisors, reduced = real(*args)
            corrupt(a_cols, divisors, reduced)
            return a_cols, divisors, reduced

        monkeypatch.setattr(determinant, "_column_operations", wrapped)

    @pytest.mark.parametrize("column", ("reduced", "untouched"))
    def test_wrong_reduced_entry_raises(self, monkeypatch, column):
        M, g, E, S = self.rich_certificate()
        cert = self.reduce(M, g, E, S)
        (e, _), = [(e, mu) for e, mu in cert.multiplicities if mu]
        i = E.members.index(e) if column == "reduced" else E.members.index((1, 0, 0))

        def corrupt(a_cols, divisors, reduced):
            reduced[5][i] += 1

        self.corrupt_operations(monkeypatch, corrupt)
        with pytest.raises(SoundnessError, match=f"column {i} of M A"):
            self.reduce(M, g, E, S)

    def test_wrong_column_operation_entry_raises(self, monkeypatch):
        M, g, E, S = self.rich_certificate()
        cert = self.reduce(M, g, E, S)
        (e, _), = [(e, mu) for e, mu in cert.multiplicities if mu]
        i = E.members.index(e)

        def corrupt(a_cols, divisors, reduced):
            (r, a), *rest = a_cols[i]
            a_cols[i] = ((r, a + 1), *rest)

        self.corrupt_operations(monkeypatch, corrupt)
        with pytest.raises(SoundnessError, match=f"column {i} of M A"):
            self.reduce(M, g, E, S)

    def replaced_column(self, slot):
        """A certificate on the slot, one replaced column i, its divisor, and
        a row k on the wrong side of column i's diagonal."""
        M, g, q, t, E, S = slot_certificate(slot)
        cert = congruence_reduce(M, g, q, t, E, S, samples=4, rng=random.Random(7))
        assert cert.shift == t and cert.lam >= 1 and cert.det_transform == 1
        k = E.members.index(WRONG_SIDE[slot](E))
        i = next(E.members.index(e) for e, mu in cert.multiplicities
                 if mu and E.members.index(e) != k)
        mu = dict(cert.multiplicities)[E.members[i]]
        return (M, g, q, t, E, S), i, q ** mu, k

    @pytest.mark.parametrize("slot", sorted(WRONG_SIDE))
    def test_diagonal_of_two_raises(self, monkeypatch, slot):
        # doubling A's column and R's column keeps M A = R D
        args, i, _, _ = self.replaced_column(slot)

        def corrupt(a_cols, divisors, reduced):
            a_cols[i] = tuple((r, 2 * a) for r, a in a_cols[i])
            for row in reduced:
                row[i] *= 2

        self.corrupt_operations(monkeypatch, corrupt)
        with pytest.raises(SoundnessError, match=f"column {i} of A has 2 on its diagonal"):
            congruence_reduce(*args)

    @pytest.mark.parametrize("slot", sorted(WRONG_SIDE))
    def test_entry_on_the_wrong_side_raises(self, monkeypatch, slot):
        # c * d_i at row k of A's column, c * M[:, k] added to R's: M A = R D
        args, i, d, k = self.replaced_column(slot)
        M, c = args[0], 3

        def corrupt(a_cols, divisors, reduced):
            a_cols[i] = a_cols[i] + ((k, c * d),)
            for row, m_row in zip(reduced, M.entries):
                row[i] += c * m_row[k]

        self.corrupt_operations(monkeypatch, corrupt)
        with pytest.raises(
            SoundnessError, match=f"column {i} of A has an entry at row {k} on the wrong side"
        ):
            congruence_reduce(*args)

    @pytest.mark.parametrize("replaced", (True, False), ids=("replaced", "untouched"))
    def test_missing_diagonal_raises(self, monkeypatch, replaced):
        # dropping column i's diagonal 1 takes M[:, i] off M A; R D follows
        # with divisor 1 and R's column set to d * R[:, i] - M[:, i]
        args, i, d, _ = self.replaced_column("constant")
        M, E = args[0], args[4]
        if not replaced:
            i, d = E.members.index((0, 0, 2)), 1

        def corrupt(a_cols, divisors, reduced):
            assert divisors[i] == d
            a_cols[i] = tuple((r, a) for r, a in a_cols[i] if r != i)
            divisors[i] = 1
            for row, m_row in zip(reduced, M.entries):
                row[i] = d * row[i] - m_row[i]

        self.corrupt_operations(monkeypatch, corrupt)
        with pytest.raises(SoundnessError, match=f"column {i} of A has 0 on its diagonal"):
            congruence_reduce(*args)

    def test_wrong_column_divisor_raises(self, monkeypatch):
        # divisor 1 with R's column scaled by d keeps M A = R D, but det D
        # falls short of q^lam
        args, i, d, _ = self.replaced_column("constant")

        def corrupt(a_cols, divisors, reduced):
            divisors[i] = 1
            for row in reduced:
                row[i] *= d

        self.corrupt_operations(monkeypatch, corrupt)
        with pytest.raises(SoundnessError, match="column divisors do not multiply"):
            congruence_reduce(*args)
