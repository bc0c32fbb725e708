"""Monomial matrices, exact minors, divisibility certificates, kernel covers."""

import inspect
import math
import random
import sys
from fractions import Fraction

import pytest

import detsieve.determinant as determinant
import detsieve.exponents
from detsieve.applications import (
    QuadricInstance, UnlikePowersInstance, count_quadric, gcd_power_sum, quadric_cover_scale,
)
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
from detsieve.enumeration import DEGREE_CAP, ResidueData, SideCondition, enumerate_points
from detsieve.errors import CapExceeded, ContractViolation, HypothesisViolation, SoundnessError
from detsieve.exponents import (
    INFINITE,
    BoxBounds,
    ExactLog,
    build_exponent_set,
    choose_Y,
    lambda_single,
    max_exponent,
    power_cutoff,
    staircase_size,
)
from detsieve.polynomials import IntegerPolynomial, eval_monomial, wronskian

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


def cofactor(rows):
    """Determinant by cofactor expansion along the first row; the entries may
    be ints or polynomials."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for i, head in enumerate(rows[0]):
        rest = [r[:i] + r[i + 1:] for r in rows[1:]]
        total += (-1) ** i * head * cofactor(rest)
    return total


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


def frontier_slices(nrows, ncols):
    """The slices _row_reduce takes of a row of a grid with nrows rows: the
    start frontier of nrows + 1 columns, then each doubling up to ncols."""
    width = min(ncols, nrows + 1)
    out = [slice(None, width)]
    while width < ncols:
        new = min(ncols, 2 * width)
        out.append(slice(width, new))
        width = new
    return out


def lazy_rows(pts, E):
    """The pipeline's lazy rows of a class: one _ValueRow per point over
    the class's value columns."""
    values = determinant._ValueColumns(tuple(pts))
    return [determinant._ValueRow(values, E, j) for j in range(len(values.coords[0]))]


def spy_columns(monkeypatch):
    """{each _ValueColumns made: the columns it builds, in order}, in the
    order they were made; the unit column each starts from comes first."""
    built = {}
    real_init, real_call = determinant._ValueColumns.__init__, determinant._ValueColumns.__call__

    def init(values, points):
        real_init(values, points)
        built[values] = list(values.cache)

    def call(values, e):
        if e not in values.cache:
            built[values].append(e)
        return real_call(values, e)

    monkeypatch.setattr(determinant._ValueColumns, "__init__", init)
    monkeypatch.setattr(determinant._ValueColumns, "__call__", call)
    return built


def spy_builds(monkeypatch):
    """Record every matrix build_matrix returns."""
    built = []
    real = determinant.build_matrix

    def spy(points, E):
        built.append(real(points, E))
        return built[-1]

    monkeypatch.setattr(determinant, "build_matrix", spy)
    return built


class TestValueRows:
    """The elimination's lazy rows: every slice equals the eager entries."""

    BIG = 2**70 - 5
    POINTS = ((0, 0, 0), (0, -1, 5), (-3, 0, -2), (BIG, -BIG, 1), (-7, 11, -13),
              (1, -1, 0), (-BIG, 0, BIG + 8), (2**69, 3, -(2**69)))

    @pytest.mark.parametrize("E", (
        staircase(3, 4), staircase(4, 6, (3, 1, 0)),
        build_exponent_set(ExactLog.power(9, 3), (2, 0, 0), BoxBounds(2, 9, 30)),
        build_exponent_set(ExactLog.power(16, 17), (2, 0, 0), BoxBounds(16, 16, 16)),
    ), ids=("equal-3", "dominant-310", "unequal", "wide"))
    def test_every_slice_shape_matches_eager_entries(self, E):
        ncols = len(E)
        for p, row in zip(self.POINTS, lazy_rows(self.POINTS, E)):
            want = [eval_monomial(p, e) for e in E.members]
            assert len(row) == ncols
            assert row[:] == want
            for i in range(ncols + 1):
                assert row[i:i] == []
                assert row[i:i + 1] == want[i:i + 1]
            for nrows in (1, 2, 3, 16, ncols):
                shapes = frontier_slices(nrows, ncols)
                pieces = [row[s] for s in shapes]
                assert pieces == [want[s] for s in shapes]
                assert sum(pieces, []) == want

    def test_lazy_grid_reduces_like_the_built_matrix(self):
        # wide of full row rank (8x16, 10x16 and the 16x484 cover-B16
        # class), wide with repeated rows, which widens to full width
        # (12x16 of rank 8), and tall (32x16): the same echelon, bit for bit
        few, rich = quadric_instance()[3], rich_instance()[3]
        cover = count_quadric(QuadricInstance(3, 1, 1, 1001, 16), "pipeline").report
        cases = [(few, staircase(2, 3)), (few + few[:4], staircase(2, 3)),
                 (rich, staircase(13, 3)), (rich[:10], staircase(13, 3)),
                 (cover.classes[0].points, cover.exponent_set)]
        for pts, E in cases:
            assert _row_reduce(lazy_rows(pts, E)) == _row_reduce(build_matrix(pts, E).entries)

    def test_cover_b16_computes_only_the_cells_the_scan_reaches(self, monkeypatch):
        # 16 points under 484 columns: the frontier starts at 17 columns and
        # doubles once, so at most 34 of the 484 columns are built, each once
        columns = spy_columns(monkeypatch)
        built = spy_builds(monkeypatch)
        report = count_quadric(QuadricInstance(3, 1, 1, 1001, 16), "pipeline").report
        (cls,) = report.classes
        assert (len(cls.points), report.set_size) == (16, 484)
        assert cls.outcome == "aux" and cls.certificates == ()
        assert built == []
        (cols,) = columns.values()
        assert 0 < len(cols) <= 34 and len(set(cols)) == len(cols)
        assert set(cols) <= set(report.exponent_set.members)

    def test_certified_class_builds_the_full_matrix(self, monkeypatch):
        # q = 5 and 32 points against 9 columns: the class takes a
        # certificate, so its whole matrix is built and checked
        f, g, box, pts = rich_instance()
        columns = spy_columns(monkeypatch)
        built = spy_builds(monkeypatch)
        rep = aux_pipeline(
            f, SideCondition(g, 5), box, ResidueData(()), 0.5, pts,
            scale_override=2, floor_const=2,
        )
        (cls,) = rep.classes
        assert cls.certificates and rep.set_size == 9
        (M,) = built
        assert M.rows == cls.points
        assert M.entries == tuple(
            tuple(eval_monomial(p, e) for e in rep.exponent_set.members) for p in cls.points
        )
        # build_matrix builds each member's column once; each certificate
        # reads R from the points through value columns of its own
        cols = next(iter(columns.values()))
        assert sorted(cols) == sorted(rep.exponent_set.members)
        assert len(columns) == 1 + len(cls.certificates)
        for cert in cls.certificates:
            assert_two_determinant_relation(M, cert)
        assert cls.falsification.determinant == minor_determinant(M, cls.falsification.rows)


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
                aux_pipeline(f, SideCondition(g, bad), box, ResidueData(()), 0.5, pts,
                             floor_const=10)
            points = [(bad, 1, 0)] + list(pts)
            with pytest.raises(ContractViolation, match="point coordinate must be an integer"):
                aux_pipeline(f, SideCondition(g, 5), box, ResidueData(()), 0.5, points,
                             floor_const=10)

    def test_certificates_reject_non_integer_modulus(self):
        _, g, box, pts = quadric_instance()
        E = staircase(2, 2)
        M = build_matrix(pts, E)
        for bad in self.BAD:
            with pytest.raises(ContractViolation, match="modulus must be an integer"):
                congruence_certificates(M, SideCondition(g, bad), E)

    def test_reduce_and_shift_reject_non_integer_modulus(self):
        # 5.0 and 5.7 used to reach math.gcd as a bare TypeError, and True
        # was read as the modulus 1
        _, g, _, pts = quadric_instance()
        E = staircase(2, 3)
        M = build_matrix(pts, E)
        for bad in (5.0, 5.7, True, "5"):
            with pytest.raises(ContractViolation, match="modulus must be an integer"):
                congruence_reduce(M, SideCondition(g, bad), (0, 0, 0), E)
            with pytest.raises(ContractViolation, match="modulus must be an integer"):
                select_shift(SideCondition(g, bad))

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

    def test_determinant_cells_must_be_integers(self):
        # int() read 2.5 as 2 and "3" as 3, so these gave 2 and 3
        for grid in ([[2.5, 0], [0, 1]], [["3", 0], [0, 1]], [[3, 0], [0, True]]):
            with pytest.raises(ContractViolation, match="matrix entry must be an integer"):
                integer_determinant(grid)

        class Index:
            def __init__(self, v):
                self.v = v

            def __index__(self):
                return self.v

        assert integer_determinant([[Index(2), 3], [Index(5), Index(7)]]) == -1
        assert integer_determinant([]) == 1
        for grid in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1], [2]]):
            with pytest.raises(ContractViolation, match="non-square grid"):
                integer_determinant(grid)

    # the rows and columns of a hand-built 2 x 2 matrix; a 0.5 cell used to
    # run through Bareiss as a float
    HAND_ROWS = ((0, 0, 0), (1, 0, 0))

    def hand_matrix(self, bad):
        return MonomialMatrix(self.HAND_ROWS, self.HAND_ROWS, ((bad, 1), (1, 2)))

    def test_matrix_cells_must_be_integers(self):
        for bad in (0.5, "3", True):
            with pytest.raises(ContractViolation, match="matrix entry must be an integer"):
                self.hand_matrix(bad)

        class Index:
            def __index__(self):
                return 4

        M = self.hand_matrix(Index())
        assert M.entries == ((4, 1), (1, 2))
        assert {type(x) for row in M.entries for x in row} == {int}
        assert rank_over_rationals(M) == 2

    def test_rank_refuses_non_integer_cells(self):
        # 0.5 used to give rank 2, and "3" a TypeError
        for bad in (0.5, "3", True):
            with pytest.raises(ContractViolation, match="matrix entry must be an integer"):
                rank_over_rationals(self.hand_matrix(bad))

    def test_null_space_refuses_non_integer_cells(self):
        f = P(3, {(2, 0, 0): 1, (0, 0, 0): -1})
        for bad in (0.5, "3", True):
            with pytest.raises(ContractViolation, match="matrix entry must be an integer"):
                null_space_polynomial(self.hand_matrix(bad), f)

    def test_certificates_refuse_non_integer_cells(self):
        # the bad cell sits in a column the certificate replaces, so no
        # minor reads it: only the matrix itself can refuse it
        M, side, _, E = slot_certificate("x2")
        (cert,) = congruence_certificates(M, side, E, samples=0)
        e = next(e for e, mu in cert.multiplicities if mu)
        i = M.cols.index(e)
        j = next(j for j, row in enumerate(M.entries) if abs(row[i]) > 1)
        for bad in (0.5, "3", True):
            entries = [list(row) for row in M.entries]
            entries[j][i] = bad
            with pytest.raises(ContractViolation, match="matrix entry must be an integer"):
                congruence_certificates(MonomialMatrix(M.rows, M.cols, tuple(map(tuple, entries))),
                                        side, E)

    def test_valuation_arguments_must_be_integers(self):
        # p_adic_valuation(8.9, 2.5) used to read as p_adic_valuation(8, 2) = 3
        with pytest.raises(ContractViolation, match="prime p must be an integer"):
            p_adic_valuation(8.9, 2.5)
        with pytest.raises(ContractViolation, match="prime p must be an integer"):
            p_adic_valuation(8, True)
        for bad in self.BAD:
            with pytest.raises(ContractViolation, match="argument n must be an integer"):
                p_adic_valuation(bad, 2)

    def test_indices_exponents_and_bounds_are_checked(self):
        # each call used to return or fail otherwise: variable(3, -1) gave x3
        # and variable(3, True) x2, index -1 read x3, j = 0 divided by zero,
        # j = "3" raised TypeError and a 2.5 or True modulus gave a scale
        x = P.variable(3, 0) + P.variable(3, 2)
        table = [
            (P.variable, (3, -1), "variable index -1 out of range"),
            (P.variable, (3, 3), "variable index 3 out of range"),
            (P.variable, (3, True), "variable index must be an integer"),
            (x.degree_in, (-1,), "variable index -1 out of range"),
            (x.depends_on, (-1,), "variable index -1 out of range"),
            (x.coefficients_in, (-1,), "variable index -1 out of range"),
            (x.partial_derivative, (True,), "variable index must be an integer"),
            (x.partial_derivative, (2.0,), "variable index must be an integer"),
            (prime_power_valuation, (12, 3, 0), "prime exponent j must be at least 1"),
            (prime_power_valuation, (12, 3, "3"), "prime exponent j must be an integer"),
            (quadric_cover_scale, (2.5, 5), "modulus q must be an integer"),
            (quadric_cover_scale, (True, 5), "modulus q must be an integer"),
            (quadric_cover_scale, (5, 2.5), "box B must be an integer"),
            (quadric_cover_scale, (0, 5), "positive modulus and box"),
            # ExactLog.power(5, True) gave log 5 and ("3", 2) raised TypeError;
            # a cutoff over the cap with a 5 000-digit base or power raised
            # ValueError while its message formatted the number
            (ExactLog.power, (5, True), "cutoff power must be an integer, not True"),
            (ExactLog.power, ("3", 2), "cutoff base must be an integer, not '3'"),
            (power_cutoff, (10 ** 5000, 2, (2, 0, 0), BoxBounds(3, 3, 3)),
             r"the cutoff a 16610-bit int\^2 needs over"),
            (power_cutoff, (3, 10 ** 5000, (2, 0, 0), BoxBounds(3, 3, 3)),
             r"the cutoff 3\^a 16610-bit int needs over"),
            # a 5 000-digit prime, exponent, exponent entry, range, twist,
            # variable index, floor constant or coordinate raised ValueError
            # while the refusal formatted it
            (p_adic_valuation, (12, 10 ** 5000), "a 16610-bit int is not prime"),
            (prime_power_valuation, (12, 3, -10 ** 5000),
             "prime exponent j must be at least 1, not a 16610-bit int"),
            (lambda_single, ((10 ** 5000, 0, 0), (0, 0, 0), staircase(3, 4)),
             r"\(a 16610-bit int, 0, 0\) is not a restricted member"),
            (ResidueData, ((10 ** 5000,),), "residue modulus a 16610-bit int is not prime"),
            (UnlikePowersInstance, (10 ** 5000, 5, 3, 2, 5),
             "exponent a 16610-bit int is over the degree cap"),
            (gcd_power_sum, (-0.5, 10 ** 5000, 3), "range X = a 16610-bit int is over the cap"),
            (gcd_power_sum, (-0.5, 10, -10 ** 5000),
             "twist n = a 16610-bit int must be positive"),
            (x.partial_derivative, (10 ** 5000,), "variable index a 16610-bit int out of range"),
            (lambda c: choose_Y(lambda _: True, box=BoxBounds(3, 3, 3), floor_const=c, log_top=1),
             (10 ** 5000,), r"no cutoff n\*log\(3\) with n in \[a 16610-bit int,"),
            (build_matrix, ([(10 ** 5000, 1)], staircase(3, 4)),
             r"point \(a 16610-bit int, 1\) is not a triple"),
        ]
        for fn, args, match in table:
            with pytest.raises(ContractViolation, match=match):
                fn(*args)
        assert P.variable(3, 2) == P(3, {(0, 0, 1): 1})
        assert (x.degree_in(2), x.depends_on(1), x.partial_derivative(2)) == (1, False, P.constant(3, 1))

    def test_extra_subsets_must_be_integers(self):
        f, g, box, pts = rich_instance()
        E = staircase(2, 2)
        M = build_matrix(pts, E)
        ncols = M.shape[1]
        assert M.shape[0] > ncols
        for bad in self.BAD:
            extra = [bad] + list(range(1, ncols))
            with pytest.raises(ContractViolation, match="row index must be an integer"):
                congruence_certificates(M, SideCondition(g, 5), E, extra_subsets=(extra,))


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
        rng = random.Random(1009)
        for _ in range(1000):
            n = rng.randrange(1, 6)
            rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            assert integer_determinant(rows) == cofactor(rows)

    def test_zero_column_short_circuit(self):
        assert integer_determinant([[0, 3], [0, 7]]) == 0
        assert integer_determinant([[0, 1], [1, 0]]) == -1


class TestWronskianDeterminant:
    """wronskian, read off one integer determinant, against the cofactor
    expansion of its matrix of polynomials."""

    @staticmethod
    def expanded(family):
        rows = [family]
        for _ in family[1:]:
            rows.append([p.partial_derivative(0) for p in rows[-1]])
        return cofactor(rows)

    def test_matches_cofactor_expansion(self):
        def R(coeffs):
            return P(1, {(k,): c for k, c in enumerate(coeffs)})

        rng = random.Random(36)
        t = R([0, 1])
        families = []
        for r in range(1, 6):
            for bound in (9, 10 ** 30):
                for _ in range(6):
                    families.append([R([rng.randrange(-bound, bound + 1)
                                        for _ in range(rng.randrange(1, 7))])
                                     for _ in range(r)])
            base = [R([10 ** 30 - rng.randrange(100) for _ in range(r + 1)]) for _ in range(r)]
            families.append(base)  # coefficients near 10^30
            families.append(base[:-1] + [base[0] * 3 - base[-2] * (10 ** 30 + 1)]
                            if r > 1 else [R([0])])  # dependent
            # every entry of degree below r - 1: the last derivative row is zero
            families.append([R([rng.randrange(-9, 10) for _ in range(r - 1)] or [7])
                             for _ in range(r)])
            families.append([t ** k for k in range(r)])  # W = 0! 1! ... (r-1)!
        zero = 0
        for family in families:
            want = self.expanded(family)
            assert wronskian(family) == want, family
            zero += want.is_zero
        # at least the dependent families and those with a zero derivative row
        assert zero >= 9


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
        assert select_shift(SideCondition(g, 5)) == (0, 0, 0)

    def test_falls_back_to_second_axis(self):
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): -1, (0, 0, 0): -20})
        assert select_shift(SideCondition(g, 5)) == (0, 2, 0)

    def test_falls_back_to_third_axis(self):
        g = P(3, {(0, 2, 0): 5, (0, 0, 2): -1, (0, 0, 0): -20})
        assert select_shift(SideCondition(g, 5)) == (0, 0, 2)

    def test_no_admissible_shift(self):
        g = P(3, {(0, 2, 0): 5, (0, 0, 2): -5, (0, 0, 0): -10})
        with pytest.raises(ContractViolation):
            select_shift(SideCondition(g, 5))


class TestCongruenceReduce:
    def test_frozen_lambda_four(self):
        _, g, _, pts = quadric_instance()
        E = staircase(2, 3)
        M = build_matrix(pts, E)
        cert = congruence_reduce(M, SideCondition(g, 5), (0, 0, 0), E)
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
        cert = congruence_reduce(M, SideCondition(g, 5), (0, 0, 0), E)
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
            M, SideCondition(g, q), (0, 2, 0), E,
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
        cert = congruence_reduce(
            M, SideCondition(g, 5), (0, 0, 0), E, samples=16, rng=random.Random(7)
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
            congruence_reduce(M, SideCondition(g, 6), (0, 0, 0), E)

    def test_non_unit_coefficient_rejected(self):
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -5})
        pts = [(0, 0, 0), (0, 1, 2), (0, 2, 1)]
        assert all(g.evaluate(p) % 5 == 0 for p in pts)
        E = staircase(2, 3)
        M = build_matrix(pts, E)
        with pytest.raises(ContractViolation, match="not a unit"):
            congruence_reduce(M, SideCondition(g, 5), (0, 0, 0), E)

    def test_violating_point_named(self):
        _, g, _, pts = quadric_instance()
        bad = (1, 1, 1)
        E = staircase(2, 3)
        M = build_matrix(list(pts) + [bad], E)
        with pytest.raises(ContractViolation, match=r"\(1, 1, 1\)"):
            congruence_reduce(M, SideCondition(g, 5), (0, 0, 0), E)

    def test_negative_sample_count_rejected(self):
        # -3 used to sample no subsets and check the identity subset alone
        f, g, box, pts = rich_instance()
        E = staircase(13, 2)
        M = build_matrix(pts, E)
        for bad in (-3, -1, 2.5, True):
            with pytest.raises(ContractViolation, match="minor sample count"):
                congruence_reduce(M, SideCondition(g, 5), (0, 0, 0), E, samples=bad)
            for q in (5, 1):
                with pytest.raises(ContractViolation, match="minor sample count"):
                    congruence_certificates(M, SideCondition(g, q), E, samples=bad)
            with pytest.raises(ContractViolation, match="minor sample count"):
                aux_pipeline(f, SideCondition(g, 5), box, None, 0.5, pts, minor_samples=bad)
        cert = congruence_reduce(M, SideCondition(g, 5), (0, 0, 0), E, samples=0)
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
        quadric = QuadricInstance(3, 1, 1, 1001, 16)
        for bad in (MINOR_SAMPLE_CAP + 1, 10 ** 8):
            with pytest.raises(ContractViolation, match="minor sample count"):
                congruence_reduce(M, SideCondition(g, 5), (0, 0, 0), E, samples=bad)
            for q in (5, 1):
                with pytest.raises(ContractViolation, match="minor sample count"):
                    congruence_certificates(M, SideCondition(g, q), E, samples=bad)
            with pytest.raises(ContractViolation, match="minor sample count"):
                aux_pipeline(f, SideCondition(g, 5), box, None, 0.5, pts, minor_samples=bad)
            with pytest.raises(ContractViolation, match="minor sample count"):
                count_quadric(quadric, "pipeline", minor_samples=bad)
        # at the cap, sampling starts
        with pytest.raises(Sampled):
            congruence_reduce(M, SideCondition(g, 5), (0, 0, 0), E, samples=MINOR_SAMPLE_CAP)

    def test_first_axis_shift_rejected(self):
        _, g, _, pts = quadric_instance()
        E = staircase(2, 3)
        M = build_matrix(pts, E)
        with pytest.raises(ContractViolation):
            congruence_reduce(M, SideCondition(g, 5), (1, 0, 0), E)

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
            congruence_reduce(M, SideCondition(g, 5), t, E)


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
        certs = congruence_certificates(M, SideCondition(g, 15), E, rng=random.Random(11))
        assert len(certs) == 2
        assert [c.prime for c in certs] == [3, 5]
        assert all(c.base_modulus in (3, 5) for c in certs)
        divisor = math.prod(c.certified_divisor for c in certs)
        for m in certs[0].checked_minors:
            if not m.determinant_zero:
                delta = minor_determinant(M, m.rows)
                assert delta % divisor == 0

    @staticmethod
    def exact_zero_instance():
        """Points where g = x2^2 + x3^2 - 26 vanishes, so under every modulus."""
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -26})
        pts = [(x1, x2, x3) for x1 in range(-6, 7) for x2 in (-5, -1, 1, 5)
               for x3 in (-5, -1, 1, 5) if x2 * x2 + x3 * x3 == 26]
        E = staircase(6, 2)
        return build_matrix(pts, E), g, E

    @pytest.mark.parametrize("q", (5, 15, 405, 2 ** 61 - 1))
    def test_the_modulus_is_factored_once(self, monkeypatch, q):
        # each congruence_reduce used to factor its prime power again
        import detsieve.arith

        calls = []

        def spy(n, real=detsieve.arith.factorize):
            calls.append(n)
            return real(n)

        for module in (determinant, detsieve.arith):
            monkeypatch.setattr(module, "factorize", spy)
        M, g, E = self.exact_zero_instance()
        certs = congruence_certificates(M, SideCondition(g, q), E, samples=2)
        assert calls == [q]
        assert math.prod(c.base_modulus for c in certs) == q

    def test_two_primes_past_the_trial_division_cap_are_no_prime_power(self):
        # factoring 1000003 * 1000033 used to be refused (CapExceeded)
        M, g, E = self.exact_zero_instance()
        with pytest.raises(ContractViolation, match="is not a prime power") as raised:
            congruence_reduce(M, SideCondition(g, 1000003 * 1000033), (0, 0, 0), E)
        assert not isinstance(raised.value, CapExceeded)

    def test_unit_modulus_no_certificates(self):
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        E = staircase(2, 2)
        M = build_matrix([(0, 1, 0)], E)
        assert congruence_certificates(M, SideCondition(g, 1), E) == ()


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
        aux = _kernel_polynomial(M.rows, M.cols, f, pivot_cols, echelon)
        assert aux.poly.terms == {(0, 0, 0): 233, (0, 2, 0): -1, (0, 0, 2): -1}
        for cut in (free, free - 1):
            short = [row[:cut] for row in echelon]
            with pytest.raises(SoundnessError, match="first free column"):
                _kernel_polynomial(M.rows, M.cols, f, pivot_cols, short)

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


class TestKernelPrefix:
    """The kernel read off the columns up to the first free one, from the
    staircase's prefix, against the kernel over the whole built matrix."""

    @staticmethod
    def kernels(pts, E, f):
        M = build_matrix(pts, E)
        rank, pivot_cols, _, echelon = _row_reduce(M.entries)
        whole = _kernel_polynomial(M.rows, M.cols, f, pivot_cols, echelon)
        # as the pipeline reads it: lazy rows over a fresh set, then its prefix
        lazy = build_exponent_set(E.cutoff, E.dominant, E.box)
        rank, pivot_cols, _, echelon = _row_reduce(lazy_rows(pts, lazy))
        prefix = _kernel_polynomial(tuple(pts), lazy.prefix(rank + 1), f, pivot_cols, echelon)
        return whole, prefix, lazy

    def test_cover_b16(self):
        quadric = QuadricInstance(3, 1, 1, 1001, 16)
        rep = count_quadric(quadric, "pipeline").report
        (cls,) = rep.classes
        whole, prefix, lazy = self.kernels(cls.points, rep.exponent_set, quadric.surface())
        assert prefix == whole
        assert prefix.poly.terms == {(0, 0, 0): 233, (0, 2, 0): -1, (0, 0, 2): -1}
        assert "members" not in vars(lazy)

    def test_random_wide_grids(self):
        rng = random.Random(3708)
        f = P(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -7})
        seen = 0
        while seen < 60:
            box = BoxBounds(*(rng.randint(2, 9) for _ in range(3)))
            m = rng.choice(((2, 0, 0), (0, 0, 3), (1, 1, 0), (0, 2, 1)))
            E = build_exponent_set(ExactLog(rng.randint(2, 10 ** 5)), m, box)
            nrows = rng.randint(1, 12)
            if nrows >= len(E):
                continue
            pts = [tuple(rng.randint(-b, b) for b in box.bounds) for _ in range(nrows)]
            whole, prefix, _ = self.kernels(pts, E, f)
            assert prefix == whole, (box, m, E.cutoff, pts)
            seen += 1

    @staticmethod
    def benchmark_walks(monkeypatch):
        """Per uncertified benchmark op: the most members one of its walks
        may visit, and the members each of its walks visits, counted as the
        steps of _members_below's e3 loop, not as the members it returns."""
        walks = []
        real = detsieve.exponents._members_below
        lines, first = inspect.getsourcelines(real)
        (step,) = [first + i for i, text in enumerate(lines) if "h *= b3" in text]

        def count_steps(frame, event, arg):
            if event == "line" and frame.f_lineno == step:
                walks[-1] += 1
            return count_steps

        def walk(*args):
            walks.append(0)
            outer = sys.gettrace()
            sys.settrace(lambda frame, event, arg:
                         count_steps if frame.f_code is real.__code__ else None)
            try:
                members = real(*args)
            finally:
                sys.settrace(outer)
            assert len(members) == walks[-1]
            return members

        monkeypatch.setattr(detsieve.exponents, "_members_below", walk)

        def surface(a1, n, q, box, residues=()):
            f = P(3, {(2, 0, 0): a1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -n})
            g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -n})
            box = BoxBounds(*box)
            pts = enumerate_points(f, SideCondition(g, q), box)
            return aux_pipeline(f, SideCondition(g, q), box, ResidueData(residues), 0.5,
                                list(pts))

        runs = {
            "cover-B16": (lambda: count_quadric(QuadricInstance(3, 1, 1, 1001, 16),
                                                "pipeline").report, 484, 100),
            "cover-B17": (lambda: count_quadric(QuadricInstance(3, 1, 1, 1001, 17),
                                                "pipeline").report, 529, 100),
            "aux-B30-p5-p7": (lambda: surface(3, 1001, 3, (30, 30, 30), (5, 7)), 121, 10),
            "aux-grid-12-20-30": (lambda: surface(5, 6, 5, (12, 20, 30)), 1443, 100),
        }
        out = {}
        for name, (go, size, most) in runs.items():
            del walks[:]
            rep = go()
            assert rep.set_size == size
            assert all(c.certificates == () for c in rep.classes)
            assert "members" not in vars(rep.exponent_set)
            out[name] = (most, list(walks))
        return out

    def test_benchmark_classes_walk_only_a_prefix(self, monkeypatch):
        # the largest walk of each uncertified benchmark class, never the
        # full staircase: 59 of 1 443, 81 of 484 and 529, 4 of 121
        for name, (most, walks) in self.benchmark_walks(monkeypatch).items():
            assert walks and max(walks) < most, (name, walks)

    def test_a_taller_prefix_walks_only_its_band(self, monkeypatch):
        # each taller prefix visits only the band above the last one, so the
        # visits total the longest prefix: 81 on cover-B16 (25 then 56, not
        # 25 + 81) and 59 on aux-grid (17 then 42, not 17 + 59)
        walks = self.benchmark_walks(monkeypatch)
        assert sum(walks["cover-B16"][1]) == 81
        assert sum(walks["aux-grid-12-20-30"][1]) == 59
        assert len(walks["cover-B16"][1]) == len(walks["aux-grid-12-20-30"][1]) == 2


class TestAuxPipeline:
    def test_standard_branch_emits_cover(self):
        f, g, box, pts = quadric_instance()
        rep = aux_pipeline(f, SideCondition(g, 5), box, ResidueData(()), 0.5, pts, floor_const=10)
        assert rep.branch == "standard"
        assert rep.hypothesis_route == "constant-term"
        assert [c.outcome for c in rep.classes] == ["aux"]
        assert [a.role for a in rep.auxiliaries] == ["class-cover", "singular-cover"]
        assert rep.set_size == 121
        assert rep.coverage_complete
        assert rep.leftover == ()
        assert [c.falsification for c in rep.classes] == [None]
        cover = rep.auxiliaries[0]
        for pt in pts:
            assert cover.poly.evaluate(pt) == 0

    def test_unequal_box_cutoff_on_the_53_bit_grid(self):
        # grids after the first start from the doubled start rounded to 53
        # bits; at 96 bits this cutoff would be ...886887789... instead
        f, g, _, _ = quadric_instance()
        box = BoxBounds(12, 20, 30)
        pts = enumerate_points(f, SideCondition(g, 5), box)
        rep = aux_pipeline(f, SideCondition(g, 5), box, ResidueData(()), 0.5, pts)
        assert rep.cutoff.height == 353265586727888747578466418333164285171073024
        assert rep.set_size == 1443

    def test_negative_floor_constant_refused_for_every_box_shape(self):
        f, g, _, _ = quadric_instance()
        for box in (BoxBounds(12, 20, 30), BoxBounds(12, 12, 12)):
            pts = enumerate_points(f, SideCondition(g, 5), box)
            with pytest.raises(ContractViolation, match="floor constant must be nonnegative"):
                aux_pipeline(f, SideCondition(g, 5), box, ResidueData(()), 0.5, pts,
                             floor_const=-1)

    def test_singular_cover_is_partial_derivative(self):
        f, g, box, pts = quadric_instance()
        rep = aux_pipeline(f, SideCondition(g, 5), box, ResidueData(()), 0.5, pts, floor_const=10)
        last = rep.auxiliaries[-1]
        assert last.role == "singular-cover"
        assert last.poly.terms in (
            f.partial_derivative(i).terms for i in range(3)
        )

    def test_falsified_branch_reports_exact_minor(self):
        f, g, box, pts = rich_instance()
        rep = aux_pipeline(
            f, SideCondition(g, 5), box, ResidueData(()), 0.5, pts,
            scale_override=2, floor_const=2,
        )
        assert [c.outcome for c in rep.classes] == ["falsified"]
        assert rep.set_size == 9
        (cls,) = rep.classes
        rec = cls.falsification
        assert rec is not None
        assert rec.determinant != 0
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
            f, SideCondition(g, 5), box, ResidueData(()), 0.5, pts, scale_override=0.5
        )
        assert rep.branch == "single-cover"
        assert len(rep.classes) == 1
        assert rep.coverage_complete

    @pytest.mark.parametrize("primes", ((3,), (3, 7)))
    def test_single_cover_keeps_one_class_whatever_the_primes(self, primes):
        # at threshold <= 1 one class covers every point, so the caller's
        # primes split nothing and leave r = 1, yet are still reported
        f, g, box, pts = rich_instance()
        rep = aux_pipeline(
            f, SideCondition(g, 5), box, ResidueData(primes), 0.5, pts, scale_override=0.5
        )
        assert rep.branch == "single-cover"
        assert rep.residue_primes == primes
        assert rep.residue_product == 1
        assert [c.label for c in rep.classes] == [()]
        assert len(pts) == 32
        assert rep.classes[0].points == tuple(sorted(pts))
        assert rep.coverage_complete

    @pytest.mark.parametrize("kwargs, message", (
        ({"epsilon": "0.5"}, "epsilon must be positive and finite"),
        ({"epsilon": True}, "epsilon must be positive and finite"),
        ({"scale_override": "2"}, "scale override must be a finite number"),
        ({"scale_override": True}, "scale override must be a finite number"),
        ({"floor_const": "3"}, "floor constant must be an integer"),
        ({"floor_const": 2.5}, "floor constant must be an integer"),
        ({"floor_const": True}, "floor constant must be an integer"),
    ), ids=("epsilon-str", "epsilon-bool", "scale-str", "scale-bool", "floor-str",
            "floor-float", "floor-bool"))
    def test_numeric_options_refused_by_one_rule(self, kwargs, message):
        # the strings used to raise a bare TypeError, 2.5 to say "height must
        # be an integer" and True to be taken, recorded as floor_constant True
        f, g, box, pts = quadric_instance()
        args = {"epsilon": 0.5, **kwargs}
        epsilon = args.pop("epsilon")
        with pytest.raises(ContractViolation, match=message):
            aux_pipeline(f, SideCondition(g, 5), box, None, epsilon, pts, **args)

    def test_scale_override_must_be_finite(self):
        f, g, box, pts = rich_instance()
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ContractViolation, match="scale override must be a finite"):
                aux_pipeline(f, SideCondition(g, 5), box, ResidueData(()), 0.5, pts,
                             scale_override=bad)

    def test_residue_split_classes(self):
        f, g, box, pts = quadric_instance()
        rep = aux_pipeline(f, SideCondition(g, 5), box, ResidueData((3,)), 0.5, pts,
                           floor_const=10)
        assert rep.residue_product == 3
        assert len(rep.classes) == 8
        covered = set()
        for cls in rep.classes:
            covered.update(cls.points)
        assert covered == set(pts)
        assert rep.coverage_complete

    def test_coverage_check_evaluates_about_once_per_point(self, monkeypatch):
        # the aux-B30-p5-p7 benchmark op: 96 one-point classes and 97
        # auxiliaries.  Each kernel is checked once at its class point when
        # it is extracted and once more by the coverage check, which tries a
        # point's own kernel first; trying every auxiliary in turn took 2 000
        f = P(3, {(2, 0, 0): 3, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -1001})
        side = SideCondition(f - P(3, {(2, 0, 0): 3}), 3)
        box = BoxBounds(30, 30, 30)
        pts = enumerate_points(f, side, box)
        calls = []
        real = P.evaluate

        def spy(poly, pt):
            calls.append((poly, tuple(pt)))  # keeps every poly alive
            return real(poly, pt)

        monkeypatch.setattr(P, "evaluate", spy)
        rep = aux_pipeline(f, side, box, ResidueData((5, 7)), 0.5, pts)
        assert (len(pts), len(rep.classes), len(rep.auxiliaries)) == (96, 96, 97)
        assert rep.coverage_complete
        on_points = set(pts)
        aux = {id(a.poly) for a in rep.auxiliaries}
        evaluations = sum(1 for poly, pt in calls if id(poly) in aux and pt in on_points)
        assert evaluations <= 2 * len(pts)

    def test_uncovered_point_leaves_coverage_incomplete(self, monkeypatch):
        # 8 one-point classes of 5 x1^2 + x2^2 + x3^2 = 6, each x1 = +-1, so
        # the singular cover 10 x1 vanishes at none of them
        f, g, box, pts = quadric_instance()
        real = determinant._kernel_polynomial
        wrong = []  # the classes whose kernel is replaced by the constant 1

        def kernel(points, *args):
            aux = real(points, *args)
            if points[0] in wrong:
                return AuxiliaryPolynomial(P.constant(3, 1), points, True)
            return aux

        monkeypatch.setattr(determinant, "_kernel_polynomial", kernel)

        def run():
            return aux_pipeline(f, SideCondition(g, 5), box, ResidueData((3,)), 0.5, pts,
                                floor_const=10)

        assert run().coverage_complete
        # one class's own kernel misses its point, but another class's
        # kernel still covers it: (1, 0, 1) lies on 1 - x3, the kernel of
        # (-1, 0, 1) too
        rep = run()
        first = rep.classes[0].points[0]
        assert any(a.poly.evaluate(first) == 0 for a in rep.auxiliaries[1:-1])
        wrong.append(first)
        assert run().coverage_complete
        # no kernel vanishes anywhere: every point escapes
        wrong[:] = pts
        rep = run()
        assert len(rep.classes) == 8 and rep.leftover == ()
        assert all(rep.auxiliaries[-1].poly.evaluate(pt) != 0 for pt in pts)
        assert not rep.coverage_complete

    def test_constant_term_hypothesis_enforced(self):
        f, _, _, _ = quadric_instance()
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -5})
        with pytest.raises(HypothesisViolation):
            aux_pipeline(f, SideCondition(g, 5), BoxBounds(2, 2, 3), ResidueData(()), 0.5, [])

    def test_equal_box_top_degree_route(self):
        f, _, box, pts = quadric_instance()
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -5})
        kept = [p for p in pts if g.evaluate(p) % 5 == 0]
        rep = aux_pipeline(f, SideCondition(g, 5), box, ResidueData(()), 0.5, kept, floor_const=10)
        assert rep.hypothesis_route == "top-degree"

    def test_residue_prime_dividing_modulus_rejected(self):
        f, g, box, pts = quadric_instance()
        with pytest.raises(HypothesisViolation):
            aux_pipeline(f, SideCondition(g, 5), box, ResidueData((5,)), 0.5, pts)

    def test_off_surface_point_rejected(self):
        f, g, box, _ = quadric_instance()
        with pytest.raises(ContractViolation):
            aux_pipeline(f, SideCondition(g, 5), box, ResidueData(()), 0.5, [(1, 1, 1)])

    def test_builds_the_staircase_once(self, monkeypatch):
        # one set per run, whose members are walked only as far as the
        # classes read them: an uncertified class walks prefixes, each below
        # the cutoff, and only a certified class runs the full walk
        built, walks = [], []

        def counting(*args, **kwargs):
            E = build_exponent_set(*args, **kwargs)
            built.append(E)
            return E

        real_walk = detsieve.exponents._members_below

        def walk(T, *args):
            walks.append(T)
            return real_walk(T, *args)

        for module in (detsieve.determinant, detsieve.exponents):
            monkeypatch.setattr(module, "build_exponent_set", counting)
        monkeypatch.setattr(detsieve.exponents, "_members_below", walk)
        f, g, box, pts = quadric_instance()
        uneven = BoxBounds(2, 2, 3)
        uneven_pts = enumerate_points(f, SideCondition(g, 5), uneven)
        # powers; the first log grid; the second log grid
        for b, p, kw in ((box, pts, {"floor_const": 10}),
                         (uneven, uneven_pts, {"floor_const": 10}),
                         (uneven, uneven_pts, {"floor_const": 10, "scale_override": 40})):
            built.clear()
            walks.clear()
            rep = aux_pipeline(f, SideCondition(g, 5), b, ResidueData(()), 0.5, p, **kw)
            assert built == [rep.exponent_set]
            assert rep.set_size == staircase_size(rep.cutoff, rep.params.dominant, b)
            assert all(c.certificates == () for c in rep.classes)
            assert walks and all(T < rep.cutoff.height for T in walks)
            assert "members" not in vars(rep.exponent_set)
        # a certified class reads every cell, so it runs the one full walk
        f, g, box, pts = rich_instance()
        built.clear()
        walks.clear()
        rep = aux_pipeline(f, SideCondition(g, 5), box, ResidueData(()), 0.5, pts,
                           scale_override=2, floor_const=2)
        (cls,) = rep.classes
        assert cls.certificates
        assert built == [rep.exponent_set]
        assert walks.count(rep.cutoff.height) == 1
        # no points: the report still carries the set, with nothing walked
        f, g, box, pts = point_free_instance()
        assert not pts
        built.clear()
        walks.clear()
        rep = aux_pipeline(f, SideCondition(g, 5), box, ResidueData(()), 0.5, pts, floor_const=10)
        assert built == [rep.exponent_set]
        assert walks == []
        assert rep.classes == ()
        assert rep.set_size == staircase_size(rep.cutoff, rep.params.dominant, box)
        assert rep.set_size == len(rep.exponent_set)

    def test_a_staircase_off_the_searched_size_is_a_soundness_error(self, monkeypatch):
        # |E(Y)| is read from the search's counts, and every walk from its
        # count at its height: a set of another size, or a walk that drops a
        # member, is unsound, whether the walk is a prefix or the full one
        def smaller(cutoff, m, box):
            return build_exponent_set(ExactLog(cutoff.height // 2), m, box)

        f, g, box, pts = quadric_instance()
        with monkeypatch.context() as patch:
            patch.setattr(determinant, "build_exponent_set", smaller)
            with pytest.raises(SoundnessError, match="the staircase holds"):
                aux_pipeline(f, SideCondition(g, 5), box, ResidueData(()), 0.5, pts,
                             floor_const=10)

        real_walk = detsieve.exponents._members_below
        monkeypatch.setattr(detsieve.exponents, "_members_below",
                            lambda *args: real_walk(*args)[:-1])
        # prefix walks only: the class is uncertified
        with pytest.raises(SoundnessError, match="the staircase holds"):
            aux_pipeline(f, SideCondition(g, 5), box, ResidueData(()), 0.5, pts,
                         floor_const=10)
        # the full walk: a certified class reads every member first
        f, g, box, pts = rich_instance()
        with pytest.raises(SoundnessError, match="the staircase holds"):
            aux_pipeline(f, SideCondition(g, 5), box, ResidueData(()), 0.5, pts,
                         scale_override=2, floor_const=2)
        E = build_exponent_set(ExactLog.power(13, 4), (2, 0, 0), box)
        with pytest.raises(SoundnessError, match="the staircase holds"):
            E.prefix(3)
        with pytest.raises(SoundnessError, match="the staircase holds"):
            E.members

    def test_deterministic_across_seeds_for_structure(self):
        f, g, box, pts = quadric_instance()
        a = aux_pipeline(f, SideCondition(g, 5), box, ResidueData(()), 0.5, pts, floor_const=10,
                         seed=1)
        b = aux_pipeline(f, SideCondition(g, 5), box, ResidueData(()), 0.5, pts, floor_const=10,
                         seed=9)
        assert [c.outcome for c in a.classes] == [c.outcome for c in b.classes]
        assert a.auxiliaries[0].poly.terms == b.auxiliaries[0].poly.terms


class TestAuxColumnCap:
    """aux_pipeline refuses a chosen cutoff over COLUMN_CAP columns once the
    search ends, before it builds anything."""

    BOX = BoxBounds(5, 5, 5)

    def x1_tenth(self, c, s):
        """x1^10 + x2^2 + x3^2 = -c with x2^2 + x3^2 = -s mod 5."""
        f = P(3, {(10, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): c})
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): s})
        return f, g, list(enumerate_points(f, SideCondition(g, 5), self.BOX))

    @pytest.mark.parametrize("c, s, count", ((-3, -2, 8), (-7, -7, 0)))
    def test_equal_box_over_the_cap_refused_before_any_build(self, monkeypatch, c, s, count):
        def never(*args):
            raise AssertionError("built a staircase")

        monkeypatch.setattr(determinant, "build_exponent_set", never)
        f, g, pts = self.x1_tenth(c, s)
        assert len(pts) == count
        with pytest.raises(CapExceeded, match="needs 1210360 staircase columns"):
            aux_pipeline(f, SideCondition(g, 5), self.BOX, None, 0.5, pts, scale_override=1100)

    @pytest.mark.parametrize("instance", (quadric_instance, point_free_instance))
    def test_cap_at_the_chosen_size_keeps_the_report(self, monkeypatch, instance):
        f, g, box, pts = instance()
        want = aux_pipeline(f, SideCondition(g, 5), box, None, 0.5, pts)
        monkeypatch.setattr(detsieve.exponents, "COLUMN_CAP", want.set_size)
        assert aux_pipeline(f, SideCondition(g, 5), box, None, 0.5, pts) == want
        monkeypatch.setattr(detsieve.exponents, "COLUMN_CAP", want.set_size - 1)
        with pytest.raises(CapExceeded, match=f"needs {want.set_size} staircase"):
            aux_pipeline(f, SideCondition(g, 5), box, None, 0.5, pts)


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


# -- the square stop: a determinant gives a singular grid up early ----------------


def square_grids():
    """Seeded n x n grids for n = 1..12: a dense grid; for every position,
    the grid with that row a combination of the other rows, and with that
    row zero; two equal rows; and rows proportional to the first."""
    rng = random.Random(35)
    out = []
    for n in range(1, 13):
        bits = 90 if n % 4 == 3 else 6
        base = [[rng.randrange(-(2**bits), 2**bits + 1) for _ in range(n)] for _ in range(n)]
        out.append(base)
        for k in range(n):
            coeffs = [rng.randrange(-3, 4) for _ in range(n)]
            dependent = [list(r) for r in base]
            dependent[k] = [sum(c * base[i][j] for i, c in enumerate(coeffs) if i != k)
                            for j in range(n)]
            zero = [list(r) for r in base]
            zero[k] = [0] * n
            out += [dependent, zero]
        if n > 1:
            i, j = rng.sample(range(n), 2)
            equal = [list(r) for r in base]
            equal[j] = list(base[i])
            scaled = [list(r) for r in base]
            for i in rng.sample(range(1, n), rng.randrange(1, n)):
                scaled[i] = [rng.choice((-5, -1, 2, 7)) * x for x in base[0]]
            out += [equal, scaled]
    return out


def spliced(rng, n, bits):
    """A dense n x n grid, n >= 3, whose row 1 is twice row 0 plus a
    multiple of the last unit row: after the first step row 1 is zero on
    every column but the last, so the scan meets it with a zero cell at
    column 1 and a nonzero cell after it."""
    rows = [[rng.randrange(-(2**bits), 2**bits + 1) | 1 for _ in range(n)] for _ in range(n)]
    rows[1] = [2 * x for x in rows[0]]
    rows[1][-1] += rng.choice((-3, 1, 4))
    return rows


class TestSquareStop:
    def test_square_grids_cover_the_cases(self):
        grids = square_grids()
        dets = [fraction_determinant(g) for g in grids]
        assert {len(g) for g in grids} == set(range(1, 13))
        assert sum(d == 0 for d in dets) > 100 and sum(d != 0 for d in dets) >= 12
        assert any(abs(v).bit_length() > 80 for g in grids for row in g for v in row)

    def test_determinant_matches_fraction_elimination(self):
        for grid in square_grids():
            n = len(grid)
            det = integer_determinant(grid)
            assert det == fraction_determinant(grid), grid
            stopped = _row_reduce(grid, square=True)
            if det:
                # a nonsingular grid never stops: every result is the full one
                assert stopped == _row_reduce(grid)
            else:
                assert stopped[0] < n
            # without the flag the elimination runs to the end
            rank = assert_matches_reference(grid)
            assert rank_over_rationals(grid_matrix(grid)) == rank

    def test_stops_at_the_first_dependent_row(self):
        # row k is a combination of the rows before it; with 60-bit rows no
        # minor vanishes by chance, so pivots 0..k-1 come from rows 0..k-1
        rng = random.Random(1550)
        for n in range(1, 13):
            for k in range(n):
                grid = [[rng.randrange(-(2**60), 2**60 + 1) for _ in range(n)]
                        for _ in range(n)]
                coeffs = [rng.choice((-2, -1, 1, 3)) for _ in range(k)]
                grid[k] = [sum(c * grid[i][j] for i, c in enumerate(coeffs))
                           for j in range(n)]
                rank, pivot_cols, pivot_rows, _ = _row_reduce(grid, square=True)
                assert (rank, pivot_cols, pivot_rows) == (k, list(range(k)), list(range(k)))
                assert integer_determinant(grid) == 0
                assert _row_reduce(grid)[0] == n - 1

    def test_zero_cell_before_a_nonzero_tail_does_not_stop(self):
        small = [[1, 2, 3], [2, 4, 7], [0, 1, 0]]
        assert integer_determinant(small) == fraction_determinant(small) == -1
        assert _row_reduce(small, square=True) == _row_reduce(small)
        rng = random.Random(7)
        nonsingular = 0
        for n in range(3, 13):
            for bits in (5, 70):
                grid = spliced(rng, n, bits)
                # row 1 after the first step: zero but for its last cell
                step = [x * grid[0][0] - grid[1][0] * y for x, y in zip(grid[1], grid[0])]
                assert not any(step[:-1]) and step[-1]
                det = integer_determinant(grid)
                assert det == fraction_determinant(grid)
                if det:
                    nonsingular += 1
                    assert _row_reduce(grid, square=True) == _row_reduce(grid)
        assert nonsingular >= 15

    def test_rank_and_kernel_run_the_full_elimination(self):
        # square singular monomial matrices: the stop would report a lower
        # rank, so rank_over_rationals and null_space_polynomial must not take it
        f = P(3, {(2, 0, 0): 3, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -1001})
        rng = random.Random(2718)
        lower = 0
        for trial in range(40):
            E = staircase(2, 3) if trial % 2 else staircase(3, 2)
            n = len(E)
            if trial % 4 < 2:
                # repeated points: a dependent row at a seeded position
                pts = [tuple(rng.randrange(-9, 10) for _ in range(3)) for _ in range(n)]
                for _ in range(1 + trial % 3):
                    i, j = sorted(rng.sample(range(n), 2))
                    pts[j] = pts[i]
            else:
                # a plane x1 = 0 zeroes every column with x1 in it
                pts = [(0, rng.randrange(-5, 6), rng.randrange(-5, 6)) for _ in range(n)]
            M = build_matrix(pts, E)
            assert M.shape == (n, n)
            want = reference_row_reduce(M.entries)[0]
            assert want < n
            assert integer_determinant(M.entries) == 0
            assert rank_over_rationals(M) == want
            assert null_space_polynomial(M, f).poly.terms == reference_kernel_terms(M)
            lower += _row_reduce(M.entries, square=True)[0] < want
        assert lower >= 10


# -- certificates: one whole-matrix identity, one determinant per minor ----------


# the benchmark's certify ops: a1 x1^2 + a2 x2^2 + a3 x3^2 = n with side
# g = f - a1 x1^2 mod q, box B^3 and cutoff B^power
BENCHMARK_CERTIFY = {
    "certify-Y16^12": ((3, 1, 1), 1001, 3, 16, 12),
    "certify-q7-B25": ((7, 1, -1), 7, 7, 25, 4),
    "certify-q9-B35": ((9, 1, -1), 9, 9, 35, 4),
}


def diagonal_certify(a, n, q, B, power):
    """(M, side, E) as ``detsieve certify`` builds them for a diagonal quadric."""
    a1, a2, a3 = a
    f = P(3, {(2, 0, 0): a1, (0, 2, 0): a2, (0, 0, 2): a3, (0, 0, 0): -n})
    g = P(3, {(0, 2, 0): a2, (0, 0, 2): a3, (0, 0, 0): -n})
    box = BoxBounds(B, B, B)
    E = build_exponent_set(ExactLog.power(B, power), max_exponent(f, box), box)
    side = SideCondition(g, q)
    pts = enumerate_points(f, side, box)
    return build_matrix(list(pts), E), side, E


class TestBenchmarkCertifyMatrices:
    @pytest.mark.parametrize("name", sorted(BENCHMARK_CERTIFY))
    def test_cells_and_lazy_slices_match_eval_monomial(self, name, monkeypatch):
        # 16 x 169, 330 x 25 and 480 x 25: the transpose at full size, and
        # every slice the elimination takes of the lazy rows over it
        M, _, E = diagonal_certify(*BENCHMARK_CERTIFY[name])
        assert M.entries == tuple(tuple(eval_monomial(p, e) for e in E.members) for p in M.rows)
        calls = []
        real = determinant._ValueColumns.__call__
        monkeypatch.setattr(determinant._ValueColumns, "__call__",
                            lambda values, e: calls.append(e) or real(values, e))
        rows = lazy_rows(M.rows, E)
        for s in frontier_slices(*M.shape):
            assert [row[s] for row in rows] == [list(entries[s]) for entries in M.entries]
        # the first row to read a slice reads its columns, the rest copy
        # their entry: one read per column, one more for each lower column
        assert len(calls) <= 2 * M.shape[1]


def certificate_corpus():
    """Seeded tall diagonal-quadric certificates with a nonzero sampled minor."""
    rng = random.Random(2026)
    out = []
    while len(out) < 24:
        q = rng.choice((2, 3, 4, 5, 7, 8, 9, 12, 25))
        a = tuple(rng.choice((-3, -2, -1, 1, 2, 3, 5)) for _ in range(3))
        n, B, power = rng.randint(-60, 60), rng.randint(5, 12), rng.choice((2, 3))
        try:
            M, side, E = diagonal_certify(a, n, q, B, power)
        except ContractViolation:  # no points
            continue
        if not len(E) <= M.shape[0] or len(E) > 20:
            continue
        try:
            certs = congruence_certificates(
                M, side, E, samples=6, rng=random.Random(len(out))
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
    """(M, side, t, E) of a certificate on the constant, x2^2 or x3^2 slot."""
    if slot == "constant":
        _, g, _, pts = quadric_instance()
        E = staircase(2, 3)
        return build_matrix(pts, E), SideCondition(g, 5), (0, 0, 0), E
    # g = x2^2 - x3^2 - 20: both pure top-degree coefficients are units mod 5
    q, c = 5, 2
    g = P(3, {(0, 2, 0): 1, (0, 0, 2): -1, (0, 0, 0): -q * c * c})
    f = g + P(3, {(2, 0, 0): q})
    pts = enumerate_points(f, SideCondition(g, q), BoxBounds(4, 4, 4))
    E = staircase(4, 3)
    t = (0, 2, 0) if slot == "x2" else (0, 0, 2)
    return build_matrix(pts, E), SideCondition(g, q), t, E


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
        M, side, E = diagonal_certify(*BENCHMARK_CERTIFY[name])
        (cert,) = congruence_certificates(M, side, E, rng=random.Random(3))
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
        M, side, E = diagonal_certify(*BENCHMARK_CERTIFY["certify-q7-B25"])
        ncols = M.shape[1]
        for bad in ([0, 0] + list(range(2, ncols)), [5] * ncols):
            with pytest.raises(ContractViolation, match="distinct rows"):
                congruence_certificates(M, side, E, samples=0, extra_subsets=(bad,))
        (cert,) = congruence_certificates(M, side, E, samples=0,
                                          extra_subsets=(range(1, ncols + 1),))
        assert [m.rows for m in cert.checked_minors] == [
            tuple(range(ncols)), tuple(range(1, ncols + 1))]

    def test_one_determinant_per_sampled_minor(self, monkeypatch):
        M, side, E = diagonal_certify(*BENCHMARK_CERTIFY["certify-q7-B25"])
        calls = spy_determinants(monkeypatch, M)
        (cert,) = congruence_certificates(M, side, E, rng=random.Random(3))
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
        cert = congruence_reduce(M, SideCondition(g, 5), (0, 0, 0), E, samples=4)
        assert cert.checked_minors
        assert all(m.determinant_zero for m in cert.checked_minors)
        assert calls == {"A": 0, "R": len(cert.checked_minors), "M": 0}

    @staticmethod
    def rich_certificate():
        _, g, box, pts = rich_instance()
        E = staircase(13, 2)
        M = build_matrix(pts, E)
        return M, g, E

    def reduce(self, M, g, E):
        return congruence_reduce(M, SideCondition(g, 5), (0, 0, 0), E, samples=16,
                                 rng=random.Random(7))

    def corrupt_operations(self, monkeypatch, corrupt):
        real = determinant._column_operations

        def wrapped(*args):
            a_cols, divisors, reduced = real(*args)
            corrupt(a_cols, divisors, reduced)
            return a_cols, divisors, reduced

        monkeypatch.setattr(determinant, "_column_operations", wrapped)

    @pytest.mark.parametrize("column", ("reduced", "untouched"))
    def test_wrong_reduced_entry_raises(self, monkeypatch, column):
        M, g, E = self.rich_certificate()
        cert = self.reduce(M, g, E)
        (e, _), = [(e, mu) for e, mu in cert.multiplicities if mu]
        i = E.members.index(e) if column == "reduced" else E.members.index((1, 0, 0))

        def corrupt(a_cols, divisors, reduced):
            reduced[5][i] += 1

        self.corrupt_operations(monkeypatch, corrupt)
        with pytest.raises(SoundnessError, match=f"column {i} of M A"):
            self.reduce(M, g, E)

    def test_wrong_column_operation_entry_raises(self, monkeypatch):
        M, g, E = self.rich_certificate()
        cert = self.reduce(M, g, E)
        (e, _), = [(e, mu) for e, mu in cert.multiplicities if mu]
        i = E.members.index(e)

        def corrupt(a_cols, divisors, reduced):
            (r, a), *rest = a_cols[i]
            a_cols[i] = ((r, a + 1), *rest)

        self.corrupt_operations(monkeypatch, corrupt)
        with pytest.raises(SoundnessError, match=f"column {i} of M A"):
            self.reduce(M, g, E)

    def replaced_column(self, slot):
        """A certificate on the slot, one replaced column i, its divisor, and
        a row k on the wrong side of column i's diagonal."""
        M, side, t, E = slot_certificate(slot)
        cert = congruence_reduce(M, side, t, E, samples=4, rng=random.Random(7))
        assert cert.shift == t and cert.lam >= 1 and cert.det_transform == 1
        k = E.members.index(WRONG_SIDE[slot](E))
        i = next(E.members.index(e) for e, mu in cert.multiplicities
                 if mu and E.members.index(e) != k)
        mu = dict(cert.multiplicities)[E.members[i]]
        return (M, side, t, E), i, side.q ** mu, k

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
        M, E = args[0], args[3]
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


def reference_column_operations(M, gq, q, t, E, mus):
    """The column operations one cell and one point at a time, as they were
    first written: gq evaluated at each point, each replacement column of A
    the product x^(e - mu t) * gq^mu, and each replaced cell of R the
    monomial's value times w^mu."""
    col_pos = {e: i for i, e in enumerate(E.members)}
    a_cols = [((i, 1),) for i in range(len(E.members))]
    divisors = [1] * len(E.members)
    reduced = [list(row) for row in M.entries]
    quotients = []
    for pt in M.rows:
        w, rem = divmod(gq.evaluate(pt), q)
        assert rem == 0
        quotients.append(w)
    gq_powers = [P.constant(3, 1)]
    for e, mu in mus:
        if mu == 0:
            continue
        while len(gq_powers) <= mu:
            gq_powers.append(gq_powers[-1] * gq)
        i = col_pos[e]
        shifted = tuple(a - mu * b for a, b in zip(e, t))
        replacement = P.monomial(3, shifted) * gq_powers[mu]
        assert set(replacement.terms) <= E.restricted_set
        a_cols[i] = tuple((col_pos[u], cu) for u, cu in replacement.terms.items())
        divisors[i] = q ** mu
        for row, pt, w in zip(reduced, M.rows, quotients):
            row[i] = eval_monomial(pt, shifted) * w ** mu
    return a_cols, divisors, reduced


def wide_coordinate_certificate():
    """(M, side, E) with points whose coordinates are zero, negative or
    beyond 2^64, each on x2^2 + x3^2 = 6 mod 5."""
    g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
    big = 5 * 2 ** 70
    pts = [(0, 0, 1), (0, -1, 0), (-3, 5, -4), (7, big, big + 1), (-big, -big - 1, 0),
           (big ** 2, 0, -(big + 4)), (1, -big - 4, big), (2, 10, 1), (-1, 1, -big)]
    for p in pts:
        assert g.evaluate(p) % 5 == 0
    E = staircase(3, 2)
    return build_matrix(pts, E), SideCondition(g, 5), E


class TestColumnOperations:
    """The certificate's column operations, computed a column at a time,
    against the one-cell-at-a-time reference they replaced."""

    @staticmethod
    def capture(monkeypatch):
        """Record the arguments and the result of every _column_operations call."""
        calls = []
        real = determinant._column_operations

        def spy(*args):
            out = real(*args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(determinant, "_column_operations", spy)
        return calls

    @staticmethod
    def assert_matches_reference(calls):
        assert calls
        for args, out in calls:
            assert out == reference_column_operations(*args[:6])

    @pytest.mark.parametrize("name", sorted(BENCHMARK_CERTIFY))
    def test_benchmark_configs(self, monkeypatch, name):
        M, side, E = diagonal_certify(*BENCHMARK_CERTIFY[name])
        calls = self.capture(monkeypatch)
        congruence_certificates(M, side, E, samples=0)
        self.assert_matches_reference(calls)
        (_, (_, divisors, _)), = calls
        assert sum(d > 1 for d in divisors) >= 9

    def test_certificate_corpus(self, monkeypatch):
        calls = self.capture(monkeypatch)
        assert certificate_corpus()
        self.assert_matches_reference(calls)
        assert {args[3] == (0, 0, 0) for args, _ in calls} == {True, False}

    @pytest.mark.parametrize("slot", sorted(WRONG_SIDE))
    def test_every_shift_slot(self, monkeypatch, slot):
        M, side, t, E = slot_certificate(slot)
        calls = self.capture(monkeypatch)
        congruence_reduce(M, side, t, E, samples=0)
        self.assert_matches_reference(calls)
        assert calls[0][0][3] == t

    def test_zero_negative_and_wide_coordinates(self, monkeypatch):
        M, side, E = wide_coordinate_certificate()
        values = determinant._ValueColumns(M.rows)
        for e in E.members:
            assert values(e) == [eval_monomial(p, e) for p in M.rows]
        assert values.evaluate(side.g) == [side.g.evaluate(p) for p in M.rows]
        calls = self.capture(monkeypatch)
        cert = congruence_reduce(M, side, (0, 0, 0), E, samples=0)
        self.assert_matches_reference(calls)
        assert cert.lam >= 1
        assert max(abs(x) for row in cert.reduced_entries for x in row) > 2 ** 64

    @pytest.mark.parametrize("t", [(0, 0, 0), (0, DEGREE_CAP - 1, 0)])
    def test_a_side_polynomial_near_the_degree_cap(self, monkeypatch, t):
        # g = x2^999 - 1 mod 2, on the points with x2 odd: its tall term's
        # column is built from coordinate powers, not a chain of 999 columns
        g = P(3, {(0, DEGREE_CAP - 1, 0): 1, (0, 0, 0): -1})
        f = P(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -51})
        side = SideCondition(g, 2)
        E = staircase(8, 2)
        M = build_matrix(enumerate_points(f, side, BoxBounds(8, 8, 8)), E)
        assert M.shape == (48, 9)
        assert determinant._ValueColumns(M.rows).evaluate(g) == [g.evaluate(p) for p in M.rows]
        calls = self.capture(monkeypatch)
        cert = congruence_reduce(M, side, t, E, samples=0)
        self.assert_matches_reference(calls)
        assert cert.shift == t

    def test_a_point_off_the_congruence_is_named(self):
        M, side, E = wide_coordinate_certificate()
        off = (1, 5 * 2 ** 70, 2)
        bad = build_matrix(M.rows + (off,), E)
        with pytest.raises(ContractViolation,
                           match=rf"point \(1, {5 * 2 ** 70}, 2\) violates the congruence mod 5"):
            congruence_reduce(bad, side, (0, 0, 0), E, samples=0)

    def test_a_quotient_with_a_remainder_is_a_soundness_error(self, monkeypatch):
        # the congruence check passes, so only gq itself can be off: a
        # point off the congruence handed to the column operations directly
        M, side, E = wide_coordinate_certificate()
        calls = self.capture(monkeypatch)
        congruence_reduce(M, side, (0, 0, 0), E, samples=0)
        (args, _), = calls
        off = (0, 1, 1)
        bad = build_matrix(M.rows + (off,), E)
        with pytest.raises(SoundnessError,
                           match=r"reduced side polynomial at \(0, 1, 1\) is not divisible by 5"):
            determinant._column_operations(bad, *args[1:6], determinant._ValueColumns(bad.rows))

    def test_hand_built_rows_are_read_as_integer_points(self):
        M, side, E = wide_coordinate_certificate()
        for bad, match in ((1.5, "point coordinate must be an integer"),
                           (True, "point coordinate must be an integer")):
            rows = ((bad, 0, 1),) + M.rows[1:]
            with pytest.raises(ContractViolation, match=match):
                congruence_reduce(MonomialMatrix(rows, M.cols, M.entries), side, (0, 0, 0), E)
        rows = ((0, 1),) + M.rows[1:]
        with pytest.raises(ContractViolation, match=r"point \(0, 1\) is not a triple"):
            congruence_reduce(MonomialMatrix(rows, M.cols, M.entries), side, (0, 0, 0), E)
        # no rows used to reach the identity check and raise IndexError
        with pytest.raises(ContractViolation, match="matrix needs at least one point"):
            congruence_reduce(MonomialMatrix((), M.cols, ()), side, (0, 0, 0), E)

    @pytest.mark.parametrize("slot", sorted(WRONG_SIDE))
    def test_the_identity_check_reads_every_cell(self, monkeypatch, slot):
        # one cell of R off by one, in a replaced or an untouched column,
        # at any row: M A = R D fails in that column
        M, side, t, E = slot_certificate(slot)
        calls = self.capture(monkeypatch)
        congruence_reduce(M, side, t, E, samples=0)
        (_, (a_cols, divisors, reduced)), = calls
        assert {d > 1 for d in divisors} == {True, False}
        determinant._check_column_identity(M.entries, a_cols, divisors, reduced)
        for j, row in enumerate(reduced):
            for i in range(len(row)):
                bad = [list(r) for r in reduced]
                bad[j][i] += 1
                with pytest.raises(SoundnessError, match=f"column {i} of M A"):
                    determinant._check_column_identity(M.entries, a_cols, divisors, bad)
