"""Staircase sets, method scalars, lambda sums, cutoff selection."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

import detsieve.determinant
import detsieve.exponents
import detsieve.scalars

from detsieve.applications import QuadricInstance, count_quadric
from detsieve.determinant import aux_pipeline
from detsieve.enumeration import ResidueData, SideCondition, enumerate_points
from detsieve.errors import ContractViolation, Record, strict_int, strict_real
from detsieve.exponents import (
    EPSILON_CAP,
    INFINITE,
    POWER_CAP,
    BoxBounds,
    ExactLog,
    SetStatistics,
    _ilog,
    build_exponent_set,
    choose_Y,
    compute_params,
    default_floor_constant,
    lambda_single,
    lambda_total,
    main_term_deviation,
    max_exponent,
    set_statistics,
    shift_multiplicity,
    side_log_height,
    staircase_size,
)
from detsieve.polynomials import IntegerPolynomial
from detsieve.scalars import dot

P = IntegerPolynomial


def cube(b):
    return BoxBounds(b, b, b)


def exact(v) -> Fraction:
    """The Fraction equal to an mpf."""
    sign, man, exp, _ = v._mpf_
    return (-1) ** sign * Fraction(int(man)) * Fraction(2) ** exp


def staircase(n, base, m=(2, 0, 0)):
    box = cube(base)
    return build_exponent_set(ExactLog.power(base, n), m, box)


class TestIntegerContract:
    def test_strict_int(self):
        assert strict_int(7, "x") == 7 and strict_int(-(10 ** 30), "x") == -(10 ** 30)
        for bad in (True, False, 2.5, 2.0, "5", None, [1], math.inf, math.nan):
            with pytest.raises(ContractViolation, match="x must be an integer"):
                strict_int(bad, "x")

    def test_strict_real(self):
        for v in (7, -2.5, Fraction(-1, 3), 10 ** 400, Fraction(10 ** 400, 3), 0, 0.0):
            assert strict_real(v, "x") is v
        for bad in (True, False, "0.5", None, 1j, math.inf, -math.inf, math.nan):
            with pytest.raises(ContractViolation, match="x must be a finite number"):
                strict_real(bad, "x")
        assert strict_real(0, "x", "nonnegative") == 0
        assert strict_real(Fraction(1, 10 ** 400), "x", "positive") > 0
        for v, sign in ((-1, "nonnegative"), (Fraction(-1, 2), "nonnegative"),
                        (0, "positive"), (0.0, "positive"), (-3.5, "positive"),
                        (math.inf, "positive"), (True, "positive")):
            with pytest.raises(ContractViolation, match=f"x must be {sign} and finite"):
                strict_real(v, "x", sign)

    def test_huge_refused_value_is_described_by_its_size(self):
        # repr of either value raises CPython's 4 300-digit ValueError
        with pytest.raises(ContractViolation,
                           match="^epsilon must be positive and finite, not a 16610-bit int$"):
            strict_real(-10 ** 5000, "epsilon", "positive")
        with pytest.raises(ContractViolation,
                           match="^box bound must be an integer, not a 16610-bit Fraction$"):
            strict_int(Fraction(10 ** 5000, 3), "box bound")

    def test_box_bounds_are_stored_as_ints(self):
        class Index:
            def __index__(self):
                return 4
        assert type(BoxBounds(Index(), 3, 3).b1) is int

    def test_box_bounds_must_be_integers(self):
        for bad in (2.5, 2.0, "5", True):
            with pytest.raises(ContractViolation):
                BoxBounds(bad, 3, 3)
            with pytest.raises(ContractViolation):
                BoxBounds(3, 3, bad)

    def test_box_bound_below_two_rejected(self):
        for bad in (1, 0, -4):
            with pytest.raises(ContractViolation, match="below 2"):
                BoxBounds(3, bad, 3)

    def test_exact_logs_of_one_height_are_equal(self):
        a, b = ExactLog(10 ** 6), ExactLog.power(10, 6)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != ExactLog(10 ** 6 + 1)

    def test_height_must_be_an_integer(self):
        for bad in (2.9, True, "5"):
            with pytest.raises(ContractViolation, match="must be an integer"):
                ExactLog(bad)

    def test_dominant_exponent_must_be_integers(self):
        box = cube(3)
        for bad in (2.9, True, "5"):
            with pytest.raises(ContractViolation, match="must be an integer"):
                build_exponent_set(ExactLog(10), (bad, 0, 0), box)
            with pytest.raises(ContractViolation, match="must be an integer"):
                staircase_size(ExactLog(10), (0, 0, bad), box)

    def test_shift_must_be_integers(self):
        E = staircase(4, 2)
        e = E.restricted_members[0]
        for bad in (2.9, True, "5"):
            with pytest.raises(ContractViolation, match="must be an integer"):
                lambda_single(e, (0, bad, 0), E)


class TestBuildExponentSet:
    def test_sixteen_members(self):
        E = staircase(3, 10)
        assert len(E) == 16

    def test_zero_cutoff_keeps_origin(self):
        E = staircase(0, 10)
        assert E.members == ((0, 0, 0),)

    def test_restriction_equals_whole_set_here(self):
        # m = (2,0,0) makes the side conditions on e2, e3 unsatisfiable
        E = staircase(3, 10)
        assert E.restricted_members == E.members

    def test_zero_dominant_rejected(self):
        with pytest.raises(ContractViolation):
            staircase(3, 10, m=(0, 0, 0))

    def test_membership_sound_and_complete(self):
        # cross-check against a naive loop over the coordinate caps
        for base, n, m in ((3, 4, (2, 0, 0)), (5, 3, (1, 2, 0)), (2, 6, (3, 0, 1))):
            box = cube(base)
            E = staircase(n, base, m=m)
            cutoff = base ** n
            naive = set()
            for e1 in range(n + 2):
                for e2 in range(n + 2):
                    for e3 in range(n + 2):
                        if base ** (e1 + e2 + e3) > cutoff:
                            continue
                        if e1 < m[0] or e2 < m[1] or e3 < m[2]:
                            naive.add((e1, e2, e3))
            assert set(E.members) == naive
            for e in E.members:
                assert base ** sum(e) <= cutoff
                assert any(e[i] < m[i] for i in range(3))

    def test_uneven_box_membership(self):
        box = BoxBounds(4, 8, 16)
        cutoff = ExactLog.power(2, 10)  # height 1024
        E = build_exponent_set(cutoff, (2, 0, 0), box)
        for e in E.members:
            assert 4 ** e[0] * 8 ** e[1] * 16 ** e[2] <= 1024
        naive = sum(
            1
            for e1 in range(2)
            for e2 in range(5)
            for e3 in range(4)
            if 4 ** e1 * 8 ** e2 * 16 ** e3 <= 1024
        )
        assert len(E) == naive


def test_ilog_is_the_largest_fitting_power():
    rng = random.Random(3)
    cases = [(b, T) for b in range(2, 40) for T in range(1, 700)]
    cases += [(rng.randint(2, 10 ** 6), rng.randint(1, 10 ** 400)) for _ in range(300)]
    for b, T in cases:
        k = _ilog(b, T)
        assert b ** k <= T < b ** (k + 1), (b, T)


@functools.cache
def walk_pairs(T, b, c):
    """The number of (u, v) >= 0 with b^u * c^v <= T, by the walk over u
    under a falling v cap."""
    total = 0
    k = _ilog(c, T)
    p = c ** k
    while k >= 0:
        total += k + 1
        p *= b
        while k >= 0 and p > T:
            p //= c
            k -= 1
    return total


@functools.cache
def walk_count_below(T, bounds):
    """N(T), the number of e >= 0 with B^e <= T, by the walk over e1 and
    the pairs (e2, e3) under T // B1^e1: with N(T // B^m) the oracle for
    staircase_size.  N(T // B^m) walks the same pairs, so both are cached."""
    b1, b2, b3 = bounds
    total = 0
    h1 = 1
    while h1 <= T:
        total += walk_pairs(T // h1, b2, b3)
        h1 *= b1
    return total


#: every nonzero dominant exponent in {0..3}^3
DOMINANTS = [m for m in itertools.product(range(4), repeat=3) if any(m)]


class TestCountBelow:
    """staircase_size against the walk: |E(T)| = N(T) - N(T // B^m), the
    members below T less the e >= m, which are m + e' with B^e' <= T // B^m."""

    @staticmethod
    def check(T, m, box):
        bounds = box.bounds
        want = walk_count_below(T, bounds) - walk_count_below(T // box.height(m), bounds)
        assert staircase_size(ExactLog(T), m, box) == want, (bounds, m, T)

    def test_equal_box_matches_the_walk(self):
        rng = random.Random(2121)
        for b in (2, 3, 16, 17, 60, 2 ** 61 - 1, 10 ** 30):
            heights = {0, 1}
            for k in range(41):
                heights |= {b ** k - 1, b ** k, b ** k + 1}
            heights |= {rng.randint(1, 10 ** rng.randint(1, 300)) for _ in range(6)}
            for T in sorted(heights - {0}):
                for m in DOMINANTS:
                    self.check(T, m, cube(b))

    def test_unequal_boxes_match_the_walk(self):
        rng = random.Random(2122)
        boxes = [(2, 3, 5), (12, 20, 30), (5, 5, 7), (7, 5, 5), (5, 7, 5), (10 ** 6, 1000, 1001)]
        boxes += [tuple(rng.randint(2, 60) for _ in range(3)) for _ in range(30)]
        for bounds in boxes:
            if bounds[0] == bounds[1] == bounds[2]:
                continue
            for T in (1, 2, 59, 60, 61, 10 ** 12, rng.randint(1, 10 ** 40)):
                for m in DOMINANTS:
                    self.check(T, m, BoxBounds(*bounds))

    def test_large_heights_on_the_grid_box(self):
        # the aux-grid box and dominant, at heights the cutoff search's
        # later grids reach
        rng = random.Random(2123)
        for bits in (150, 500, 1000, 2000):
            for T in (2 ** bits - 1, 2 ** bits, rng.getrandbits(bits) | 1):
                self.check(T, (0, 0, 2), BoxBounds(12, 20, 30))

    def test_huge_dominant_on_a_cube(self):
        # the count stops at the first slab height over T, so |m| = 1000
        # costs at most about n pair counts; below 7^1000 every e is a member
        box = cube(7)
        for n in (0, 1, 100, 999, 1000, 1001, 1500):
            T = 7 ** n
            want = math.comb(n + 3, 3) - (math.comb(n - 1000 + 3, 3) if n >= 1000 else 0)
            for m in ((1000, 0, 0), (0, 0, 1000), (300, 300, 400)):
                assert staircase_size(ExactLog(T), m, box) == want, (n, m)


class TestStaircaseSize:
    """The counting identity against the members build_exponent_set lists."""

    @staticmethod
    def built(T, m, box):
        return len(build_exponent_set(ExactLog(T), m, box))

    def test_matches_build_on_random_boxes(self):
        rng = random.Random(20241)
        for _ in range(300):
            box = BoxBounds(*(rng.randint(2, 13) for _ in range(3)))
            m = (0, 0, 0)
            while not any(m):
                m = tuple(rng.randint(0, 3) for _ in range(3))
            T = rng.randint(1, 10 ** rng.randint(1, 9))
            top = box.height(m)
            for height in {T, 1, max(1, top - 1), top, top + 1}:
                got = staircase_size(ExactLog(height), m, box)
                assert got == self.built(height, m, box), (box, m, height)

    def test_every_height_boundary(self):
        # T = B^e sits exactly on the staircase, B^e - 1 just below it
        for bounds, m in (((2, 3, 5), (2, 0, 0)), ((7, 7, 7), (1, 1, 0)),
                          ((13, 4, 2), (0, 2, 1))):
            box = BoxBounds(*bounds)
            for e in itertools.product(range(4), repeat=3):
                h = box.height(e)
                for height in (h, h - 1):
                    if height >= 1:
                        got = staircase_size(ExactLog(height), m, box)
                        assert got == self.built(height, m, box), (bounds, m, e)

    def test_below_dominant_height_counts_everything(self):
        # T < B^m: no member can reach e >= m, so |E(T)| = N(T)
        box = BoxBounds(3, 4, 5)
        for T in range(1, box.height((2, 1, 0))):
            assert staircase_size(ExactLog(T), (2, 1, 0), box) == sum(
                1 for e in itertools.product(range(6), repeat=3) if box.height(e) <= T
            )

    def test_equal_box_binomials_up_to_the_power_cap(self):
        # B^n over B^m leaves B^(n - |m|): C(n+3, 3) - C(n-|m|+3, 3) members,
        # and C(n+3, 3) when n < |m|
        dominants = [m for m in itertools.product(range(4), repeat=3) if 1 <= sum(m) <= 3]
        for b in (2, 17):
            box = cube(b)
            for n in range(POWER_CAP + 1):
                cutoff = ExactLog.power(b, n)
                for m in dominants:
                    want = math.comb(n + 3, 3)
                    if n >= sum(m):
                        want -= math.comb(n - sum(m) + 3, 3)
                    assert staircase_size(cutoff, m, box) == want, (b, n, m)
                    if n <= 30 and b == 17:
                        assert len(build_exponent_set(cutoff, m, box)) == want, (n, m)

    def test_equal_box_closed_form(self):
        # m = (2,0,0) on an equal box: (n+1)^2 members at cutoff n log B
        for n in (0, 1, 7, 60):
            assert staircase_size(ExactLog.power(10, n), (2, 0, 0), cube(10)) == (n + 1) ** 2


class TestSetStatistics:
    def test_count_sixteen(self):
        stats = set_statistics(staircase(3, 10))
        assert stats.count == 16

    def test_singleton_log_sum(self):
        stats = set_statistics(staircase(0, 10))
        assert stats.sum_log == 0

    def test_second_coordinate_sum(self):
        stats = set_statistics(staircase(3, 10))
        assert stats.sum_e2 == 14
        assert stats.sum_e3 == 14

    def test_is_a_frozen_record(self):
        stats = set_statistics(staircase(3, 10))
        assert isinstance(stats, Record)
        assert stats == SetStatistics(16, stats.sum_log, 14, 14)
        with pytest.raises(AttributeError, match="frozen"):
            stats.count = 0

    def test_log_sum_exact_multiple(self):
        # every member height is a power of the base, so the log-sum is
        # an integer multiple of log(base)
        E = staircase(3, 10)
        stats = set_statistics(E)
        total_degree = sum(sum(e) for e in E.members)
        with mp.workprec(96):
            want = exact(total_degree * mp.log(10))
        assert abs(stats.sum_log - want) < Fraction(1, 2 ** 80)


class TestMainTermDeviation:
    def test_monotone_decrease(self):
        devs = []
        for n in (10, 20, 40, 80):
            dc, ds = main_term_deviation(staircase(n, 10))
            devs.append((float(dc), float(ds)))
        for (c0, s0), (c1, s1) in zip(devs, devs[1:]):
            assert c1 < c0
            assert s1 < s0
        assert devs[-1][0] < 0.35
        assert devs[-1][1] < 0.35

    def test_count_deviation_closed_form(self):
        # equal boxes, m=(2,0,0): exact count (n+1)^2 against main term n^2
        for n in (10, 40):
            dc, _ = main_term_deviation(staircase(n, 10))
            assert abs(float(dc) - (2 * n + 1) / n ** 2) < 1e-12

    def test_height_one_rejected(self):
        # both main terms are zero at Y = log 1; this was a ZeroDivisionError
        with pytest.raises(ContractViolation, match="vanish"):
            main_term_deviation(staircase(0, 10))


class TestLambdaSingle:
    def test_zero_shift_is_infinite(self):
        E = staircase(3, 2)
        assert lambda_single((1, 1, 0), (0, 0, 0), E) == INFINITE

    def test_two_steps(self):
        E = staircase(8, 2, m=(2, 0, 0))
        assert lambda_single((1, 4, 0), (0, 2, 0), E) == 2

    def test_origin(self):
        E = staircase(3, 2)
        assert lambda_single((0, 0, 0), (0, 2, 0), E) == 0

    def test_outside_restricted_set_rejected(self):
        E = staircase(3, 2)
        with pytest.raises(ContractViolation):
            lambda_single((2, 0, 0), (0, 1, 0), E)


class TestIntegerExponents:
    """Exponents and moduli must be integers: a float, a bool or a string
    is refused instead of truncated or parsed."""

    BAD = (1.5, True, "5")

    def test_lambda_single_rejects_non_integer_exponents(self):
        E = staircase(8, 2)
        for bad in self.BAD:
            with pytest.raises(ContractViolation, match="exponent entry must be an integer"):
                lambda_single((bad, 4, 0), (0, 2, 0), E)

    def test_shift_multiplicity_rejects_non_integer_exponents(self):
        E = staircase(3, 2)
        S = ExactLog.power(2, 2)
        for bad in self.BAD:
            with pytest.raises(ContractViolation, match="exponent entry must be an integer"):
                shift_multiplicity((bad, 0, 0), (0, 1, 0), E, S)

    def test_compute_params_rejects_non_integer_modulus(self):
        f = P(3, {(2, 0, 0): 5, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        box = cube(10)
        for bad in self.BAD:
            with pytest.raises(ContractViolation, match="modulus must be an integer"):
                compute_params(f, SideCondition(g, bad), box, 0.5)


class TestLambdaTotal:
    def test_frozen_instance(self):
        E = staircase(3, 2)
        S = ExactLog.power(2, 2)
        assert lambda_total(E, (0, 0, 0), S) == 4

    def test_matches_independent_double_loop(self):
        for base, n, spow in ((2, 3, 2), (3, 5, 1), (2, 7, 3)):
            E = staircase(n, base)
            S = ExactLog.power(base, spow)
            expected = sum(
                math.floor((n - sum(e)) / spow) for e in E.restricted_members
            )
            assert lambda_total(E, (0, 0, 0), S) == expected

    def test_saturated_shift_sums_step_counts(self):
        # when the side height equals the shift height, only the
        # staircase walk limits each column
        E = staircase(4, 4)
        S = ExactLog.power(4, 2)
        t = (0, 2, 0)
        expected = sum(lambda_single(e, t, E) for e in E.restricted_members)
        assert lambda_total(E, t, S) == expected

    def test_shift_taller_than_side_rejected(self):
        E = staircase(3, 2)
        S = ExactLog.power(2, 1)
        with pytest.raises(ContractViolation, match="below the shift log-height"):
            shift_multiplicity((0, 0, 0), (0, 2, 0), E, S)


class TestShiftMultiplicity:
    def test_min_of_walk_and_floor(self):
        E = staircase(3, 2)
        S = ExactLog.power(2, 2)
        # floor (3-0)/2 = 1 beats the infinite walk at the origin
        assert shift_multiplicity((0, 0, 0), (0, 0, 0), E, S) == 1
        # walk runs out first for a short column
        assert shift_multiplicity((1, 1, 0), (0, 1, 0), E, S) == 1

    def test_zero_shift_with_unit_side_height_rejected(self):
        E = staircase(3, 2)
        with pytest.raises(ContractViolation, match="unbounded"):
            shift_multiplicity((0, 0, 0), (0, 0, 0), E, ExactLog(1))

    def test_matches_definition_on_random_boxes(self):
        # mu <= lambda(e, t), the budget B^e * Hs^mu <= T * Ht^mu holds at
        # mu, and mu + 1 leaves the restricted chain or breaks the budget
        rng = random.Random(11)
        checked = 0
        for trial in range(150):
            b = rng.randint(2, 9)
            shape = trial % 3
            if shape == 0:
                box = cube(b)
            elif shape == 1:
                box = BoxBounds(b, rng.randint(2, 9), rng.randint(2, 9))
            else:
                box = BoxBounds(rng.randint(2, 9), 40 * b, 40 * b + 1)
            m = (rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 2))
            # a box height as cutoff makes the budget tight at equality
            T = rng.choice((rng.randint(1, 10 ** 7),
                            box.height(tuple(rng.randint(0, 4) for _ in range(3)))))
            E = build_exponent_set(ExactLog(T), m, box)
            t = tuple(rng.randint(0, 2) for _ in range(3))
            Ht = box.height(t)
            # equal heights, one above, and an arbitrary heavier side
            Hs = rng.choice((Ht, Ht + 1, Ht * box.height((0, 1, 1))))
            if Hs == 1:
                continue
            for e in E.restricted_members:
                mu = shift_multiplicity(e, t, E, ExactLog(Hs))
                He = box.height(e)
                assert 0 <= mu <= lambda_single(e, t, E)
                assert He * Hs ** mu <= T * Ht ** mu
                nxt = tuple(a - (mu + 1) * b for a, b in zip(e, t))
                assert (nxt not in E.restricted_set
                        or He * Hs ** (mu + 1) > T * Ht ** (mu + 1))
                checked += 1
        assert checked > 1000

    def test_near_equal_side_and_shift_heights(self):
        # box (2, 1000, 1001), side height 1000^2 + 1 against the shift
        # height 1000^2: the budget is huge, so each chain bounds mu
        box = BoxBounds(2, 1000, 1001)
        E = build_exponent_set(ExactLog(1001 ** 7), (2, 0, 0), box)
        S = ExactLog(1000 ** 2 + 1)
        t = (0, 2, 0)
        assert len(E) == 64
        for e in E.restricted_members:
            assert shift_multiplicity(e, t, E, S) == lambda_single(e, t, E)


class TestComputeParams:
    def _quadric(self, q, b):
        f = P(3, {(2, 0, 0): q, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        box = cube(b)
        return compute_params(f, SideCondition(g, q), box, 0.5)

    def test_modulus_gain_quarter_root_two(self):
        params = self._quadric(5, 10)
        expected = 1 / (4 * math.sqrt(2))
        assert abs(float(params.modulus_gain) - expected) < 1e-12

    def test_equal_box_closed_form(self):
        # K = B^(1/sqrt(2)) * q^(-1/(4 sqrt 2)) for the quadric shape
        for q, b in ((5, 10), (7, 50), (13, 1000)):
            params = self._quadric(q, b)
            expected = b ** (1 / math.sqrt(2)) * q ** (-1 / (4 * math.sqrt(2)))
            assert abs(float(params.cover_scale) - expected) < 1e-9 * expected

    def test_trivial_modulus_drops_congruence_factor(self):
        params = self._quadric(1, 10)
        with mp.workprec(96):
            logb = mp.log(10)
            expected = mp.exp(mp.sqrt(logb ** 3 / (2 * logb)))
        assert abs(float(params.cover_scale) - float(expected)) < 1e-12

    def test_scale_identity(self):
        # log K_eps = sqrt(prod log B_i / log T) - R log q + eps log B
        params = self._quadric(5, 10)
        with mp.workprec(96):
            logb = mp.log(10)
            lhs = mp.log(params.cover_scale_eps)
            rhs = (
                mp.sqrt(logb ** 3 / (2 * logb))
                - params.modulus_gain * mp.log(5)
                + mp.mpf(0.5) * logb
            )
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_epsilon_must_be_positive_and_finite(self):
        f = P(3, {(2, 0, 0): 5, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        for bad in (0, -0.5, math.inf, math.nan):
            with pytest.raises(ContractViolation, match="positive and finite"):
                compute_params(f, SideCondition(g, 5), cube(4), bad)
            with pytest.raises(ContractViolation, match="positive and finite"):
                count_quadric(QuadricInstance(5, 1, 1, 6, 2), "pipeline", epsilon=bad)

    def test_epsilon_capped_by_one_rule(self):
        # 1e300 and 10**400 used to raise a bare OverflowError
        f = P(3, {(2, 0, 0): 5, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        side = SideCondition(P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6}), 5)
        for bad in (EPSILON_CAP + 1, 10.000001, Fraction(21, 2), 1e300, 10 ** 400):
            with pytest.raises(ContractViolation, match=f"epsilon must be at most {EPSILON_CAP}"):
                compute_params(f, side, cube(4), bad)
            with pytest.raises(ContractViolation, match=f"epsilon must be at most {EPSILON_CAP}"):
                default_floor_constant(bad)
        params = compute_params(f, side, cube(4), EPSILON_CAP)
        assert params.epsilon == EPSILON_CAP
        assert default_floor_constant(EPSILON_CAP) == 10
        assert default_floor_constant(Fraction(1, 10)) == 40

    def test_side_polynomial_must_avoid_first_variable(self):
        f = P(3, {(2, 0, 0): 1, (0, 0, 0): -1})
        bad = P(3, {(1, 0, 0): 1, (0, 1, 0): 1})
        with pytest.raises(ContractViolation):
            compute_params(bad, SideCondition(bad, 2), cube(4), 0.5)
        with pytest.raises(ContractViolation):
            compute_params(f, SideCondition(P.constant(3, 3), 2), cube(4), 0.5)


class TestSideLogHeight:
    def test_picks_tallest_monomial(self):
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        s_star, S = side_log_height(g, BoxBounds(2, 2, 2))
        assert s_star == (0, 2, 0)
        assert S.height == 4

    def test_uneven_box_changes_winner(self):
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        s_star, S = side_log_height(g, BoxBounds(2, 2, 5))
        assert s_star == (0, 0, 2)
        assert S.height == 25


class TestBoxOrder:
    """The one monomial order: box height B^e, ties broken lexicographically."""

    def test_origin_less(self):
        box = cube(10)
        assert box.order_key((0, 0, 0)) < box.order_key((0, 0, 1))

    def test_weighted_tie_falls_to_lex(self):
        # both monomials have height 10^2
        box = cube(10)
        assert box.order_key((1, 1, 0)) > box.order_key((0, 0, 2))

    def test_order_linearity_random(self):
        # a < b and c < d must force a+c < b+d
        rng = random.Random(123)
        key = BoxBounds(3, 5, 17).order_key
        for _ in range(10_000):
            a, b, c, d = (
                tuple(rng.randrange(6) for _ in range(3)) for _ in range(4)
            )
            if key(a) < key(b) and key(c) < key(d):
                ac = tuple(x + y for x, y in zip(a, c))
                bd = tuple(x + y for x, y in zip(b, d))
                assert key(ac) < key(bd)

    def test_max_exponent_equal_box_tie_falls_to_lex(self):
        # every square has height 10^2, so lex breaks the tie
        f = P(3, {(2, 0, 0): 5, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        assert max_exponent(f, cube(10)) == (2, 0, 0)

    def test_max_exponent_where_box_order_and_lex_disagree(self):
        # x2 has height 100 and x1^2 height 4; lex would pick x1^2
        f = P(3, {(2, 0, 0): 1, (0, 1, 0): 1})
        assert max(f.terms) == (2, 0, 0)
        assert max_exponent(f, BoxBounds(2, 100, 100)) == (0, 1, 0)
        # x2^3 outweighs x1*x2 in an equal box; lex would pick x1*x2
        g = P(3, {(0, 3, 0): 1, (1, 1, 0): 1})
        assert max(g.terms) == (1, 1, 0)
        assert max_exponent(g, cube(4)) == (0, 3, 0)

    def test_max_exponent_follows_the_box(self):
        f = P(3, {(2, 0, 0): 3, (0, 2, 0): -2, (0, 0, 2): 7, (0, 0, 0): -11})
        assert max_exponent(f, BoxBounds(5, 3, 4)) == (2, 0, 0)
        assert max_exponent(f, BoxBounds(3, 5, 4)) == (0, 2, 0)
        assert max_exponent(f, BoxBounds(3, 4, 5)) == (0, 0, 2)

    def test_max_exponent_of_zero_rejected(self):
        with pytest.raises(ContractViolation):
            max_exponent(P.zero(3), cube(4))

    @pytest.mark.parametrize("bounds", ((2, 3, 5), (7, 2, 4), (10, 100, 3), (6, 6, 6)))
    @pytest.mark.parametrize("m", ((2, 1, 0), (1, 0, 2), (3, 3, 3)))
    def test_members_are_a_filtered_cube_in_box_order(self, bounds, m):
        box, T = BoxBounds(*bounds), 10 ** 4
        # 2^14 > T, so the cube [0, 14)^3 holds every member
        expected = sorted(
            (e for e in itertools.product(range(14), repeat=3)
             if box.height(e) <= T and any(a < b for a, b in zip(e, m))),
            key=lambda e: (box.height(e), e),
        )
        E = build_exponent_set(ExactLog(T), m, box)
        assert E.members == tuple(expected)
        assert E.restricted_members == tuple(e for e in expected if e[0] < m[0])


class TestChooseY:
    def test_floor_constant_default(self):
        assert default_floor_constant(0.5) == 10
        assert default_floor_constant(0.1) == 40
        for bad in (0, -0.5):
            with pytest.raises(ContractViolation, match="epsilon must be positive"):
                default_floor_constant(bad)

    def test_equal_box_takes_floor_when_trivial(self):
        got = choose_Y(lambda y: True, box=cube(10), floor_const=10, log_top=0)
        assert got.height == 10 ** 10

    def test_equal_box_minimal_cutoff(self):
        # column count Q(n) = (n+1)^2 must beat 10^2, first at n = 100
        box = cube(10 ** 4)

        def constraint(cutoff):
            E = staircase_at(cutoff, box)
            return math.sqrt(len(E)) > 100

        got = choose_Y(constraint, box=box, floor_const=0, log_top=0)
        assert got.height == (10 ** 4) ** 100

    def test_equal_box_forms_no_log(self, monkeypatch):
        # the candidates are powers B^n, and the search never reads a log
        def never(n, bits=96):
            raise AssertionError(f"formed log {n}")

        monkeypatch.setattr(detsieve.exponents, "log", never)
        got = choose_Y(lambda c: c.height >= 10 ** 40, box=cube(10), floor_const=10, log_top=0)
        assert got.height == 10 ** 40

    def test_grid_returns_low_end_when_trivial(self):
        box = BoxBounds(4, 8, 16)
        with mp.workprec(96):
            low = exact(mp.log(1000))
        got = choose_Y(lambda y: True, box=box, floor_const=0, log_top=low)
        assert got.height == 1000

    def test_grid_starts_at_the_floor_above_log_top(self):
        # Z = max(log_top, 10 log 16), and exp(Z) = 2^40 snaps to an integer
        got = choose_Y(lambda y: True, box=BoxBounds(4, 8, 16), floor_const=10, log_top=1)
        assert got.height == 2 ** 40

    def test_unsatisfiable_reports_diagnostic(self):
        with pytest.raises(ContractViolation, match=r"n in \[1, 512\]"):
            choose_Y(lambda y: False, box=cube(4), floor_const=1, log_top=0)
        # Z = 2^-16 keeps the 24th grid's heights near exp(2^9)
        with pytest.raises(ContractViolation, match="on 24 log grids"):
            choose_Y(lambda y: False, box=BoxBounds(4, 8, 16), floor_const=0,
                     log_top=2.0 ** -16)

    def test_floor_above_the_power_cap_probes_nothing(self):
        probes = []
        with pytest.raises(ContractViolation, match=r"n in \[513, 512\]"):
            choose_Y(probes.append, box=cube(4), floor_const=513, log_top=0)
        assert probes == []

    def test_negative_floor_constant_refused(self):
        for box in (cube(4), BoxBounds(4, 8, 16)):
            with pytest.raises(ContractViolation, match="floor constant must be nonnegative"):
                choose_Y(lambda y: True, box=box, floor_const=-1, log_top=1)


def linear_choose_Y(constraint, *, box, floor_const, log_top):
    """The linear scan choose_Y replaced, kept as the reference: the powers
    B^n for n in [floor_const, 512], or the 64-point grids over [Z, 2Z],
    [2Z, 4Z], ... (24 of them) with the grid start doubled at the default
    53-bit precision, as the recorded cutoffs were chosen."""
    if box.equal:
        for n in range(floor_const, 513):
            cand = ExactLog.power(box.b1, n)
            if constraint(cand):
                return cand
        raise ContractViolation("no power cutoff satisfies the constraint")
    with mp.workprec(96):
        floor_value = floor_const * mp.log(box.bmax)
        low = max(mp.mpf(log_top.numerator) / log_top.denominator, floor_value)
        floor_value = exact(floor_value)
    for _ in range(24):
        with mp.workprec(96):
            for k in range(64):
                h = mp.exp(low * (1 + mp.mpf(k) / 63))
                near = int(mp.nint(h))
                if near >= 1 and abs(h - near) < mp.mpf(2) ** -60 * near:
                    height = near
                else:
                    height = int(mp.floor(h))
                cand = ExactLog(height)
                if cand.value >= floor_value and constraint(cand):
                    return cand
        low = low * 2
    raise ContractViolation("no grid cutoff satisfies the constraint")


class TestChooseYSearch:
    """The search returns the linear scan's cutoff in few probes."""

    @staticmethod
    def step(threshold, probes):
        # monotone step constraint: holds from the threshold height upward
        def constraint(cutoff):
            probes.append(cutoff)
            return cutoff.value >= threshold
        return constraint

    def outcome(self, choose, threshold, **kw):
        probes = []
        try:
            got = choose(self.step(threshold, probes), **kw)
        except ContractViolation:
            return "raised", probes
        return got, probes

    def test_equal_box_matches_linear_scan(self):
        rng = random.Random(5)
        for _ in range(150):
            base = rng.choice((2, 3, 10, 60))
            c_floor = rng.choice((rng.randint(0, 40), rng.randint(0, 520)))
            target = rng.randint(0, 520)
            with mp.workprec(96):
                threshold = exact(target * mp.log(base))
            kw = dict(box=cube(base), floor_const=c_floor, log_top=0)
            want, _ = self.outcome(linear_choose_Y, threshold, **kw)
            got, probes = self.outcome(choose_Y, threshold, **kw)
            assert got == want, (base, c_floor, target)
            ns = [_exponent_of(base, p.height) for p in probes]
            assert all(c_floor <= n <= 512 for n in ns)
            assert len(ns) == len(set(ns))
            span = 512 - c_floor + 1
            assert len(ns) <= 2 * math.ceil(math.log2(span + 1)) + 1
            # galloping: nothing beyond twice the distance to the answer
            if got != "raised":
                answer = _exponent_of(base, got.height)
                assert max(ns) <= c_floor + 2 * (answer - c_floor) + 1

    def test_equal_box_never_probes_cap_for_an_early_answer(self):
        # counting at 60^512 is the slow case; an answer at n = 13 must
        # never reach it
        probes = []
        with mp.workprec(96):
            threshold = exact(13 * mp.log(60))
        got = choose_Y(self.step(threshold, probes), box=cube(60), floor_const=10, log_top=0)
        assert got.height == 60 ** 13
        assert max(_exponent_of(60, p.height) for p in probes) <= 17

    def test_grids_match_linear_scan(self):
        # thresholds from below Z to past the 24th grid: answers in the
        # first grid, in later ones, and refusals.  Grid g reaches heights
        # near exp(2^(g+1) Z), so the far grids are tried from a tiny Z.
        rng = random.Random(11)
        boxes = (BoxBounds(4, 8, 16), BoxBounds(12, 20, 30), BoxBounds(3, 3, 5))
        seen = set()
        for trial in range(48):
            box = rng.choice(boxes)
            with mp.workprec(96):
                if trial % 2:
                    c_floor, top = rng.randint(0, 12), rng.uniform(1, 60)
                    grids = rng.uniform(-0.5, 3)
                else:
                    c_floor, top = 0, rng.uniform(1, 2) * 2.0 ** -rng.randint(14, 22)
                    grids = rng.uniform(-0.5, 24.5)
                z = max(mp.mpf(top), c_floor * mp.log(box.bmax))
                threshold = exact(z * mp.mpf(2) ** grids)
            log_top = Fraction(top)
            kw = dict(box=box, floor_const=c_floor, log_top=log_top)
            want, _ = self.outcome(linear_choose_Y, threshold, **kw)
            got, probes = self.outcome(choose_Y, threshold, **kw)
            assert got == want, (box, c_floor, log_top, threshold)
            if got == "raised":
                seen.add("raised")
                # the end of every grid, one after another
                assert len(probes) == 24
                continue
            with mp.workprec(96):
                ratio = mp.mpf(got.value.numerator) / got.value.denominator / z
                grid = int(mp.floor(mp.log(ratio, 2) + mp.mpf(2) ** -40))
            seen.add(min(grid, 2))
            # the ends of grids 0..grid, then a bisection inside the last
            assert len(probes) <= grid + 1 + 6
        assert seen == {0, 1, 2, "raised"}

    def test_grid_builds_few_cutoffs(self, monkeypatch):
        # the floor and the constraint are both found by bisection, so a
        # grid answer builds at most 7 + 7 cutoffs where the scan builds 64
        built = []

        def counting(x):
            built.append(x)
            return detsieve.scalars.exp(x)

        monkeypatch.setattr(detsieve.exponents, "exp", counting)
        rng = random.Random(13)
        for _ in range(40):
            box = rng.choice((BoxBounds(4, 8, 16), BoxBounds(12, 20, 30)))
            c_floor = rng.randint(0, 16)
            log_top = Fraction(rng.uniform(1, 50))
            with mp.workprec(96):
                z = max(mp.mpf(float(log_top)), c_floor * mp.log(box.bmax))
                threshold = exact(z * mp.mpf(rng.uniform(0.9, 2.0)))
            del built[:]
            got = choose_Y(self.step(threshold, []), box=box, floor_const=c_floor,
                           log_top=log_top)
            assert got == linear_choose_Y(self.step(threshold, []), box=box,
                                          floor_const=c_floor, log_top=log_top)
            assert 1 <= len(built) <= 14

    def test_probe_counts_on_the_benchmark_configs(self, monkeypatch):
        # staircase counts per run: the grid walk and the power gallop probe
        # exactly what the two-mode search before them did
        calls = []

        def spy(*args):
            calls.append(args[0].height)
            return staircase_size(*args)

        monkeypatch.setattr(detsieve.determinant, "staircase_size", spy)

        def surface(a1, n, q, box, residues=()):
            f = P(3, {(2, 0, 0): a1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -n})
            g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -n})
            box = BoxBounds(*box)
            pts = enumerate_points(f, SideCondition(g, q), box)
            aux_pipeline(f, SideCondition(g, q), box, ResidueData(residues), 0.5, list(pts))

        runs = {
            "cover-B10": lambda: count_quadric(QuadricInstance(3, 1, 1, 1001, 10), "pipeline"),
            "cover-B16": lambda: count_quadric(QuadricInstance(3, 1, 1, 1001, 16), "pipeline"),
            "cover-B17": lambda: count_quadric(QuadricInstance(3, 1, 1, 1001, 17), "pipeline"),
            "aux-B30-p5-p7": lambda: surface(3, 1001, 3, (30, 30, 30), (5, 7)),
            "rung-B60": lambda: count_quadric(QuadricInstance(7, 1, 1, 3, 60), "pipeline"),
            "aux-grid-12-20-30": lambda: surface(5, 6, 5, (12, 20, 30)),
        }
        probes = {}
        for name, go in runs.items():
            del calls[:]
            go()
            probes[name] = len(calls)
        assert probes == {"cover-B10": 4, "cover-B16": 8, "cover-B17": 8,
                          "aux-B30-p5-p7": 1, "rung-B60": 14, "aux-grid-12-20-30": 8}


def _exponent_of(base, height):
    n = round(math.log(height, base))
    assert base ** n == height
    return n


def staircase_at(cutoff, box):
    return build_exponent_set(cutoff, (2, 0, 0), box)


class TestBuildVisitsOnlyMembers:
    """The build ends each e3 walk at its first non-member; what it keeps
    must still be every lattice point under the cutoff that avoids m."""

    BOXES = ((2, 2, 2), (2, 3, 5), (7, 2, 3), (3, 3, 10), (12, 20, 30))
    HEIGHTS = (1, 2, 50, 10 ** 5)

    def test_members_equal_a_filter_over_the_full_lattice(self):
        ms = [m for m in itertools.product(range(3), repeat=3) if any(m)]
        for bounds in self.BOXES:
            box = BoxBounds(*bounds)
            for T in self.HEIGHTS:
                lattice = sorted(
                    (box.height(e), e)
                    for e in itertools.product(range(T.bit_length()), repeat=3)
                    if box.height(e) <= T
                )
                for m in ms:
                    want = tuple(e for _, e in lattice
                                 if any(a < b for a, b in zip(e, m)))
                    got = build_exponent_set(ExactLog(T), m, box)
                    assert got.members == want, (bounds, T, m)
                    assert got.restricted_members == tuple(e for e in want if e[0] < m[0])


def old_build(T, m, box):
    """(members, restricted members) of the staircase at height T, by the
    full build the set used to run eagerly: every member visited, then
    sorted by the box order."""
    keyed = []
    h1, e1 = 1, 0
    while h1 <= T:
        h12, e2 = h1, 0
        while h12 <= T:
            stop = m[2] if e1 >= m[0] and e2 >= m[1] else INFINITE
            if not stop:
                break
            h, e3 = h12, 0
            while h <= T and e3 < stop:
                keyed.append((h, (e1, e2, e3)))
                h *= box.b3
                e3 += 1
            h12 *= box.b2
            e2 += 1
        h1 *= box.b1
        e1 += 1
    members = tuple(e for _, e in sorted(keyed))
    return members, tuple(e for e in members if e[0] < m[0])


def lazy_cases():
    """A seeded sweep of (T, m, box): equal and unequal boxes, dominants with
    zero coordinates, height 1 and heights at exact powers and products of
    the bounds, where members tie in height."""
    rng = random.Random(3707)
    boxes = [(2, 2, 2), (3, 3, 3), (7, 7, 7), (2, 3, 5), (12, 20, 30), (5, 5, 7), (7, 2, 3)]
    boxes += [tuple(rng.randint(2, 15) for _ in range(3)) for _ in range(6)]
    dominants = [(2, 0, 0), (0, 0, 3), (0, 2, 0), (1, 1, 0), (0, 1, 1), (2, 1, 3)]
    for bounds in boxes:
        box = BoxBounds(*bounds)
        heights = {1, rng.randint(2, 10 ** 6)}
        for b in bounds:
            heights |= {b ** k for k in range(1, 6)}
        heights |= {box.height((1, 1, 1)), box.height((2, 0, 1))}
        for T in sorted(heights):
            for m in dominants + [tuple(rng.randint(0, 3) for _ in range(2)) + (1,)]:
                yield T, m, box


class TestWalkOnlyWhatIsRead:
    """The set's closed forms, slab sums and prefixes against the full
    build it used to run eagerly."""

    def test_slab_sums_are_the_member_sums(self):
        for T, m, box in lazy_cases():
            members, restricted = old_build(T, m, box)
            count, sums, (se2, se3) = detsieve.exponents._slab_sums(ExactLog(T), m, box)
            assert count == len(members) == staircase_size(ExactLog(T), m, box)
            assert sums == tuple(sum(e[i] for e in members) for i in range(3)), (T, m, box)
            assert (se2, se3) == (sum(e[1] for e in restricted), sum(e[2] for e in restricted))
            stats = set_statistics(build_exponent_set(ExactLog(T), m, box))
            assert stats == SetStatistics(len(members), dot(sums, box.log_heights()), se2, se3)

    def test_every_prefix_is_a_head_of_the_members(self):
        for T, m, box in lazy_cases():
            members, restricted = old_build(T, m, box)
            rising = build_exponent_set(ExactLog(T), m, box)
            for n in range(len(members) + 1):
                got = rising.prefix(n)
                assert len(got) >= n and got == members[:len(got)], (T, m, box, n)
                if len(members) <= 60:
                    fresh = build_exponent_set(ExactLog(T), m, box).prefix(n)
                    assert len(fresh) >= n and fresh == members[:len(fresh)]
            assert rising.prefix(None) == rising.members == members
            assert rising.restricted_members == restricted

    def test_a_prefix_walks_below_the_cutoff(self):
        # aux-grid's staircase: 1 443 members, of which its 8-point class
        # reads 9 and then 18; neither walk reaches the cutoff
        T = 353265586727888747578466418333164285171073024
        E = build_exponent_set(ExactLog(T), (0, 0, 2), BoxBounds(12, 20, 30))
        assert len(E) == 1443
        assert len(E.prefix(9)) < 100 and len(E.prefix(18)) < 100
        assert E._walked[0] < T
        assert "members" not in vars(E)


class TestSideConditionContract:
    """Every function that takes (g, q) refuses a bad pair with the message
    SideCondition gives it: the contract is written once."""

    F = IntegerPolynomial(3, {(2, 0, 0): 5, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
    G = IntegerPolynomial(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
    BAD = {
        "g of arity 4": (IntegerPolynomial(4, {(0, 2, 0, 0): 1, (0, 0, 0, 0): -6}), 5),
        "constant g": (IntegerPolynomial(3, {(0, 0, 0): 6}), 5),
        "g with x1": (IntegerPolynomial(3, {(1, 0, 0): 1, (0, 2, 0): 1}), 5),
        "q = 0": (G, 0),
        "q = '5'": (G, "5"),
    }

    @classmethod
    def side_calls(cls):
        """The six functions that take a side condition, each called on one."""
        from detsieve.determinant import (
            build_matrix, congruence_certificates, congruence_reduce, select_shift,
        )

        f, box = cls.F, cube(2)
        pts = list(enumerate_points(f, SideCondition(cls.G, 5), box))
        E = build_exponent_set(ExactLog.power(2, 3), (2, 0, 0), box)
        M = build_matrix(pts, E)
        return {
            "compute_params": lambda side: compute_params(f, side, box, 0.5),
            "aux_pipeline": lambda side: aux_pipeline(f, side, box, None, 0.5, pts),
            "congruence_certificates": lambda side: congruence_certificates(M, side, E),
            "congruence_reduce": lambda side: congruence_reduce(M, side, (0, 0, 0), E),
            "select_shift": select_shift,
            "enumerate_points": lambda side: enumerate_points(f, side, box),
        }

    @classmethod
    def calls(cls):
        from detsieve.applications import build_slice

        h = IntegerPolynomial(4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 0, 1): 1})
        calls = {name: lambda g, q, call=call: call(SideCondition(g, q))
                 for name, call in cls.side_calls().items()}
        # a slice's side condition has modulus 1, so only g can be bad
        calls["build_slice"] = lambda g, q: build_slice(1, 1, 0, h, g, 1)
        return calls

    NAMES = ("compute_params", "aux_pipeline", "congruence_certificates",
             "congruence_reduce", "build_slice", "enumerate_points")

    @pytest.mark.parametrize("name, bad", [
        (name, bad) for name, bad in itertools.product(NAMES, BAD)
        # build_slice takes no modulus
        if not (name == "build_slice" and bad.startswith("q"))
    ])
    def test_refused_with_the_side_condition_message(self, name, bad):
        g, q = self.BAD[bad]
        with pytest.raises(ContractViolation) as want:
            SideCondition(g, q)
        with pytest.raises(ContractViolation) as got:
            self.calls()[name](g, q)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("name", ("compute_params", "aux_pipeline", "congruence_certificates",
                                      "congruence_reduce", "select_shift", "enumerate_points"))
    @pytest.mark.parametrize("side", (G, (G, 5)), ids=("polynomial", "pair"))
    def test_a_side_that_is_not_a_side_condition_is_refused(self, name, side):
        # enumerate_points(f, g, box) used to fail with a bare AttributeError
        kind = type(side).__name__
        with pytest.raises(ContractViolation, match=f"side must be a SideCondition, not {kind}"):
            self.side_calls()[name](side)

    def test_importable_from_every_old_home(self):
        import detsieve
        import detsieve.enumeration

        assert detsieve.SideCondition is detsieve.exponents.SideCondition
        assert detsieve.enumeration.SideCondition is detsieve.exponents.SideCondition
