"""Quadric counts, threefold slices, power-sum bounds, subvariety covers."""

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from mpmath import mp

from detsieve import applications, enumeration
from detsieve.applications import (
    QuadricInstance,
    _FRACTION_BITS,
    _alternating_factor,
    _fixed_exponent,
    _power_sums,
    _power_table,
    UnlikePowersInstance,
    build_slice,
    count_quadric,
    count_unlike,
    excluded_subvarieties,
    gcd_power_sum,
    predicted_exponents,
    q_of_n,
    quadric_cover_scale,
    wronskian_bound_check,
)
from detsieve.errors import CapExceeded, ContractViolation, SoundnessError
from detsieve.polynomials import IntegerPolynomial

P = IntegerPolynomial


def R(coeffs):
    """The polynomial in one variable with these coefficients, constant first."""
    return IntegerPolynomial(1, {(k,): c for k, c in enumerate(coeffs)})


class TestQuadricInstance:
    def test_invariants_enforced(self):
        with pytest.raises(ContractViolation, match="nonzero"):
            QuadricInstance(0, 1, 1, 5, 10)
        with pytest.raises(ContractViolation, match="common factor"):
            QuadricInstance(2, 2, 2, 4, 10)
        # -a1*a2*a3*n = 4 is a perfect square
        with pytest.raises(ContractViolation, match="rational lines"):
            QuadricInstance(1, 1, 1, -4, 10)

    def test_negative_products_are_never_squares(self):
        # -a1*a2*a3*n = -5 < 0: admissible
        inst = QuadricInstance(1, 1, 1, 5, 10)
        assert inst.coefficients == (1, 1, 1)

    def test_surface_polynomial(self):
        inst = QuadricInstance(2, 3, -1, 7, 5)
        f = inst.surface()
        assert f.evaluate((1, 2, 3)) == 2 + 12 - 9 - 7

    def test_column_count_formula(self):
        assert q_of_n(2) == 9
        assert q_of_n(0) == 1
        assert q_of_n(3) == 16
        for n in range(1, 30):
            assert q_of_n(n) == (n + 1) ** 2
        for bad in (2.5, True, "2"):
            with pytest.raises(ContractViolation, match="cutoff index must be an integer"):
                q_of_n(bad)

    def test_sharpened_cover_scale(self):
        assert quadric_cover_scale(64, 4096) == 128


class TestCountQuadric:
    def test_brute_frozen_counts(self):
        assert count_quadric(QuadricInstance(1, 1, 1, 5, 10)).count == 24
        assert count_quadric(QuadricInstance(5, 1, 1, 6, 2)).count == 8

    def test_pipeline_matches_brute(self):
        inst = QuadricInstance(5, 1, 1, 6, 2)
        got = count_quadric(inst, mode="pipeline", floor_const=10)
        assert got.count == 8
        assert got.modulus == 5
        assert got.permutation == (0, 1, 2)
        assert got.report.coverage_complete

    def test_pipeline_unit_modulus(self):
        inst = QuadricInstance(1, 1, 1, 5, 10)
        got = count_quadric(inst, mode="pipeline", floor_const=4)
        assert got.count == 24
        assert got.modulus == 1
        assert got.report.coverage_complete

    def test_pipeline_permutes_largest_coefficient(self):
        inst = QuadricInstance(1, -7, 1, 5, 2)
        got = count_quadric(inst, mode="pipeline", floor_const=10)
        assert got.modulus == 7
        assert got.permutation[0] == 1
        assert got.count == count_quadric(inst).count

    def test_pipeline_matches_brute_randomized(self):
        rng = random.Random(31)
        done = 0
        while done < 8:
            a = [rng.choice([-3, -2, -1, 1, 2, 3, 5]) for _ in range(3)]
            n = rng.randrange(1, 30)
            try:
                inst = QuadricInstance(a[0], a[1], a[2], n, rng.randrange(2, 7))
            except ContractViolation:
                continue
            done += 1
            brute = count_quadric(inst).count
            pipe = count_quadric(inst, mode="pipeline", floor_const=10)
            assert pipe.count == brute
            assert pipe.report.coverage_complete

    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractViolation):
            count_quadric(QuadricInstance(1, 1, 1, 5, 10), mode="magic")

    def test_brute_counts_the_unit_cube(self):
        # a box bound is at least 2, so the box of 2 is enumerated and its
        # points outside [-1, 1]^3 are dropped
        got = count_quadric(QuadricInstance(3, 1, 1, 5, 1))
        plain = [x for x in itertools.product(range(-1, 2), repeat=3)
                 if 3 * x[0] ** 2 + x[1] ** 2 + x[2] ** 2 == 5]
        assert got.count == 8
        assert list(got.points) == plain

    def test_pipeline_refuses_the_unit_cube(self):
        with pytest.raises(ContractViolation, match="box bound 1 is below 2"):
            count_quadric(QuadricInstance(3, 1, 1, 5, 1), "pipeline")

    @pytest.mark.parametrize("epsilon", ("0.5", True, math.nan, 0, -1))
    def test_epsilon_refused_before_enumeration(self, monkeypatch, epsilon):
        # "0.5" used to enumerate the whole box, then raise a bare TypeError
        def stand_in(*args):
            raise Started

        monkeypatch.setattr(applications, "enumerate_points", stand_in)
        with pytest.raises(ContractViolation, match="epsilon must be positive and finite"):
            count_quadric(QuadricInstance(3, 1, 1, 1001, 10), "pipeline", epsilon=epsilon)


    @pytest.mark.parametrize("epsilon", (10.5, 1e7, 1e300, 10 ** 400),
                             ids=("10.5", "1e7", "1e300", "10^400"))
    def test_epsilon_over_the_cap_refused_before_enumeration(self, monkeypatch, epsilon):
        # an integral 1e7 used to run for seconds: power forms B^epsilon exactly
        def stand_in(*args):
            raise Started

        monkeypatch.setattr(applications, "enumerate_points", stand_in)
        monkeypatch.setattr(applications, "_power", stand_in)
        with pytest.raises(ContractViolation, match="epsilon must be at most 10"):
            count_quadric(QuadricInstance(3, 1, 1, 1001, 10), "pipeline", epsilon=epsilon)


class Started(Exception):
    """Raised by a stand-in for the first step of the work: the call got
    past its cap."""


class TestWorkCaps:
    def test_quadric_refused_at_the_fiber_cap(self, monkeypatch):
        def stand_in(coeffs, xs):
            raise Started(len(xs))

        monkeypatch.setattr(enumeration, "_horner_row", stand_in)
        # a box [B, B, B] walks (2B + 1)^2 fibers
        for mode in ("brute", "pipeline"):
            with pytest.raises(Started):
                count_quadric(QuadricInstance(3, 1, 1, 1001, 4999), mode)
            for B in (5000, 10 ** 30):
                with pytest.raises(CapExceeded, match="fibers"):
                    count_quadric(QuadricInstance(3, 1, 1, 1001, B), mode)

    # brute (2B+1)^4 steps, meet-in-middle a table of (2B+1)^2 pair sums,
    # sliced-pipeline 4B + 1 slices of (2B+1)^2 steps
    @pytest.mark.parametrize("mode, B", (("brute", 49), ("meet-in-middle", 1580),
                                         ("sliced-pipeline", 183)))
    def test_unlike_refused_at_the_work_cap(self, monkeypatch, mode, B):
        def stand_in(*args):
            raise Started(*args)

        # the power maps start brute and meet-in-middle, the alternating
        # factor sliced-pipeline
        for name in ("_power_map", "_alternating_factor"):
            monkeypatch.setattr(applications, name, stand_in)
        with pytest.raises(Started):
            count_unlike(UnlikePowersInstance(13, 5, 3, 2, B), mode)
        for over in (B + 1, 10 ** 30):
            with pytest.raises(CapExceeded, match="needs over"):
                count_unlike(UnlikePowersInstance(13, 5, 3, 2, over), mode)

    def test_power_sum_range_refused_at_the_cap(self, monkeypatch):
        def stand_in(a, X):
            raise Started(X)

        monkeypatch.setattr(applications, "_power_table", stand_in)
        cap = applications.POWER_SUM_RANGE_CAP
        with pytest.raises(Started):
            gcd_power_sum(-0.5, cap, 6)
        for over in (cap + 1, 10 ** 30):
            with pytest.raises(CapExceeded, match="range X"):
                gcd_power_sum(-0.5, over, 6)


class TestBuildSlice:
    def test_cubic_diagonal_slice(self):
        h = P(4, {(2, 0, 0, 0): 1, (1, 0, 0, 1): -1, (0, 0, 0, 2): 1})
        g = P(3, {(0, 1, 0): 1})
        sl = build_slice(1, 1, 0, h, g, 1)
        assert sl.h_u.terms == {(2, 0, 0): 3, (1, 0, 0): -3, (0, 0, 0): 1}
        # slice polynomial is u*h_u + beta^(deg h)*g with u = beta = 1
        assert sl.slice_poly.terms == {
            (2, 0, 0): 3, (1, 0, 0): -3, (0, 0, 0): 1, (0, 1, 0): 1,
        }
        assert not sl.degenerate

    def test_linear_substitution_constant(self):
        h = P(4, {(0, 0, 0, 1): 1})
        g = P(3, {(0, 1, 0): 1})
        sl = build_slice(0, 2, 0, h, g, 4)
        assert sl.h_u.terms == {(0, 0, 0): 4}

    def test_zero_slice_degenerate(self):
        h = P(4, {(2, 0, 0, 0): 1, (1, 0, 0, 1): -1, (0, 0, 0, 2): 1})
        sl = build_slice(1, 1, 0, h, P(3, {(0, 1, 0): 1}), 0)
        assert sl.degenerate

    def test_zero_beta_rejected(self):
        h = P(4, {(0, 0, 0, 1): 1})
        with pytest.raises(ContractViolation):
            build_slice(1, 0, 0, h, P(3, {(0, 1, 0): 1}), 1)

    def test_denominator_always_cleared(self):
        # beta = 3 does not divide the substituted values, yet the
        # cleared polynomial must have integer coefficients
        h = P(4, {(0, 0, 0, 2): 1, (1, 0, 0, 1): 1})
        g = P(3, {(0, 1, 0): 1})
        sl = build_slice(2, 3, 1, h, g, 7)
        for coeff in sl.h_u.terms.values():
            assert isinstance(coeff, int)
        # evaluate both sides at a point where x4 is integral:
        # x4 = (u - 2*x1 - 1)/3 is an integer at x1 = 0 -> x4 = 2
        lhs = 3**2 * h.evaluate((0, 5, 6, 2))
        assert sl.h_u.evaluate((0, 5, 6)) == lhs

    def test_matches_binary_power_formula(self):
        # the old construction, which raised the linear form to each power
        # j from scratch, is the reference for the incremental powers
        def reference_h_u(alpha, beta, gamma, h, u):
            kp = h.total_degree()
            linear = P(3, {(0, 0, 0): u - gamma, (1, 0, 0): -alpha})
            out = P.zero(3)
            for j, cj in h.coefficients_in(3).items():
                cj = P(3, {e[:3]: c for e, c in cj.terms.items()})
                out = out + cj * (linear ** j) * (beta ** (kp - j))
            return out

        g = P(3, {(0, 5, 0): 1, (0, 0, 3): 1, (0, 0, 0): -100})
        sparse = P(4, {(0, 0, 0, 7): 2, (1, 1, 0, 3): -1, (0, 2, 1, 0): 5})
        for h in (_alternating_factor(13), _alternating_factor(15), sparse):
            for alpha, beta, gamma in ((1, 1, 0), (2, -3, 5)):
                for u in range(-24, 25):
                    if u == 0:
                        continue
                    sl = build_slice(alpha, beta, gamma, h, g, u)
                    assert sl.h_u == reference_h_u(alpha, beta, gamma, h, u)

    def test_slice_parameters_must_be_integers(self):
        h = P(4, {(0, 0, 0, 2): 1})
        g = P(3, {(0, 1, 0): 1})
        for i, name in enumerate(("alpha", "beta", "gamma", "u")):
            for bad in (1.5, True, "2"):
                args = [1, 2, 0, 12]
                args[i] = bad
                with pytest.raises(ContractViolation, match=f"{name} must be an integer"):
                    build_slice(*args[:3], h, g, args[3])

    def test_modulus_strips_beta_powers(self):
        h = P(4, {(0, 0, 0, 2): 1})
        g = P(3, {(0, 1, 0): 1})
        sl = build_slice(1, 2, 0, h, g, 12)
        # |u| / gcd(u, beta^2): 12 / gcd(12, 4) = 3
        assert sl.modulus == 3


class TestCountUnlike:
    def test_frozen_tiny_instance(self):
        inst = UnlikePowersInstance(5, 3, 2, 4, 1)
        assert count_unlike(inst).count == 2
        assert count_unlike(inst, "meet-in-middle").count == 2

    def test_no_solutions(self):
        # x1^5 + x2^3 + x3^2 + x4^5 = 9999 unreachable in a tiny box
        inst = UnlikePowersInstance(5, 3, 2, 9999, 2)
        assert count_unlike(inst).count == 0
        assert count_unlike(inst, "meet-in-middle").count == 0

    def test_meet_in_middle_matches_brute(self):
        rng = random.Random(77)
        for _ in range(20):
            k = rng.choice([3, 5, 7])
            l = rng.choice([2, 3, 4])
            m = rng.choice([2, 3])
            N = rng.randrange(-40, 41) or 1
            B = rng.randrange(2, 13)
            inst = UnlikePowersInstance(k, l, m, N, B)
            assert (
                count_unlike(inst).count
                == count_unlike(inst, "meet-in-middle").count
            )

    def test_meet_in_middle_matches_brute_larger_box(self):
        inst = UnlikePowersInstance(5, 4, 2, 17, 20)
        assert (
            count_unlike(inst).count
            == count_unlike(inst, "meet-in-middle").count
        )

    def test_sliced_pipeline_matches_brute(self):
        inst = UnlikePowersInstance(13, 3, 2, 2, 2)
        brute = count_unlike(inst)
        sliced = count_unlike(inst, "sliced-pipeline")
        assert brute.count == 25
        assert sliced.count == 25
        assert sliced.zero_slice == 10
        assert "irreducible" in sliced.assumed_hypothesis

    def test_sliced_pipeline_matches_brute_and_meet_in_middle(self):
        rng = random.Random(1315)
        seen_signs = set()
        for _ in range(8):
            k = rng.choice((13, 15))
            l = rng.randrange(3, 7)
            m = rng.randrange(2, l)
            N = rng.choice((-1, 1)) * rng.randrange(1, 40)
            B = rng.randrange(2, 6)
            inst = UnlikePowersInstance(k, l, m, N, B)
            brute = count_unlike(inst).count
            assert count_unlike(inst, "meet-in-middle").count == brute, (k, l, m, N, B)
            assert count_unlike(inst, "sliced-pipeline").count == brute, (k, l, m, N, B)
            seen_signs.add((N > 0, brute > 0))
        assert seen_signs == {(False, False), (False, True), (True, False), (True, True)}

    @pytest.mark.parametrize("B, want", ((1, 10), (2, 12)))
    def test_three_modes_agree_on_the_smallest_boxes(self, B, want):
        # a box bound is at least 2, so at B = 1 the slices are enumerated in
        # the box of 2 and only their points inside the cube are counted
        inst = UnlikePowersInstance(13, 5, 3, 2, B)
        counts = {mode: count_unlike(inst, mode).count
                  for mode in ("brute", "meet-in-middle", "sliced-pipeline")}
        assert counts == dict.fromkeys(counts, want)

    @pytest.mark.parametrize("B", (1, 2, 3))
    def test_one_enumeration_per_slice_of_the_cube(self, monkeypatch, B):
        # x4 = u - x1 lies in [-B, B] only for u in [-2B, 2B], and the u = 0
        # cylinder is enumerated like every other slice.  The slice surface
        # u * h_u + g has constant term u^k - N, and modulus |u| (1 at u = 0).
        k, N = 13, 2
        seen = []
        enumerate_points = applications.enumerate_points

        def spy(f, side, box):
            c0 = f.evaluate((0, 0, 0))
            (u,) = (u for u in range(-2 * B, 2 * B + 1) if u ** k == c0 + N)
            seen.append((u, side.q))
            return enumerate_points(f, side, box)

        monkeypatch.setattr(applications, "enumerate_points", spy)
        count_unlike(UnlikePowersInstance(k, 5, 3, N, B), "sliced-pipeline")
        assert len(seen) == 4 * B + 1
        assert seen == [(u, abs(u) or 1) for u in range(-2 * B, 2 * B + 1)]

    # 2^13 + 2^13 = 16384 with x2^5 + x3^3 = 0 at (-1, 1), (0, 0), (1, -1);
    # 3^13 + 3^13 + 1^5 + 2^3 = 3188655
    @pytest.mark.parametrize("N, B, u, want", ((16384, 2, 4, 3), (3188655, 3, 6, 1)))
    def test_points_on_the_extreme_slices_only(self, N, B, u, want):
        inst = UnlikePowersInstance(13, 5, 3, N, B)
        counts = {mode: count_unlike(inst, mode).count
                  for mode in ("brute", "meet-in-middle", "sliced-pipeline")}
        assert counts == dict.fromkeys(counts, want)
        sliced = count_unlike(inst, "sliced-pipeline")
        assert (sliced.zero_slice, sliced.per_slice) == (0, ((u, want),))

    @pytest.mark.parametrize("B", (1, 2, 3, 5))
    def test_zero_slice_is_the_cylinder_over_the_fibers(self, B):
        # the oracle is a hand count: odd k forces x4 = -x1 at u = 0, so
        # each fiber x2^l + x3^m = N carries 2B + 1 points
        rng = range(-B, B + 1)
        total = 0
        for N in (1, 2, 9, 33, -31):
            fibers = sum(1 for x2 in rng for x3 in rng if x2 ** 5 + x3 ** 3 == N)
            got = count_unlike(UnlikePowersInstance(13, 5, 3, N, B), "sliced-pipeline")
            assert got.zero_slice == fibers * (2 * B + 1)
            total += fibers
        assert total > 0

    def test_substitution_is_done_once_per_count(self, monkeypatch):
        # every slice evaluates u-powers of one substituted polynomial, so
        # the polynomial products per count do not grow with the slices
        products = []
        mul = P.__mul__

        def spy_mul(self, other):
            products.append(1)
            return mul(self, other)

        monkeypatch.setattr(P, "__mul__", spy_mul)
        per_count = []
        for B in (2, 3, 5):
            products.clear()
            count_unlike(UnlikePowersInstance(13, 5, 3, 2, B), "sliced-pipeline")
            per_count.append(len(products))
        assert per_count[0] > 0
        assert per_count == [per_count[0]] * 3

    def test_unknown_mode_rejected_before_the_power_tables(self, monkeypatch):
        # the tables over range(-B, B + 1) are built after the mode is
        # read, so a bad mode never pays for a huge box
        def refuse(*args):
            raise AssertionError("power tables built")

        monkeypatch.setattr(applications, "range", refuse, raising=False)
        inst = UnlikePowersInstance(5, 3, 2, 4, 1)
        with pytest.raises(ContractViolation, match="unknown unlike-powers mode"):
            count_unlike(inst, "fast")
        with pytest.raises(AssertionError, match="power tables built"):
            count_unlike(inst, "brute")

    def test_sliced_pipeline_enforces_theorem_mode(self):
        with pytest.raises(ContractViolation):
            count_unlike(UnlikePowersInstance(5, 3, 2, 4, 1), "sliced-pipeline")
        # even exponent rejected
        with pytest.raises(ContractViolation):
            count_unlike(UnlikePowersInstance(14, 3, 2, 2, 1), "sliced-pipeline")

    def test_slice_points_satisfy_slice_polynomial(self):
        # every threefold point with x1 + x4 = u != 0 solves the
        # corresponding slice surface in (x1, x2, x3)
        inst = UnlikePowersInstance(13, 3, 2, 2, 2)
        k, l, m, N, B = 13, 3, 2, 2, 2
        h = P(4, {
            (k - 1 - i, 0, 0, i): (-1) ** i for i in range(k)
        })
        g = P(3, {(0, l, 0): 1, (0, 0, m): 1, (0, 0, 0): -N})
        found = 0
        for x1 in range(-B, B + 1):
            for x2 in range(-B, B + 1):
                for x3 in range(-B, B + 1):
                    for x4 in range(-B, B + 1):
                        if x1**k + x2**l + x3**m + x4**k != N:
                            continue
                        u = x1 + x4
                        if u == 0:
                            continue
                        sl = build_slice(1, 1, 0, h, g, u)
                        assert sl.slice_poly.evaluate((x1, x2, x3)) == 0
                        found += 1
        assert found > 0

    def test_instance_validation(self):
        with pytest.raises(ContractViolation):
            UnlikePowersInstance(5, 3, 2, 0, 1)  # zero target
        with pytest.raises(ContractViolation):
            UnlikePowersInstance(5, 3, 2, 4, 0)  # empty box


class TestGcdPowerSum:
    def test_frozen_four_term_sum(self):
        got = gcd_power_sum(-0.5, 4, 2)
        expect = mp.mpf(2) + mp.mpf(3) ** mp.mpf(-0.5) + mp.mpf(2) ** mp.mpf(-0.5)
        assert abs(got.total - expect) < mp.mpf(10) ** -12
        assert abs(float(got.total) - 3.28446) < 5e-6

    def test_trivial_gcd(self):
        got = gcd_power_sum(-0.25, 50, 1)
        expect = sum(mp.mpf(u) ** mp.mpf(-0.25) for u in range(1, 51))
        assert abs(got.total - expect) < mp.mpf(10) ** -12

    def test_majorant_dominates(self):
        rng = random.Random(55)
        for _ in range(25):
            alpha = -rng.uniform(0.05, 0.95)
            X = rng.randrange(1, 200)
            n = rng.randrange(1, 60)
            got = gcd_power_sum(alpha, X, n)
            assert got.total <= got.majorant

    def test_range_validation(self):
        for bad in (0, -1, -1.5, 0.5):
            with pytest.raises(ContractViolation):
                gcd_power_sum(bad, 10, 2)

    def test_exponent_types(self):
        want = gcd_power_sum(-0.5, 40, 6)
        assert gcd_power_sum(Fraction(-1, 2), 40, 6) == want
        for bad in ("-0.5", True, False, Decimal("-0.5"), [-0.5], None, -0.5j,
                    mp.mpf(-0.5), mp.mpf(0), float("nan"), float("-inf")):
            with pytest.raises(ContractViolation, match="exponent must be a finite number"):
                gcd_power_sum(bad, 40, 6)
        for bad in (-1, 0, Fraction(-3, 2)):
            with pytest.raises(ContractViolation, match="strictly between -1 and 0"):
                gcd_power_sum(bad, 40, 6)

    def test_fixed_exponent_exact_or_nearest(self):
        one = 1 << _FRACTION_BITS
        # a float's every bit lies above 2^-F down to |alpha| = 2^-76
        for alpha in (-0.37, -1e-9, -0.999999, -2.0 ** -76):
            assert _fixed_exponent(alpha) == Fraction(alpha) * one
        # -2/3 * 2^F ends in .67: the nearest integer, not the truncation
        assert _fixed_exponent(Fraction(-2, 3)) == round(Fraction(-2 * one, 3))
        assert _fixed_exponent(-1e-300) == 0

    @pytest.mark.parametrize("alpha", [
        -0.999999, Fraction(-1, 2), -0.001, -1e-9,
    ], ids=["near-1", "half", "near-0", "1e-9"])
    def test_table_within_documented_bound(self, alpha):
        # every entry up to 10^4 against a 256-bit power, within the
        # _power_table bound 3 * log2(u) * (1 + 9 * u^alpha) units of 2^-F
        X = 10 ** 4
        pw = _power_table(_fixed_exponent(alpha), X)
        assert len(pw) == X + 1
        assert pw[1] == 1 << _FRACTION_BITS
        with mp.workprec(256):
            a = mp.mpf(alpha.numerator) / alpha.denominator \
                if isinstance(alpha, Fraction) else mp.mpf(alpha)
            scale = mp.mpf(2) ** _FRACTION_BITS
            for u in range(2, X + 1):
                exact = mp.power(u, a)
                bound = 3 * mp.log(u, 2) * (1 + 9 * exact)
                assert abs(pw[u] - exact * scale) <= bound, (alpha, u)

    def test_table_holds_only_ints(self):
        for alpha in (-0.5, -1e-9, -0.98):
            pw = _power_table(_fixed_exponent(alpha), 3000)
            assert all(type(v) is int for v in pw)

    def test_integer_sums_ordered(self):
        rng = random.Random(2024)
        for _ in range(200):
            alpha = -rng.uniform(0.02, 0.98)
            X = int(math.exp(rng.uniform(0, math.log(3000))))
            n = rng.randrange(1, 1001)
            total, majorant, terms = _power_sums(_fixed_exponent(alpha), X, n)
            assert type(total) is int and type(majorant) is int
            assert 0 < total <= majorant, (alpha, X, n)
            got = gcd_power_sum(alpha, X, n)
            assert got.terms == terms
            # each sum is rounded once, to 96 bits, then scaled exactly
            with mp.workprec(96):
                assert got.total == mp.ldexp(mp.mpf(total), -_FRACTION_BITS)
                assert got.majorant == mp.ldexp(mp.mpf(majorant), -_FRACTION_BITS)

    def test_order_failure_is_a_soundness_error(self, monkeypatch):
        monkeypatch.setattr(applications, "_power_sums", lambda a, X, n: (2, 1, 3))
        with pytest.raises(SoundnessError, match="exceeds its majorant"):
            gcd_power_sum(-0.5, 10, 2)

    def test_integer_arguments_not_truncated(self):
        # each of these used to run on a silently truncated integer
        with pytest.raises(ContractViolation, match="range X must be an integer"):
            gcd_power_sum(-0.5, 10.7, 3)
        with pytest.raises(ContractViolation, match="range X must be an integer"):
            gcd_power_sum(-0.5, True, 3)
        with pytest.raises(ContractViolation, match="twist n must be an integer"):
            gcd_power_sum(-0.5, 10, 2.9)
        with pytest.raises(ContractViolation, match="twist n must be an integer"):
            gcd_power_sum(-0.5, 10, False)
        with pytest.raises(ContractViolation, match="range X must be an integer"):
            gcd_power_sum(-0.5, "10", 3)
        with pytest.raises(ContractViolation, match="must be positive"):
            gcd_power_sum(-0.5, 0, 3)
        with pytest.raises(ContractViolation, match="must be positive"):
            gcd_power_sum(-0.5, 10, -2)

    def test_matches_sequential_reference(self):
        # the earlier implementation: one mpf power per distinct value and a
        # rounded add per term, over every d in 1..n that divides n
        def sequential(alpha, X, n):
            with mp.workprec(96):
                a = mp.mpf(alpha)
                cache = {}

                def upow(u):
                    if u not in cache:
                        cache[u] = mp.mpf(u) ** a
                    return cache[u]

                total = sum((upow(u // math.gcd(u, n)) for u in range(1, X + 1)),
                            mp.mpf(0))
                majorant = mp.mpf(0)
                terms = X
                for d in range(1, n + 1):
                    if n % d == 0:
                        for u in range(1, X // d + 1):
                            majorant += upow(u)
                            terms += 1
                return total, majorant, terms

        rng = random.Random(4242)
        draws = [(-rng.uniform(0.02, 0.98), X, n) for X, n in (
            (1, 1), (1, 720), (997, 12), (1009, 1), (7, 360), (30, 997))]
        draws += [(-rng.uniform(0.02, 0.98), 10 ** 4, n) for n in (720, 840, 997)]
        for _ in range(200):
            X = int(math.exp(rng.uniform(0, math.log(3000))))
            draws.append((-rng.uniform(0.02, 0.98), X, rng.randrange(1, 1001)))
        for alpha, X, n in draws:
            got = gcd_power_sum(alpha, X, n)
            total, majorant, terms = sequential(alpha, X, n)
            assert got.terms == terms
            assert got.total <= got.majorant, (alpha, X, n)
            tol = 4 * terms * mp.mpf(2) ** -96
            with mp.workprec(192):
                assert abs(got.total - total) <= tol * total, (alpha, X, n)
                assert abs(got.majorant - majorant) <= tol * majorant, (alpha, X, n)


class TestWronskianBoundCheck:
    def test_synthetic_identity(self):
        # t^2 + (1 - t^2) = 1: degrees (1, 2), exponents (2, 1)
        rep = wronskian_bound_check([R([0, 1]), R([1, 0, -1])], [2, 1])
        assert rep.applicable
        assert rep.lhs == 2
        assert rep.rhs == 2
        assert rep.passed
        assert rep.divisibility_ok

    def test_degenerate_single_power(self):
        rep = wronskian_bound_check([R([1])], [3])
        assert rep.applicable
        assert (rep.lhs, rep.rhs) == (0, 0)
        assert rep.passed

    def test_dependent_family_inapplicable(self):
        # t + t + (1 - 2t) = 1 but the powers are linearly dependent
        rep = wronskian_bound_check([R([0, 1]), R([0, 1]), R([1, -2])], [1, 1, 1])
        assert not rep.applicable

    def test_exponents_must_be_integers(self):
        # 2.5 used to be truncated to 2
        for bad in (2.5, 2.0, True, "2"):
            with pytest.raises(ContractViolation, match="exponent must be an integer"):
                wronskian_bound_check([R([0, 1]), R([1, 0, -1])], [bad, 1])

    def test_refuses_anything_but_nonzero_univariate_integer_polynomials(self):
        t = R([0, 1])
        for gammas, match in (
            ([t, P(2, {(0, 0): 1, (1, 0): -1})], "one variable"),
            ([t, [1, -1]], "one variable"),
            ([t, R([0])], "nonzero"),
        ):
            with pytest.raises(ContractViolation, match=match):
                wronskian_bound_check(gammas, [1, 1])

    def test_nonconstant_sum_rejected(self):
        with pytest.raises(ContractViolation, match="nonzero constant"):
            wronskian_bound_check([R([0, 1]), R([0, 1])], [2, 2])

    def test_pythagorean_style_families(self):
        # (1 - t^a)+ t^a = 1 for a range of exponent splits
        rng = random.Random(91)
        for _ in range(20):
            a = rng.randrange(1, 6)
            gamma1 = R([1] + [0] * (a - 1) + [-1])  # 1 - t^a
            rep = wronskian_bound_check([gamma1, R([0, 1])], [1, a])
            if not rep.applicable:
                continue
            assert rep.passed
            assert rep.divisibility_ok


class TestExcludedSubvarieties:
    def test_frozen_instance(self):
        rep = excluded_subvarieties(UnlikePowersInstance(13, 3, 2, 2, 2))
        assert len(rep.systems) == 4
        assert [s.count for s in rep.systems] == [10, 3, 0, 0]
        assert rep.union_count == 13

    def test_first_system_points_mirror_first_axis(self):
        rep = excluded_subvarieties(UnlikePowersInstance(13, 3, 2, 2, 2))
        for pt in rep.systems[0].points:
            assert pt[3] == -pt[0]
            assert pt[1] ** 3 + pt[2] ** 2 == 2

    def test_every_point_on_every_system_equation(self):
        rep = excluded_subvarieties(UnlikePowersInstance(13, 3, 2, 3, 2))
        for system in rep.systems:
            for pt in system.points:
                for eq in system.equations:
                    assert eq.evaluate(pt) == 0

    def test_union_deduplicates(self):
        rep = excluded_subvarieties(UnlikePowersInstance(13, 3, 2, 2, 2))
        assert len(rep.union_points) == rep.union_count
        assert len(set(rep.union_points)) == rep.union_count

    def test_partition_against_full_count(self):
        # subvariety points plus off-subvariety points tile the count
        for N in (1, 2, 3, -2):
            inst = UnlikePowersInstance(13, 3, 2, N, 2)
            rep = excluded_subvarieties(inst)
            total = count_unlike(inst).count
            union = set(rep.union_points)
            off = total - len(union)
            assert off >= 0
            assert len(union) + off == total

    def test_theorem_mode_enforced(self):
        with pytest.raises(ContractViolation):
            excluded_subvarieties(UnlikePowersInstance(5, 3, 2, 4, 1))

    def test_target_past_float_range(self):
        # N - x1^13 is far beyond any float; no 13th root of it is in the box
        rep = excluded_subvarieties(UnlikePowersInstance(13, 3, 2, 10**400, 2))
        assert [s.count for s in rep.systems] == [0, 0, 0, 0]

    @pytest.mark.parametrize("k", (13, 15))
    @pytest.mark.parametrize("l, m", ((3, 2), (5, 3), (4, 3)))
    def test_every_system_complete_against_a_plain_loop(self, k, l, m):
        # each system's points are exactly the box points where both its
        # equation and the hypersurface vanish
        def system_values(x1, x2, x3, x4):
            return (x1 ** k + x4 ** k, x2 ** l + x3 ** m,
                    x1 ** k + x2 ** l + x4 ** k, x1 ** k + x3 ** m + x4 ** k)

        nonempty = [0] * 4
        for N in (1, -1, 2, 9, -8, 16384):
            for B in (1, 2, 3):
                rng = range(-B, B + 1)
                want = [[] for _ in range(4)]
                for pt in itertools.product(rng, repeat=4):
                    if pt[0] ** k + pt[1] ** l + pt[2] ** m + pt[3] ** k != N:
                        continue
                    for i, v in enumerate(system_values(*pt)):
                        if v == 0:
                            want[i].append(pt)
                rep = excluded_subvarieties(UnlikePowersInstance(k, l, m, N, B))
                assert [s.points for s in rep.systems] == [tuple(w) for w in want]
                assert rep.union_points == tuple(sorted(set().union(*want)))
                nonempty = [c + bool(w) for c, w in zip(nonempty, want)]
        assert all(nonempty), nonempty

    @pytest.mark.parametrize("B", (1, 3, 9))
    def test_five_enumerations_whatever_the_box(self, monkeypatch, B):
        # one for system 1, one per curve of system 2, one each for 3 and 4
        calls = []
        enumerate_points = applications.enumerate_points

        def spy(f, side, box):
            calls.append(box)
            return enumerate_points(f, side, box)

        monkeypatch.setattr(applications, "enumerate_points", spy)
        excluded_subvarieties(UnlikePowersInstance(13, 5, 3, 1, B))
        assert len(calls) == 5

    @pytest.mark.parametrize("B", (1, 3, 9))
    def test_no_forced_root_skips_systems_3_and_4(self, monkeypatch, B):
        # 2 is neither a cube nor a fifth power, so systems 3 and 4 have no
        # point and enumerate nothing
        calls = []
        enumerate_points = applications.enumerate_points

        def spy(f, side, box):
            calls.append(box)
            return enumerate_points(f, side, box)

        monkeypatch.setattr(applications, "enumerate_points", spy)
        rep = excluded_subvarieties(UnlikePowersInstance(13, 5, 3, 2, B))
        assert len(calls) == 3
        assert rep.systems[2].points == rep.systems[3].points == ()

    def test_refused_at_the_fiber_cap(self, monkeypatch):
        def stand_in(coeffs, xs):
            raise Started(len(xs))

        monkeypatch.setattr(enumeration, "_horner_row", stand_in)
        # the cube [-B, B]^3 walks (2B + 1)^2 fibers
        with pytest.raises(Started):
            excluded_subvarieties(UnlikePowersInstance(13, 5, 3, 2, 4999))
        for B in (5000, 10 ** 30):
            with pytest.raises(CapExceeded, match="fibers"):
                excluded_subvarieties(UnlikePowersInstance(13, 5, 3, 2, B))


class TestPredictedExponents:
    def test_quadric_exponents(self):
        ex = predicted_exponents(QuadricInstance(1, 1, 1, 5, 10))
        assert ex.box_powers == (
            Fraction(4, 3), Fraction(7, 6), Fraction(1, 2),
        )
        assert ex.coefficient_powers == (
            Fraction(-1, 3), Fraction(-1, 6), Fraction(0),
        )

    def test_unlike_exponents(self):
        ex = predicted_exponents(UnlikePowersInstance(13, 3, 2, 2, 2))
        assert ex.main == pytest.approx(1.5738959454956774, abs=1e-15)
        assert abs(ex.main - 1.57393) < 1e-4
        expect_secondary = 1 + (2 / math.sqrt(12)) * (1 - 1 / 6)
        assert ex.secondary == pytest.approx(expect_secondary, abs=1e-12)
        assert ex.comparison == pytest.approx(4 / 3 + 1 / math.sqrt(13), abs=1e-12)

    def test_unknown_instance_rejected(self):
        with pytest.raises(ContractViolation):
            predicted_exponents("quadric")
