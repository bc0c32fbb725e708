"""Point enumeration, residue splitting, bad-prime products."""

import math
import random
from fractions import Fraction

import pytest

import detsieve.enumeration as enumeration
from detsieve.enumeration import (
    ResidueData,
    SideCondition,
    bad_prime_product,
    enumerate_points,
    residue_split,
    split_leftover,
)
from detsieve.errors import CapExceeded, ContractViolation
from detsieve.exponents import BoxBounds
from detsieve.polynomials import IntegerPolynomial

P = IntegerPolynomial


def poly3(terms):
    return P(3, terms)


def sphere(c):
    return poly3({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -c})


TRIVIAL_SIDE = SideCondition(P.variable(3, 1), 1)


def naive_points(f, g, q, box, nonsingular_only=False):
    b1, b2, b3 = (int(b) for b in box.bounds)
    grads = [f.partial_derivative(i) for i in range(3)]
    out = []
    for x1 in range(-b1, b1 + 1):
        for x2 in range(-b2, b2 + 1):
            for x3 in range(-b3, b3 + 1):
                pt = (x1, x2, x3)
                if f.evaluate(pt) != 0 or g.evaluate(pt) % q != 0:
                    continue
                if nonsingular_only and not any(gr.evaluate(pt) for gr in grads):
                    continue
                out.append(pt)
    return sorted(out)


class TestEnumeratePoints:
    def test_sphere_of_five(self):
        pts = enumerate_points(sphere(5), TRIVIAL_SIDE, BoxBounds(10, 10, 10))
        assert len(pts) == 24

    def test_congruence_instance(self):
        f = poly3({(2, 0, 0): 5, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        g = poly3({(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        pts = enumerate_points(f, SideCondition(g, 5), BoxBounds(2, 2, 2))
        assert len(pts) == 8
        assert set(pts) == {
            (s1, s2, 0) for s1 in (-1, 1) for s2 in (-1, 1)
        } | {
            (s1, 0, s3) for s1 in (-1, 1) for s3 in (-1, 1)
        }

    def test_local_obstruction_gives_empty(self):
        # 7 = 4 + 2 + 1 has no sum-of-three-squares representation
        pts = enumerate_points(sphere(7), TRIVIAL_SIDE, BoxBounds(10, 10, 10))
        assert len(pts) == 0

    def test_output_sorted_and_on_surface(self):
        f = sphere(5)
        pts = enumerate_points(f, TRIVIAL_SIDE, BoxBounds(10, 10, 10))
        as_list = list(pts)
        assert as_list == sorted(as_list)
        for pt in as_list:
            assert f.evaluate(pt) == 0
            assert all(abs(x) <= 10 for x in pt)

    def test_degenerate_fiber_full_range(self):
        # no x1 dependence at all: every admissible fiber sweeps x1 fully
        f = poly3({(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -2})
        pts = enumerate_points(f, TRIVIAL_SIDE, BoxBounds(3, 3, 3))
        assert len(pts) == 4 * 7

    def test_mixed_degenerate_fibers(self):
        f = poly3({(1, 1, 0): 1})  # x1*x2
        pts = enumerate_points(f, TRIVIAL_SIDE, BoxBounds(2, 2, 2))
        assert len(pts) == len(naive_points(f, P.zero(3), 1, BoxBounds(2, 2, 2)))

    def test_nonsingular_filter_drops_cone_apex(self):
        f = poly3({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
        box = BoxBounds(5, 5, 5)
        all_pts = enumerate_points(f, TRIVIAL_SIDE, box)
        smooth = enumerate_points(f, TRIVIAL_SIDE, box, nonsingular_only=True)
        assert (0, 0, 0) in set(all_pts)
        assert (0, 0, 0) not in set(smooth)
        assert len(all_pts) == len(smooth) + 1

    def test_matches_naive_on_random_quadrics(self):
        rng = random.Random(404)
        for _ in range(12):
            f = poly3({
                (2, 0, 0): rng.choice([-3, -2, -1, 1, 2, 3]),
                (0, 2, 0): rng.choice([-3, -2, -1, 1, 2, 3]),
                (0, 0, 2): rng.choice([-3, -2, -1, 1, 2, 3]),
                (0, 0, 0): rng.randrange(-25, 26),
            })
            g = poly3({(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): rng.randrange(-5, 6)})
            q = rng.choice([1, 2, 3, 5])
            b = rng.randrange(2, 13)
            box = BoxBounds(b, b, b)
            got = list(enumerate_points(f, SideCondition(g, q), box))
            assert got == naive_points(f, g, q, box)

    def test_matches_naive_on_higher_degree(self):
        rng = random.Random(405)
        for _ in range(6):
            terms = {}
            for _ in range(rng.randrange(3, 6)):
                e = tuple(rng.randrange(4) for _ in range(3))
                c = rng.randrange(-4, 5)
                if c:
                    terms[e] = c
            if not terms:
                continue
            f = poly3(terms)
            if f.is_zero or f.is_constant:
                continue
            b = rng.randrange(2, 9)
            box = BoxBounds(b, b, b)
            got = list(enumerate_points(f, TRIVIAL_SIDE, box))
            assert got == naive_points(f, P.zero(3), 1, box)

    # box (3, 9, 5) has window lengths 2 B3 + 1 = 11 and 2 B2 + 1 = 19:
    # q = 1 and q = 10, 11, 12 sit at the x3-window's edge, 19 at the
    # x2-window's; 12 and 15 lie between the two lengths, 20 and 25 above
    # both; 6 and 12 are composite.  The box (3, 5, 9) swaps the axes.
    @pytest.mark.parametrize("q", (1, 6, 10, 11, 12, 15, 19, 20, 25))
    @pytest.mark.parametrize("nonsingular", (False, True), ids=("all", "nonsingular"))
    def test_window_boundary_moduli_match_naive_box_loop(self, q, nonsingular):
        f = poly3({(2, 1, 0): 1, (0, 0, 2): -1, (1, 0, 1): 1})
        g = poly3({(0, 2, 1): 1, (0, 0, 1): 1, (0, 1, 0): -1})
        for box in (BoxBounds(3, 9, 5), BoxBounds(3, 5, 9)):
            want = naive_points(f, g, q, box, nonsingular)
            assert want, (q, box.bounds)
            got = list(enumerate_points(f, SideCondition(g, q), box,
                                        nonsingular_only=nonsingular))
            assert got == want, (q, box.bounds, nonsingular)

    @staticmethod
    def _mixed_surface(rng, deg1):
        """f = sum_j x1^j c_j(x2, x3) with joint x2*x3 terms in the c_j."""
        terms = {}
        for j in range(deg1 + 1):
            for _ in range(rng.randrange(1, 4)):
                e = (j, rng.randrange(4), rng.randrange(4))
                terms[e] = terms.get(e, 0) + rng.randrange(-4, 5)
            joint = (j, rng.randrange(1, 3), rng.randrange(1, 3))
            terms[joint] = terms.get(joint, 0) + rng.choice([-3, -1, 1, 2])
        terms[(0, 0, 0)] = rng.randrange(-6, 7)
        return poly3(terms)

    def test_row_evaluation_matches_naive_box_loop(self):
        # fibers are evaluated from per-row coefficients: compare moduli
        # below, between and above the window lengths 15 and 23 with the
        # naive loop over the whole box, with and without the singular filter
        rng = random.Random(406)
        box = BoxBounds(3, 7, 11)
        b1, b2, b3 = (int(b) for b in box.bounds)
        cube = [(x1, x2, x3) for x1 in range(-b1, b1 + 1)
                for x2 in range(-b2, b2 + 1) for x3 in range(-b3, b3 + 1)]
        for trial in range(20):
            f = self._mixed_surface(rng, trial % 5)
            if f.is_zero:
                continue
            g = poly3({(0, rng.randrange(1, 3), 0): rng.choice([1, 2]),
                       (0, 1, 1): rng.randrange(-2, 3),
                       (0, 0, rng.randrange(1, 3)): 1,
                       (0, 0, 0): rng.randrange(-5, 6)})
            grads = [f.partial_derivative(i) for i in range(3)]
            on_f = [pt for pt in cube if f.evaluate(pt) == 0]
            smooth = [pt for pt in on_f if any(gr.evaluate(pt) for gr in grads)]
            for q in (1, 2, 3, 5, 7, 12, 16, 24):
                for nonsingular, pool in ((False, on_f), (True, smooth)):
                    got = enumerate_points(f, SideCondition(g, q), box,
                                           nonsingular_only=nonsingular)
                    want = [pt for pt in pool if g.evaluate(pt) % q == 0]
                    assert list(got) == want, (trial, q, nonsingular)

    def test_fibers_never_evaluate_polynomials(self, monkeypatch):
        # without the singular filter no IntegerPolynomial is evaluated at
        # a point: coefficients come from the rows, congruences from Horner
        f = poly3({(2, 0, 0): 5, (1, 1, 1): 1, (0, 2, 0): 1, (0, 0, 2): 1,
                   (0, 0, 0): -6})
        g = poly3({(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        box = BoxBounds(4, 5, 6)
        # 14 exceeds both window lengths, 11 and 13
        moduli = (1, 5, 14)
        want = {q: naive_points(f, g, q, box) for q in moduli}

        def refuse(self, point):
            raise AssertionError("per-point evaluation")

        monkeypatch.setattr(P, "evaluate", refuse)
        for q in moduli:
            assert list(enumerate_points(f, SideCondition(g, q), box)) == want[q]

    # Row-path edge cases: name -> (surface, fibers the case must produce).
    X1, X2, X3 = (P.variable(3, i) for i in range(3))
    ONE = P.constant(3, 1)
    ROW_EDGE_CASES = {
        # c_2 = x3 - 1: the quadratic fibers at x3 = 1 are linear, x1 = x2
        "leading coefficient vanishes mid-row":
            ((X3 - ONE) * X1 * X1 + X1 - X2, lambda pts: any(z == 1 for _, _, z in pts)),
        # every c_j vanishes on x2 = x3: whole x1 ranges in the middle of rows
        "identically zero fiber":
            ((X2 - X3) * (X1 * X1 - X2), lambda pts: (-3, 1, 1) in pts and (3, 1, 1) in pts),
        # no constant term: x1 = 0 is a root of every fiber
        "zero constant term, degree 2":
            (X3 * X1 * X1 + X2 * X1, lambda pts: (0, 2, -2) in pts),
        "zero constant term, degree 3":
            (X1 * X1 * X1 + X2 * X1 * X1 - X3 * X1, lambda pts: (0, 1, 1) in pts),
        "x1-degree 3": (X1 * X1 * X1 - X2 * X1 - X3, lambda pts: (2, 1, 6) in pts),
        # the x1^3 coefficient x3 - 1 vanishes at x3 = 1, leaving x1^2 = x2
        "x1-degree 3, leading coefficient vanishes":
            ((X3 - ONE) * X1 * X1 * X1 + X1 * X1 - X2, lambda pts: (2, 4, 1) in pts),
        "x1-degree 4": (X1 ** 4 - X2 * X1 * X1 + X3, lambda pts: (1, 2, 1) in pts),
    }

    # box (3, 6, 7): q = 14 lies between the window lengths 13 and 15
    @pytest.mark.parametrize("name", sorted(ROW_EDGE_CASES))
    @pytest.mark.parametrize("q", (1, 3, 14))
    @pytest.mark.parametrize("nonsingular", (False, True), ids=("all", "nonsingular"))
    def test_row_edge_cases_match_naive_box_loop(self, name, q, nonsingular):
        f, witness = self.ROW_EDGE_CASES[name]
        g = poly3({(0, 1, 0): 1, (0, 0, 1): 2})
        box = BoxBounds(3, 6, 7)
        got = list(enumerate_points(f, SideCondition(g, q), box,
                                    nonsingular_only=nonsingular))
        assert got == naive_points(f, g, q, box, nonsingular), (q, name)
        # with q = 1 the case's own fibers are reached
        assert witness(enumerate_points(f, TRIVIAL_SIDE, box))

    def test_large_prime_modulus_matches_brute(self):
        # q far above 2 B + 1: each window is the whole row of the box.
        # On the surface g = 25 - 3 (x1^2 - 25), so g = 0 mod q forces
        # x1 = +-5 and x2^2 + x3^2 = 25: 2 * 12 points
        q = 10007
        f = poly3({(2, 0, 0): 3, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -100})
        g = poly3({(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -25})
        got = list(enumerate_points(f, SideCondition(g, q), BoxBounds(12, 20, 20)))
        brute = [(x1, x2, x3) for x1 in range(-12, 13) for x2 in range(-20, 21)
                 for x3 in range(-20, 21)
                 if 3 * x1 * x1 + x2 * x2 + x3 * x3 == 100
                 and (x2 * x2 + x3 * x3 - 25) % q == 0]
        assert got == brute
        assert len(got) == 24

    @pytest.mark.parametrize("q, b", ((3, 150), (24, 8)))
    def test_congruence_work_bounded_by_windows(self, monkeypatch, q, b):
        # g is evaluated at no more than min(q, 2 B2 + 1) * min(q, 2 B3 + 1)
        # pairs (y, z): neither a q x q table nor a scan of the whole box
        f = poly3({(2, 0, 0): 3, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -1001})
        g = poly3({(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -1001})
        z_groups, z_row, horner_row = (enumeration._z_groups, enumeration._z_row,
                                       enumeration._horner_row)
        g_groups, g_rows, pairs = [], [], []

        def spy_z_groups(p):
            out = z_groups(p)
            if p is g:
                g_groups.append(out)
            return out

        def spy_z_row(groups, y):
            out = z_row(groups, y)
            if any(groups is gg for gg in g_groups):
                g_rows.append(out)
            return out

        def spy_horner_row(coeffs, xs):
            if any(coeffs is row for row in g_rows):
                pairs.append(len(xs))
            return horner_row(coeffs, xs)

        monkeypatch.setattr(enumeration, "_z_groups", spy_z_groups)
        monkeypatch.setattr(enumeration, "_z_row", spy_z_row)
        monkeypatch.setattr(enumeration, "_horner_row", spy_horner_row)
        enumerate_points(f, SideCondition(g, q), BoxBounds(b, b, b))
        assert 0 < sum(pairs) <= min(q, 2 * b + 1) ** 2

    def test_side_condition_validation(self):
        with pytest.raises(ContractViolation):
            SideCondition(P.constant(3, 2), 5)  # constant g
        with pytest.raises(ContractViolation):
            SideCondition(P.variable(3, 0), 5)  # depends on x1
        with pytest.raises(ContractViolation):
            SideCondition(P.variable(3, 1), 0)  # bad modulus

    def test_sieved_fiber_density_bound(self):
        # admissible residue pairs predict the fiber count up to box
        # truncation: each residue hits floor or ceil of (2B+1)/q columns
        g = poly3({(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        for q, b in ((4, 9), (5, 11), (6, 8)):
            admissible = sum(
                1
                for r2 in range(q)
                for r3 in range(q)
                if g.evaluate((0, r2, r3)) % q == 0
            )
            direct = sum(
                1
                for x2 in range(-b, b + 1)
                for x3 in range(-b, b + 1)
                if g.evaluate((0, x2, x3)) % q == 0
            )
            lo = (2 * b + 1) // q
            hi = -((-(2 * b + 1)) // q)
            assert admissible * lo * lo <= direct <= admissible * hi * hi


class Walked(Exception):
    """Raised by a stand-in for the first Horner pass: a fiber walk began."""


class TestFiberCap:
    @pytest.fixture(autouse=True)
    def no_walk(self, monkeypatch):
        def stand_in(coeffs, xs):
            raise Walked(len(xs))

        monkeypatch.setattr(enumeration, "_horner_row", stand_in)

    @pytest.mark.parametrize("bounds", ((2, 10 ** 30, 2), (2, 2, 10 ** 30), (2, 10 ** 12, 2)))
    def test_huge_x2_or_x3_refused_before_any_fiber(self, bounds):
        with pytest.raises(CapExceeded, match="fibers"):
            enumerate_points(sphere(6), TRIVIAL_SIDE, BoxBounds(*bounds))

    def test_cap_sits_between_two_box_sizes(self):
        # (2B + 1)^2 fibers on an x2, x3 square of side B
        B = 4999
        assert (2 * B + 1) ** 2 <= enumeration.BOX_FIBER_CAP < (2 * B + 3) ** 2
        with pytest.raises(Walked):
            enumerate_points(sphere(6), TRIVIAL_SIDE, BoxBounds(2, B, B))
        with pytest.raises(CapExceeded, match="fibers"):
            enumerate_points(sphere(6), TRIVIAL_SIDE, BoxBounds(2, B + 1, B + 1))

    def test_huge_x1_alone_is_not_capped(self):
        with pytest.raises(Walked):
            enumerate_points(sphere(6), TRIVIAL_SIDE, BoxBounds(10 ** 30, 2, 2))


def row_roots_points(f, g, q, box, nonsingular_only=False):
    """Box points from ``_row_roots`` run on one admissible fiber at a time."""
    b1, b2, b3 = box.bounds
    coeffs = f.coefficients_in(0)
    grads = [f.partial_derivative(i) for i in range(3)]
    out = []
    for y in range(-b2, b2 + 1):
        for z in range(-b3, b3 + 1):
            if g.evaluate((0, y, z)) % q:
                continue
            cols = [[coeffs[j].evaluate((0, y, z)) if j in coeffs else 0]
                    for j in range(f.degree_in(0) + 1)]
            for _, xs in enumeration._row_roots(cols, -b1, b1):
                out += [(x, y, z) for x in xs if not nonsingular_only
                        or any(gr.evaluate((x, y, z)) for gr in grads)]
    return sorted(out)


def admissible_pairs(g, q, box):
    """The fibers of a box: its (x2, x3) pairs with g = 0 mod q."""
    _, b2, b3 = box.bounds
    return sum(1 for y in range(-b2, b2 + 1) for z in range(-b3, b3 + 1)
               if g.evaluate((0, y, z)) % q == 0)


def spy_solvers(monkeypatch):
    """Record each value table's evaluation count and each _row_roots row."""
    seen = {"tables": [], "rows": 0}
    value_table, row_roots = enumeration._value_table, enumeration._row_roots

    def spy_value_table(p, lo, hi):
        seen["tables"].append(hi - lo + 1)
        return value_table(p, lo, hi)

    def spy_row_roots(cols, lo, hi):
        seen["rows"] += 1
        return row_roots(cols, lo, hi)

    monkeypatch.setattr(enumeration, "_value_table", spy_value_table)
    monkeypatch.setattr(enumeration, "_row_roots", spy_row_roots)
    return seen


class TestValueTable:
    """x1-separable surfaces p(x1) + c_0(x2, x3) = 0 solved by one table lookup."""

    @staticmethod
    def _separable_surface(rng, d, even, box):
        """p of x1-degree d (only even powers if ``even``, so p(x) = p(-x)),
        leading coefficient of either sign, plus a random c_0(x2, x3) whose
        constant puts a random box point on the surface."""
        terms = {}
        for j in range(2 if even else 1, d, 2 if even else 1):
            terms[(j, 0, 0)] = rng.randrange(-3, 4)
        if d:
            terms[(d, 0, 0)] = rng.choice((-2, -1, 1, 2))
        for _ in range(rng.randrange(2, 5)):
            e = (0, rng.randrange(3), rng.randrange(3))
            terms[e] = terms.get(e, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
        f = poly3(terms)
        witness = tuple(rng.randrange(-b, b + 1) for b in box.bounds)
        terms[(0, 0, 0)] = terms.get((0, 0, 0), 0) - f.evaluate(witness)
        return poly3(terms), witness

    # box (3, 5, 6): 2 B1 + 1 = 7 table entries; the windows are 11 and 13
    # long, so q = 13 reaches past both
    @pytest.mark.parametrize("d, even", ((0, False), (1, False), (2, False), (2, True),
                                         (3, False), (4, True), (12, False), (12, True)))
    def test_separable_surfaces_match_naive_box_loop(self, monkeypatch, d, even):
        rng = random.Random(1300 + 2 * d + even)
        box = BoxBounds(3, 5, 6)
        g = poly3({(0, 1, 0): 1, (0, 0, 2): 2, (0, 1, 1): -1})
        for trial in range(4):
            f, witness = self._separable_surface(rng, d, even, box)
            assert f.degree_in(0) == d
            assert witness in enumerate_points(f, TRIVIAL_SIDE, box)
            for q in (1, 2, 5, 13):
                fibers = admissible_pairs(g, q, box)
                for nonsingular in (False, True):
                    want = naive_points(f, g, q, box, nonsingular)
                    assert row_roots_points(f, g, q, box, nonsingular) == want
                    seen = spy_solvers(monkeypatch)
                    got = list(enumerate_points(f, SideCondition(g, q), box,
                                                nonsingular_only=nonsingular))
                    monkeypatch.undo()
                    assert got == want, (trial, q, nonsingular)
                    # one table, and only when the fibers pay for its entries
                    assert seen["tables"] == ([7] if fibers >= 7 else [])
                    assert sum(seen["tables"]) <= fibers
                    assert not (seen["tables"] and seen["rows"])

    def test_non_separable_surfaces_build_no_table(self, monkeypatch):
        rng = random.Random(1313)
        box = BoxBounds(3, 5, 6)
        g = poly3({(0, 1, 0): 1, (0, 0, 1): 3})
        for d in (1, 2, 3):
            f = poly3({(d, 0, 0): rng.choice((-2, 1)), (d - 1, 1, 0): 1,
                       (1, 0, 1): -1, (0, 2, 0): 1, (0, 0, 0): rng.randrange(-9, 10)})
            for q in (1, 4):
                for nonsingular in (False, True):
                    want = naive_points(f, g, q, box, nonsingular)
                    assert row_roots_points(f, g, q, box, nonsingular) == want
                    seen = spy_solvers(monkeypatch)
                    got = list(enumerate_points(f, SideCondition(g, q), box,
                                                nonsingular_only=nonsingular))
                    monkeypatch.undo()
                    assert got == want, (d, q, nonsingular)
                    assert seen["tables"] == [] and seen["rows"] > 0

    # 2 x1^2 + x2^2 - x3^2 = 8 under x2 + 2 x3 = 0 mod 3 on box (B1, 5, 6):
    # the x2-window holds the residues y0 = -5, -4, -3, counted in that
    # order, with 16, 32 and 47 fibers counted after each; B1 puts
    # 2 B1 + 1 at or below the first residue's fibers, between the first
    # and second, exactly at the last residue's running count, and above
    # every fiber of the box
    F = poly3({(2, 0, 0): 2, (0, 2, 0): 1, (0, 0, 2): -1, (0, 0, 0): -8})
    G = poly3({(0, 1, 0): 1, (0, 0, 1): 2})

    @pytest.mark.parametrize("where", ("first residue", "second residue",
                                       "exactly the last residue", "never"))
    @pytest.mark.parametrize("nonsingular", (False, True), ids=("all", "nonsingular"))
    def test_table_trigger_matches_naive_box_loop(self, monkeypatch, where, nonsingular):
        q = 3
        running, total = [], 0
        for y0 in (-5, -4, -3):
            total += sum(1 for y in range(y0, 6, q) for z in range(-6, 7)
                         if (y + 2 * z) % q == 0)
            running.append(total)
        assert running == [16, 32, 47]
        b1 = {"first residue": 7, "second residue": 12,
              "exactly the last residue": 23, "never": 24}[where]
        box = BoxBounds(b1, 5, 6)
        want = naive_points(self.F, self.G, q, box, nonsingular)
        assert want and row_roots_points(self.F, self.G, q, box, nonsingular) == want
        seen = spy_solvers(monkeypatch)
        got = list(enumerate_points(self.F, SideCondition(self.G, q), box,
                                    nonsingular_only=nonsingular))
        assert got == want
        if where == "never":
            assert 2 * b1 + 1 > total and seen["tables"] == [] and seen["rows"] > 0
        else:
            assert seen["tables"] == [2 * b1 + 1] and seen["rows"] == 0
            assert seen["tables"][0] <= total

    def test_huge_x1_bound_builds_no_table(self, monkeypatch):
        # 5 x1^2 + x2^2 + x3^2 = 6 with x2^2 + x3^2 = 6 mod 5: the box has
        # 25 fibers, far fewer than the 2 B1 + 1 entries a table would need
        f = poly3({(2, 0, 0): 5, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
        side = SideCondition(poly3({(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6}), 5)
        want = [(x, y, z) for x in (-1, 1) for y, z in ((-1, 0), (0, -1), (0, 1), (1, 0))]

        def refuse(p, lo, hi):
            raise AssertionError(f"value table of {hi - lo + 1} entries")

        monkeypatch.setattr(enumeration, "_value_table", refuse)
        assert list(enumerate_points(f, side, BoxBounds(10 ** 6, 2, 2))) == sorted(want)
        assert list(enumerate_points(f, side, BoxBounds(10 ** 30, 2, 2))) == sorted(want)


class CountingTable(dict):
    """A value table that counts its lookups."""

    def __init__(self, table):
        super().__init__(table)
        self.gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def spy_lookups(monkeypatch):
    """Every value table enumerate_points builds, each counting its lookups."""
    tables = []
    value_table = enumeration._value_table

    def spy_value_table(p, lo, hi):
        tables.append(CountingTable(value_table(p, lo, hi)))
        return tables[-1]

    monkeypatch.setattr(enumeration, "_value_table", spy_value_table)
    return tables


def window_residues(g, q, b2, b3):
    """(rows, the x3 values) of each admissible residue y0 of the x2-window, in
    scan order: the fibers of a residue are its rows times its x3 values."""
    out = []
    for y0 in range(-b2, min(b2, q - b2 - 1) + 1):
        zs = [z for z in range(-b3, b3 + 1) if g.evaluate((0, y0, z)) % q == 0]
        if zs:
            out.append((range(y0, b2 + 1, q), zs))
    return out


class TestGroupedLookups:
    """A table-served c_0 = A(x2) + P(x3) looks up each distinct -P(x3) once per row."""

    def test_one_lookup_per_row_and_distinct_value(self, monkeypatch):
        # 3 x1^2 + x2^2 + x3^2 = 1001, q = 1: one residue of 2B + 1 rows, each
        # looking up the B + 1 distinct values of -z^2 for z in [-B, B]
        b = 12
        f = poly3({(2, 0, 0): 3, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -1001})
        box = BoxBounds(b, b, b)
        tables = spy_lookups(monkeypatch)
        got = list(enumerate_points(f, TRIVIAL_SIDE, box))
        assert got == naive_points(f, TRIVIAL_SIDE.g, 1, box)
        assert [t.gets for t in tables] == [(2 * b + 1) * (b + 1)]

    def test_mixed_c0_keeps_one_lookup_per_fiber(self, monkeypatch):
        # x1^2 + x2^2 + x2 x3 + x3^2 = 49: the x2 x3 term ties every fiber's
        # constant to both coordinates, so each of the 41^2 fibers looks up once
        f = poly3({(2, 0, 0): 1, (0, 2, 0): 1, (0, 1, 1): 1, (0, 0, 2): 1, (0, 0, 0): -49})
        box = BoxBounds(20, 20, 20)
        tables = spy_lookups(monkeypatch)
        got = list(enumerate_points(f, TRIVIAL_SIDE, box))
        assert len(got) == 56 and got == naive_points(f, TRIVIAL_SIDE.g, 1, box)
        assert [t.gets for t in tables] == [41 * 41]

    def test_nonsingular_filter_drops_the_apex(self, monkeypatch):
        # the cone x1^2 + x2^2 - x3^2 = 0 is singular only at the origin
        f = poly3({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
        box = BoxBounds(6, 6, 6)
        tables = spy_lookups(monkeypatch)
        got = list(enumerate_points(f, TRIVIAL_SIDE, box, nonsingular_only=True))
        assert len(tables) == 1 and tables[0].gets == 13 * 7
        assert got == naive_points(f, TRIVIAL_SIDE.g, 1, box, nonsingular_only=True)
        assert (0, 0, 0) not in got
        assert (0, 0, 0) in enumerate_points(f, TRIVIAL_SIDE, box)

    @pytest.mark.parametrize("terms", ({(1, 0, 0): 1}, {(2, 0, 0): 1, (1, 0, 0): -1}),
                             ids=("x1", "x1^2-x1"))
    def test_zero_fiber_constant(self, monkeypatch, terms):
        # c_0 = 0: every fiber looks up the one value 0, once per row
        f = poly3(terms)
        box = BoxBounds(2, 5, 5)
        tables = spy_lookups(monkeypatch)
        got = list(enumerate_points(f, TRIVIAL_SIDE, box))
        assert got == naive_points(f, TRIVIAL_SIDE.g, 1, box)
        assert len(got) == 11 * 11 * len(terms) and [t.gets for t in tables] == [11]

    # 2 x1^2 + x1 + x2^3 - 2 x2 + x3^2 + 3 x3 = 3 under x2 + 2 x3 = 0 mod q on
    # box (B1, 9, 10): every y0 of the x2-window is a residue, and B1 puts
    # 2 B1 + 1 just past the first residue's fibers, so the table is built
    # while the window is being scanned
    F = poly3({(2, 0, 0): 2, (1, 0, 0): 1, (0, 3, 0): 1, (0, 1, 0): -2,
               (0, 0, 2): 1, (0, 0, 1): 3, (0, 0, 0): -3})
    G = poly3({(0, 1, 0): 1, (0, 0, 1): 2})

    @pytest.mark.parametrize("q", (3, 13))
    @pytest.mark.parametrize("nonsingular", (False, True), ids=("all", "nonsingular"))
    def test_windows_match_naive_box_loop(self, monkeypatch, q, nonsingular):
        residues = window_residues(self.G, q, 9, 10)
        fibers = [len(rows) * len(zs) for rows, zs in residues]
        b1 = fibers[0] // 2 + 1
        assert len(residues) == q and fibers[0] < 2 * b1 + 1 <= sum(fibers)
        box = BoxBounds(b1, 9, 10)
        want = naive_points(self.F, self.G, q, box, nonsingular)
        tables = spy_lookups(monkeypatch)
        got = list(enumerate_points(self.F, SideCondition(self.G, q), box,
                                    nonsingular_only=nonsingular))
        assert want and got == want
        # every residue's rows look up the distinct values of -(z^2 + 3 z)
        lookups = sum(len(rows) * len({z * z + 3 * z for z in zs}) for rows, zs in residues)
        assert [t.gets for t in tables] == [lookups] and lookups < sum(fibers)


def scan_roots(cs, lo, hi):
    """Integer roots in [lo, hi] by evaluating at every point."""
    return [x for x in range(lo, hi + 1) if sum(c * x ** k for k, c in enumerate(cs)) == 0]


class TestIntegerRoots:
    def test_higher_degree_matches_range_scan(self):
        rng = random.Random(3141)
        seen = {"huge constant": 0, "constant below bound": 0, "zero root": 0,
                "root outside range": 0}
        for trial in range(600):
            deg = rng.randrange(3, 7)
            roots = [rng.randrange(-40, 41) for _ in range(rng.randrange(deg + 1))]
            cofactor = [rng.randrange(-9, 10) for _ in range(deg - len(roots))]
            cofactor.append(rng.choice((-3, -2, -1, 1, 2, 3)))
            if trial % 4 == 0:
                cofactor[0] = rng.choice((-1, 1)) * rng.randrange(10 ** 10, 10 ** 14)
            cs = cofactor
            for r in roots:
                cs = [a - r * b for a, b in zip([0] + cs, cs + [0])]
            lo, hi = -rng.randrange(1, 31), rng.randrange(1, 31)
            assert enumeration._integer_roots(cs, lo, hi) == scan_roots(cs, lo, hi), (cs, lo, hi)
            stripped = cs[next(k for k, c in enumerate(cs) if c):]
            if len(stripped) > 3:
                a0 = abs(stripped[0])
                seen["huge constant"] += a0 > 10 ** 10
                seen["constant below bound"] += a0 < max(-lo, hi)
                seen["zero root"] += cs[0] == 0
                seen["root outside range"] += any(not lo <= r <= hi for r in roots)
        assert all(seen.values()), seen


class TestResidueSplit:
    def _base(self):
        f = sphere(5)
        pts = enumerate_points(f, TRIVIAL_SIDE, BoxBounds(10, 10, 10))
        return f, pts

    def test_no_primes_single_class(self):
        f, pts = self._base()
        classes = residue_split(pts, ResidueData(()), f)
        assert list(classes) == [()]
        assert len(classes[()]) == len(pts)

    def test_mod_three_partition(self):
        f, pts = self._base()
        classes = residue_split(pts, ResidueData((3,)), f)
        sizes = sum(len(c) for c in classes.values())
        assert sizes == 24  # no point of this surface is singular mod 3
        seen = set()
        for label, cls in classes.items():
            for pt in cls:
                assert tuple(x % 3 for x in pt) == label[0]
                assert pt not in seen
                seen.add(pt)
        assert split_leftover(pts, classes) == ()

    def test_singular_reduction_excluded(self):
        # every gradient of a sum of squares vanishes mod 2
        f, pts = self._base()
        classes = residue_split(pts, ResidueData((2,)), f)
        assert classes == {}
        assert len(split_leftover(pts, classes)) == 24

    def test_two_primes_label_shape(self):
        f, pts = self._base()
        classes = residue_split(pts, ResidueData((3, 7)), f)
        for label in classes:
            assert len(label) == 2
            assert all(len(t) == 3 for t in label)

    def test_residue_data_validation(self):
        with pytest.raises(ContractViolation):
            ResidueData((4,))  # not prime
        with pytest.raises(ContractViolation):
            ResidueData((3, 3))  # repeated
        assert ResidueData((5, 3)).primes == (3, 5)
        assert ResidueData((3, 5)).product == 15


class TestBadPrimeProduct:
    def test_quadric_formula(self):
        assert bad_prime_product("quadric-formula", a=(1, 1, 1), n=5) == 10
        assert bad_prime_product("quadric-formula", a=(5, 1, 1), n=6) == 60

    def test_user_supplied(self):
        assert bad_prime_product("user-supplied", value=1) == 1
        with pytest.raises(ContractViolation):
            bad_prime_product("user-supplied", value=0)

    def test_heuristic_flags_reducible_reduction(self):
        # splits into two planes mod 3, so the mod-3 count leaves the
        # p^2 + O(p^{3/2}) window; all other small primes stay inside
        f = poly3({(0, 1, 1): 1, (2, 0, 0): 3, (0, 0, 0): -3})
        assert bad_prime_product(
            "point-count-heuristic", f=f, prime_cap=13, slack=1.0
        ) == 3

    def test_heuristic_clean_surface(self):
        assert bad_prime_product(
            "point-count-heuristic", f=sphere(5), prime_cap=13, slack=1.0
        ) == 1

    @pytest.mark.parametrize("source, kwargs", (
        ("user-supplied", {"value": 2.5}),
        ("user-supplied", {"value": "6"}),
        ("user-supplied", {"value": True}),
        ("quadric-formula", {"a": [1.5, 1, 1], "n": 1}),
        ("quadric-formula", {"a": [1, 1], "n": 1}),
        ("quadric-formula", {"a": [1, 1, 1, 1], "n": 1}),
        ("quadric-formula", {"a": [1, 1, 1], "n": 2.5}),
        ("point-count-heuristic", {"f": sphere(5), "prime_cap": 7.5}),
    ), ids=("value-float", "value-str", "value-bool", "a-float", "a-two", "a-four",
            "n-float", "prime-cap-float"))
    def test_non_integer_input_rejected(self, source, kwargs):
        with pytest.raises(ContractViolation):
            bad_prime_product(source, **kwargs)

    @pytest.mark.parametrize("slack", ("1", math.nan, math.inf, -1.0, -1, Fraction(-1, 2),
                                       True, None, 1j),
                             ids=("str", "nan", "inf", "negative-float", "negative-int",
                                  "negative-fraction", "bool", "none", "complex"))
    def test_slack_must_be_finite_and_nonnegative(self, slack):
        # "1" used to raise a bare TypeError, nan to flag no prime and -1.0
        # to flag every prime up to the cap
        with pytest.raises(ContractViolation, match="slack"):
            bad_prime_product("point-count-heuristic", f=sphere(5), prime_cap=13,
                              slack=slack)

    @pytest.mark.parametrize("slack, want", ((1, 1), (1.0, 1), (Fraction(1), 1),
                                             (0, 3003), (10**400, 1)),
                             ids=("int", "float", "fraction", "zero", "huge-int"))
    def test_slack_accepts_real_numbers(self, slack, want):
        assert bad_prime_product("point-count-heuristic", f=sphere(5), prime_cap=13,
                                 slack=slack) == want

    def test_unknown_source(self):
        with pytest.raises(ContractViolation):
            bad_prime_product("oracle")

    def test_heuristic_refused_over_its_evaluation_cap(self, monkeypatch):
        # sum of p^3 over primes p <= 61 is 966 291, and 1 267 054 to 67;
        # a prime cap of 200 used to run about 86 million evaluations
        class Started(Exception):
            pass

        def stand_in(self, point):
            raise Started

        monkeypatch.setattr(IntegerPolynomial, "evaluate", stand_in)
        f = sphere(5)
        for cap in (60, 61, 66):
            with pytest.raises(Started):
                bad_prime_product("point-count-heuristic", f=f, prime_cap=cap)
        for cap in (67, 200, 10 ** 30):
            with pytest.raises(CapExceeded, match="evaluations"):
                bad_prime_product("point-count-heuristic", f=f, prime_cap=cap)
