"""The 96-bit scalars against mpmath, the arithmetic they replaced: every
value is the mpf an mpmath computation at 96 bits gives, bit for bit."""

import math
import random
from fractions import Fraction

import pytest
from mpmath import mp
from mpmath.libmp.libelefun import ln2_fixed

import detsieve.applications
from detsieve import scalars
from detsieve.applications import QuadricInstance, count_quadric, quadric_cover_scale
from detsieve.errors import ContractViolation
from detsieve.exponents import (
    BoxBounds,
    ExactLog,
    SideCondition,
    _grid_height,
    _grid_start,
    build_exponent_set,
    choose_Y,
    compute_params,
    main_term_deviation,
    max_exponent,
    set_statistics,
)
from detsieve.polynomials import IntegerPolynomial as P


def exact(v) -> Fraction:
    """The Fraction equal to an mpf."""
    sign, man, exp, _ = v._mpf_
    return (-1) ** sign * Fraction(int(man)) * Fraction(2) ** exp


def mpf(x):
    """An int, float or Fraction as an mpf at the working precision."""
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


class TestAgainstMpmath:
    def test_rounding_matches_mpmath_division(self):
        rng = random.Random(1)
        for _ in range(3000):
            n = rng.randint(-10 ** 40, 10 ** 40)
            d = rng.choice((1, rng.randint(1, 10 ** 30), 1 << rng.randint(0, 200)))
            for bits in (53, 96):
                with mp.workprec(bits):
                    want = exact(mp.fdiv(n, d))  # exact arguments, one rounding
                assert scalars.rnd(Fraction(n, d), bits) == want, (n, d, bits)

    def test_ties_go_to_even(self):
        for q in (1 << 95, (1 << 95) + 1, (1 << 96) - 1):
            tie = Fraction(2 * q + 1, 2)
            assert scalars.rnd(tie) == q + (q & 1)
            assert scalars.rnd(-tie) == -(q + (q & 1))
        assert scalars.rnd(0) == 0 and scalars.rnd(0.1) == Fraction(0.1)

    def test_ln2_is_mpmaths_fixed_point_constant(self):
        for p in range(60, 700):
            assert scalars._ln2(p) == ln2_fixed(p), p

    def test_log_of_integers(self):
        rng = random.Random(2)
        ns = list(range(1, 600)) + [2 ** k for k in range(1, 2000, 37)]
        ns += [rng.randint(2, 1 << rng.randint(2, 4000)) for _ in range(800)]
        with mp.workprec(96):
            for n in ns:
                assert scalars.log(n) == exact(mp.log(n)), n
        with mp.workprec(106):
            for n in ns[:300]:
                assert scalars.log(n, 106) == exact(mp.log(n)), n

    def test_roots(self):
        rng = random.Random(3)
        with mp.workprec(96):
            for _ in range(1500):
                x = scalars.rnd(Fraction(rng.randint(1, 10 ** 30),
                                         1 << rng.randint(0, 120)))
                assert scalars.root(x) == exact(mp.sqrt(mpf(x))), x
                for k in (3, 6):
                    assert scalars.root(x, k) == exact(mp.root(mpf(x), k)), (x, k)
        for r in (1, 2, 7, 10 ** 6):
            assert scalars.root(r ** 6, 6) == r and scalars.root(r ** 2) == r

    def test_exp_takes_mpmaths_steps(self):
        rng = random.Random(4)
        args = [0, 2.0 ** -200, -(2.0 ** -120), 1.0, -1.0, 2.0, 700.5]
        args += [rng.uniform(-60, 60) for _ in range(1500)]
        args += [rng.uniform(-5, 3000) * Fraction(1, 3) for _ in range(1500)]
        with mp.workprec(96):
            for x in args:
                x = scalars.rnd(x)
                assert scalars.exp(x) == exact(mp.exp(mpf(x))), x
        with pytest.raises(ContractViolation, match="binary"):
            scalars.exp(Fraction(1, 3))

    def test_power_takes_mpmaths_branches(self):
        rng = random.Random(5)
        with mp.workprec(96):
            for _ in range(800):
                B = rng.randint(1, 10 ** 6)
                t = rng.choice((rng.uniform(0.01, 4), 0.5, 1.5, 2.5, 1.0, 2.0, 3.0))
                assert scalars.power(B, t) == exact(mp.mpf(B) ** mp.mpf(t)), (B, t)
                x = scalars.rnd(Fraction(rng.randint(1, 10 ** 20), rng.randint(1, 10 ** 6)))
                assert scalars.power(x, 1.5) == exact(mpf(x) ** mp.mpf(1.5)), x


def rnd_by_division(x, bits: int = scalars.PRECISION_BITS) -> Fraction:
    """scalars.rnd as it was before exact inputs returned early: every input
    takes the shifted division and comes back through _scaled."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    n, d = x.as_integer_ratio()
    if not n:
        return x
    a = abs(n)
    s = bits - a.bit_length() + d.bit_length()
    for s in (s, s - 1):
        num, den = (a << s, d) if s >= 0 else (a, d << -s)
        q, r = divmod(num, den)
        if q.bit_length() == bits:
            break
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return scalars._scaled(-q if n < 0 else q, -s)


class TestExactInputs:
    def test_rnd_is_unchanged_on_exact_and_inexact_inputs(self):
        rng = random.Random(22)
        xs = [0, 1, -1, 0.0, -0.0, 0.1, 1e300, 5e-324, Fraction(0), Fraction(-3, 8)]
        for _ in range(3000):
            width = rng.choice((1, 20, 52, 53, 54, 95, 96, 97, 140))
            n = rng.choice((-1, 1)) * rng.randint(1 << (width - 1), (1 << width) - 1)
            d = rng.choice((1, 1 << rng.randint(0, 200), rng.randint(1, 10 ** 30) | 1))
            xs += [n, Fraction(n, d), Fraction(n, d * 3)]
            xs.append(rng.uniform(-1e6, 1e6))
        exact_inputs = 0
        for x in xs:
            for bits in (53, 96):
                got, want = scalars.rnd(x, bits), rnd_by_division(x, bits)
                assert type(got) is Fraction and got == want, (x, bits)
                n, d = Fraction(x).as_integer_ratio()
                exact_inputs += not d & (d - 1) and abs(n).bit_length() <= bits
        assert exact_inputs > 2000

    def test_an_exact_fraction_comes_back_as_it_is(self):
        x = Fraction((1 << 96) - 1, 1 << 40)
        assert scalars.rnd(x) is x
        assert scalars.rnd(Fraction((1 << 97) - 1, 1 << 40)) != Fraction((1 << 97) - 1, 1 << 40)


# -- the code the scalars replaced, kept as the oracle ------------------------


def mp_grid_heights(box, floor_const, log_top, grids=3):
    """(Z, heights) of the first grids as the mpmath search formed them."""
    with mp.workprec(96):
        z = max(mpf(log_top), floor_const * mp.log(box.bmax))
    heights = []
    low = z
    for _ in range(grids):
        with mp.workprec(96):
            row = []
            for k in range(64):
                h = mp.exp(low * (1 + mp.mpf(k) / 63))
                near = int(mp.nint(h))
                if near >= 1 and abs(h - near) < mp.mpf(2) ** -60 * near:
                    row.append(near)
                else:
                    row.append(int(mp.floor(h)))
        heights.append(row)
        with mp.workprec(53):
            low = low * 2
    return exact(z), heights


def mp_params(f, g, q, box, epsilon):
    m = max_exponent(f, box)
    side = box.height(max_exponent(g, box))
    with mp.workprec(96):
        logs = [mp.log(b) for b in box.bounds]
        side = mp.log(side)
        log_top = sum(k * lg for k, lg in zip(m, logs))
        root = mp.sqrt(logs[0] * logs[1] * logs[2] / log_top)
        log_q = mp.log(q) if q > 1 else mp.mpf(0)
        shrink = m[0] * logs[0] * log_q / (2 * side * log_top)
        log_k = root * (1 - shrink)
        gain = (m[0] * logs[0] ** mp.mpf(1.5) * mp.sqrt(logs[1] * logs[2])
                / (2 * side * log_top ** mp.mpf(1.5)))
        return (side, log_top, mp.exp(log_k),
                mp.exp(log_k + epsilon * mp.log(box.bmax)), gain)


def mp_deviation(E):
    stats = set_statistics(E)
    sums = [sum(e[i] for e in E.members) for i in range(3)]
    with mp.workprec(96):
        logs = [mp.log(b) for b in E.box.bounds]
        sum_log = sums[0] * logs[0] + sums[1] * logs[1] + sums[2] * logs[2]
        log_top = sum(k * lg for k, lg in zip(E.dominant, logs))
        denom = logs[0] * logs[1] * logs[2]
        y = mp.log(E.cutoff.height)
        main_count = log_top / denom * y ** 2 / 2
        main_sum = log_top / denom * y ** 3 / 3
        return sum_log, abs(stats.count / main_count - 1), abs(sum_log / main_sum - 1)


def random_box(rng):
    while True:
        bounds = [rng.choice((rng.randint(2, 40), rng.randint(2, 10 ** 6))) for _ in range(3)]
        if len(set(bounds)) > 1:
            return BoxBounds(*bounds)


class TestOracleSweep:
    def test_first_three_grids_match_mpmath(self):
        rng = random.Random(20)
        for case in range(120):
            box = random_box(rng)
            floor_const = rng.choice((0, rng.randint(0, 12)))
            log_top = rng.choice((rng.uniform(0.5, 4), rng.uniform(4, 200)))
            if case % 2:
                log_top = Fraction(log_top) / 3
            z, heights = mp_grid_heights(box, floor_const, log_top)
            for g, row in enumerate(heights):
                start = _grid_start(z, g)
                assert [_grid_height(start, k) for k in range(64)] == row, (box, g)
            # and choose_Y forms the same heights from the same Z
            for g, k in ((0, 1), (0, 63), (1, rng.randint(1, 63)), (2, rng.randint(1, 63))):
                want = heights[g][k]
                got = choose_Y(lambda c: c.height >= want, box=box,
                               floor_const=floor_const, log_top=log_top)
                assert got.height == want, (box, floor_const, log_top, g, k)

    @pytest.mark.parametrize("log_top, g, k", [
        (82.01753410340189, 0, 29),
        (340.45081158809376, 0, 37),
        (305.63580162756597, 1, 43),
    ])
    def test_points_where_a_correctly_rounded_exp_differs(self, log_top, g, k):
        box = BoxBounds(4, 8, 16)
        z, heights = mp_grid_heights(box, 0, log_top, grids=g + 1)
        want = heights[g][k]
        got = choose_Y(lambda c: c.height >= want, box=box, floor_const=0, log_top=log_top)
        assert got.height == want
        # the exp argument's true exponential, rounded once, floors elsewhere
        arg = scalars.rnd(_grid_start(z, g) * scalars.rnd(1 + scalars.rnd(Fraction(k, 63))))
        with mp.workprec(400):
            true_exp = exact(mp.exp(mpf(arg)))
        assert math.floor(scalars.rnd(true_exp)) != want

    def test_parameters_match_mpmath(self):
        rng = random.Random(21)
        for _ in range(120):
            box = random_box(rng)
            terms = {(rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 9)}
            terms[(0, 0, 0)] = -rng.randint(1, 50)
            f = P(3, terms)
            g = P(3, {(0, rng.randint(1, 3), rng.randint(0, 2)): 1, (0, 0, 0): -3})
            q = rng.choice((1, rng.randint(2, 10 ** 4)))
            epsilon = rng.uniform(0.05, 2)
            params = compute_params(f, SideCondition(g, q), box, epsilon)
            got = (params.side.value, params.log_top_height, params.cover_scale,
                   params.cover_scale_eps, params.modulus_gain)
            want = mp_params(f, g, q, box, epsilon)
            assert [float(v) for v in got] == [float(v) for v in want]
            assert list(got) == [exact(v) for v in want]

    def test_deviation_matches_mpmath(self):
        rng = random.Random(22)
        for _ in range(100):
            box = random_box(rng)
            m = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 3))
            E = build_exponent_set(ExactLog(rng.randint(2, 10 ** 9)), m, box)
            sum_log, dev_count, dev_sum = mp_deviation(E)
            assert set_statistics(E).sum_log == exact(sum_log)
            got = main_term_deviation(E)
            assert [float(v) for v in got] == [float(dev_count), float(dev_sum)]
            assert list(got) == [exact(dev_count), exact(dev_sum)]

    def test_quadric_scales_match_mpmath(self, monkeypatch):
        class Scale(Exception):
            pass

        def stop(*args, scale_override, **kwargs):
            raise Scale(scale_override)

        monkeypatch.setattr(detsieve.applications, "aux_pipeline", stop)
        rng = random.Random(23)
        for _ in range(100):
            B = rng.randint(2, 12)
            a = (rng.randint(2, 10 ** 4), rng.randint(1, 9), rng.randint(1, 9))
            epsilon = rng.choice((0.5, 1.5, 1.0, rng.uniform(0.01, 3)))
            with mp.workprec(96):
                scale = mp.root(mp.mpf(B) ** 2, 3) / mp.root(mp.mpf(a[0]), 6)
                slack = scale * mp.mpf(B) ** mp.mpf(epsilon)
            assert float(quadric_cover_scale(a[0], B)) == float(scale)
            with pytest.raises(Scale) as raised:
                count_quadric(QuadricInstance(*a, 7, B), "pipeline", epsilon=epsilon)
            assert float(raised.value.args[0]) == float(slack)
