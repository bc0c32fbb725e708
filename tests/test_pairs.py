"""The (mantissa, exponent) pair core of ``detsieve.scalars`` against the
Fraction formulas it replaced, kept here as the oracle; the grid heights and
the frozen method parameters of every benchmark and CI pipeline config; and
the staircase count that the cutoff probes take without the slab sums."""

import math
import random
from fractions import Fraction
from functools import cache

import pytest

import detsieve.exponents
from detsieve import scalars
from detsieve.arith import iroot
from detsieve.applications import QuadricInstance, count_quadric
from detsieve.determinant import aux_pipeline
from detsieve.enumeration import ResidueData, enumerate_points
from detsieve.errors import CapExceeded, ContractViolation
from detsieve.exponents import (
    BoxBounds,
    ExactLog,
    SideCondition,
    _grid_height,
    _slab_sums,
    compute_params,
    staircase_size,
)
from detsieve.polynomials import IntegerPolynomial as P
from detsieve.scalars import (
    PRECISION_BITS, _add, _div, _dot, _exp, _fit, _log, _mul, _power, _root, _round, _scaled, _sub,
)

# -- the Fraction formulas the pairs replaced, kept as the oracle -------------


def frac_rnd(x, bits=PRECISION_BITS) -> Fraction:
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
    return Fraction(-q if n < 0 else q) * Fraction(2) ** -s


@cache
def frac_log(n, bits=PRECISION_BITS) -> Fraction:
    n = frac_rnd(n).numerator
    if n == 1:
        return Fraction(0)
    k = n.bit_length() - 1
    p = bits + 64 + k.bit_length()
    y = n << p >> k
    one = 1 << p
    fixed = k * scalars._ln2(p) + 2 * scalars._atanh(y - one, y + one, p)
    return frac_rnd(Fraction(fixed, 1 << p), bits)


def frac_root(x, k=2, bits=PRECISION_BITS) -> Fraction:
    x = Fraction(x)
    n, d = x.numerator, x.denominator
    s = bits + 2 - (n.bit_length() - d.bit_length() - 1) // k
    y, rem = divmod(n << k * s, d) if s >= 0 else divmod(n, d << -k * s)
    r = iroot(y, k)
    if rem or r ** k != y:
        return frac_rnd(Fraction(2 * r + 1) * Fraction(2) ** (-s - 1), bits)
    return frac_rnd(Fraction(r) * Fraction(2) ** -s, bits)


def frac_exp(x) -> Fraction:
    x = Fraction(x)
    man, den = x.numerator, x.denominator
    if not man:
        return Fraction(1)
    e = 1 - den.bit_length()
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    e += zeros
    mag = abs(man).bit_length() + e
    wp = PRECISION_BITS + 14
    if mag < -wp:
        return Fraction(1)
    if mag > 1:
        offset = e + wp + mag
        t = man << offset if offset >= 0 else man >> -offset
        n, t = divmod(t, scalars._ln2(wp + mag))
        t >>= mag
    else:
        offset = e + wp
        t = man << offset if offset >= 0 else man >> -offset
        n = 0
    r = math.isqrt(wp)
    p = wp + r
    s0 = s1 = 1 << p
    k = 2
    a = x2 = t * t >> p
    while a:
        a //= k
        s0 += a
        k += 1
        a //= k
        s1 += a
        k += 1
        a = a * x2 >> p
    s = s0 + (s1 * t >> p)
    for _ in range(r):
        s = s * s >> p
    s >>= r
    return frac_rnd(Fraction(s) * Fraction(2) ** (n - wp))


def frac_power(x, t) -> Fraction:
    t = Fraction(t)
    if t.denominator > 2:
        return frac_exp(t * frac_log(x, PRECISION_BITS + 10))
    x = frac_rnd(x)
    if t.denominator == 1:
        return frac_rnd(x ** t.numerator)
    if t.numerator == 1:
        return frac_root(x)
    return frac_rnd(frac_root(x, 2, PRECISION_BITS + 10) ** t.numerator)


def frac_dot(ks, xs) -> Fraction:
    total = Fraction(0)
    for k, x in zip(ks, xs):
        total = frac_rnd(total + frac_rnd(k * x))
    return total


def frac_grid_height(start, k) -> int:
    h = frac_exp(frac_rnd(start * frac_rnd(1 + frac_rnd(Fraction(k, 63)))))
    near = round(h)
    if near >= 1 and abs(h - near) < Fraction(near, 1 << 60):
        return near
    return math.floor(h)


# -- inputs ---------------------------------------------------------------------


def value(x) -> Fraction:
    return _scaled(*x)


def random_pair(rng, bits=PRECISION_BITS, sign=True):
    """A pair of a bits-bit or shorter mantissa, of either sign, and an
    exponent that puts it between about 2^-150 and 2^150."""
    m = rng.randint(1, (1 << rng.choice((1, 7, 52, 53, 54, bits))) - 1)
    if sign and rng.random() < 0.5:
        m = -m
    return m, rng.randint(-150, 150) - m.bit_length()


def tie(rng, bits):
    """A (bits + 1)-bit odd mantissa whose rounding to bits is an exact tie,
    times a random power of two, of either sign."""
    q = rng.randint(1 << (bits - 1), (1 << bits) - 1)
    return rng.choice((-1, 1)) * (2 * q + 1), rng.randint(-200, 200)


class TestPairCore:
    def test_fit_and_round_match_the_fraction_rounding(self):
        rng = random.Random(40)
        for _ in range(3000):
            bits = rng.choice((53, 96))
            m = rng.choice((-1, 1)) * rng.randint(1, 1 << rng.randint(1, 300))
            e = rng.randint(-300, 300)
            assert value(_fit(m, e, bits)) == frac_rnd(value((m, e)), bits), (m, e, bits)
            m, e = tie(rng, bits)
            got = _fit(m, e, bits)
            assert value(got) == frac_rnd(value((m, e)), bits), (m, e, bits)
            assert abs(got[0]).bit_length() <= bits
            n = rng.choice((-1, 1)) * rng.randint(0, 10 ** rng.randint(1, 60))
            d = rng.choice((1 << rng.randint(0, 200), rng.randint(1, 10 ** 30), 3, 7))
            for d in (d, -d):
                got = _round(n, d, bits)
                assert value(got) == frac_rnd(Fraction(n, d), bits), (n, d, bits)
                assert abs(got[0]).bit_length() <= bits
        # a carry to 2^bits keeps the mantissa at bits bits
        for bits in (53, 96):
            assert _fit((1 << (bits + 1)) - 1, 0, bits) == (1 << (bits - 1), 2)
            assert _round((1 << (bits + 3)) - 1, 3, bits)[0].bit_length() <= bits
        assert value(_round(0, 7)) == 0

    def test_ties_go_to_even(self):
        for bits in (53, 96):
            for q in (1 << (bits - 1), (1 << (bits - 1)) + 1, (1 << bits) - 2):
                for sign in (1, -1):
                    m, e = _fit(sign * (2 * q + 1), -1, bits)
                    assert value((m, e)) == sign * (q + (q & 1)), (bits, q, sign)
                    assert value(_round(sign * (2 * q + 1), 2, bits)) == sign * (q + (q & 1))

    def test_arithmetic_matches_the_fraction_formulas(self):
        rng = random.Random(41)
        for _ in range(3000):
            x, y = random_pair(rng), random_pair(rng)
            fx, fy = value(x), value(y)
            assert value(_mul(x, y)) == frac_rnd(fx * fy), (x, y)
            assert value(_add(x, y)) == frac_rnd(fx + fy), (x, y)
            assert value(_sub(x, y)) == frac_rnd(fx - fy), (x, y)
            assert value(_div(x, y)) == frac_rnd(fx / fy), (x, y)
            # the sign of a difference is the comparison, equal values included
            assert (_sub(x, y)[0] > 0) == (fx > fy) and (_sub(x, x)[0] == 0)
        # exact ties through a sum: 2^96 + 1 and 2^96 + 3 halve to even
        big = 1 << PRECISION_BITS
        assert value(_add((big, 0), (1, 0))) == big
        assert value(_add((big, 0), (3, 0))) == big + 4
        assert value(_add((-big, 0), (-3, 0))) == -big - 4
        assert value(_add((5, 2000), (0, 0))) == 5 * Fraction(2) ** 2000
        with pytest.raises(ZeroDivisionError):
            _div((1, 0), (0, 0))

    def test_roots_match(self):
        rng = random.Random(42)
        for _ in range(800):
            x = random_pair(rng, sign=False)
            for k in (2, 3, 6):
                for bits in (96, 106):
                    assert value(_root(x, k, bits)) == frac_root(value(x), k, bits), (x, k)
        for r in (1, 3, 10 ** 6):
            assert value(_root((r ** 6, 0), 6)) == r
            assert value(_root((r ** 2, -40), 2)) == Fraction(r, 1 << 20)

    def test_exp_matches_mpmaths_steps(self):
        rng = random.Random(43)
        xs = [(0, 0), (1, -300), (-1, -120), (1, 0), (-1, 0), (7005, -1)]
        xs += [random_pair(rng, rng.choice((53, 96, 160))) for _ in range(1500)]
        for x in xs:
            if abs(value(x)) < 5000:
                assert value(_exp(x)) == frac_exp(value(x)), x
        # rounded to 53 bits: the grid starts after the first
        for _ in range(300):
            x = _fit(rng.randint(1, 1 << 60), rng.randint(-70, -48), 53)
            assert value(_exp(x)) == frac_exp(value(x)), x

    def test_log_matches(self):
        rng = random.Random(44)
        ns = list(range(1, 200)) + [rng.randint(2, 1 << rng.randint(2, 400)) for _ in range(300)]
        for n in ns:
            for bits in (96, 106):
                assert value(_log(n, bits)) == frac_log(n, bits), (n, bits)
        for bad in (0, -5):
            with pytest.raises(ContractViolation, match="positive integer"):
                _log(bad)

    def test_power_takes_each_branch_as_before(self):
        rng = random.Random(45)
        for _ in range(600):
            t = rng.choice((rng.uniform(0.01, 4), 0.5, 1.5, 2.5, 3.5, 1.0, 2.0, 3.0, -1.5, -2.0))
            B = rng.randint(1, 10 ** rng.choice((3, 6, 40)))
            assert value(_power((B, 0), scalars._pair(t))) == frac_power(B, t), (B, t)
            if t.is_integer() or (2 * t).is_integer():
                x = random_pair(rng, sign=False)
                assert value(_power(x, scalars._pair(t))) == frac_power(value(x), t), (x, t)
        with pytest.raises(ContractViolation, match="positive integer"):
            _power((3, -1), scalars._pair(0.3))

    def test_dot_rounds_each_product_and_partial_sum(self):
        rng = random.Random(46)
        for _ in range(500):
            n = rng.randint(0, 5)
            ks = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
            xs = [random_pair(rng) for _ in range(n)]
            assert value(_dot(ks, xs)) == frac_dot(ks, map(value, xs))

    def test_pair_takes_only_binary_numbers(self):
        for bad in (Fraction(1, 3), Fraction(5, 6)):
            with pytest.raises(ContractViolation, match="binary"):
                scalars._pair(bad)


# -- grid heights ----------------------------------------------------------------


def surface(a, n):
    f = {(2, 0, 0): a[0], (0, 2, 0): a[1], (0, 0, 2): a[2], (0, 0, 0): -n}
    return P(3, f), P(3, {e: c for e, c in f.items() if e != (2, 0, 0)})


def unequal_box_starts(monkeypatch) -> set:
    """Every grid start the search takes on the one unequal-box pipeline
    config of the benchmark and CI (box 12, 20, 30), and on CI's refused
    run of it at scale 10^300, which walks grids 0 to 6."""
    starts = set()
    real = detsieve.exponents._grid_height

    def spy(start, k):
        starts.add(start)
        return real(start, k)

    monkeypatch.setattr(detsieve.exponents, "_grid_height", spy)
    f, g = surface((5, 1, 1), 6)
    side, box = SideCondition(g, 5), BoxBounds(12, 20, 30)
    pts = enumerate_points(f, side, box)
    aux_pipeline(f, side, box, None, 0.5, pts)
    with pytest.raises(CapExceeded):
        aux_pipeline(f, side, box, None, 0.5, pts, scale_override=1e300)
    monkeypatch.undo()
    return starts


class TestGridHeights:
    def test_every_point_of_the_config_grids(self, monkeypatch):
        starts = unequal_box_starts(monkeypatch)
        assert len(starts) >= 7
        for start in starts:
            assert [_grid_height(start, k) for k in range(64)] == \
                [frac_grid_height(start, k) for k in range(64)], start

    def test_every_point_of_random_grids(self):
        rng = random.Random(47)
        for case in range(60):
            bits = 53 if case % 2 else 96
            start = frac_rnd(Fraction(rng.uniform(0.01, 400)) / rng.choice((1, 3, 7)), bits)
            assert [_grid_height(start, k) for k in range(64)] == \
                [frac_grid_height(start, k) for k in range(64)], start

    def test_snapped_heights(self):
        # e^(log n) lands just below n for these n: the snap, not the floor, gives n
        for n in (1 << 40, 3 ** 20, 10 ** 12, 7 ** 15, 1000003):
            start = frac_log(n)
            assert frac_exp(start) < n
            assert _grid_height(start, 0) == frac_grid_height(start, 0) == n


# -- frozen method parameters ----------------------------------------------------

# (S, log_top_height, cover_scale, cover_scale_eps, modulus_gain, threshold),
# each (numerator, denominator), of every pipeline config the benchmark and CI
# run, recorded from the Fraction formulas before the pair core
FROZEN = {
    "cover-B10": (
        (11401849121915919630633121163, 2475880078570760549798248448),
        (11401849121915919630633121163, 2475880078570760549798248448),
        (20774111755742029743679587073, 4951760157141521099596496896),
        (65693509515024328441795688899, 4951760157141521099596496896),
        (56022770974786139918731938227, 316912650057057350374175801344),
        (7565124360574034713664769881, 618970019642690137449562112),
    ),
    "cover-B16": (
        (6864597183463434168892683891, 1237940039285380274899124224),
        (6864597183463434168892683891, 1237940039285380274899124224),
        (28963903210677245765600433927, 4951760157141521099596496896),
        (28963903210677245765600433927, 1237940039285380274899124224),
        (56022770974786139918731938227, 316912650057057350374175801344),
        (52361977861784999181774264663, 2475880078570760549798248448),
    ),
    "cover-B17": (
        (28058785907558526044409327843, 4951760157141521099596496896),
        (28058785907558526044409327843, 4951760157141521099596496896),
        (60465055284733777926240491195, 9903520314283042199192993792),
        (31162976199721086960916701663, 1237940039285380274899124224),
        (14005692743696534979682984557, 79228162514264337593543950336),
        (56199588795679607575804579295, 2475880078570760549798248448),
    ),
    "rung-B60": (
        (40548424545640883401117078323, 4951760157141521099596496896),
        (40548424545640883401117078323, 4951760157141521099596496896),
        (15872625813246178179376115623, 1237940039285380274899124224),
        (15368603858821101223167955777, 154742504910672534362390528),
        (14005692743696534979682984557, 79228162514264337593543950336),
        (53128766492432168790159115777, 618970019642690137449562112),
    ),
    "aux-grid-12-20-30": (
        (67367654724354898464448788865, 9903520314283042199192993792),
        (67367654724354898464448788865, 9903520314283042199192993792),
        (68180169167120802041927132039, 9903520314283042199192993792),
        (46679770784187846369110362541, 1237940039285380274899124224),
        (0, 1),
        (46679770784187846369110362541, 1237940039285380274899124224),
    ),
    "aux-B30-p5-p7": (
        (67367654724354898464448788865, 9903520314283042199192993792),
        (67367654724354898464448788865, 9903520314283042199192993792),
        (45174997611221034236447430965, 4951760157141521099596496896),
        (15464603266817346708037470863, 309485009821345068724781056),
        (14005692743696534979682984557, 79228162514264337593543950336),
        (15464603266817346708037470863, 309485009821345068724781056),
    ),
    "aux-height-1": (
        (43520516473382439883832608427, 19807040628566084398385987584),
        (43520516473382439883832608427, 19807040628566084398385987584),
        (64813228505194842187447563525, 39614081257132168796771975168),
        (1754059449587014126872146503, 618970019642690137449562112),
        (14005692743696534979682984557, 79228162514264337593543950336),
        (1, 2),
    ),
    "huge-equal-aux": (
        (63756404241473620369494233739, 19807040628566084398385987584),
        (39847752650921012730933896087, 2475880078570760549798248448),
        (3626643760893603643712778953, 2475880078570760549798248448),
        (64875375836268729568623203111, 19807040628566084398385987584),
        (50108289675009586237282760313, 633825300114114700748351602688),
        (64875375836268729568623203111, 19807040628566084398385987584),
    ),
}


def params_of(name):
    """(MethodParams, threshold) of a config, through the library calls the
    CLI makes."""
    quadrics = {"cover-B10": ((3, 1, 1), 1001, 10), "cover-B16": ((3, 1, 1), 1001, 16),
                "cover-B17": ((3, 1, 1), 1001, 17), "rung-B60": ((7, 1, 1), 3, 60)}
    if name in quadrics:
        a, n, B = quadrics[name]
        report = count_quadric(QuadricInstance(*a, n, B), "pipeline").report
        return report.params, report.threshold
    if name == "huge-equal-aux":
        # x1^10 on box 5 at scale 1100: refused after its parameters
        f = P(3, {(10, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -3})
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -2})
        params = compute_params(f, SideCondition(g, 5), BoxBounds(5, 5, 5), 0.5)
        return params, params.cover_scale_eps
    a, n, q, box, primes, kwargs = {
        "aux-grid-12-20-30": ((5, 1, 1), 6, 5, (12, 20, 30), (), {}),
        "aux-B30-p5-p7": ((3, 1, 1), 1001, 3, (30, 30, 30), (5, 7), {}),
        "aux-height-1": ((1, 1, 1), 6, 5, (3, 3, 3), (), dict(floor_const=0, scale_override=0.5)),
    }[name]
    f, g = surface(a, n)
    side, box = SideCondition(g, q), BoxBounds(*box)
    report = aux_pipeline(f, side, box, ResidueData(primes), 0.5, enumerate_points(f, side, box),
                          **kwargs)
    return report.params, report.threshold


def fractions_formed(monkeypatch, call, *args) -> int:
    """The number of Fractions call(*args) forms."""
    formed = []
    new = Fraction.__new__

    def counting(cls, *a, **k):
        formed.append(a)
        return new(cls, *a, **k)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    call(*args)
    monkeypatch.undo()
    return len(formed)


class TestFrozenParams:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_parameters_are_frozen(self, name):
        params, threshold = params_of(name)
        got = (params.side.value, params.log_top_height, params.cover_scale,
               params.cover_scale_eps, params.modulus_gain, threshold)
        assert all(type(v) is Fraction for v in got)
        assert [v.as_integer_ratio() for v in got] == list(FROZEN[name])

    def test_fractions_are_formed_only_for_the_record(self, monkeypatch):
        # warm logs: compute_params forms its four Fraction fields and nothing else
        f, g = surface((5, 1, 1), 6)
        args = (f, SideCondition(g, 5), BoxBounds(12, 20, 30), 0.5)
        compute_params(*args)
        assert fractions_formed(monkeypatch, compute_params, *args) == 4

    def test_a_warm_pipeline_forms_few_fractions(self, monkeypatch):
        # aux-grid-12-20-30 probes 14 grid heights; none forms a Fraction
        f, g = surface((5, 1, 1), 6)
        side, box = SideCondition(g, 5), BoxBounds(12, 20, 30)
        args = (f, side, box, None, 0.5, enumerate_points(f, side, box))
        aux_pipeline(*args)
        assert fractions_formed(monkeypatch, aux_pipeline, *args) == 9


class TestOutsideValues:
    """A value from outside the package, read through one rounding."""

    def test_the_threshold_is_the_rounded_scale(self):
        f, g = surface((5, 1, 1), 6)
        side, box = SideCondition(g, 5), BoxBounds(12, 20, 30)
        pts = enumerate_points(f, side, box)
        # neither scale is a 96-bit binary number; the large one is met at
        # the first cutoff through residue primes whose product exceeds it
        for x, primes in ((Fraction(10, 3), ()), (3 ** 70, (2 ** 61 - 1, 10 ** 18 + 3))):
            report = aux_pipeline(f, side, box, ResidueData(primes), 0.5, pts, scale_override=x)
            assert report.threshold == frac_rnd(x) != x

    def test_a_non_binary_epsilon_reads_as_its_rounding(self):
        inst = QuadricInstance(3, 1, 1, 1001, 16)
        third = count_quadric(inst, "pipeline", epsilon=Fraction(1, 3))
        assert third == count_quadric(inst, "pipeline", epsilon=frac_rnd(Fraction(1, 3)))
        assert len(third.points) == 16


# -- the cutoff probes' count -------------------------------------------------------


class TestStaircaseCount:
    def test_count_is_the_slab_count(self):
        boxes = [BoxBounds(*b) for b in ((2, 2, 2), (3, 3, 3), (16, 16, 16), (12, 20, 30),
                                         (4, 8, 16), (2, 3, 1000), (30, 20, 12), (7, 7, 50))]
        dominants = [(2, 0, 0), (0, 0, 2), (1, 1, 1), (3, 2, 0), (0, 4, 1), (1, 0, 0)]
        heights = [1, 2, 5, 63, 64, 1000, 10 ** 6, 3 ** 40, 10 ** 30 + 7, 353265586727888747578466418333164285171073024]
        for box in boxes:
            for m in dominants:
                for T in heights:
                    cutoff = ExactLog(T)
                    assert staircase_size(cutoff, m, box) == _slab_sums(cutoff, m, box)[0], \
                        (box, m, T)
