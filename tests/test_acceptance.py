"""Acceptance gate: the exact constructive guarantees, one criterion per test.

Every test prints a single summary line on success and enforces its own
runtime budget, so a verbose run reads as a pass/fail checklist.
"""

import math
import random
import time

from mpmath import mp

from detsieve.applications import (
    QuadricInstance,
    UnlikePowersInstance,
    count_quadric,
    count_unlike,
    excluded_subvarieties,
    gcd_power_sum,
    q_of_n,
    quadric_cover_scale,
    wronskian_bound_check,
)
from detsieve.cli import fit_exponent
from detsieve.determinant import (
    aux_pipeline,
    build_matrix,
    congruence_certificates,
    minor_determinant,
    prime_power_valuation,
)
from detsieve.enumeration import ResidueData, SideCondition, enumerate_points
from detsieve.errors import ContractViolation
from detsieve.exponents import (
    BoxBounds,
    ExactLog,
    build_exponent_set,
    compute_params,
    main_term_deviation,
    max_exponent,
)
from detsieve.polynomials import (
    IntegerPolynomial,
    exact_divide,
    is_coprime,
    wronskian,
)

P = IntegerPolynomial


def R(coeffs):
    """The polynomial in one variable with these coefficients, constant first."""
    return IntegerPolynomial(1, {(k,): c for k, c in enumerate(coeffs)})

PRIME_POWERS = (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
                37, 41, 43, 47, 49)
# targets with many two-square representations, keyed to the box that holds them
TWO_SQUARE_RICH = {25: 5, 50: 7, 65: 8, 85: 9, 125: 11, 169: 13, 200: 14}


def _certificate_instance(rng):
    """One congruence-sieve instance guaranteed dense enough to certify.

    Two shapes per degree: a diagonal surface whose side condition is
    rich in residue points, and a difference-of-squares surface whose
    integer points include two full lines.
    """
    kind = rng.choice(("quadric-rich", "quadric-line", "cubic-rich", "cubic-line"))
    deg = 2 if kind.startswith("quadric") else 3
    q = rng.choice(PRIME_POWERS)
    if kind.endswith("rich"):
        c = rng.choice((0, 1, 2)) if deg == 2 else rng.choice((0, 1))
        target = rng.choice(sorted(TWO_SQUARE_RICH))
        n = q * c**deg + target
        B = min(16, TWO_SQUARE_RICH[target] + rng.randrange(0, 3))
        f = P(3, {(deg, 0, 0): q, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -n})
    else:
        a = rng.choice((1, 2))
        c = rng.choice((1, 2))
        B = rng.randrange(6, 17)
        n = q * a * c**deg
        f = P(3, {(deg, 0, 0): q * a, (0, 2, 0): 1, (0, 0, 2): -1, (0, 0, 0): -n})
    g = P(3, {e: v for e, v in f.terms.items() if e[0] == 0})
    ypow = rng.choice((2, 2, 3))
    return kind, q, f, g, BoxBounds(B, B, B), ypow


def test_criterion_01_certificate_soundness():
    t0 = time.monotonic()
    rng = random.Random(2024)
    kept = 0
    with_nonzero_minor = 0
    degrees = set()
    while kept < 50:
        kind, q, f, g, box, ypow = _certificate_instance(rng)
        m = max_exponent(f, box)
        E = build_exponent_set(ExactLog.power(box.bmax, ypow), m, box)
        if len(E.members) > 20:
            continue
        pts = enumerate_points(f, SideCondition(g, q), box)
        if len(pts) < len(E.members):
            continue
        M = build_matrix(list(pts), E)
        certs = congruence_certificates(
            M, SideCondition(g, q), E, samples=8, rng=random.Random(kept)
        )
        assert len(certs) == 1
        cert = certs[0]
        assert cert.checked_minors, "J >= E must force sampled minors"
        for cm in cert.checked_minors:
            # re-derive the minor from the raw matrix: the certificate
            # data is not trusted here
            delta = minor_determinant(M, cm.rows)
            if delta == 0:
                assert cm.determinant_zero
                continue
            with_nonzero_minor += 1
            v = prime_power_valuation(delta, cert.prime, cert.prime_exponent)
            assert v >= cert.lam, (kind, q, box.bmax, v, cert.lam)
        degrees.add(f.total_degree())
        kept += 1
    elapsed = time.monotonic() - t0
    assert degrees == {2, 3}
    assert with_nonzero_minor >= 20
    assert elapsed < 300
    print(
        f"criterion 1 PASS: {kept} instances, every sampled minor has "
        f"valuation >= lambda ({with_nonzero_minor} nonzero checks, {elapsed:.1f}s)"
    )


def test_criterion_02_auxiliary_soundness():
    t0 = time.monotonic()
    reports = []

    f8 = P(3, {(2, 0, 0): 5, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
    g8 = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
    box8 = BoxBounds(2, 2, 2)
    pts8 = enumerate_points(f8, SideCondition(g8, 5), box8)
    reports.append((f8, aux_pipeline(f8, SideCondition(g8, 5), box8, ResidueData(()), 0.5,
                                     pts8, floor_const=10)))
    reports.append((f8, aux_pipeline(f8, SideCondition(g8, 5), box8, ResidueData((3,)), 0.5,
                                     pts8, floor_const=10)))

    sphere = P(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -5})
    gs = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -5})
    box24 = BoxBounds(10, 10, 10)
    pts24 = enumerate_points(sphere, SideCondition(gs, 1), box24)
    reports.append((sphere, aux_pipeline(sphere, SideCondition(gs, 1), box24, ResidueData((3,)),
                                         0.5, pts24, floor_const=6)))

    rng = random.Random(88)
    built = 0
    while built < 10:
        a = [rng.choice([-3, -2, -1, 1, 2, 3, 5]) for _ in range(3)]
        n = rng.randrange(1, 30)
        try:
            inst = QuadricInstance(a[0], a[1], a[2], n, rng.randrange(3, 7))
        except ContractViolation:
            continue
        built += 1
        out = count_quadric(inst, mode="pipeline", floor_const=10)
        reports.append((inst.surface(), out.report))

    checked = 0
    for f, report in reports:
        assert report.coverage_complete
        for cls in report.classes:
            if cls.outcome != "aux":
                continue
            aux = report.auxiliaries[cls.aux_index]
            for pt in cls.points:
                assert aux.poly.evaluate(pt) == 0
            assert aux.coprime_to_f
            assert is_coprime(aux.poly, f)
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked >= 20
    assert elapsed < 120
    print(
        f"criterion 2 PASS: {checked} emitted polynomials vanish on their "
        f"classes and stay coprime to f ({elapsed:.1f}s)"
    )


def test_criterion_03_enumeration_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(3030)

    # diagonal quadrics against a full-box triple loop
    for trial in range(50):
        a1, a2, a3 = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
        n = rng.randrange(-40, 41)
        B = 30 if trial < 3 else rng.randrange(5, 31)
        q = rng.choice([1, 2, 3, 5])
        f = P(3, {(2, 0, 0): a1, (0, 2, 0): a2, (0, 0, 2): a3, (0, 0, 0): -n})
        g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): rng.randrange(-5, 6)})
        got = list(enumerate_points(f, SideCondition(g, q), BoxBounds(B, B, B)))
        expected = []
        rng_vals = range(-B, B + 1)
        sq = {x: x * x for x in rng_vals}
        for x1 in rng_vals:
            s1 = a1 * sq[x1] - n
            for x2 in rng_vals:
                s12 = s1 + a2 * sq[x2]
                gx2 = sq[x2] + g.terms.get((0, 0, 0), 0)
                for x3 in rng_vals:
                    if s12 + a3 * sq[x3] == 0 and (gx2 + sq[x3]) % q == 0:
                        expected.append((x1, x2, x3))
        assert got == expected

    # dense mixed-term surfaces against the evaluating loop
    done = 0
    while done < 20:
        terms = {}
        for _ in range(rng.randrange(3, 6)):
            e = tuple(rng.randrange(4) for _ in range(3))
            c = rng.randrange(-4, 5)
            if c:
                terms[e] = c
        f = P(3, terms) if terms else P.zero(3)
        if f.is_zero or f.is_constant:
            continue
        done += 1
        B = rng.randrange(3, 11)
        got = list(enumerate_points(
            f, SideCondition(P.variable(3, 1), 1), BoxBounds(B, B, B)
        ))
        expected = [
            (x1, x2, x3)
            for x1 in range(-B, B + 1)
            for x2 in range(-B, B + 1)
            for x3 in range(-B, B + 1)
            if f.evaluate((x1, x2, x3)) == 0
        ]
        assert got == expected

    # the two frozen quadric counts
    assert count_quadric(QuadricInstance(1, 1, 1, 5, 10)).count == 24
    assert count_quadric(QuadricInstance(5, 1, 1, 6, 2)).count == 8

    # quadruples: hash-and-scan equals the quadruple loop
    assert count_unlike(UnlikePowersInstance(5, 3, 2, 4, 1)).count == 2
    for trial in range(17):
        k = rng.choice([3, 5, 7])
        l = rng.choice([2, 3, 4])
        m_ = rng.choice([2, 3])
        N = rng.randrange(-60, 61) or 7
        B = (16, 20)[trial % 2] if trial < 2 else rng.randrange(2, 13)
        inst = UnlikePowersInstance(k, l, m_, N, B)
        assert (
            count_unlike(inst).count
            == count_unlike(inst, "meet-in-middle").count
        )

    elapsed = time.monotonic() - t0
    assert elapsed < 180
    print(
        f"criterion 3 PASS: 50 quadric + 20 mixed-surface + 18 quadruple "
        f"corpora match naive loops exactly ({elapsed:.1f}s)"
    )


def test_criterion_04_exact_formula_spot_checks():
    t0 = time.monotonic()
    assert q_of_n(2) == 9
    assert q_of_n(3) == 16
    assert quadric_cover_scale(64, 4096) == 128

    f = P(3, {(2, 0, 0): 5, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
    g = P(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -6})
    box = BoxBounds(10, 10, 10)
    params = compute_params(f, SideCondition(g, 5), box, 0.5)
    expected = 1 / (4 * math.sqrt(2))
    assert abs(float(params.modulus_gain) - expected) <= 1e-12 * expected
    elapsed = time.monotonic() - t0
    assert elapsed < 1
    print(
        "criterion 4 PASS: column-count, cover-scale and modulus-gain "
        f"formulas exact ({elapsed:.3f}s)"
    )


def test_criterion_05_main_term_convergence():
    t0 = time.monotonic()
    box = BoxBounds(10, 10, 10)
    count_devs = []
    sum_devs = []
    for n in (10, 20, 40, 80):
        E = build_exponent_set(ExactLog.power(10, n), (2, 0, 0), box)
        dc, ds = main_term_deviation(E)
        count_devs.append(float(dc))
        sum_devs.append(float(ds))
    for seq in (count_devs, sum_devs):
        assert all(a > b for a, b in zip(seq, seq[1:])), seq
        assert seq[-1] < 0.35
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(
        "criterion 5 PASS: relative deviations decrease "
        f"{count_devs[0]:.3f}->{count_devs[-1]:.3f} (count), "
        f"{sum_devs[0]:.3f}->{sum_devs[-1]:.3f} (log-sum) ({elapsed:.1f}s)"
    )


def test_criterion_06_wronskian_properties():
    t0 = time.monotonic()
    rng = random.Random(4096)

    def random_poly(min_deg=0):
        d = rng.randrange(min_deg, 4)
        coeffs = [rng.randrange(-4, 5) for _ in range(d + 1)]
        if not any(coeffs):
            coeffs[-1] = 1
        if coeffs[-1] == 0:
            coeffs[-1] = rng.choice([-2, -1, 1, 2])
        return R(coeffs)

    # divisibility: gamma_i^(l_i - r + 1) divides the Wronskian of the powers
    checked = 0
    for _ in range(1000):
        r = rng.randrange(2, 4)
        gammas = [random_poly() for _ in range(r)]
        exps = [rng.randrange(1, 5) for _ in range(r)]
        W = wronskian([gam**l for gam, l in zip(gammas, exps)])
        if W.is_zero:
            continue
        checked += 1
        for gam, l in zip(gammas, exps):
            s = max(l - r + 1, 0)
            if s and gam.total_degree() > 0:
                assert exact_divide(W, gam**s) is not None
    assert checked >= 300

    # bound verification on constant-sum identities
    identities = [([R([0, 1]), R([1, 0, -1])], [2, 1])]
    for _ in range(16):
        p = random_poly(min_deg=1)
        j = rng.randrange(1, 4)
        c = rng.randrange(1, 9)
        identities.append(([p, R([c]) - p**j], [j, 1]))
    for a in (1, 2, 3):
        # t^(2a) + t^(4a) + (c - t^(2a) - t^(4a)) = c with three factors
        g1 = R([0] * a + [1])
        g2 = g1 * g1
        rest = R([5]) - g1**2 - g2**2
        identities.append(([g1, g2, rest], [2, 2, 1]))

    verified = 0
    for gammas, exps in identities:
        rep = wronskian_bound_check(gammas, exps)
        if not rep.applicable:
            continue
        assert rep.passed, (gammas, exps, rep.lhs, rep.rhs)
        assert rep.divisibility_ok
        verified += 1
    assert verified >= 20
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(
        f"criterion 6 PASS: divisibility on {checked} families, degree bound "
        f"on {verified} identities ({elapsed:.1f}s)"
    )


def test_criterion_07_power_sum_majorant():
    t0 = time.monotonic()
    rng = random.Random(777)
    for trial in range(1000):
        alpha = -rng.uniform(0.02, 0.98)
        if trial < 3:
            X, n = 10000, rng.choice([720, 840, 997])
        else:
            X = int(math.exp(rng.uniform(0, math.log(10000))))
            n = rng.randrange(1, 1001)
        out = gcd_power_sum(alpha, X, n)
        assert out.total <= out.majorant, (alpha, X, n)
    assert mp.prec >= 53  # ambient; the sums themselves run at 96 bits
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(
        f"criterion 7 PASS: exact sum <= majorant on 1000 draws, "
        f"X up to 10^4 ({elapsed:.1f}s)"
    )


def test_criterion_08_subvariety_partition():
    t0 = time.monotonic()
    cases = 0
    for N in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5):
        for B in (2, 4, 6):
            inst = UnlikePowersInstance(13, 3, 2, N, B)
            rep = excluded_subvarieties(inst)
            union = set(rep.union_points)
            assert len(union) == rep.union_count
            solutions = set()
            for x1 in range(-B, B + 1):
                for x2 in range(-B, B + 1):
                    for x3 in range(-B, B + 1):
                        for x4 in range(-B, B + 1):
                            if x1**13 + x2**3 + x3**2 + x4**13 == N:
                                solutions.add((x1, x2, x3, x4))
            assert union <= solutions
            off = solutions - union
            assert rep.union_count + len(off) == count_unlike(inst).count
            cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(
        f"criterion 8 PASS: union + off-subvariety points tile the count "
        f"on {cases} instances ({elapsed:.1f}s)"
    )


def test_criterion_09_divisor_bound_sanity():
    t0 = time.monotonic()
    pairs = []
    for B in (10, 30, 100, 300):
        pairs.append([B, count_quadric(QuadricInstance(1, 1, 1, 5, B)).count])
    fit = fit_exponent(pairs)
    assert fit.slope <= 1.2, pairs
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(
        f"criterion 9 PASS: fitted growth exponent {fit.slope:.3f} <= 1.2 "
        f"({elapsed:.1f}s)"
    )
