"""Factoring under its trial-division cap."""

import random
import time

import pytest

from detsieve.arith import TRIAL_DIVISION_CAP, divisors, factorize, is_prime
from detsieve.errors import CapExceeded


def naive_factorize(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestFactorize:
    def test_matches_full_trial_division_below_the_cap(self):
        rng = random.Random(24)
        for n in list(range(1, 2000)) + [rng.randint(1, 10 ** 9) for _ in range(200)]:
            assert factorize(n) == naive_factorize(n), n
            assert factorize(-n) == factorize(n)

    def test_mersenne_61_is_one_prime_within_a_second(self):
        q = 2 ** 61 - 1
        start = time.perf_counter()
        assert factorize(q) == {q: 1}
        assert time.perf_counter() - start < 1

    def test_prime_powers_left_above_the_cap(self):
        p = 1000003
        assert p > TRIAL_DIVISION_CAP and is_prime(p)
        assert factorize(p ** 2) == {p: 2}
        assert factorize(12 * p ** 3) == {2: 2, 3: 1, p: 3}
        # the square is past the primality range, its root is not
        m61 = 2 ** 61 - 1
        assert factorize(m61 ** 2) == {m61: 2}
        assert factorize(5 * m61 ** 2) == {5: 1, m61: 2}

    def test_products_below_the_cap_still_factor(self):
        assert factorize(10007 * 10009) == {10007: 1, 10009: 1}
        assert divisors(10007 * 10009) == [1, 10007, 10009, 10007 * 10009]

    @pytest.mark.parametrize("n", (2 ** 89 - 1, 1000003 * 1000033, 7 * 1000003 * 1000033))
    def test_undecided_cofactor_refused_naming_the_number(self, n):
        with pytest.raises(CapExceeded, match=str(n)):
            factorize(n)
