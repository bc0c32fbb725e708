"""Factoring under its trial-division cap, and prime powers without it."""

import random
import time

import pytest

import detsieve.arith
from detsieve.arith import (
    TRIAL_DIVISION_CAP, divisors, factorize, is_prime, prime_power_decompose,
)
from detsieve.errors import CapExceeded, ContractViolation


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


def factored_decompose(q):
    """prime_power_decompose through a full factorization: the oracle."""
    if q < 2:
        return None
    fac = naive_factorize(q)
    return next(iter(fac.items())) if len(fac) == 1 else None


class TestPrimePowerDecompose:
    def test_matches_the_factorization(self):
        rng = random.Random(25)
        for q in list(range(-3, 2000)) + [rng.randrange(10 ** 6) for _ in range(3000)]:
            assert prime_power_decompose(q) == factored_decompose(q), q
        for q in (2 ** 64, 3 ** 40, 720, 10007 * 10009, 7 ** 30):
            assert prime_power_decompose(q) == factored_decompose(q), q

    def test_prime_powers_past_the_trial_division_cap_need_no_factoring(self, monkeypatch):
        def never(n):
            raise AssertionError(f"factorize({n})")

        monkeypatch.setattr(detsieve.arith, "factorize", never)
        m61 = 2 ** 61 - 1
        assert prime_power_decompose(1000003 ** 2) == (1000003, 2)
        assert prime_power_decompose(m61) == (m61, 1)
        assert prime_power_decompose(m61 ** 2) == (m61, 2)
        # two primes past the cap: not a prime power, where factorize refuses
        assert prime_power_decompose(1000003 * 1000033) is None

    def test_a_root_past_the_primality_range_is_refused(self):
        for q in (2 ** 89 - 1, (2 ** 89 - 1) ** 2):
            with pytest.raises(CapExceeded, match=str(q)):
                prime_power_decompose(q)
        # past that range too, but factorize finds two primes: 2 and 2^81 + 17
        r = 2 ** 81 + 17
        assert is_prime(r) and prime_power_decompose(2 * r) is None


@pytest.mark.parametrize("bad", (7.9, "7", True), ids=("float", "str", "bool"))
@pytest.mark.parametrize("f", (is_prime, factorize, divisors, prime_power_decompose),
                         ids=lambda f: f.__name__)
def test_non_integer_argument_refused(f, bad):
    # int() read 7.9 and "7" as the prime 7, and True as 1
    with pytest.raises(ContractViolation, match="must be an integer"):
        f(bad)
