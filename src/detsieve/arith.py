"""Exact integer arithmetic helpers: primality, factoring, divisors, roots."""

from __future__ import annotations

import math

from .errors import CapExceeded, ContractViolation, _shown, strict_int

# deterministic Miller-Rabin witnesses for n < 3.3 * 10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981

#: the largest trial divisor ``factorize`` tries, about 1.7 * 10^5 steps
TRIAL_DIVISION_CAP = 10 ** 6


def is_prime(n: int) -> bool:
    n = strict_int(n, "primality argument")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ContractViolation(f"{_shown(n)} exceeds the deterministic primality range")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: multiplicity}; n must be nonzero.

    Trial division runs up to TRIAL_DIVISION_CAP.  A cofactor left above
    it has no prime factor below the cap, and is accepted only as a prime
    power p^k with p below ``_MR_LIMIT``, which ``is_prime`` decides;
    any other is refused (CapExceeded).
    """
    n = abs(strict_int(n, "factoring argument"))
    if n == 0:
        raise ContractViolation("cannot factor zero")
    whole = n
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n and d <= TRIAL_DIVISION_CAP:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if d * d > n:
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out
    # every prime factor of n is at least d, so n = p^k has k <= log_d n
    k = 1
    while (p := iroot(n, k)) >= d:
        if p ** k == n and p < _MR_LIMIT and is_prime(p):
            out[p] = k
            return out
        k += 1
    raise CapExceeded(f"cannot factor {whole}: trial division to {TRIAL_DIVISION_CAP} "
                      f"leaves {n}, not a prime power below {_MR_LIMIT}")


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of |n|, n nonzero."""
    fac = factorize(n)
    out = [1]
    for p, k in fac.items():
        out = [d * p ** i for d in out for i in range(k + 1)]
    return sorted(out)


def iroot(a: int, n: int) -> int:
    """floor(a^(1/n)) for integers a >= 0 and n >= 1."""
    if n == 2:
        return math.isqrt(a)
    if a < 2:
        return a
    # integer Newton from 2^ceil(bits/n) > a^(1/n): it falls strictly
    # until it reaches floor(a^(1/n)), where the next step stops falling
    r = 1 << -(-a.bit_length() // n)
    while True:
        s = ((n - 1) * r + a // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def prime_power_decompose(q: int) -> tuple[int, int] | None:
    """(p, j) with q = p^j when q > 1 is a prime power, else None.

    p is q's exact j-th root for the largest such j, so q is a prime power
    only as p^j, and one ``is_prime(p)`` decides it without factoring q.
    A p past is_prime's range goes to ``factorize(q)``, which refuses it
    (CapExceeded) or finds two primes: a single one would be p itself.
    """
    q = strict_int(q, "prime power candidate")
    if q < 2:
        return None
    j = q.bit_length()
    while (p := iroot(q, j)) ** j != q:
        j -= 1
    if p >= _MR_LIMIT:
        factorize(q)
        return None
    return (p, j) if is_prime(p) else None
