"""Exact integer arithmetic helpers: primality, factoring, divisors, roots."""

from __future__ import annotations

import math

from .errors import ContractViolation

# deterministic Miller-Rabin witnesses for n < 3.3 * 10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    n = int(n)
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ContractViolation(f"{n} exceeds the deterministic primality range")
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
    """Prime factorization of |n| as {prime: multiplicity}; n must be nonzero."""
    n = abs(int(n))
    if n == 0:
        raise ContractViolation("cannot factor zero")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
    """(p, j) with q = p^j when q > 1 is a prime power, else None."""
    q = int(q)
    if q < 2:
        return None
    fac = factorize(q)
    if len(fac) != 1:
        return None
    [(p, j)] = fac.items()
    return p, j
