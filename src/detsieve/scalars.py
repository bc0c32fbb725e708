"""Binary scalars at a fixed 96-bit mantissa, over Python ints and Fractions.

The smooth parameters (log heights, the cover scale and its B^epsilon
slack) and the log grid that proposes cutoff heights are the only values
in the package that are not integers.  Each is a ``Fraction`` equal to a
binary number with a PRECISION_BITS mantissa, formed one operation at a
time: the exact result of a sum, product, quotient or root, or a log known
to 64 bits past the last kept bit, rounded to nearest with ties to even.
That is what an mpmath computation at 96 bits gives.  mpmath's exp is not
correctly rounded, so ``exp`` here takes mpmath's own fixed-point steps.

One exception to the 96 bits: ``exponents.choose_Y`` starts each log grid
after the first on an unequal box from the doubled grid start rounded to
53 bits, the grid on which the recorded cutoffs were chosen.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache

from .arith import iroot
from .errors import ContractViolation, strict_int

#: mantissa bits of every scalar the package rounds
PRECISION_BITS = 96


def _scaled(m: int, e: int) -> Fraction:
    """m 2^e, exactly."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def rnd(x, bits: int = PRECISION_BITS) -> Fraction:
    """x (an int, float or Fraction) rounded to a bits-bit mantissa, ties
    to even; an x that has one already is returned as it is."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    n, d = x.as_integer_ratio()
    if not d & (d - 1) and abs(n).bit_length() <= bits:
        return x
    a = abs(n)
    # q = floor(|x| 2^s) has bits or bits + 1 bits; keep bits of them
    s = bits - a.bit_length() + d.bit_length()
    for s in (s, s - 1):
        num, den = (a << s, d) if s >= 0 else (a, d << -s)
        q, r = divmod(num, den)
        if q.bit_length() == bits:
            break
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return _scaled(-q if n < 0 else q, -s)


def _atanh(a: int, b: int, p: int) -> int:
    """2^p atanh(a/b) for 0 <= a/b <= 1/3, within 2^-p times the term count."""
    u = (a << p) // b
    u2 = u * u >> p
    total, term, i = 0, u, 1
    while term:
        total += term // i
        term = term * u2 >> p
        i += 2
    return total


@cache
def _ln2(p: int) -> int:
    """floor(2^p ln 2), by 2 atanh(1/3) with 32 guard bits."""
    return 2 * _atanh(1, 3, p + 32) >> 32


@lru_cache(maxsize=1024, typed=True)
def log(n: int, bits: int = PRECISION_BITS) -> Fraction:
    """ln n for a positive int n, first rounded to PRECISION_BITS as an
    mpf takes an int, then the log rounded to bits.  The same few bounds
    and moduli recur in every call of a run, so results are kept."""
    n = rnd(strict_int(n, "log argument")).numerator
    if n < 1:
        raise ContractViolation("log needs a positive integer")
    if n == 1:
        return Fraction(0)
    # n = 2^k y with y in [1, 2): ln n = k ln 2 + 2 atanh((y - 1)/(y + 1)),
    # at 64 bits past the last kept bit of a value of at least ln 2
    k = n.bit_length() - 1
    p = bits + 64 + k.bit_length()
    y = n << p >> k
    one = 1 << p
    fixed = k * _ln2(p) + 2 * _atanh(y - one, y + one, p)
    return rnd(_scaled(fixed, -p), bits)


def root(x, k: int = 2, bits: int = PRECISION_BITS) -> Fraction:
    """The k-th root of a positive int or Fraction x, correctly rounded to
    bits."""
    x = Fraction(x)
    n, d = x.numerator, x.denominator
    # r = floor(x^(1/k) 2^s) has at least bits + 2 bits, so a root strictly
    # between r and r + 1 rounds as r + 1/2 does
    s = bits + 2 - (n.bit_length() - d.bit_length() - 1) // k
    y, rem = divmod(n << k * s, d) if s >= 0 else divmod(n, d << -k * s)
    r = iroot(y, k)
    if rem or r ** k != y:
        return rnd(_scaled(2 * r + 1, -s - 1), bits)
    return rnd(_scaled(r, -s), bits)


def exp(x: Fraction) -> Fraction:
    """e^x for a binary x, rounded to PRECISION_BITS as mpmath's exp does.

    mpmath's exp is not correctly rounded, so these are its steps at this
    precision: wp = PRECISION_BITS + 14 working bits, x reduced by
    floor(2^(wp + mag) ln 2) when its magnitude mag exceeds 1, the series
    for e^(t / 2^r) with r = floor(sqrt(wp)), r squarings, one rounding.
    """
    x = Fraction(x)
    man, den = x.numerator, x.denominator
    if not man:
        return Fraction(1)
    if den & (den - 1):
        raise ContractViolation("exp needs a binary argument")
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
        n, t = divmod(t, _ln2(wp + mag))
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
    return rnd(_scaled(s, n - wp))


def power(x, t) -> Fraction:
    """x ** t for a positive x and a binary t > 0, as mpmath takes it at
    PRECISION_BITS: x rounded, then an integer t exactly and rounded once,
    t = 1/2 as a square root, another half-integer t as a power of the
    square root at 10 more bits, and any other t, for an integer x, as
    exp(t log x) with log x at 10 more bits."""
    t = Fraction(t)
    if t.denominator > 2:
        return exp(t * log(x, PRECISION_BITS + 10))
    x = rnd(x)
    if t.denominator == 1:
        return rnd(x ** t.numerator)
    if t.numerator == 1:
        return root(x)
    return rnd(root(x, 2, PRECISION_BITS + 10) ** t.numerator)


def dot(ks, xs) -> Fraction:
    """sum of k * x over the pairs, each product and each partial sum
    rounded, as a left-to-right sum of mpfs is."""
    total = Fraction(0)
    for k, x in zip(ks, xs):
        total = rnd(total + rnd(k * x))
    return total
