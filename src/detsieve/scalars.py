"""Binary scalars at a fixed 96-bit mantissa, on (mantissa, exponent) int pairs.

The smooth parameters (log heights, the cover scale and its B^epsilon
slack) and the log grid that proposes cutoff heights are the only values
in the package that are not integers.  Each is a binary number m 2^e, held
as the int pair (m, e) with m of at most PRECISION_BITS bits, and formed
one operation at a time: the exact result of a sum, product, quotient or
root, or a log known to 64 bits past the last kept bit, rounded to nearest
with ties to even.  That is what an mpmath computation at 96 bits gives.
mpmath's exp is not correctly rounded, so ``_exp`` takes mpmath's own
fixed-point steps.

The pair operations are the only scalar API: ``_round`` (an exact
rational n/d) and ``_fit`` (a pair of too long a mantissa), ``_mul``,
``_add``, ``_sub``, ``_div``, ``_root``, ``_exp``, ``_log`` (whose results
are kept), ``_power`` and ``_dot``, each rounding once.  The formula chains
of ``exponents``, ``determinant`` and ``applications`` run on them.  A
value from outside enters as ``_pair`` (a binary number, exactly) or as
``_round`` of its integer ratio (any rational, rounded once, as mpmath's
``mpf(n) / d`` is).  A value becomes a ``Fraction`` (``_scaled``) only
where it leaves: in a record or a public result.

One exception to the 96 bits: ``exponents.choose_Y`` starts each log grid
after the first on an unequal box from the doubled grid start rounded to
53 bits, the grid on which the recorded cutoffs were chosen.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache

from .arith import iroot
from .errors import ContractViolation, _shown, strict_int

#: mantissa bits of every scalar the package rounds
PRECISION_BITS = 96

_ONE = (1, 0)


def _scaled(m: int, e: int) -> Fraction:
    """m 2^e, exactly: the Fraction of the pair (m, e)."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _pair(x) -> tuple:
    """The pair of a binary int, float or Fraction, exactly; any other
    value is refused."""
    n, d = x.as_integer_ratio()
    if d & (d - 1):
        raise ContractViolation(f"{_shown(x)} is not a binary number")
    return n, 1 - d.bit_length()


# -- the pair operations ------------------------------------------------------


def _fit(m: int, e: int, bits: int = PRECISION_BITS) -> tuple:
    """m 2^e rounded to a bits-bit mantissa, ties to even."""
    a = abs(m)
    s = a.bit_length() - bits
    if s <= 0:
        return m, e
    q = a >> s
    half = 1 << (s - 1)
    r = a & (2 * half - 1)
    if r > half or (r == half and q & 1):
        q += 1
        if q >> bits:  # the carry reached 2^bits
            q >>= 1
            s += 1
    return (-q if m < 0 else q), e + s


def _round(n: int, d: int, bits: int = PRECISION_BITS) -> tuple:
    """The rational n/d, for ints n and d != 0, rounded to a bits-bit
    mantissa, ties to even."""
    if d < 0:
        n, d = -n, -d
    if d and not d & (d - 1):
        return _fit(n, 1 - d.bit_length(), bits)
    a = abs(n)
    # q = floor(|n/d| 2^s) has at least bits + 1 bits, so a nonzero
    # remainder only decides a tie: (2q + 1) 2^(-s-1) rounds as |n/d| does
    s = bits + 1 - a.bit_length() + d.bit_length()
    q, r = divmod(a << s, d) if s >= 0 else divmod(a, d << -s)
    q = 2 * q + (r > 0)
    return _fit(-q if n < 0 else q, -s - 1, bits)


def _mul(x: tuple, y: tuple) -> tuple:
    return _fit(x[0] * y[0], x[1] + y[1])


def _add(x: tuple, y: tuple) -> tuple:
    (m, e), (n, f) = x, y
    if e < f:
        (m, e), (n, f) = y, x
    return _fit((m << e - f) + n, f)


def _sub(x: tuple, y: tuple) -> tuple:
    """x - y, rounded: its mantissa's sign is the sign of the exact
    difference, so it also compares x with y."""
    return _add(x, (-y[0], y[1]))


def _div(x: tuple, y: tuple) -> tuple:
    m, e = _round(x[0], y[0])
    return m, e + x[1] - y[1]


def _root(x: tuple, k: int = 2, bits: int = PRECISION_BITS) -> tuple:
    """The k-th root of a positive pair x, correctly rounded to bits."""
    m, e = x
    # r = floor(x^(1/k) 2^s) has at least bits + 2 bits, so a root strictly
    # between r and r + 1 rounds as r + 1/2 does
    s = bits + 2 - (m.bit_length() + e - 2) // k
    t = e + k * s
    y, rem = (m << t, 0) if t >= 0 else divmod(m, 1 << -t)
    r = iroot(y, k)
    if rem or r ** k != y:
        return _fit(2 * r + 1, -s - 1, bits)
    return _fit(r, -s, bits)


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
def _log(n: int, bits: int = PRECISION_BITS) -> tuple:
    """ln n for a positive int n, first rounded to PRECISION_BITS as an
    mpf takes an int, then the log rounded to bits.  The same few bounds
    and moduli recur in every call of a run, so results are kept."""
    m, e = _fit(strict_int(n, "log argument"), 0)
    if m < 1:
        raise ContractViolation("log needs a positive integer")
    n = m << e
    if n == 1:
        return 0, 0
    # n = 2^k y with y in [1, 2): ln n = k ln 2 + 2 atanh((y - 1)/(y + 1)),
    # at 64 bits past the last kept bit of a value of at least ln 2
    k = n.bit_length() - 1
    p = bits + 64 + k.bit_length()
    y = n << p >> k
    one = 1 << p
    fixed = k * _ln2(p) + 2 * _atanh(y - one, y + one, p)
    return _fit(fixed, -p, bits)


def _exp(x: tuple) -> tuple:
    """e^x for a pair x, rounded to PRECISION_BITS as mpmath's exp does.

    mpmath's exp is not correctly rounded, so these are its steps at this
    precision: wp = PRECISION_BITS + 14 working bits, x reduced by
    floor(2^(wp + mag) ln 2) when its magnitude mag exceeds 1, the series
    for e^(t / 2^r) with r = floor(sqrt(wp)), r squarings, one rounding.
    """
    man, e = x
    if not man:
        return _ONE
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    e += zeros
    mag = abs(man).bit_length() + e
    wp = PRECISION_BITS + 14
    if mag < -wp:
        return _ONE
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
    return _fit(s, n - wp)


def _power(x: tuple, t: tuple) -> tuple:
    """x ** t for a positive pair x and a binary t > 0 (a pair), as mpmath
    takes it at PRECISION_BITS: x rounded, then an integer t exactly and
    rounded once, t = 1/2 as a square root, another half-integer t as a
    power of the square root at 10 more bits, and any other t, for an
    integer x, as exp(t log x) with log x at 10 more bits."""
    tm, te = t
    if tm:
        zeros = (tm & -tm).bit_length() - 1
        tm >>= zeros
        te += zeros
    m, e = _fit(*x)
    if te < -1:
        if e < 0 and m & ((1 << -e) - 1):
            raise ContractViolation("log needs a positive integer")
        lm, le = _log(m << e if e >= 0 else m >> -e, PRECISION_BITS + 10)
        return _exp((tm * lm, te + le))
    if te >= 0:
        n = tm << te
    elif tm == 1:
        return _root((m, e))
    else:
        (m, e), n = _root((m, e), 2, PRECISION_BITS + 10), tm
    if n < 0:
        q, f = _round(1, m ** -n)
        return q, f + e * n
    return _fit(m ** n, e * n)


def _dot(ks, xs) -> tuple:
    """sum of k * x over the ints k and pairs x, each product and each
    partial sum rounded, as a left-to-right sum of mpfs is."""
    total = 0, 0
    for k, (m, e) in zip(ks, xs):
        total = _add(total, _fit(k * m, e))
    return total
