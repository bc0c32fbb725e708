"""Multiprecision scalar helpers.

All floating-point work in this package runs at a fixed 96-bit mantissa,
above the 80 bits the numeric guarantees assume, with one exception:
``exponents.choose_Y`` starts each log grid after the first on an unequal
box from the doubled grid start rounded to 53 bits, the grid on which the
recorded cutoffs were chosen.  Exact integer paths are preferred wherever
the inputs allow them; these helpers cover the rest.
"""

from __future__ import annotations

from mpmath import mp, mpf

#: mantissa bits used for every mpf computation in the package
PRECISION_BITS = 96


def workprec():
    """Context manager pinning mpmath to the package precision."""
    return mp.workprec(PRECISION_BITS)


def to_mpf(x) -> mpf:
    with workprec():
        return mpf(x)


def mplog(x) -> mpf:
    with workprec():
        return mp.log(mpf(x))


def mpexp(x) -> mpf:
    with workprec():
        return mp.exp(mpf(x))


def mpsqrt(x) -> mpf:
    with workprec():
        return mp.sqrt(mpf(x))
