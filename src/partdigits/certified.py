"""Certified real arithmetic on top of mpmath's interval context.

Every quantity that feeds a comparison is an ``mpmath.iv`` interval with
outward rounding, so a True/False answer from the helpers here is a proof
at the current working precision; the third answer is "undecided".
"""
from __future__ import annotations

import contextlib
from fractions import Fraction

import mpmath
from mpmath import iv, mp

DEFAULT_PRECISION = 192  # bits; every public op accepts an override

IntervalLike = object  # mpi, int, float, str, Fraction, or (lo, hi) pair


@contextlib.contextmanager
def working_precision(bits: int):
    """Temporarily set the interval (and scalar) working precision in bits."""
    if bits < 8:
        raise ValueError(f"precision must be at least 8 bits, got {bits}")
    saved_iv, saved_mp = iv.prec, mp.prec
    iv.prec = bits
    mp.prec = bits
    try:
        yield
    finally:
        iv.prec, mp.prec = saved_iv, saved_mp


def as_interval(x: IntervalLike):
    """Coerce x to an mpi enclosure (exact where the input is exact)."""
    if isinstance(x, iv.mpf):
        return x
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)
    if isinstance(x, tuple):
        lo, hi = x
        return iv.mpf([lo, hi])
    return iv.mpf(x)


_LN_BASE_CACHE: dict[tuple[int, int], object] = {}


def ln_base(base: int):
    """Enclosure of ln(base) at the working precision, cached per (base, precision)."""
    key = (base, iv.prec)
    cached = _LN_BASE_CACHE.get(key)
    if cached is None:
        cached = _LN_BASE_CACHE[key] = iv.log(iv.mpf(base))
    return cached


def inf(x) -> mpmath.mpf:
    """Exact lower endpoint of an interval, as an mpf."""
    return mp.make_mpf(as_interval(x)._mpi_[0])


def sup(x) -> mpmath.mpf:
    """Exact upper endpoint of an interval, as an mpf."""
    return mp.make_mpf(as_interval(x)._mpi_[1])


def width(x) -> mpmath.mpf:
    return sup(x) - inf(x)


def hull(*xs):
    """Smallest interval containing all arguments."""
    vals = [as_interval(x) for x in xs]
    return iv.mpf([min(inf(v) for v in vals), max(sup(v) for v in vals)])


def interval_max(*xs):
    """Endpoint-wise max: encloses max of the true values."""
    vals = [as_interval(x) for x in xs]
    return iv.mpf([max(inf(v) for v in vals), max(sup(v) for v in vals)])


def membership_half_open(x, lo, hi) -> bool | None:
    """Decide x in [lo, hi) with certainty, else None.

    x, lo, hi are enclosures of the three real numbers; the answer refers
    to the true values.
    """
    x, lo, hi = as_interval(x), as_interval(lo), as_interval(hi)
    if inf(x) >= sup(lo) and sup(x) < inf(hi):
        return True
    if sup(x) < inf(lo) or inf(x) >= sup(hi):
        return False
    return None


def frac_interval(x):
    """Enclosure of the fractional part of x, or None if x may straddle an integer."""
    x = as_interval(x)
    fa = mpmath.floor(inf(x))
    fb = mpmath.floor(sup(x))
    if fa == fb:
        return x - int(fa)
    return None


def floor_inf(x) -> int:
    return int(mpmath.floor(inf(x)))


def ceil_sup(x) -> int:
    return int(mpmath.ceil(sup(x)))
