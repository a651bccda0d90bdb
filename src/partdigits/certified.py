"""Certified real arithmetic on top of mpmath's interval arithmetic.

Every quantity that feeds a comparison is an ``mpmath.iv`` interval with
outward rounding, so a True/False answer from the helpers here is a proof
at the precision the caller passed; the third answer is "undecided".
Each certified layer computes on `interval_context(precision)`, whose
values round at that precision whatever mpmath's global precision is,
and hands its results on as ``iv.mpf`` values with the same endpoints.
"""
from __future__ import annotations

import functools
from fractions import Fraction

import mpmath
from mpmath import iv, mp
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import from_int, mpf_log, mpf_sub, round_ceiling, round_floor, to_int

DEFAULT_PRECISION = 192  # bits: the default of the ops that take a precision

IntervalLike = object  # mpi, int, float, str, Fraction, or (lo, hi) pair


def _check_precision(bits: int) -> None:
    if bits < 8:
        raise ValueError(f"precision must be at least 8 bits, got {bits}")


@functools.cache
def interval_context(precision: int) -> MPIntervalContext:
    """A private mpmath interval context whose arithmetic rounds at `precision` bits.

    Its values ignore mpmath's global precision.  ctx.convert takes an iv.mpf
    (or any context's interval) in with its endpoints unchanged; results
    go back to iv.mpf through as_interval, which is exact on intervals.
    A value of another context on the left of an operator rounds at that
    context's precision, so convert operands before mixing them.
    """
    _check_precision(precision)
    ctx = MPIntervalContext()
    ctx.prec = precision
    return ctx


def as_interval(x: IntervalLike, precision: int = DEFAULT_PRECISION):
    """Coerce x to an iv.mpf enclosure.

    Intervals keep their endpoints; inexact inputs (a Fraction, str, float
    or a wide int) are rounded outward at `precision` bits.
    """
    if isinstance(x, iv.mpf):
        return x
    if hasattr(x, "_mpi_"):  # another context's interval
        return iv.make_mpf(x._mpi_)
    ctx = interval_context(precision)
    if isinstance(x, Fraction):
        x = ctx.mpf(x.numerator) / x.denominator
    return iv.make_mpf(ctx.convert(x)._mpi_)


@functools.cache
def ln_base(base: int, precision: int):
    """Enclosure of ln(base) at `precision` bits, whatever mpmath's global precision is.

    Its endpoints are mpf_log rounded down and up, those of
    iv.log(iv.mpf(base)) at that precision; cached per (base, precision).
    """
    _check_precision(precision)
    b = from_int(base)
    return iv.make_mpf((mpf_log(b, precision, round_floor), mpf_log(b, precision, round_ceiling)))


def inf(x) -> mpmath.mpf:
    """Exact lower endpoint of an interval, as an mpf."""
    return mp.make_mpf(as_interval(x)._mpi_[0])


def sup(x) -> mpmath.mpf:
    """Exact upper endpoint of an interval, as an mpf."""
    return mp.make_mpf(as_interval(x)._mpi_[1])


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
    """Enclosure of the fractional part of x, or None if x may straddle an integer.

    Exact: both endpoints are shifted by the same integer.
    """
    lo, hi = as_interval(x)._mpi_
    n = to_int(lo, round_floor)
    if n != to_int(hi, round_floor):
        return None
    shift = from_int(n)
    return iv.make_mpf((mpf_sub(lo, shift, 0), mpf_sub(hi, shift, 0)))


def floor_inf(x) -> int:
    return to_int(as_interval(x)._mpi_[0], round_floor)


def ceil_sup(x) -> int:
    return to_int(as_interval(x)._mpi_[1], round_ceiling)
