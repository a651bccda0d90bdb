"""Certified real arithmetic on top of mpmath's interval arithmetic.

Every quantity that feeds a comparison is an ``mpmath.iv`` interval with
outward rounding, so a True/False answer from the helpers here is a proof
at the precision the caller passed; the third answer is "undecided".
Each certified layer computes on `interval_context(precision)`, whose
values round at that precision whatever mpmath's global precision is, or
on the raw (lo, hi) endpoint pairs of libmp with every rounding directed,
and hands its results on as ``iv.mpf`` values with the same endpoints.
"""
from __future__ import annotations

import functools
from fractions import Fraction

import mpmath
from mpmath import iv, mp
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import from_int, from_man_exp, mpf_ge, mpf_log, mpf_lt, mpf_sub, to_int
from mpmath.libmp import round_ceiling, round_floor

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


def log_bracket(x: int, precision: int) -> tuple[tuple, tuple]:
    """Raw endpoints of ln x rounded down and up at `precision` bits, for an integer x >= 2.

    One mpf_log call, not two.  mpmath 1.3.0's mpf_log (libelefun.mpf_log)
    computes a single fixed-point value at precision + 20 bits or more and
    rounds that value in the requested direction, whichever branch it
    takes.  So its round_ceiling result is at most one ulp above its
    round_floor result, and the floor plus one ulp at `precision` bits
    encloses everything the two calls enclose: the bracket is exactly as
    trustworthy as the two-call pair, and one ulp wider at most.  A test
    pins this against the two calls, because an mpmath whose mpf_log rounds
    two separate evaluations would break the argument.
    """
    lo = mpf_log(from_int(x), precision, round_floor)
    _, man, exp, bc = lo  # positive, since x >= 2
    return lo, from_man_exp((man << (precision - bc)) + 1, exp + bc - precision)


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
    (x_lo, x_hi), (lo_lo, lo_hi), (hi_lo, hi_hi) = (as_interval(v)._mpi_ for v in (x, lo, hi))
    if mpf_ge(x_lo, lo_hi) and mpf_lt(x_hi, hi_lo):
        return True
    if mpf_lt(x_hi, lo_lo) or mpf_ge(x_lo, hi_hi):
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
