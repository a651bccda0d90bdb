"""Certified real arithmetic on top of mpmath's interval arithmetic.

Every quantity that feeds a comparison is an ``mpmath.iv`` interval with
outward rounding, so a True/False answer from the helpers here is a proof
at the precision it was computed at; the third answer is "undecided".
Each certified layer computes on `interval_context(precision)`, whose
values round at that precision whatever mpmath's global precision is, or,
per n, on the fixed-point kernel: integer brackets lo <= x 2^S <= hi at
its one scale S = SCALE = DEFAULT_PRECISION + GUARD_BITS = 224 bits,
rounded outward, the guard bits keeping its roundings far below 2^-192;
`from_fixed` hands them on as iv.mpf, writing mpmath 1.3's raw tuples.
Per n, one mpf_log (ln_fixed, about 4 µs) is half of an estimate or of a
log_value_interval, 7.4-9.0 µs each (scripts/time_envelope.py, x86 VM).
"""
from __future__ import annotations

import functools
from fractions import Fraction

import mpmath
from mpmath import iv, mp
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import from_int, fzero, mpf_ge, mpf_log, mpf_lt, mpf_shift, mpf_sub, to_int
from mpmath.libmp import round_ceiling, round_floor

DEFAULT_PRECISION = 192  # bits: the per-n kernel's, and the default of the ops that take one
GUARD_BITS = 32  # keep the kernel's roundings far below 2^-precision
SCALE = DEFAULT_PRECISION + GUARD_BITS  # the per-n kernel's fixed-point scale

IntervalLike = object  # mpi, int, float, str, Fraction, or (lo, hi) pair


@functools.cache
def interval_context(precision: int) -> MPIntervalContext:
    """A private mpmath interval context whose arithmetic rounds at `precision` bits.

    Its values ignore mpmath's global precision.  ctx.convert takes an iv.mpf
    (or any context's interval) in with its endpoints unchanged; results
    go back to iv.mpf through as_interval, which is exact on intervals.
    A value of another context on the left of an operator rounds at that
    context's precision, so convert operands before mixing them.
    """
    if precision < 8:
        raise ValueError(f"precision must be at least 8 bits, got {precision}")
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


def to_fixed(x) -> tuple[int, int]:
    """Integer bracket of an interval at the kernel's scale: floor(lo 2^S), ceil(hi 2^S)."""
    lo, hi = as_interval(x)._mpi_
    return to_int(mpf_shift(lo, SCALE), round_floor), to_int(mpf_shift(hi, SCALE), round_ceiling)


def _raw(man: int, exp: int) -> tuple:
    """mpmath 1.3's normalised raw mpf of man 2^exp: an odd mantissa and its bit count."""
    if not man:
        return fzero
    zeros = (man & -man).bit_length() - 1
    odd = abs(man) >> zeros
    return int(man < 0), odd, exp + zeros, odd.bit_length()


def from_fixed(lo: int, hi: int):
    """The iv.mpf with the exact endpoints lo 2^-S and hi 2^-S, S = SCALE."""
    return iv.make_mpf((_raw(lo, -SCALE), _raw(hi, -SCALE)))


def ln_fixed(x: int, precision: int) -> tuple[int, int]:
    """Bracket lo <= ln(x) 2^S <= hi at S = precision + GUARD_BITS, for an integer x >= 2.

    One mpf_log call rounded down, and one ulp above it: mpmath 1.3.0's
    mpf_log rounds one fixed-point value of precision + 20 bits or more in
    the requested direction, so its ceiling is at most one ulp above its
    floor.  A test pins this against the two calls.  The ulp is
    2^(exp + bc - precision), as trailing zeros may be stripped; ln x >= ln 2
    makes both ends exact shifts.
    """
    _, man, exp, bc = mpf_log(_raw(x, 0), precision, round_floor)
    lo = man << (exp + precision + GUARD_BITS)
    return lo, lo + (1 << (exp + bc + GUARD_BITS))


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


def shift_down(x, n: int):
    """x - n for an integer n, exact: both endpoints are shifted by n."""
    lo, hi = as_interval(x)._mpi_
    shift = from_int(n)
    return iv.make_mpf((mpf_sub(lo, shift, 0), mpf_sub(hi, shift, 0)))


def floor_inf(x) -> int:
    return to_int(as_interval(x)._mpi_[0], round_floor)


def ceil_sup(x) -> int:
    return to_int(as_interval(x)._mpi_[1], round_ceiling)
