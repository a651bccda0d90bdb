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
Per n, one ln_fixed, the kernel's own logarithm (integer table reduction
and an atanh series, no mpmath), is 3.1-3.3 µs of an estimate or of a
log_value_interval, 7.1-8.0 µs each (scripts/time_envelope.py, x86 VM).
"""
from __future__ import annotations

import functools
from fractions import Fraction

import mpmath
from mpmath import iv, mp
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import from_int, fzero, mpf_ge, mpf_lt, mpf_shift, mpf_sub, to_int
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


def _atanh_fixed(t: int, w: int) -> tuple[int, int]:
    """Bracket lo <= atanh(z) 2^w <= hi from t = floor(z 2^w), for 0 <= z <= 1/3.

    Sums the series z + z^3/3 + z^5/5 + ... in fixed point at scale w, by
    floors, until its tail is about 2^G, G = GUARD_BITS: one ulp at the
    scale w - G of ln_fixed's result.  Proof of the upper end: let U_i =
    z^(2i+1) 2^w.  The powers u_0 = t and u_i = floor(u_(i-1) z2 2^-w),
    z2 = floor(t^2 2^-w) > z^2 2^w - 2z - 1, satisfy 0 <= U_i - u_i <
    (U_(i-1) - u_(i-1)) z^2 + (5/3) z^(2i-1) + 1 < 2/9 + 5/9 + 1 < 2, by
    induction.  So the term floor(u_i / (2i+1)) is low by under one ulp
    for its own floor plus 2/3 of one for its power's (one ulp in all
    for i = 0): under 2 ulps.  After n terms, at i = 2n + 1, the tail is
    at most U_n / (i (1 - z^2)) < 9 (u_n + 2) / (8i).  The upper end adds
    2n = i - 1 ulps and that bound.  The loop stops at u_n < 2^G i, so
    the bracket is at most 2^G 9/8 + i + 1 ulps wide.
    """
    z2 = t * t >> w
    s, u, i = t, t * z2 >> w, 3
    while u >> GUARD_BITS >= i:
        s += u // i
        u = u * z2 >> w
        i += 2
    return s, s + i - 1 + -(-9 * (u + 2) // (8 * i))


@functools.cache
def _ln_tables(w: int) -> tuple[tuple[int, int], tuple, tuple, tuple]:
    """ln 2 and the tables of ln(1 + j/2^r), j < 256, for r = 8, 16 and 24,
    as brackets at scale w: each is 2 atanh(j/(2^(r+1) + j)), ln 2 at j =
    2^r.  Below ln_fixed's w at SCALE they are that w's shifted down
    outward: the kernel fills one set, on first use, not at import."""
    if w < SCALE + 2 * GUARD_BITS:
        d = SCALE + 2 * GUARD_BITS - w
        down = lambda b: (b[0] >> d, -(-b[1] >> d))
        ln2, *levels = _ln_tables(w + d)
        return down(ln2), *(tuple(map(down, level)) for level in levels)
    def ln(j: int, q: int) -> tuple[int, int]:
        lo, hi = _atanh_fixed((j << w) // q, w)
        return 2 * lo, 2 * hi

    return ln(1, 3), *(tuple(ln(j, 2 ** (r + 1) + j) for j in range(256)) for r in (8, 16, 24))


def ln_fixed(x: int, precision: int) -> tuple[int, int]:
    """Bracket lo <= ln(x) 2^S <= hi at S = precision + GUARD_BITS, for an integer x >= 1.

    Three table levels bring x to within 2^-24 of a product c of table
    points.  With k = bitlen(x) - 1, so that x = 2^k m with 1 <= m < 2,
    j1 is the 8 bits of m after its leading 1, c1 = (2^8 + j1) 2^(k-8), so
    1 <= x/c1 < 1 + 2^-8; then j2 = floor((x/c1 - 1) 2^16) < 2^8, c2 =
    c1 (1 + j2/2^16), 1 <= x/c2 < 1 + 2^-16; j3 = floor((x/c2 - 1) 2^24)
    < 2^8, c = c2 (1 + j3/2^24), 1 <= x/c < 1 + 2^-24, and

        ln x = k ln 2 + ln(1 + j1/2^8) + ln(1 + j2/2^16) + ln(1 + j3/2^24) + 2 atanh(z),

    z = (x - c)/(x + c) exact, 0 <= z < 2^-25.  The code reads j1, j2 and
    j3 off y, the top 49 bits of x (floor(floor(a)/d) = floor(a/d) for an
    integer d), and z from the integers x 2^48 and c 2^48 = d (2^24 + j3)
    2^k, d = (2^8 + j1)(2^16 + j2).
    Each term is a bracket at the working scale w = S + G, G = GUARD_BITS,
    by _atanh_fixed (ln 2 and the tables cached, or shifted down from a
    larger w, which is no wider), so their sum is one; its ends shift down
    to S outward.  Error bound: k + 4 doubled atanh brackets, each at most
    2^G 9/4 + 2i + 2 ulps at w wide, i below 2^9 at w <= 2^9, and the two
    shifts make the result at most 9k/4 + 12 ulps at S wide for k < 2^20.
    """
    w = precision + 2 * GUARD_BITS
    (l2_lo, l2_hi), t1, t2, t3 = _ln_tables(w)
    k = x.bit_length() - 1
    x <<= 48
    y = x >> k  # 2^48 <= y < 2^49, so m = y 2^-48 up to its floor
    h = y >> 40  # 2^8 + j1
    j2 = (y >> 24 & 0xFFFF) // h
    d = h * (65536 + j2)  # c2 = d 2^(k-24)
    j3 = (y - (d << 24)) // d
    c = d * (16777216 + j3) << k  # c 2^48, as x is now x 2^48
    z_lo, z_hi = _atanh_fixed(((x - c) << w) // (x + c), w)
    (a_lo, a_hi), (b_lo, b_hi), (e_lo, e_hi) = t1[h - 256], t2[j2], t3[j3]
    lo = k * l2_lo + a_lo + b_lo + e_lo + 2 * z_lo
    hi = k * l2_hi + a_hi + b_hi + e_hi + 2 * z_hi
    return lo >> GUARD_BITS, -(-hi >> GUARD_BITS)


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
