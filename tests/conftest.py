"""Shared fixtures: the two big exact tables, built once per session, the
reference main term of the growth model, the interval-object form of the
log estimates, the mpf form of their envelope check, and the two-power
form of the integer log enclosures.

The partition table to 5e4 takes about 1.1 s and the plane-partition
table to 2e4 about 27 s (2-core x86 VM, CPython 3.11), so neither is
rebuilt per test.
"""
from __future__ import annotations

import math

import pytest
from mpmath.libmp import from_man_exp, mpf_abs, mpf_le, mpf_sub, round_ceiling, round_floor

from partdigits import SequenceKind, SequenceTable
from partdigits.asymptotics import THETA, _instantiate, _iroot_bracket
from partdigits.certified import DEFAULT_PRECISION, SCALE, as_interval, from_fixed
from partdigits.certified import interval_context, ln_fixed
from partdigits.digits import _window

P_TABLE_MAX = 50_000
PL_TABLE_MAX = 20_000


@pytest.fixture(scope="session")
def p_table() -> SequenceTable:
    table = SequenceTable(SequenceKind.PARTITION)
    table.extend(P_TABLE_MAX)
    return table


@pytest.fixture(scope="session")
def pl_table() -> SequenceTable:
    table = SequenceTable(SequenceKind.PLANE_PARTITION)
    table.extend(PL_TABLE_MAX)
    return table


def _main_term(params, n: int, precision: int = 192):
    """Enclosure of c1*n^theta + c2*log n + c3 (the model without noise),
    by an interval power at `precision` bits: the tests' reference for the
    estimates' integer-root midpoints."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ctx = interval_context(precision)
    c1, c2, c3, theta = map(ctx.convert, (params.c1, params.c2, params.c3, params.theta))
    return c1 * ctx.mpf(n) ** theta + c2 * ctx.log(n) + c3


@pytest.fixture
def main_term():
    return _main_term


def _estimate_reference(kind: SequenceKind, n: int, base: int, precision: int):
    """(midpoint, envelope) endpoint pairs of the estimate for n, computed
    with interval_context(precision) objects and its two directed logs of
    n: the tests' reference for the fixed-point estimates, which must
    enclose it at 4x their precision and be at most twice as wide as it
    at theirs, while n < 2^precision (above that the context rounds n
    before taking its log)."""
    params = _instantiate(kind, base, precision)
    theta = THETA[kind]
    p, q = theta.numerator, theta.denominator
    lo, hi = _iroot_bracket(n**p << (q * precision), q)
    ctx = interval_context(precision)
    power = ctx.make_mpf((
        from_man_exp(lo, -precision, precision, round_floor),
        from_man_exp(hi, -precision, precision, round_ceiling),
    ))
    c1, c2, c3, c4 = (ctx.make_mpf(x._mpi_) for x in (params.c1, params.c2, params.c3, params.c4))
    return (c1 * power + c2 * ctx.log(n) + c3)._mpi_, (c4 / power)._mpi_


@pytest.fixture
def estimate_reference():
    return _estimate_reference


def _contains_reference(estimate, log_value) -> bool:
    """LogEstimate.contains as exact mpf arithmetic on the iv.mpf endpoints:
    |v_lo - mid_hi| <= env_lo and |v_hi - mid_lo| <= env_lo, with mpmath's
    own handling of infinities and nan."""
    (v_lo, v_hi), (m_lo, m_hi) = as_interval(log_value)._mpi_, estimate.midpoint._mpi_
    radius = estimate.envelope._mpi_[0]
    below = mpf_le(mpf_abs(mpf_sub(v_lo, m_hi, 0)), radius)
    return below and mpf_le(mpf_abs(mpf_sub(v_hi, m_lo, 0)), radius)


@pytest.fixture
def contains_reference():
    return _contains_reference


def _log_int_reference(value: int, base: int, less: int | None):
    """digits._log_int with its leading window found by two powers of b, one
    for the digit count d (by repeated multiplication) and one for the head
    value // b^(d - w): the reference for the one-power head."""
    d, power = 1, base
    while power <= value:
        d, power = d + 1, power * base
    w = min(d, max(2, math.ceil(DEFAULT_PRECISION * 3 / 4 / math.log2(base))))
    z, (_, _, r_lo, r_hi) = d - w, _window(base)
    head, rem = divmod(value, base**z)
    s = SCALE
    if head * base == base**w:
        lo = hi = (w - 1) << s
    else:
        ln_lo, ln_hi = ln_fixed(head, DEFAULT_PRECISION)
        lo, hi = ln_lo * r_lo >> s, -(-ln_hi * r_hi >> s)
    if rem:
        hi = min(hi - (-r_hi // head), w << s)
    shift = (1 - w if less is None else z - less) << s
    return from_fixed(lo + shift, hi + shift)


@pytest.fixture
def log_int_reference():
    return _log_int_reference
