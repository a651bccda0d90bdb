"""First-hit bounds for fractional parts of smoothly growing sequences.

The model: g(n) = c1*n^theta + c2*log n + c3 + E(n) with c1 > 0,
0 < theta < 1, c2 <= 0, and |E(n)| <= c4*n^(-theta) for n >= K.  For any
target window [a, a + delta) inside [0, 1), the first n >= K with
{g(n)} in the window satisfies

    m <= 2 * max(K, L1, L2 + 1, L3, L4),

where, writing D = 2 / (c1 * 2^(theta-1) * theta),

    L1 = (-3*c2 / (c1*theta))^(1/theta)      # main term outgrows the log drag
    L2 = (3*c4 / delta)^(1/theta)            # noise below a third of the window
    L3 = D^(1/theta)                         # successive steps overlap mod 1
    L4 = (3*c1*theta / delta)^(1/(1-theta))  # steps smaller than a third of the window

Beyond all four thresholds, consecutive values of g advance the circle in
steps that are neither too large to jump the window nor too small to stall,
so a hit occurs within a bounded stretch.  All arithmetic is certified.
"""
from __future__ import annotations

from dataclasses import dataclass

from .certified import (
    DEFAULT_PRECISION,
    as_interval,
    ceil_sup,
    floor_inf,
    inf,
    interval_context,
    membership_half_open,
    shift_down,
    sup,
)


class UndecidableMembershipError(RuntimeError):
    """An enclosure straddles a window endpoint or an integer; no decision possible."""

    def __init__(self, m: int, message: str):
        super().__init__(message)
        self.m = m


@dataclass(eq=False)
class FrameworkParams:
    """Growth-model coefficients; intervals certified, K an exact integer."""

    c1: object
    c2: object
    c3: object
    c4: object
    theta: object
    K: int

    def __post_init__(self):
        self.c1 = as_interval(self.c1)
        self.c2 = as_interval(self.c2)
        self.c3 = as_interval(self.c3)
        self.c4 = as_interval(self.c4)
        self.theta = as_interval(self.theta)
        if not inf(self.c1) > 0:
            raise ValueError("c1 must be certainly positive")
        if not sup(self.c2) <= 0:
            raise ValueError("c2 must be certainly <= 0")
        if not inf(self.c4) >= 0:
            raise ValueError("c4 must be certainly >= 0")
        if not (inf(self.theta) > 0 and sup(self.theta) < 1):
            raise ValueError("theta must lie strictly inside (0, 1)")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")


@dataclass(eq=False)
class FrameworkBounds:
    L1: object
    L2: object
    L3: object
    L4: object
    D: object
    bound: int


def _pos_pow(ctx, x, e):
    """x**e on ctx for an enclosure x with inf(x) >= 0 (0^e taken as 0, e > 0)."""
    if inf(x) > 0:
        return x**e
    if sup(x) == 0:
        return ctx.zero
    return ctx.mpf([0, sup(ctx.convert(sup(x)) ** e)])


def compute_bounds(
    params: FrameworkParams, delta, precision: int = DEFAULT_PRECISION
) -> FrameworkBounds:
    """Thresholds L1..L4, step scale D, and the integer first-hit bound."""
    ctx = interval_context(precision)
    d = ctx.convert(as_interval(delta, precision))
    if sup(d) <= 0 or inf(d) > 1:
        raise ValueError("delta must be certainly inside (0, 1]")
    if not (inf(d) > 0 and sup(d) <= 1):
        raise ValueError(f"delta's enclosure is too wide at {precision} bits to lie in (0, 1]")
    c1, c2, c4, theta = map(ctx.convert, (params.c1, params.c2, params.c4, params.theta))
    inv_theta = 1 / theta
    l1 = _pos_pow(ctx, (-3 * c2) / (c1 * theta), inv_theta)
    l2 = _pos_pow(ctx, 3 * c4 / d, inv_theta)
    big_d = 2 / (c1 * ctx.mpf(2) ** (theta - 1) * theta)
    l3 = big_d**inv_theta
    l4 = (3 * c1 * theta / d) ** (1 / (1 - theta))
    bound = max(2 * params.K, *(ceil_sup(2 * x) for x in (l1, l2 + 1, l3, l4)))
    l1, l2, l3, l4, big_d = map(as_interval, (l1, l2, l3, l4, big_d))
    return FrameworkBounds(L1=l1, L2=l2, L3=l3, L4=l4, D=big_d, bound=bound)


def find_m_a_delta(g, K: int, a, delta, scan_limit: int):
    """Smallest m in [K, scan_limit] with {g(m)} in [a, a + delta), or None.

    g maps an integer to a certified enclosure x of a real, at a precision
    g chooses; inexact inputs (a, delta, or a float or Fraction from g) and
    the window arithmetic round at DEFAULT_PRECISION.  With k = floor(inf x),
    {g(m)} lies in x - k or, where x reaches past k + 1, in x - k - 1: both
    exact shifts are tested against the window, and an m that neither
    decides raises UndecidableMembershipError (g is opaque, so there is no
    exact fallback).
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if scan_limit < K:
        raise ValueError(f"scan_limit {scan_limit} is below K = {K}")
    ctx = interval_context(DEFAULT_PRECISION)
    lo = ctx.convert(as_interval(a))
    d = ctx.convert(as_interval(delta))
    hi = lo + d
    # Reject only certain precondition violations; the enclosure of
    # a + delta may overshoot 1 by rounding even when the true sum is 1
    # (e.g. the window of the largest digit string).
    if sup(d) <= 0 or sup(lo) < 0 or inf(hi) > 1:
        raise ValueError("need 0 <= a and a + delta <= 1 with delta > 0")
    for m in range(K, scan_limit + 1):
        x = as_interval(g(m))
        k = floor_inf(x)
        decisions = {membership_half_open(shift_down(x, j), lo, hi) for j in (k, k + 1)}
        if True in decisions:
            return m
        if None in decisions:
            raise UndecidableMembershipError(
                m,
                f"membership at m = {m} is undecided at the working precision: "
                f"the value straddles a window endpoint or an integer; supply "
                f"tighter enclosures from g",
            )
    return None
