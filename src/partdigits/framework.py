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

from mpmath import iv

from .certified import (
    DEFAULT_PRECISION,
    as_interval,
    ceil_sup,
    floor_inf,
    frac_interval,
    inf,
    interval_max,
    membership_half_open,
    sup,
    working_precision,
)


class UndecidableMembershipError(RuntimeError):
    """Certified radius straddles a window endpoint; no decision possible."""

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


def _pos_pow(x, e):
    """x**e for an enclosure x with inf(x) >= 0 (0^e taken as 0, e > 0)."""
    if inf(x) > 0:
        return x**e
    hi = as_interval(sup(x))
    if sup(hi) == 0:
        return iv.mpf(0)
    return iv.mpf([0, sup(hi**e)])


def compute_bounds(
    params: FrameworkParams, delta, precision: int = DEFAULT_PRECISION
) -> FrameworkBounds:
    """Thresholds L1..L4, step scale D, and the integer first-hit bound."""
    with working_precision(precision):
        d = as_interval(delta)
        if not (inf(d) > 0 and sup(d) <= 1):
            raise ValueError("delta must be certainly inside (0, 1]")
        c1, c2, c4, theta = params.c1, params.c2, params.c4, params.theta
        inv_theta = iv.mpf(1) / theta
        l1 = _pos_pow((-3 * c2) / (c1 * theta), inv_theta)
        l2 = _pos_pow(3 * c4 / d, inv_theta)
        big_d = 2 / (c1 * iv.mpf(2) ** (theta - 1) * theta)
        l3 = big_d**inv_theta
        l4 = (3 * c1 * theta / d) ** (iv.mpf(1) / (1 - theta))
        bound = ceil_sup(2 * interval_max(iv.mpf(params.K), l1, l2 + 1, l3, l4))
        return FrameworkBounds(L1=l1, L2=l2, L3=l3, L4=l4, D=big_d, bound=bound)


def main_term(params: FrameworkParams, n: int):
    """Enclosure of c1*n^theta + c2*log n + c3 (the model without noise)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return model_value(params, n, iv.mpf(n) ** params.theta)


def model_value(params: FrameworkParams, n: int, power):
    """c1*power + c2*log n + c3, for an enclosure `power` of n^theta."""
    return params.c1 * power + params.c2 * iv.log(n) + params.c3


def find_m_a_delta(g, K: int, a, delta, scan_limit: int, precision: int = DEFAULT_PRECISION):
    """Smallest m in [K, scan_limit] with {g(m)} in [a, a + delta), or None.

    g maps an integer to a certified enclosure of a real.  Every membership
    test must be decidable at the enclosure widths g provides; a straddled
    window endpoint raises UndecidableMembershipError (there is no exact
    fallback here, because g is opaque).
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if scan_limit < K:
        raise ValueError(f"scan_limit {scan_limit} is below K = {K}")
    with working_precision(precision):
        lo = as_interval(a)
        d = as_interval(delta)
        hi = lo + d
        # Reject only certain precondition violations; the enclosure of
        # a + delta may overshoot 1 by rounding even when the true sum is 1
        # (e.g. the window of the largest digit string).
        if sup(d) <= 0 or sup(lo) < 0 or inf(hi) > 1:
            raise ValueError("need 0 <= a and a + delta <= 1 with delta > 0")
        for m in range(K, scan_limit + 1):
            x = as_interval(g(m))
            fr = frac_interval(x)
            if fr is None:
                # x may straddle an integer: true fractional part lies in
                # [u, 1) or [0, v].  Still decidable when the window avoids
                # both pieces; otherwise give up.
                piece = x - floor_inf(x)
                v = piece - 1
                if sup(hi) <= inf(piece) and inf(lo) > sup(v):
                    continue
                raise UndecidableMembershipError(
                    m,
                    f"value at m = {m} straddles an integer at the working "
                    f"precision; supply tighter enclosures from g",
                )
            decision = membership_half_open(fr, lo, hi)
            if decision is True:
                return m
            if decision is None:
                raise UndecidableMembershipError(
                    m,
                    f"membership at m = {m} straddles a window endpoint at "
                    f"the working precision; supply tighter enclosures from g",
                )
        return None
