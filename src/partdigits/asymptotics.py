"""Growth-model coefficients of log_b p(n) and log_b PL(n), and the certified
log estimates derived from them.

Both counting functions fit the framework's model g(n) = c1*n^theta +
c2*log n + c3 + E(n) with |E(n)| <= c4*n^(-theta) for n >= K:

    log_b p(n):  c1 = (pi*sqrt(24)/6)/ln b, c2 = -1/ln b, c3 = log_b(sqrt(3)/12),
                 c4 = 4/ln b,   theta = 1/2, K = 4;
    log_b PL(n): c1 = 3 (z3/4)^(1/3)/ln b, c2 = -(25/36)/ln b, c3 = log_b B,
                 c4 = 200/ln b, theta = 2/3, K = 2829,

where z3 = zeta(3) and B = z3^(7/36) e^(zeta'(-1)) 2^(-11/36) (3 pi)^(-1/2)
is Wright's constant.  `instantiate_p` and `instantiate_pl` are the one
place these coefficients are written, theta as an exact fraction.  An
estimate is derived from them: its midpoint is the model's main term and
its envelope c4*n^(-theta), both certified intervals.  n^theta is read off
exact integer roots, isqrt(n * 2^(2P)) or the integer cube root of
n^2 * 2^(3P) at working precision P, so the only transcendental call per
estimate is log n.

c4 and K are stated, not derived: nothing here proves the envelope.  For
PL, K = 2829 is the first n where 200/n^(2/3) falls below one nat.  The
envelope is checked against the exact values for every n in 4..5e4 (p)
and 2829..2e4 (PL), bases 2 and 10, by acceptance tests 2 and 3; past
those ranges it is a claim.  `theorem_bound` is the paper's closed-form
first-hit horizon for each kind.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv
from mpmath.libmp import from_man_exp, round_ceiling, round_floor

from .certified import (
    DEFAULT_PRECISION,
    as_interval,
    ceil_sup,
    hull,
    inf,
    ln_base,
    sup,
    working_precision,
)
from .digits import check_digit_domain
from .engines import SequenceKind
from .framework import FrameworkParams, model_value

MIN_CONSTANT_PRECISION = 128

P_VALID_FROM = 4
PL_VALID_FROM = 2829

PARTITION_BOUND_COEFF = 290
PLANE_BOUND_COEFF = 29396


def _zeta3_fraction_bracket(bits: int) -> tuple[Fraction, Fraction]:
    """Exact rational bracket of zeta(3) via the alternating series

        zeta(3) = (5/2) * sum_{k>=1} (-1)^(k-1) / (k^3 * C(2k, k)).

    Terms decay like 4^-k, so the error after truncation is bounded by the
    first omitted term (alternating, decreasing).
    """
    tol = Fraction(1, 2 ** (bits + 8))
    s = Fraction(0)
    k = 1
    binom = 2  # C(2, 1)
    while True:
        term = Fraction(1, k**3 * binom)
        s += term if k % 2 else -term
        nxt = Fraction(1, (k + 1) ** 3 * binom * (2 * k + 1) * (2 * k + 2) // (k + 1) ** 2)
        if nxt < tol:
            lo, hi = (s - nxt, s) if (k + 1) % 2 == 0 else (s, s + nxt)
            return Fraction(5, 2) * lo, Fraction(5, 2) * hi
        binom = binom * (2 * k + 1) * (2 * k + 2) // (k + 1) ** 2
        k += 1


@dataclass(eq=False)
class Constants:
    """Certified enclosures of the constants of the PL(n) asymptotic."""

    zeta3: object
    zeta_prime_minus_one: object
    pl_prefactor: object
    precision: int


_CONSTANTS_CACHE: dict[int, Constants] = {}


def eval_constants(precision: int = DEFAULT_PRECISION) -> Constants:
    """Enclosures of zeta(3), zeta'(-1), and the PL prefactor B at >= 128 bits."""
    if precision < MIN_CONSTANT_PRECISION:
        raise ValueError(
            f"constants need at least {MIN_CONSTANT_PRECISION} bits, got {precision}"
        )
    cached = _CONSTANTS_CACHE.get(precision)
    if cached is not None:
        return cached
    with working_precision(precision + 16):
        lo, hi = _zeta3_fraction_bracket(precision + 16)
        zeta3 = hull(as_interval(lo), as_interval(hi))
        # zeta'(-1) = 1/12 - log(Glaisher), with Glaisher's constant certified
        # by the interval context.
        zp = iv.mpf(1) / 12 - iv.log(+iv.glaisher)
        b = (
            zeta3 ** (iv.mpf(7) / 36)
            * iv.exp(zp)
            * iv.mpf(2) ** (-iv.mpf(11) / 36)
            / iv.sqrt(3 * iv.pi)
        )
        consts = Constants(
            zeta3=zeta3, zeta_prime_minus_one=zp, pl_prefactor=b, precision=precision
        )
    _CONSTANTS_CACHE[precision] = consts
    return consts


_PARAMS_CACHE: dict[tuple[SequenceKind, int, int], tuple[FrameworkParams, Fraction]] = {}


def _instantiate(
    kind: SequenceKind, base: int, precision: int | None
) -> tuple[FrameworkParams, Fraction]:
    """Growth-model coefficients of log_b of `kind` and its exact theta,
    cached per (kind, base, precision); every caller shares the result."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    prec = precision or DEFAULT_PRECISION
    key = (kind, base, prec)
    cached = _PARAMS_CACHE.get(key)
    if cached is not None:
        return cached
    with working_precision(prec):
        lb = ln_base(base)
        if kind is SequenceKind.PARTITION:
            theta = Fraction(1, 2)
            params = FrameworkParams(
                c1=iv.pi * iv.sqrt(iv.mpf(24)) / 6 / lb,
                c2=-1 / lb,
                c3=iv.log(iv.sqrt(iv.mpf(3)) / 12) / lb,
                c4=4 / lb,
                theta=theta,
                K=P_VALID_FROM,
            )
        else:
            theta = Fraction(2, 3)
            constants = eval_constants(max(prec, MIN_CONSTANT_PRECISION))
            params = FrameworkParams(
                c1=3 * (constants.zeta3 / 4) ** (iv.mpf(1) / 3) / lb,
                c2=-iv.mpf(25) / 36 / lb,
                c3=iv.log(constants.pl_prefactor) / lb,
                c4=200 / lb,
                theta=theta,
                K=PL_VALID_FROM,
            )
    _PARAMS_CACHE[key] = params, theta
    return params, theta


def instantiate_p(base: int, precision: int | None = None) -> FrameworkParams:
    """Growth-model coefficients of log_b p(n) (valid from K = 4)."""
    return _instantiate(SequenceKind.PARTITION, base, precision)[0]


def instantiate_pl(base: int, precision: int | None = None) -> FrameworkParams:
    """Growth-model coefficients of log_b PL(n) (valid from K = 2829)."""
    return _instantiate(SequenceKind.PLANE_PARTITION, base, precision)[0]


def theorem_bound(kind: SequenceKind, base: int, t: int, precision: int | None = None) -> int:
    """The paper's closed-form first-hit horizon for t-digit base-b targets:

        p:  ceil(290 * b^(2t) / ln(b)^2)
        PL: ceil(29396 * b^(3t/2) / ln(b)^(3/2))

    Not certified: at the narrowest window, f = b^t - 1, compute_bounds
    proves larger horizons, 25,946 for p b10 t1 (closed form 5,470) and
    127,881,305 for pl b10 t2 (8,413,268).
    """
    kind = SequenceKind(kind)
    check_digit_domain(base, t)
    with working_precision(precision or DEFAULT_PRECISION):
        b = iv.mpf(base)
        lb = ln_base(base)
        if kind is SequenceKind.PARTITION:
            expr = PARTITION_BOUND_COEFF * b ** (2 * t) / lb**2
        else:
            expr = PLANE_BOUND_COEFF * b ** (iv.mpf(3 * t) / 2) / lb ** (iv.mpf(3) / 2)
        return ceil_sup(expr)


@dataclass(eq=False)
class LogEstimate:
    """The claim |log_b(count(n)) - midpoint| <= envelope, with midpoint and
    envelope certified enclosures; the claim itself is checked only on the
    ranges the module docstring names."""

    n: int
    base: int
    midpoint: object
    envelope: object
    valid_from: int

    def contains(self, log_value) -> bool:
        """Certified check that an enclosure of log_b(count(n)) fits the envelope.

        True means proven inside; False means not provable at this width
        (which on exact inputs at sane precision only happens when the
        envelope is genuinely violated).
        """
        diff = as_interval(log_value) - self.midpoint
        worst = max(abs(inf(diff)), abs(sup(diff)))
        return worst <= inf(self.envelope)


def _iroot_bracket(m: int, q: int) -> tuple[int, int]:
    """Integers lo <= m^(1/q) <= hi with hi - lo <= 1, for m >= 1 and q in {2, 3}."""
    if q == 2:
        lo = math.isqrt(m)
    else:  # Newton's method from above stops at floor(m^(1/3))
        lo = 1 << -(-m.bit_length() // 3)
        while (nxt := (2 * lo + m // (lo * lo)) // 3) < lo:
            lo = nxt
    return lo, lo + (lo**q != m)


def _estimate(kind: SequenceKind, n: int, base: int, precision: int | None) -> LogEstimate:
    params, theta = _instantiate(kind, base, precision)
    if n < params.K:
        raise ValueError(f"estimate valid for n >= {params.K}, got {n}")
    prec = precision or DEFAULT_PRECISION
    p, q = theta.numerator, theta.denominator
    # n^theta * 2^prec lies between the integer q-th roots of n^p * 2^(q*prec)
    lo, hi = _iroot_bracket(n**p << (q * prec), q)
    with working_precision(prec):
        power = iv.make_mpf((
            from_man_exp(lo, -prec, prec, round_floor),
            from_man_exp(hi, -prec, prec, round_ceiling),
        ))
        return LogEstimate(
            n=n,
            base=base,
            midpoint=model_value(params, n, power),
            envelope=params.c4 / power,
            valid_from=params.K,
        )


def log_p_estimate(n: int, base: int, precision: int | None = None) -> LogEstimate:
    """Midpoint and envelope for log_b p(n), valid for n >= 4."""
    return _estimate(SequenceKind.PARTITION, n, base, precision)


def log_pl_estimate(n: int, base: int, precision: int | None = None) -> LogEstimate:
    """Midpoint and envelope for log_b PL(n), valid for n >= 2829."""
    return _estimate(SequenceKind.PLANE_PARTITION, n, base, precision)
