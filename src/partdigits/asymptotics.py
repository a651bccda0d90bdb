"""Growth-model coefficients of log_b p(n) and log_b PL(n), and the certified
log estimates derived from them.

Both counting functions fit the framework's model g(n) = c1*n^theta +
c2*log n + c3 + E(n) with |E(n)| <= c4*n^(-theta) for n >= K:

    log_b p(n):  c1 = (pi*sqrt(24)/6)/ln b, c2 = -1/ln b, c3 = log_b(sqrt(3)/12),
                 c4 = 4/ln b,   theta = 1/2, K = 4;
    log_b PL(n): c1 = 3 (z3/4)^(1/3)/ln b, c2 = -(25/36)/ln b, c3 = log_b B,
                 c4 = 200/ln b, theta = 2/3, K = 2829,

where z3 = zeta(3) and B = z3^(7/36) e^(zeta'(-1)) 2^(-11/36) (3 pi)^(-1/2)
is Wright's constant.  `_instantiate` is the one place they are written;
theta is the exact fraction THETA, which theorem_bound reads too.  An
estimate is derived from them: its midpoint is the model's main term and
its envelope c4*n^(-theta), both certified.  The constants compute on
interval_context(P), an estimate on `certified`'s fixed-point kernel at
its one scale S = SCALE: c1..c4 at P = 192, bracketed once per (kind, b),
n^theta from exact integer roots of n^p * 2^(qS), ln n from ln_fixed's
integer series, and the rest integer multiply, shift and floor division,
in 7.1-8.0 µs per n; `contains` compares integers only, in 0.8-0.9 µs
(scripts/time_envelope.py).  No result depends on mpmath's global precision.

c4 and K are stated, not derived: nothing here proves the envelope.  For
PL, K = 2829 is the first n where 200/n^(2/3) falls below one nat.  The
envelope is checked against the exact values for every n in 4..5e4 (p)
and 2829..2e4 (PL), bases 2 and 10, by acceptance tests 2 and 3; past
those ranges it is a claim.  `theorem_bound` is the paper's closed-form
first-hit horizon for each kind.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .certified import DEFAULT_PRECISION, SCALE, as_interval, ceil_sup, from_fixed, inf
from .certified import interval_context, ln_fixed, sup, to_fixed
from .digits import check_digit_domain
from .engines import SequenceKind
from .framework import FrameworkParams

MIN_CONSTANT_PRECISION = 128

P_VALID_FROM = 4
PL_VALID_FROM = 2829

# Each kind's growth exponent theta, and the coefficient of its closed-form horizon
THETA = {SequenceKind.PARTITION: Fraction(1, 2), SequenceKind.PLANE_PARTITION: Fraction(2, 3)}
BOUND_COEFF = {SequenceKind.PARTITION: 290, SequenceKind.PLANE_PARTITION: 29396}


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


@functools.cache
def eval_constants(precision: int = DEFAULT_PRECISION) -> Constants:
    """Enclosures of zeta(3), zeta'(-1), and the PL prefactor B at >= 128 bits,
    cached per precision."""
    if precision < MIN_CONSTANT_PRECISION:
        raise ValueError(
            f"constants need at least {MIN_CONSTANT_PRECISION} bits, got {precision}"
        )
    ctx = interval_context(precision + 16)
    # the hull of the bracket's two enclosures: its ends are within an ulp,
    # so either enclosure may reach lower or higher
    lo, hi = (as_interval(x, ctx.prec) for x in _zeta3_fraction_bracket(ctx.prec))
    zeta3 = ctx.mpf([min(inf(lo), inf(hi)), max(sup(lo), sup(hi))])
    # zeta'(-1) = 1/12 - log(Glaisher), with Glaisher's constant certified
    # by the interval context.
    zp = ctx.mpf(1) / 12 - ctx.log(+ctx.glaisher)
    b = (
        zeta3 ** (ctx.mpf(7) / 36)
        * ctx.exp(zp)
        * ctx.mpf(2) ** (-ctx.mpf(11) / 36)
        / ctx.sqrt(3 * ctx.pi)
    )
    zeta3, zp, b = map(as_interval, (zeta3, zp, b))
    return Constants(zeta3=zeta3, zeta_prime_minus_one=zp, pl_prefactor=b)


@functools.cache
def _instantiate(kind: SequenceKind, base: int, prec: int) -> FrameworkParams:
    """Growth-model coefficients of log_b of `kind`, cached per (kind, base,
    precision); every caller shares the result."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    ctx = interval_context(prec)
    if kind is SequenceKind.PARTITION:
        c1 = ctx.pi * ctx.sqrt(ctx.mpf(24)) / 6
        c2, c3, c4, K = -1, ctx.log(ctx.sqrt(ctx.mpf(3)) / 12), 4, P_VALID_FROM
    else:
        constants = eval_constants(max(prec, MIN_CONSTANT_PRECISION))
        c1 = 3 * (ctx.convert(constants.zeta3) / 4) ** (ctx.mpf(1) / 3)
        c2, c3, c4, K = -ctx.mpf(25) / 36, ctx.log(constants.pl_prefactor), 200, PL_VALID_FROM
    lb = ctx.log(base)
    return FrameworkParams(
        c1=c1 / lb, c2=c2 / lb, c3=c3 / lb, c4=c4 / lb, theta=as_interval(THETA[kind], prec), K=K
    )


def instantiate_p(base: int, precision: int = DEFAULT_PRECISION) -> FrameworkParams:
    """Growth-model coefficients of log_b p(n) (valid from K = 4)."""
    return _instantiate(SequenceKind.PARTITION, base, precision)


def instantiate_pl(base: int, precision: int = DEFAULT_PRECISION) -> FrameworkParams:
    """Growth-model coefficients of log_b PL(n) (valid from K = 2829)."""
    return _instantiate(SequenceKind.PLANE_PARTITION, base, precision)


def theorem_bound(kind: SequenceKind, base: int, t: int) -> int:
    """The paper's closed-form first-hit horizon for t-digit base-b targets,
    ceil(BOUND_COEFF * (b^t / ln b)^(1/THETA)) of the kind:

        p:  ceil(290 * b^(2t) / ln(b)^2)
        PL: ceil(29396 * b^(3t/2) / ln(b)^(3/2))

    Evaluated once per (kind, b, t), at horizon_precision(b, t) bits, the
    precision of every horizon here.  Not certified: at the narrowest
    window, f = b^t - 1, compute_bounds proves larger horizons, 25,946 for
    p b10 t1 (closed form 5,470) and 127,881,305 for pl b10 t2 (8,413,268).
    """
    return _theorem_bound(SequenceKind(kind), base, t)


def horizon_precision(base: int, t: int) -> int:
    """Bits at which the horizons of t-digit base-b targets are computed (README "CLI")."""
    return max(DEFAULT_PRECISION, 5 * t * base.bit_length() + 64)


@functools.cache
def _theorem_bound(kind: SequenceKind, base: int, t: int) -> int:
    check_digit_domain(base, t)
    prec = horizon_precision(base, t)
    ctx = interval_context(prec)
    ratio = ctx.mpf(base) ** t / ctx.log(base)
    return ceil_sup(BOUND_COEFF[kind] * ratio ** as_interval(1 / THETA[kind]))


@dataclass(eq=False)
class LogEstimate:
    """The claim |log_b(count(n)) - midpoint| <= envelope, the two certified
    enclosures built as iv.mpf on first read from the integer brackets mid and
    env at 2^-SCALE; the claim is checked only where the module docstring says."""

    n: int
    base: int
    valid_from: int
    mid: tuple[int, int]
    env: tuple[int, int]
    midpoint = functools.cached_property(lambda self: from_fixed(*self.mid))
    envelope = functools.cached_property(lambda self: from_fixed(*self.env))

    def contains(self, log_value) -> bool:
        """Certified check that an enclosure of log_b(count(n)) fits the envelope.

        True means proven inside; False means not provable at this width
        (on exact inputs, only when the envelope is genuinely violated).
        |v_lo - mid_hi| and |v_hi - mid_lo| are compared with env_lo by exact
        integer shifts; an infinite or nan endpoint is never inside.
        """
        r, (m_lo, m_hi) = self.env[0], self.mid
        for (sign, man, exp, _), m in zip(as_interval(log_value)._mpi_, (m_hi, m_lo)):
            if exp and not man:  # mpmath's +-inf and nan
                return False
            v, k = -man if sign else man, exp + SCALE
            # an endpoint finer than 2^-SCALE (k < 0) shifts m and r up instead
            if not (m - r <= v << k <= m + r if k >= 0 else (m - r) << -k <= v <= (m + r) << -k):
                return False
        return True


def _iroot_bracket(m: int, q: int) -> tuple[int, int]:
    """Integers lo <= m^(1/q) <= hi with hi - lo <= 1, for m >= 1 and q in {2, 3}."""
    if q == 2:
        lo = math.isqrt(m)
    else:  # Newton's method from above stops at floor(m^(1/3))
        # Start from the float cube root of m's top bits, m = top * 2^(3k) + r:
        # float(top) ** (1/3) is within 2^-48 of top^(1/3) relative, so the
        # raised start is above m^(1/3), and about 2^-45 from it.
        k = max(m.bit_length() - 159, 0) // 3
        lo = (int(float(m >> 3 * k) ** (1 / 3) * (1 + 2**-45)) + 1) << k
        while (nxt := (2 * lo + m // (lo * lo)) // 3) < lo:
            lo = nxt
    return lo, lo + (lo**q != m)


@functools.cache
def _fixed_params(kind: SequenceKind, base: int):
    """K, p and q of theta = p/q, then c1..c4's brackets at the kernel's scale."""
    params, theta = _instantiate(kind, base, DEFAULT_PRECISION), THETA[kind]
    cs = (params.c1, params.c2, params.c3, params.c4)
    return params.K, theta.numerator, theta.denominator, *(e for c in cs for e in to_fixed(c))


def _estimate(kind: SequenceKind, n: int, base: int) -> LogEstimate:
    K, p, q, c1_lo, c1_hi, c2_lo, c2_hi, c3_lo, c3_hi, c4_lo, c4_hi = _fixed_params(kind, base)
    if n < K:
        raise ValueError(f"estimate valid for n >= {K}, got {n}")
    s = SCALE
    # n^theta * 2^S lies between the integer q-th roots of n^p * 2^(qS)
    lo, hi = _iroot_bracket(n**p << (q * s), q)
    ln_lo, ln_hi = ln_fixed(n, DEFAULT_PRECISION)
    # c1 > 0 > c2: each end of c1*n^theta + c2*ln n pairs c2's end with ln n's other end
    mid_lo = (c1_lo * lo + c2_lo * ln_hi >> s) + c3_lo
    mid_hi = -(-(c1_hi * hi + c2_hi * ln_lo) >> s) + c3_hi
    return LogEstimate(n, base, K, (mid_lo, mid_hi), ((c4_lo << s) // hi, -((-c4_hi << s) // lo)))


def log_p_estimate(n: int, base: int) -> LogEstimate:
    """Midpoint and envelope for log_b p(n), valid for n >= 4."""
    return _estimate(SequenceKind.PARTITION, n, base)


def log_pl_estimate(n: int, base: int) -> LogEstimate:
    """Midpoint and envelope for log_b PL(n), valid for n >= 2829."""
    return _estimate(SequenceKind.PLANE_PARTITION, n, base)
