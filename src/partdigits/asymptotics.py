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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv
from mpmath.libmp import from_man_exp, mpf_abs, mpf_le, mpf_sub, round_ceiling, round_floor

from .certified import (
    DEFAULT_PRECISION,
    as_interval,
    ceil_sup,
    hull,
    ln_base,
    working_precision,
)
from .digits import check_digit_domain
from .engines import SequenceKind
from .framework import FrameworkParams, model_value

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
    precision: int


@functools.cache
def eval_constants(precision: int = DEFAULT_PRECISION) -> Constants:
    """Enclosures of zeta(3), zeta'(-1), and the PL prefactor B at >= 128 bits,
    cached per precision."""
    if precision < MIN_CONSTANT_PRECISION:
        raise ValueError(
            f"constants need at least {MIN_CONSTANT_PRECISION} bits, got {precision}"
        )
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
        return Constants(
            zeta3=zeta3, zeta_prime_minus_one=zp, pl_prefactor=b, precision=precision
        )


@functools.cache
def _instantiate(kind: SequenceKind, base: int, prec: int) -> FrameworkParams:
    """Growth-model coefficients of log_b of `kind`, cached per (kind, base,
    precision); every caller shares the result."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    with working_precision(prec):
        if kind is SequenceKind.PARTITION:
            c1 = iv.pi * iv.sqrt(iv.mpf(24)) / 6
            c2, c3, c4, K = -1, iv.log(iv.sqrt(iv.mpf(3)) / 12), 4, P_VALID_FROM
        else:
            constants = eval_constants(max(prec, MIN_CONSTANT_PRECISION))
            c1 = 3 * (constants.zeta3 / 4) ** (iv.mpf(1) / 3)
            c2, c3, c4, K = -iv.mpf(25) / 36, iv.log(constants.pl_prefactor), 200, PL_VALID_FROM
        lb = ln_base(base, prec)
        return FrameworkParams(
            c1=c1 / lb, c2=c2 / lb, c3=c3 / lb, c4=c4 / lb, theta=THETA[kind], K=K
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

    Evaluated once per (kind, b, t), at max(DEFAULT_PRECISION, 2 t
    bitlen(b) + 64) bits: the enclosure is then narrower than 2^-40.  Not
    certified: at the narrowest window, f = b^t - 1, compute_bounds proves
    larger horizons, 25,946 for p b10 t1 (closed form 5,470) and
    127,881,305 for pl b10 t2 (8,413,268).
    """
    return _theorem_bound(SequenceKind(kind), base, t)


@functools.cache
def _theorem_bound(kind: SequenceKind, base: int, t: int) -> int:
    check_digit_domain(base, t)
    prec = max(DEFAULT_PRECISION, 2 * t * base.bit_length() + 64)
    with working_precision(prec):
        ratio = iv.mpf(base) ** t / ln_base(base, prec)
        return ceil_sup(BOUND_COEFF[kind] * ratio ** as_interval(1 / THETA[kind]))


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
        envelope is genuinely violated).  The endpoint differences are
        exact, so the working precision plays no part.
        """
        (v_lo, v_hi), (m_lo, m_hi) = as_interval(log_value)._mpi_, self.midpoint._mpi_
        radius = self.envelope._mpi_[0]
        below = mpf_le(mpf_abs(mpf_sub(v_lo, m_hi, 0)), radius)
        return below and mpf_le(mpf_abs(mpf_sub(v_hi, m_lo, 0)), radius)


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


def _estimate(
    kind: SequenceKind, n: int, base: int, precision: int = DEFAULT_PRECISION
) -> LogEstimate:
    params = _instantiate(kind, base, precision)
    if n < params.K:
        raise ValueError(f"estimate valid for n >= {params.K}, got {n}")
    theta = THETA[kind]
    p, q = theta.numerator, theta.denominator
    # n^theta * 2^P lies between the integer q-th roots of n^p * 2^(qP), P = precision
    lo, hi = _iroot_bracket(n**p << (q * precision), q)
    with working_precision(precision):
        power = iv.make_mpf((
            from_man_exp(lo, -precision, precision, round_floor),
            from_man_exp(hi, -precision, precision, round_ceiling),
        ))
        return LogEstimate(
            n=n,
            base=base,
            midpoint=model_value(params, n, power),
            envelope=params.c4 / power,
            valid_from=params.K,
        )


def log_p_estimate(n: int, base: int, precision: int = DEFAULT_PRECISION) -> LogEstimate:
    """Midpoint and envelope for log_b p(n), valid for n >= 4."""
    return _estimate(SequenceKind.PARTITION, n, base, precision)


def log_pl_estimate(n: int, base: int, precision: int = DEFAULT_PRECISION) -> LogEstimate:
    """Midpoint and envelope for log_b PL(n), valid for n >= 2829."""
    return _estimate(SequenceKind.PLANE_PARTITION, n, base, precision)
