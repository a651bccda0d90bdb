"""Certified constants and log estimates with explicit error envelopes."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from mpmath import iv, mpf

from partdigits import (
    eval_constants,
    instantiate_p,
    instantiate_pl,
    log_p_estimate,
    log_pl_estimate,
    log_value_interval,
    main_term,
    working_precision,
)
from partdigits.asymptotics import (
    MIN_CONSTANT_PRECISION,
    P_VALID_FROM,
    PL_VALID_FROM,
    _iroot_bracket,
)
from partdigits.certified import inf, sup, width

# 50-digit references computed once by scripts/compute_reference_constants.py
# with mpmath at 60 decimal digits; pinned here as an independent cross-check.
ZETA3_REF = "1.2020569031595942853997381615114499907649862923405"
ZETA_PRIME_REF = "-0.16542114370045092921391966024278064276403638033520"
PREFACTOR_REF = "0.23151681344889837056035640640633211085512921259329"


def _matches_decimal(enclosure, decimal: str) -> bool:
    # The pinned strings are truncated at 50 digits, so the certified
    # enclosure (width < 1e-40) sits near but not on the parsed value;
    # require the enclosure to land inside a 1e-38 ball around it.
    with working_precision(256):
        ball = iv.mpf(decimal) + iv.mpf([-1, 1]) * iv.mpf(10) ** -38
        return inf(ball) <= inf(enclosure) and sup(enclosure) <= sup(ball)


def test_constants_match_references():
    consts = eval_constants(192)
    assert _matches_decimal(consts.zeta3, ZETA3_REF)
    assert _matches_decimal(consts.zeta_prime_minus_one, ZETA_PRIME_REF)
    assert _matches_decimal(consts.pl_prefactor, PREFACTOR_REF)
    for enc in (consts.zeta3, consts.zeta_prime_minus_one, consts.pl_prefactor):
        assert width(enc) < mpf(10) ** -40


def test_constants_displayed_digits():
    consts = eval_constants(128)
    z = (inf(consts.zeta3) + sup(consts.zeta3)) / 2
    assert abs(z - mpf("1.2020569")) < 5e-8
    c = (inf(consts.zeta_prime_minus_one) + sup(consts.zeta_prime_minus_one)) / 2
    assert abs(c - mpf("-0.1654211437")) < 5e-11


def test_constants_converge_with_precision():
    lo = eval_constants(128)
    hi = eval_constants(256)
    assert width(hi.zeta3) < width(lo.zeta3)
    assert abs((inf(hi.zeta3) + sup(hi.zeta3)) / 2 - (inf(lo.zeta3) + sup(lo.zeta3)) / 2) <= width(lo.zeta3)
    assert abs(
        (inf(hi.zeta_prime_minus_one) + sup(hi.zeta_prime_minus_one)) / 2
        - (inf(lo.zeta_prime_minus_one) + sup(lo.zeta_prime_minus_one)) / 2
    ) <= width(lo.zeta_prime_minus_one)


def test_constants_precision_guard():
    with pytest.raises(ValueError):
        eval_constants(MIN_CONSTANT_PRECISION - 1)


def test_log_p_estimate_contains_exact_values(p_table):
    for b in (2, 10):
        for n in (4, 5, 10, 100, 1000, 50_000):
            est = log_p_estimate(n, b)
            assert est.valid_from == P_VALID_FROM
            assert est.contains(log_value_interval(p_table[n], b))


def test_log_p_estimate_envelope_values():
    # n = 4: envelope 4/(2 ln 10) = 2/ln 10
    est = log_p_estimate(4, 10)
    with working_precision(192):
        expected = 2 / iv.log(iv.mpf(10))
        assert inf(expected) <= sup(est.envelope) and inf(est.envelope) <= sup(expected)
    # n = 10^6, base 2: envelope 4/(1000 ln 2)
    est = log_p_estimate(10**6, 2)
    mid = (inf(est.envelope) + sup(est.envelope)) / 2
    assert abs(mid - mpf("0.005770780163555852")) < 1e-15


def test_log_p_estimate_guards():
    with pytest.raises(ValueError):
        log_p_estimate(3, 10)
    with pytest.raises(ValueError):
        log_p_estimate(100, 1)


def test_log_pl_estimate_contains_exact_values(pl_table):
    for b in (2, 10):
        for n in (2829, 3000, 10_000, 20_000):
            est = log_pl_estimate(n, b)
            assert est.valid_from == PL_VALID_FROM
            assert est.contains(log_value_interval(pl_table[n], b))


def test_log_pl_midpoint_residual(pl_table):
    # The true residual ln PL(n) - midpoint*ln b is about -0.0012 at
    # n = 2829 and shrinks after; a wrong prefactor B shifts it by ln of
    # the ratio (0.199 nats for the formula this replaced), far inside the
    # envelope of 200/n^(2/3) nats up to n ~ 3e4.
    for b in (2, 10):
        for n in (2829, 8000, 20_000):
            est = log_pl_estimate(n, b)
            with working_precision(192):
                log_value = log_value_interval(pl_table[n], b)
                residual = (log_value - est.midpoint) * iv.log(iv.mpf(b))
            assert max(abs(inf(residual)), abs(sup(residual))) < 2e-3


def test_log_pl_envelope_at_threshold():
    # envelope * log b at n = 2829 is 200/2829^(2/3), just below 1
    est = log_pl_estimate(2829, 10)
    with working_precision(192):
        prod = est.envelope * iv.log(iv.mpf(10))
        mid = (inf(prod) + sup(prod)) / 2
    assert abs(mid - mpf("0.999864994794348")) < 1e-12
    assert sup(prod) < 1


def test_log_pl_estimate_guards():
    with pytest.raises(ValueError):
        log_pl_estimate(2828, 10)
    with pytest.raises(ValueError):
        log_pl_estimate(3000, 0)


def test_base_change_consistency():
    # midpoint * log b is the natural-log estimate, independent of b
    for n in (10, 1234):
        ref = None
        for b in (2, 10, 16):
            est = log_p_estimate(n, b)
            with working_precision(192):
                nat = est.midpoint * iv.log(iv.mpf(b))
            if ref is None:
                ref = nat
            else:
                assert inf(nat) <= sup(ref) and inf(ref) <= sup(nat)


def test_log_doubling_inequality_spot():
    # |log(1+x)| <= 2|x| for |x| <= 1/2, certified on a coarse grid
    with working_precision(128):
        for k in range(-64, 65):
            x = iv.mpf(k) / 128
            lhs = iv.log(1 + x)
            bound = 2 * abs(x)
            assert max(abs(inf(lhs)), abs(sup(lhs))) <= inf(bound) or k == 0


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(2, 3)])
def test_integer_root_bracket(theta):
    # lo <= n^theta * 2^P <= hi in exact integers, one unit apart, and
    # equal exactly when n is a perfect q-th power
    p, q = theta.numerator, theta.denominator
    squares_and_cubes = {k**2 for k in range(1, 400)} | {k**3 for k in range(1, 60)}
    large_powers = {k**q for k in (10**6, 10**12 + 3, 2**100)}
    ns = sorted(set(range(1, 20_001)) | squares_and_cubes | large_powers)
    q_th_powers = {k**q for k in range(1, 400)} | large_powers  # every one in ns
    for bits in (64, 192):
        for n in ns:
            m = n**p << (q * bits)
            lo, hi = _iroot_bracket(m, q)
            assert lo**q <= m <= hi**q, (n, bits)
            assert hi - lo <= 1, (n, bits)
            assert (lo == hi) == (n in q_th_powers), (n, bits)
    # q-th powers and their neighbours, up to m far beyond the float range
    rng = random.Random(q)
    roots = [*range(1, 300), 2**17, 2**52 + 1, 2**60, 10**18 + 7, 3**200, 2**700 - 1]
    roots.append(10**400 + 3)
    roots += [rng.getrandbits(bits) | 1 << (bits - 1) for bits in (40, 60, 100, 201, 600)]
    for k in roots:
        for m in (k**q - 1, k**q, k**q + 1):
            if m < 1:
                continue
            lo, hi = _iroot_bracket(m, q)
            assert lo**q <= m <= hi**q and hi - lo <= 1, (k, m - k**q)
            assert (lo == hi) == (m == k**q), (k, m - k**q)


def test_estimates_match_the_interval_power_formula():
    # the integer-root estimates agree with main_term and c4 * n^-theta
    # computed by interval powers, and are at most twice as wide
    grids = (
        (log_p_estimate, instantiate_p, (4, 5, 10, 99, 100, 1000, 12_345, 50_000, 10**6, 10**12)),
        (log_pl_estimate, instantiate_pl, (2829, 3000, 8000, 20_000, 10**6, 10**12)),
    )
    for estimate, instantiate, ns in grids:
        for b in (2, 10, 16):
            params = instantiate(b)
            for n in ns:
                est = estimate(n, b)
                with working_precision(192):
                    mid = main_term(params, n)
                    env = params.c4 * iv.mpf(n) ** -params.theta
                for ours, ref in ((est.midpoint, mid), (est.envelope, env)):
                    assert inf(ours) <= sup(ref) and inf(ref) <= sup(ours), (n, b)
                    assert width(ours) <= 2 * width(ref), (n, b)
