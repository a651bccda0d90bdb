"""Certified constants and log estimates with explicit error envelopes."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from mpmath import iv, mpf
from mpmath.libmp import fnan, fninf, finf, from_int, from_man_exp, mpf_add, mpf_le, mpf_log
from mpmath.libmp import mpf_shift, mpf_sub, round_ceiling, round_floor

from partdigits import (
    SequenceKind,
    eval_constants,
    instantiate_p,
    instantiate_pl,
    log_p_estimate,
    log_pl_estimate,
    log_value_interval,
)
from partdigits.asymptotics import (
    MIN_CONSTANT_PRECISION,
    P_VALID_FROM,
    PL_VALID_FROM,
    _iroot_bracket,
)
from partdigits.certified import DEFAULT_PRECISION, GUARD_BITS, SCALE, _raw, from_fixed, inf
from partdigits.certified import interval_context, ln_fixed, sup

# 50-digit references computed once by scripts/compute_reference_constants.py
# with mpmath at 60 decimal digits; pinned here as an independent cross-check.
ZETA3_REF = "1.2020569031595942853997381615114499907649862923405"
ZETA_PRIME_REF = "-0.16542114370045092921391966024278064276403638033520"
PREFACTOR_REF = "0.23151681344889837056035640640633211085512921259329"


def _matches_decimal(enclosure, decimal: str) -> bool:
    # The pinned strings are truncated at 50 digits, so the certified
    # enclosure (width < 1e-40) sits near but not on the parsed value;
    # require the enclosure to land inside a 1e-38 ball around it.
    ctx = interval_context(256)
    ball = ctx.mpf(decimal) + ctx.mpf([-1, 1]) * ctx.mpf(10) ** -38
    return inf(ball) <= inf(enclosure) and sup(enclosure) <= sup(ball)


def test_constants_match_references():
    consts = eval_constants(192)
    assert _matches_decimal(consts.zeta3, ZETA3_REF)
    assert _matches_decimal(consts.zeta_prime_minus_one, ZETA_PRIME_REF)
    assert _matches_decimal(consts.pl_prefactor, PREFACTOR_REF)
    for enc in (consts.zeta3, consts.zeta_prime_minus_one, consts.pl_prefactor):
        assert sup(enc) - inf(enc) < mpf(10) ** -40


def test_constants_displayed_digits():
    consts = eval_constants(128)
    z = (inf(consts.zeta3) + sup(consts.zeta3)) / 2
    assert abs(z - mpf("1.2020569")) < 5e-8
    c = (inf(consts.zeta_prime_minus_one) + sup(consts.zeta_prime_minus_one)) / 2
    assert abs(c - mpf("-0.1654211437")) < 5e-11


def test_constants_converge_with_precision():
    lo = eval_constants(128)
    hi = eval_constants(256)
    assert sup(hi.zeta3) - inf(hi.zeta3) < sup(lo.zeta3) - inf(lo.zeta3)
    assert abs(
        (inf(hi.zeta3) + sup(hi.zeta3)) / 2 - (inf(lo.zeta3) + sup(lo.zeta3)) / 2
    ) <= sup(lo.zeta3) - inf(lo.zeta3)
    assert abs(
        (inf(hi.zeta_prime_minus_one) + sup(hi.zeta_prime_minus_one)) / 2
        - (inf(lo.zeta_prime_minus_one) + sup(lo.zeta_prime_minus_one)) / 2
    ) <= sup(lo.zeta_prime_minus_one) - inf(lo.zeta_prime_minus_one)


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
    expected = 2 / interval_context(192).log(10)
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
    ctx = interval_context(192)
    for b in (2, 10):
        for n in (2829, 8000, 20_000):
            est = log_pl_estimate(n, b)
            log_value = ctx.convert(log_value_interval(pl_table[n], b))
            residual = (log_value - est.midpoint) * ctx.log(b)
            assert max(abs(inf(residual)), abs(sup(residual))) < 2e-3


def test_log_pl_envelope_at_threshold():
    # envelope * log b at n = 2829 is 200/2829^(2/3), just below 1
    est = log_pl_estimate(2829, 10)
    ctx = interval_context(192)
    prod = ctx.convert(est.envelope) * ctx.log(10)
    mid = (inf(prod) + sup(prod)) / 2
    assert abs(mid - mpf("0.999864994794348")) < 1e-12
    assert sup(prod) < 1


def test_log_pl_estimate_guards():
    with pytest.raises(ValueError):
        log_pl_estimate(2828, 10)
    with pytest.raises(ValueError):
        log_pl_estimate(3000, 0)


def _contains_cases(est, kernel_logs):
    """Enclosures around the envelope's four edges mid -+ env_lo: the kernel's
    logs, zero-width points on and next to each edge, endpoints finer than
    2^-SCALE, coarse float intervals, and infinite or nan endpoints."""
    (m_lo, m_hi), radius = est.midpoint._mpi_, est.envelope._mpi_[0]
    edges = [op(m, radius, 0) for m in (m_lo, m_hi) for op in (mpf_sub, mpf_add)]
    steps = [from_man_exp(sign, -bits) for sign in (1, -1) for bits in (SCALE, SCALE + 76, 180)]
    points = edges + [mpf_add(edge, step, 0) for edge in edges for step in steps]
    cases = list(kernel_logs)
    cases += [iv.make_mpf((x, x)) for x in points]
    cases += [iv.make_mpf((x, y)) for x in points for y in points if mpf_le(x, y)]
    for x in edges + [m_lo]:
        near = float(mpf(x))
        cases += [iv.mpf([near, near]), iv.mpf([near - 1e-3, near + 1e-3]),
                  iv.mpf([near - 0.5, near]), iv.mpf([near, near + 0.5])]
        cases += [iv.make_mpf(pair) for pair in ((fninf, x), (x, finf), (fnan, x), (x, fnan))]
    cases += [iv.mpf(["-inf", "inf"]), iv.make_mpf((finf, finf)), iv.make_mpf((fninf, fninf))]
    return cases


def test_contains_agrees_with_the_mpf_reference(p_table, pl_table, contains_reference):
    # the integer-shift comparison against the exact mpf formula, on the
    # kernel's enclosures and on enclosures the kernel never makes
    assert log_p_estimate(4, 36).contains(iv.mpf(["-inf", "inf"])) is False
    estimates = [(log_p_estimate(n, b), p_table[n]) for n in (4, 5, 100, 1234, 49_000)
                 for b in (2, 10, 36)]
    estimates += [(log_pl_estimate(n, b), pl_table[n]) for n in (2829, 5000) for b in (2, 10)]
    answers = set()
    for est, value in estimates:
        kernel_logs = [log_value_interval(v, est.base) for v in (value, value + 1, 2 * value)]
        for case in _contains_cases(est, kernel_logs):
            answer = est.contains(case)
            assert answer is contains_reference(est, case), (est.n, est.base, case)
            answers.add(answer)
    assert answers == {True, False}


def test_base_change_consistency():
    # midpoint * log b is the natural-log estimate, independent of b
    ctx = interval_context(192)
    for n in (10, 1234):
        ref = None
        for b in (2, 10, 16):
            est = log_p_estimate(n, b)
            nat = ctx.convert(est.midpoint) * ctx.log(b)
            if ref is None:
                ref = nat
            else:
                assert inf(nat) <= sup(ref) and inf(ref) <= sup(nat)


def test_log_doubling_inequality_spot():
    # |log(1+x)| <= 2|x| for |x| <= 1/2, certified on a coarse grid
    ctx = interval_context(128)
    for k in range(-64, 65):
        x = ctx.mpf(k) / 128
        lhs = ctx.log(1 + x)
        bound = 2 * abs(x)
        assert sup(abs(lhs)) <= inf(bound) or k == 0


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


def test_estimates_match_the_interval_power_formula(main_term):
    # the integer-root estimates agree with main_term and c4 * n^-theta
    # computed by interval powers, and are at most twice as wide
    ctx = interval_context(192)
    grids = (
        (log_p_estimate, instantiate_p, (4, 5, 10, 99, 100, 1000, 12_345, 50_000, 10**6, 10**12)),
        (log_pl_estimate, instantiate_pl, (2829, 3000, 8000, 20_000, 10**6, 10**12)),
    )
    for estimate, instantiate, ns in grids:
        for b in (2, 10, 16):
            params = instantiate(b)
            for n in ns:
                est = estimate(n, b)
                mid = main_term(params, n)
                env = ctx.convert(params.c4) * ctx.mpf(n) ** -ctx.convert(params.theta)
                for ours, ref in ((est.midpoint, mid), (est.envelope, env)):
                    assert inf(ours) <= sup(ref) and inf(ref) <= sup(ours), (n, b)
                    assert sup(ours) - inf(ours) <= 2 * (sup(ref) - inf(ref)), (n, b)


def test_estimates_enclose_the_interval_object_reference(estimate_reference):
    # the fixed-point estimates hold the same formula on interval_context
    # objects at 4P bits, and are at most twice as wide as it at P bits,
    # at the kernel's P = 192
    rng = random.Random(23)
    ns = [4, 5, 99, 100, 1000, 2829, 12_345, 5 * 10**4, 10**6, 10**12]
    ns += [rng.randrange(4, 10 ** rng.randint(1, 12) + 4) for _ in range(300)]
    kinds = (
        (SequenceKind.PARTITION, log_p_estimate, P_VALID_FROM),
        (SequenceKind.PLANE_PARTITION, log_pl_estimate, PL_VALID_FROM),
    )
    precision = DEFAULT_PRECISION
    checked = 0
    for kind, estimate, valid_from in kinds:
        for b in (2, 3, 10, 16, 36):
            for n in ns:
                if n < valid_from:
                    continue
                est = estimate(n, b)
                wide = estimate_reference(kind, n, b, 4 * precision)
                same = estimate_reference(kind, n, b, precision)
                for ours, ref, ref_p in zip((est.midpoint, est.envelope), wide, same):
                    (lo, hi), (ref_lo, ref_hi) = ours._mpi_, ref
                    assert mpf_le(lo, ref_lo) and mpf_le(ref_hi, hi), (kind, n, b)
                    width, ref_width = mpf_sub(hi, lo), mpf_sub(ref_p[1], ref_p[0])
                    assert mpf_le(width, mpf_shift(ref_width, 1)), (kind, n, b)
                checked += 1
    assert checked > 2_000


def test_from_fixed_builds_the_tuples_of_from_man_exp():
    # from_fixed writes mpmath's raw tuples itself, through _raw: they must
    # be the normalised ones from_man_exp gives, zero and negative ends
    # included, at the kernel's scale and at scale 0 (ln_fixed's argument)
    rng = random.Random(7)
    ends = [0, 1, -1, 2**300, -(2**300), 3 << 200]
    ends += [rng.choice((1, -1)) * rng.randrange(2**rng.randint(1, 600)) << rng.randint(0, 40)
             for _ in range(2_000)]
    for end in ends:
        assert from_fixed(end, end)._mpi_ == (from_man_exp(end, -SCALE),) * 2, end
        assert _raw(end, 0) == from_man_exp(end, 0), end


@pytest.mark.parametrize("precision", [64, 192, 384])
def test_log_bracket_holds_the_two_directed_logs(precision):
    # one mpf_log call rounded down, plus one ulp, contains the pair of
    # calls rounded down and up and is at most one ulp wider: mpf_log rounds
    # one value in the requested direction, which is what ln_fixed needs
    rng = random.Random(precision)
    xs = {2**k + d for k in range(1, 601) for d in (-1, 0, 1)} - {2**600 + 1}
    xs |= {10**k + d for k in range(1, 181) for d in (-1, 0, 1)}
    xs |= set(range(2, 2_000)) | {rng.randrange(2, 2**rng.randint(2, 600)) for _ in range(500)}
    scale = precision + GUARD_BITS
    for x in sorted(xs - {1}):
        lo, hi = (from_man_exp(end, -scale) for end in ln_fixed(x, precision))
        floor = mpf_log(from_int(x), precision, round_floor)
        ceiling = mpf_log(from_int(x), precision, round_ceiling)
        _, _, exp, bc = floor
        assert lo == floor, x
        assert mpf_sub(hi, lo) == from_man_exp(1, exp + bc - precision), x
        assert hi == ceiling or ceiling == floor, x
