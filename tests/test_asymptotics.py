"""Certified constants and log estimates with explicit error envelopes."""
from __future__ import annotations

import functools
import inspect
import random
import textwrap
from fractions import Fraction

import pytest
from mpmath import iv, mpf
from mpmath.libmp import fnan, fninf, finf, from_int, from_man_exp, mpf_add, mpf_le, mpf_log
from mpmath.libmp import mpf_shift, mpf_sub, round_floor

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
from partdigits import certified

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
    # valid from n = 4, where acceptance 2's sweep starts, and refused below
    for n, b in ((4, 10), (50_000, 2)):
        assert log_p_estimate(n, b).valid_from == P_VALID_FROM == 4
    with pytest.raises(ValueError):
        log_p_estimate(3, 10)
    with pytest.raises(ValueError):
        log_p_estimate(100, 1)


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
    # valid from n = 2829, where acceptance 3's sweep starts, and refused below
    for n, b in ((2829, 10), (20_000, 2)):
        assert log_pl_estimate(n, b).valid_from == PL_VALID_FROM == 2829
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
    # included, at the kernel's scale and at scale 0
    rng = random.Random(7)
    ends = [0, 1, -1, 2**300, -(2**300), 3 << 200]
    ends += [rng.choice((1, -1)) * rng.randrange(2**rng.randint(1, 600)) << rng.randint(0, 40)
             for _ in range(2_000)]
    for end in ends:
        assert from_fixed(end, end)._mpi_ == (from_man_exp(end, -SCALE),) * 2, end
        assert _raw(end, 0) == from_man_exp(end, 0), end


@functools.cache
def _ln_sweep() -> tuple[tuple[int, tuple], ...]:
    """The x of the ln_fixed sweep, each with its 1,024-bit mpmath ln: 2^k
    and 10^k, each +-1, 2..1,999 and 500 seeded values below 2^600, then c
    and c +- 1 at ln_fixed's reduction points c: every level-1 point
    (2^8 + j1) 2^(k-8) at k = 24 and 145, every level-2 point
    (2^8 + j1)(2^16 + j2) 2^(k-24) in the first and last level-1 cell at
    k = 145, and every level-3 point (2^8 + j1)(2^16 + j2)(2^24 + j3) 2^(k-48)
    in the first and last level-2 cell of those at k = 145."""
    rng = random.Random(600)
    xs = {2**k + d for k in range(1, 601) for d in (-1, 0, 1)} - {2**600 + 1}
    xs |= {10**k + d for k in range(1, 181) for d in (-1, 0, 1)}
    xs |= set(range(2, 2_000)) | {rng.randrange(2, 2**rng.randint(2, 600)) for _ in range(500)}
    cs = {(256 + j1) << (k - 8) for j1 in range(256) for k in (24, 145)}
    cs |= {(256 + j1) * (65536 + j2) << 121 for j1 in (0, 255) for j2 in range(256)}
    cs |= {(256 + j1) * (65536 + j2) * (2**24 + j3) << 97
           for j1 in (0, 255) for j2 in (0, 255) for j3 in range(256)}
    xs |= {c + d for c in cs for d in (-1, 0, 1)}
    return tuple((x, mpf_log(from_int(x), 1024)) for x in sorted(xs - {1}))


LN_PRECISIONS = (64, 192, 224, 384)  # the kernel's 192 and 224 (digits._window), and two more


def _ln_misses(precision: int):
    """The x of the sweep whose ln_fixed bracket misses its 1,024-bit ln."""
    s = precision + GUARD_BITS
    for x, ref in _ln_sweep():
        lo, hi = ln_fixed(x, precision)
        if not (mpf_le(from_man_exp(lo, -s), ref) and mpf_le(ref, from_man_exp(hi, -s))):
            yield x


@pytest.mark.parametrize("precision", LN_PRECISIONS)
def test_log_bracket_contains_the_log_and_is_no_wider_than_one_ulp(precision):
    # ln_fixed is sound on the sweep, at most 9k/4 + 12 ulps at S wide (its
    # docstring), and never wider than one ulp of ln x at `precision` bits,
    # the bracket that one directed mpf_log call gives
    assert list(_ln_misses(precision)) == []
    for x, _ in _ln_sweep():
        lo, hi = ln_fixed(x, precision)
        _, _, exp, bc = mpf_log(from_int(x), precision, round_floor)
        assert 4 * (hi - lo) <= 9 * (x.bit_length() - 1) + 48, x
        assert hi - lo <= 1 << (exp + bc + GUARD_BITS), x


def test_ln_tables_contain_their_logs_at_the_kernels_two_scales():
    # the tables at ln_fixed's w for 192 bits are its w for SCALE's shifted
    # down outward; every bracket must hold its ln at both, which the sweep
    # above cannot see, since ln_fixed's last shift by GUARD_BITS absorbs
    # a one-ulp inward rounding in a table
    refs = [mpf_log(from_int(2), 1024)]
    refs += [mpf_log(from_man_exp(2**r + j, -r), 1024) for r in (8, 16, 24) for j in range(256)]
    for precision in (DEFAULT_PRECISION, SCALE):
        w = precision + 2 * GUARD_BITS
        ln2, *levels = certified._ln_tables(w)
        brackets = [ln2, *(bracket for level in levels for bracket in level)]
        assert len(brackets) == len(refs)
        for i, ((lo, hi), ref) in enumerate(zip(brackets, refs)):
            assert mpf_le(from_man_exp(lo, -w), ref) and mpf_le(ref, from_man_exp(hi, -w)), (w, i)


def _series_mutant(old: str, new: str):
    """certified._atanh_fixed with the one source line `old` replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(certified._atanh_fixed))
    assert source.count(old) == 1, old
    namespace = dict(vars(certified))
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return "_atanh_fixed", namespace["_atanh_fixed"]


def _tables_mutant(patch):
    """certified._ln_tables with `patch` applied to a copy of (ln 2, levels 1 to 3)."""
    tables = certified._ln_tables
    return "_ln_tables", lambda w: patch(*tables(w))


def _entry_upper_is_lower(ln2, t1, *tables):
    t1 = list(t1)
    t1[255] = (t1[255][0],) * 2  # 2^k - 1 reduces by this entry
    return ln2, t1, *tables


LN_MUTANTS = {
    "series allowance 0": lambda: _series_mutant(
        "return s, s + i - 1 + -(-9 * (u + 2) // (8 * i))", "return s, s"),
    "last series term dropped": lambda: _series_mutant(
        "s += u // i", "s += u // i if (u * z2 >> w) >> GUARD_BITS >= i + 2 else 0"),
    "level-1 entry 255 upper end = lower end": lambda: _tables_mutant(_entry_upper_is_lower),
    "ln 2 upper end = lower end": lambda: _tables_mutant(
        lambda ln2, *tables: ((ln2[0], ln2[0]), *tables)),
}


@pytest.mark.parametrize("mutant", LN_MUTANTS)
def test_the_log_sweep_catches_each_mutant(mutant, monkeypatch):
    # the sweep above fails under each of these unsound variants of
    # ln_fixed; the tables are cached per scale, so they are rebuilt
    # under the mutant and again after it
    name, function = LN_MUTANTS[mutant]()
    certified._ln_tables.cache_clear()
    monkeypatch.setattr(certified, name, function)
    try:
        assert any(next(_ln_misses(p), None) for p in LN_PRECISIONS)
    finally:
        monkeypatch.undo()
        certified._ln_tables.cache_clear()
