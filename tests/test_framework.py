"""Growth-model bounds: L thresholds, instantiations, first-hit scans."""
from __future__ import annotations

from fractions import Fraction

import mpmath
import pytest
from mpmath import iv, mpf

from partdigits import (
    DigitString,
    FrameworkParams,
    SequenceKind,
    UndecidableMembershipError,
    compute_bounds,
    find_m_a_delta,
    instantiate_p,
    instantiate_pl,
    target_interval,
    theorem_bound,
)
from partdigits.asymptotics import log_p_estimate
from partdigits.certified import inf, interval_context, sup


def _overlaps(a, b) -> bool:
    return inf(a) <= sup(b) and inf(b) <= sup(a)


def _mid(x) -> mpf:
    return (inf(x) + sup(x)) / 2


def test_params_validation():
    ok = dict(c1=1.0, c2=-0.5, c3=0.0, c4=1.0, theta=0.5, K=4)
    FrameworkParams(**ok)
    FrameworkParams(**{**ok, "c2": 0})  # c2 = 0 is allowed
    with pytest.raises(ValueError):
        FrameworkParams(**{**ok, "c1": 0})
    with pytest.raises(ValueError):
        FrameworkParams(**{**ok, "c2": 0.1})
    with pytest.raises(ValueError):
        FrameworkParams(**{**ok, "c4": -1})
    with pytest.raises(ValueError):
        FrameworkParams(**{**ok, "theta": 1.0})
    with pytest.raises(ValueError):
        FrameworkParams(**{**ok, "theta": 0.0})
    with pytest.raises(ValueError):
        FrameworkParams(**{**ok, "K": 0})
    # c2 = 0 makes L1 zero, c4 = 0 makes L2 zero; the bound still follows
    # 2*max(K, L1, L2 + 1, L3, L4), here 2*(900 + 1) and 2*225, rounded up
    # from enclosures whose sups lie just above those integers
    for zero, bound in (("c2", 1803), ("c4", 451)):
        bounds = compute_bounds(FrameworkParams(**{**ok, zero: 0}), Fraction(1, 10))
        assert sup(bounds.L1 if zero == "c2" else bounds.L2) == 0
        top = 2 * max(ok["K"], sup(bounds.L1), sup(bounds.L2) + 1, sup(bounds.L3), sup(bounds.L4))
        assert top <= bounds.bound == bound <= top + 1, zero


def test_compute_bounds_plane_reference():
    params = instantiate_pl(10)
    bounds = compute_bounds(params, Fraction(1, 10))
    assert abs(_mid(bounds.L1) - mpf("1.9394")) < 1e-4
    assert abs(_mid(bounds.L2) - mpf("133015.834")) < 1e-2
    assert abs(_mid(bounds.L4) - mpf("5317.06")) < 1e-1
    assert bounds.bound == 266034


def test_compute_bounds_delta_validation():
    params = instantiate_p(10)
    compute_bounds(params, 1)  # delta = 1 is the largest legal window
    for bad in (0, -0.1, 1.5):
        with pytest.raises(ValueError, match=r"delta must be certainly inside \(0, 1\]"):
            compute_bounds(params, bad)


def test_compute_bounds_names_a_delta_enclosure_too_wide_to_place():
    # the per-n logs read a 44-digit leading window in base 10, so the
    # narrowest p b10 t46 window, 4.3e-47 wide, is narrower than the
    # enclosure of its lower end, about 1/(10^44 ln 10) = 4.3e-45 wide; its
    # delta enclosure reaches below 0 though delta is inside (0, 1]
    window = target_interval(DigitString(10, 46, 10**46 - 1))
    with pytest.raises(ValueError, match="delta's enclosure is too wide at 192 bits"):
        compute_bounds(instantiate_p(10), window.delta)


def test_scale_relations():
    lam = 4
    for params in (instantiate_p(10), instantiate_pl(7)):
        theta = _mid(params.theta)
        base_delta = Fraction(1, 5)
        b1 = compute_bounds(params, base_delta)
        b2 = compute_bounds(params, base_delta / lam)
        ctx = interval_context(192)
        lam_iv, theta_iv = ctx.mpf(lam), ctx.convert(params.theta)
        assert _overlaps(b2.L2, lam_iv ** (1 / theta_iv) * b1.L2)
        assert _overlaps(b2.L4, lam_iv ** (1 / (1 - theta_iv)) * b1.L4)
        assert _overlaps(b1.L3, ctx.convert(b1.D) ** (1 / theta_iv))
        # L1, L3, D do not depend on delta
        assert _overlaps(b1.L1, b2.L1)
        assert _overlaps(b1.L3, b2.L3)
        assert _overlaps(b1.D, b2.D)
        assert theta in (0.5, pytest.approx(2 / 3))


def test_bound_non_increasing_in_delta():
    params = instantiate_p(10)
    deltas = [Fraction(1, 100), Fraction(1, 50), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), 1]
    bounds = [compute_bounds(params, d).bound for d in deltas]
    for small, large in zip(bounds, bounds[1:]):
        assert small >= large


def test_theorem_consistency_grid():
    # the closed-form bound dominates twice the noise threshold on the
    # whole (b, t) grid at delta = b^-t
    for b in range(2, 101):
        params_p = instantiate_p(b)
        params_pl = instantiate_pl(b)
        for t in range(1, 9):
            if b == 2 and t == 1:
                continue
            delta = Fraction(1, b**t)
            bp = compute_bounds(params_p, delta)
            assert sup(2 * (bp.L2 + 1)) <= theorem_bound(SequenceKind.PARTITION, b, t)
            bpl = compute_bounds(params_pl, delta)
            assert sup(2 * bpl.L2) <= theorem_bound(SequenceKind.PLANE_PARTITION, b, t)


def test_theorem_bound_values():
    assert theorem_bound(SequenceKind.PARTITION, 10, 1) == 5470
    assert theorem_bound(SequenceKind.PARTITION, 2, 2) == 9658
    assert theorem_bound(SequenceKind.PARTITION, 16, 1) == 9658
    assert theorem_bound(SequenceKind.PLANE_PARTITION, 10, 1) == 266051


@pytest.mark.parametrize("kind, base, t", [
    (SequenceKind.PARTITION, 10, 28),
    (SequenceKind.PARTITION, 16, 24),
    (SequenceKind.PLANE_PARTITION, 10, 35),
    (SequenceKind.PLANE_PARTITION, 16, 30),
])
def test_theorem_bound_is_the_ceiling_of_the_closed_form(kind, base, t):
    # the closed form at 2048 bits, far more than these ceilings need; a
    # horizon evaluated at a fixed 192 bits lands a few units above them
    coeff, exponent = (290, 2) if kind is SequenceKind.PARTITION else (29396, mpmath.mpf(3) / 2)
    with mpmath.workprec(2048):
        exact = coeff * (mpmath.mpf(base) ** t / mpmath.log(base)) ** exponent
        expected = int(mpmath.ceil(exact))
    assert theorem_bound(kind, base, t) == expected


def test_theorem_bound_guards():
    with pytest.raises(ValueError):
        theorem_bound(SequenceKind.PARTITION, 2, 1)
    with pytest.raises(ValueError):
        theorem_bound(SequenceKind.PARTITION, 10, 0)
    with pytest.raises(ValueError):
        theorem_bound(SequenceKind.PARTITION, 1, 1)


def test_instantiations():
    p = instantiate_p(10)
    assert p.K == 4 and _mid(p.theta) == 0.5
    assert sup(p.c2) < 0 and inf(p.c1) > 0
    pl = instantiate_pl(10)
    assert pl.K == 2829
    assert abs(_mid(pl.theta) - 2 / 3) < 1e-50
    with pytest.raises(ValueError):
        instantiate_p(1)
    with pytest.raises(ValueError):
        instantiate_pl(0)


def test_main_term_matches_estimate_midpoint(main_term):
    params = instantiate_p(10)
    for n in (4, 100, 5000):
        est = log_p_estimate(n, 10)
        assert _overlaps(main_term(params, n), est.midpoint)
    with pytest.raises(ValueError):
        main_term(params, 0)


def test_find_m_first_candidate_hits():
    g = lambda m: iv.mpf(m) + iv.mpf(1) / 4
    assert find_m_a_delta(g, 7, Fraction(1, 5), Fraction(1, 4), 20) == 7


def test_find_m_not_found():
    g = lambda m: iv.mpf(m)  # fractional part always 0
    assert find_m_a_delta(g, 1, Fraction(1, 2), Fraction(1, 10), 30) is None


def test_find_m_guards():
    g = lambda m: iv.mpf(m) / 7
    with pytest.raises(ValueError):
        find_m_a_delta(g, 0, 0, Fraction(1, 2), 10)
    with pytest.raises(ValueError):
        find_m_a_delta(g, 5, 0, Fraction(1, 2), 4)
    with pytest.raises(ValueError):
        find_m_a_delta(g, 1, 0, 0, 10)
    with pytest.raises(ValueError):
        find_m_a_delta(g, 1, -0.5, Fraction(1, 4), 10)
    with pytest.raises(ValueError):
        find_m_a_delta(g, 1, 0.9, 0.5, 10)


def test_find_m_full_window_accepts_boundary_sum():
    # a + delta enclosing exactly 1 must not trip the validation
    ctx = interval_context(192)
    a = ctx.log(9) / ctx.log(10)
    delta = 1 - a
    g = lambda m: iv.mpf(m) + iv.mpf("0.96")
    assert find_m_a_delta(g, 1, a, delta, 10) == 1


def test_find_m_undecidable_window_straddle():
    g = lambda m: iv.mpf([0.1, 0.3])
    with pytest.raises(UndecidableMembershipError) as err:
        find_m_a_delta(g, 3, Fraction(1, 5), Fraction(3, 10), 10)
    assert err.value.m == 3


def test_find_m_integer_straddle():
    # wide values around an integer: fine when the window clears both
    # fringes, undecidable when it touches one
    g = lambda m: iv.mpf([m - 0.01, m + 0.01])
    assert find_m_a_delta(g, 1, Fraction(3, 10), Fraction(3, 10), 5) is None
    with pytest.raises(UndecidableMembershipError):
        find_m_a_delta(g, 1, 0, Fraction(1, 2), 5)
    # wider than one integer: some fractional part lies in every window
    wide = lambda m: iv.mpf([m - 0.5, m + 0.75])
    with pytest.raises(UndecidableMembershipError):
        find_m_a_delta(wide, 1, Fraction(3, 10), Fraction(3, 10), 5)
    # ending exactly on an integer: fractional part 0 is possible, so a
    # window from 0 is undecided and a window clear of 0 is missed
    ends = lambda m: iv.mpf([m - 0.5, m])
    with pytest.raises(UndecidableMembershipError):
        find_m_a_delta(ends, 1, 0, Fraction(1, 4), 5)
    assert find_m_a_delta(ends, 1, Fraction(1, 10), Fraction(3, 20), 5) is None
    # starting exactly on an integer: decided, fractional part in [0, 1/4]
    starts = lambda m: iv.mpf([m, m + 0.25])
    assert find_m_a_delta(starts, 2, 0, Fraction(1, 2), 5) == 2


def test_find_m_against_search_oracle(p_table):
    # scan log10 p(n) from K = 4 and compare with the frozen first hits of
    # the digit search; interior witnesses agree, boundary values raise
    from partdigits.digits import DigitString, log_value_interval, target_interval

    def g(m):
        return log_value_interval(p_table[m], 10)

    expected = {1: 6, 2: 8, 8: 32, 9: 60}
    boundary = {3: 9, 4: 4, 5: 4, 6: 5, 7: 5}
    for digit, m_expected in expected.items():
        ti = target_interval(DigitString.parse(str(digit), 10))
        assert find_m_a_delta(g, 4, ti.lo, ti.delta, 200) == m_expected
    for digit, m_err in boundary.items():
        ti = target_interval(DigitString.parse(str(digit), 10))
        with pytest.raises(UndecidableMembershipError) as err:
            find_m_a_delta(g, 4, ti.lo, ti.delta, 200)
        assert err.value.m == m_err
