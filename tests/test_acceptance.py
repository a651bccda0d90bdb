"""Top-level acceptance checks, one per shipped guarantee.

Each test prints a single [ACCEPTANCE k] PASS/FAIL line before asserting,
so a plain pytest -s run doubles as the acceptance report.
"""
from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import mpmath

from partdigits import (
    DigitString,
    FrameworkParams,
    SequenceKind,
    SequenceTable,
    brute_force_p,
    brute_force_pl,
    compute_bounds,
    decide_membership,
    eval_constants,
    find_m_a_delta,
    frac_log,
    instantiate_p,
    instantiate_pl,
    leading_digits,
    log_p_estimate,
    log_pl_estimate,
    log_value_interval,
    target_interval,
    theorem_bound,
    verify_theorem,
)
from partdigits.certified import inf, interval_context, sup


def _report(number: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {number}] {label}: {status}{suffix}")
    return ok


def test_acceptance_1_recurrences_match_enumeration():
    started = time.monotonic()
    p = SequenceTable(SequenceKind.PARTITION).extend(30)
    pl = SequenceTable(SequenceKind.PLANE_PARTITION).extend(10)
    p_ok = all(p[n] == brute_force_p(n) for n in range(31))
    pl_ok = all(pl[n] == brute_force_pl(n) for n in range(11))
    elapsed = time.monotonic() - started
    ok = p_ok and pl_ok and elapsed < 10
    assert _report(
        1, "exact engines vs enumeration oracles", ok,
        f"p<=30 {'ok' if p_ok else 'MISMATCH'}, pl<=10 {'ok' if pl_ok else 'MISMATCH'}, {elapsed:.1f}s",
    )


def test_acceptance_2_partition_log_envelope(p_table):
    violations = 0
    first_bad = None
    for b in (2, 10):
        for n in range(4, 50_001):
            est = log_p_estimate(n, b)
            if not est.contains(log_value_interval(p_table[n], b)):
                violations += 1
                first_bad = first_bad or (n, b)
    ok = violations == 0
    assert _report(
        2, "partition log envelope on 4..5e4, b in {2,10}", ok,
        "zero violations" if ok else f"{violations} violations, first {first_bad}",
    )


def test_acceptance_3_plane_log_envelope(pl_table):
    violations = 0
    first_bad = None
    for b in (2, 10):
        for n in range(2829, 20_001):
            est = log_pl_estimate(n, b)
            if not est.contains(log_value_interval(pl_table[n], b)):
                violations += 1
                first_bad = first_bad or (n, b)
    ok = violations == 0
    assert _report(
        3, "plane-partition log envelope on 2829..2e4, b in {2,10}", ok,
        "zero violations" if ok else f"{violations} violations, first {first_bad}",
    )


def _certified_distance(x, ref) -> float:
    # ref, a value of the 256-bit context, goes on the left so that the
    # difference rounds at 256 bits
    diff = ref - x
    return float(max(abs(inf(diff)), abs(sup(diff))))


def test_acceptance_4_instantiation_closed_forms():
    tol = 1e-20
    worst = 0.0
    ctx = interval_context(256)
    a3 = ctx.convert(eval_constants(256).zeta3)
    for b in (2, 10, 16):
        lb = ctx.log(b)
        params_p = instantiate_p(b, 256)
        params_pl = instantiate_pl(b, 256)
        for t in (1, 2, 3):
            delta = Fraction(1, b**t)
            bp = compute_bounds(params_p, delta, 256)
            worst = max(
                worst,
                _certified_distance(bp.L1, 54 / ctx.pi**2),
                _certified_distance(bp.L2, 144 * ctx.mpf(b) ** (2 * t) / lb**2),
                _certified_distance(bp.D, 4 * ctx.sqrt(ctx.mpf(3)) / ctx.pi * lb),
                _certified_distance(bp.L3, 48 / ctx.pi**2 * lb**2),
                _certified_distance(
                    bp.L4, ctx.mpf(3) * ctx.pi**2 / 2 * ctx.mpf(b) ** (2 * t) / lb**2
                ),
            )
            bpl = compute_bounds(params_pl, delta, 256)
            worst = max(
                worst,
                _certified_distance(bpl.L1, 125 / (24 * ctx.sqrt(ctx.mpf(6)) * ctx.sqrt(a3))),
                _certified_distance(
                    bpl.L2,
                    ctx.mpf(600) ** (ctx.mpf(3) / 2)
                    * ctx.mpf(b) ** (ctx.mpf(3 * t) / 2)
                    / lb ** (ctx.mpf(3) / 2),
                ),
                _certified_distance(bpl.D, 2 * lb / a3 ** (ctx.mpf(1) / 3)),
                _certified_distance(
                    bpl.L3, (2 * lb / a3 ** (ctx.mpf(1) / 3)) ** (ctx.mpf(3) / 2)
                ),
            )
    ok = worst <= tol
    assert _report(
        4, "closed-form L thresholds on b in {2,10,16}, t in {1,2,3}", ok,
        f"max certified distance {worst:.2e}",
    )


def test_acceptance_4_plane_l4_below_l2():
    # the remaining clause of the same criterion: L4 < L2 for the
    # plane-partition instantiation at delta = b^-t over the whole grid
    failures = []
    for b in (2, 10, 16):
        params = instantiate_pl(b, 256)
        for t in (1, 2, 3):
            bounds = compute_bounds(params, Fraction(1, b**t), 256)
            if not sup(bounds.L4) < inf(bounds.L2):
                failures.append((b, t))
    ok = not failures
    assert _report(
        4, "plane-partition L4 < L2 across the grid", ok,
        "holds everywhere" if ok else f"violated at (b,t) in {failures}",
    ), f"L4 < L2 fails at {failures}: L4/L2 scale as b^(3t)/b^(3t/2), so the claim breaks once b^t exceeds ~37 ln b"


def test_acceptance_5_theorem_desk_scale(p_table, pl_table):
    failures = []
    for b in range(3, 17):
        report = verify_theorem(SequenceKind.PARTITION, b, 1, table=p_table)
        if not report.all_within_bound:
            failures.append(("p", b, 1))
    if not verify_theorem(SequenceKind.PARTITION, 2, 2, table=p_table).all_within_bound:
        failures.append(("p", 2, 2))
    if not verify_theorem(SequenceKind.PLANE_PARTITION, 10, 1, table=pl_table).all_within_bound:
        failures.append(("pl", 10, 1))
    # bounds must come from the published closed forms
    ctx = interval_context(192)
    formula_p = ctx.mpf(290) * 100 / ctx.log(10) ** 2
    formula_pl = ctx.mpf(29396) * ctx.mpf(10) ** (ctx.mpf(3) / 2) / ctx.log(10) ** (ctx.mpf(3) / 2)
    bounds_ok = (
        theorem_bound(SequenceKind.PARTITION, 10, 1) == int(mpmath.ceil(sup(formula_p)))
        and theorem_bound(SequenceKind.PLANE_PARTITION, 10, 1) == int(mpmath.ceil(sup(formula_pl)))
    )
    ok = not failures and bounds_ok
    assert _report(
        5, "first hits within the closed-form bounds (p: b 3..16 and (2,2); pl: (10,1))", ok,
        "all within bound" if ok else f"failures {failures}, bounds_ok {bounds_ok}",
    )


def test_acceptance_6_framework_soundness():
    cap = 1.0 - 1e-6
    rng = random.Random(46045)
    started = time.monotonic()
    failures = 0
    for i in range(200):
        while True:
            theta = rng.uniform(0.35, 0.62)
            c1 = rng.uniform(0.4, 3.0)
            c2 = -rng.uniform(0.01, 1.2)
            c3 = rng.uniform(-3.0, 3.0)
            c4 = rng.uniform(0.05, 2.0)
            big_k = rng.randint(1, 50)
            delta = rng.uniform(0.03, 0.4)
            a = rng.uniform(0.0, 1.0 - delta)
            params = FrameworkParams(c1=c1, c2=c2, c3=c3, c4=c4, theta=theta, K=big_k)
            bounds = compute_bounds(params, delta)
            if bounds.bound <= 20_000:
                break
        adversarial = i % 2 == 1
        hi = a + delta

        def g(n):
            h = c1 * n**theta + c2 * math.log(n) + c3
            scale = c4 * n**-theta
            if adversarial:
                # a legal noise term that tries to dodge the window
                for u in (cap, -cap):
                    if not a <= (h + scale * u) % 1.0 < hi:
                        return h + scale * u
                return h + scale * cap
            return h + scale * rng.uniform(-cap, cap)

        hit = find_m_a_delta(g, params.K, a, delta, bounds.bound)
        if hit is None or hit > bounds.bound:
            failures += 1
    elapsed = time.monotonic() - started
    ok = failures == 0 and elapsed < 60
    assert _report(
        6, "200 randomized/adversarial instances hit within the bound", ok,
        f"failures {failures}, {elapsed:.1f}s",
    )


def test_acceptance_7_window_round_trip():
    # decide_membership falls back to extraction where the certified window
    # test is undecided, so the window test is also checked on its own: it
    # is never the opposite of extraction, and undecided only on a window
    # endpoint, n = f b^k or (f + 1) b^k.  Only low - 1, just below the
    # window, gives it values off an endpoint to certify outside
    rng = random.Random(990_417)
    checks = 0
    mismatches = 0
    decided = undecided = wrong = stray = 0
    started = time.monotonic()
    for _ in range(2500):
        b = rng.randint(2, 16)
        t = rng.randint(2 if b == 2 else 1, 3)
        fv = rng.randint(b ** (t - 1), b**t - 1)
        f = DigitString(b, t, fv)
        ti = target_interval(f)
        z = rng.randint(0, 12)
        low, high = fv * b**z, (fv + 1) * b**z - 1
        outside = high + 1
        for n in (low, high, rng.randint(low, high), outside, low - 1):
            if n < b ** (t - 1):  # fewer than t digits
                continue
            truth = leading_digits(n, b, t) == f
            decision, _ = decide_membership(n, ti)
            checks += 1
            if decision != truth:
                mismatches += 1
            certified = ti.contains(frac_log(n, b))
            if certified is None:
                undecided += 1
                stray += all(n not in (fv * b**k, (fv + 1) * b**k) for k in range(z + 1))
            else:
                decided += 1
                wrong += certified != truth
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and checks >= 10_000 and wrong == stray == 0
    assert _report(
        7, "digit extraction vs window membership on boundary-heavy samples", ok,
        f"{checks} checks, {mismatches} mismatches; window test alone: {decided} decided, "
        f"{wrong} wrong, {undecided} undecided, {stray} off an endpoint; {elapsed:.1f}s",
    )


def test_acceptance_8_log_doubling_bound():
    started = time.monotonic()
    bad = 0
    for k in range(-50_000, 50_001):
        x = k / 100_000
        if abs(math.log1p(x)) > 2 * abs(x):
            bad += 1
    elapsed = time.monotonic() - started
    # certified spot confirmation on the dyadic subgrid
    ctx = interval_context(64)
    for k in range(-512, 513):
        xi = ctx.mpf(k) / 1024
        lhs = ctx.log(1 + xi)
        if sup(abs(lhs)) > inf(2 * abs(xi)):
            bad += 1
    ok = bad == 0 and elapsed < 1
    assert _report(
        8, "|log(1+x)| <= 2|x| on the 1e5-point grid of [-1/2, 1/2]", ok,
        f"violations {bad}, grid {elapsed:.2f}s",
    )
