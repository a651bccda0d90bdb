"""The checks that `selftest` runs at reduced scale and the acceptance suite
at full scale: one definition each, taking its range, sample size or seed.
`cli` imports this module for `selftest` only."""
from __future__ import annotations

import random

from .asymptotics import PL_VALID_FROM, P_VALID_FROM, log_p_estimate, log_pl_estimate
from .certified import inf, interval_context, sup
from .digits import DigitString, frac_log, leading_digits, log_value_interval, target_interval
from .engines import SequenceKind, SequenceTable, brute_force_p, brute_force_pl

_ORACLE = {SequenceKind.PARTITION: brute_force_p, SequenceKind.PLANE_PARTITION: brute_force_pl}
_ESTIMATE = {SequenceKind.PARTITION: (log_p_estimate, P_VALID_FROM),
             SequenceKind.PLANE_PARTITION: (log_pl_estimate, PL_VALID_FROM)}


def enumeration_mismatches(table: SequenceTable, top: int) -> list[int]:
    """The n in 0..top at which the table differs from its enumeration oracle."""
    return [n for n in range(top + 1) if table[n] != _ORACLE[table.kind](n)]


def congruence_failures(p_table: SequenceTable) -> list[tuple[int, int]]:
    """(modulus, n) for each n of the p table that breaks one of Ramanujan's
    congruences p(5k+4) = 0 mod 5, p(7k+5) = 0 mod 7, p(11k+6) = 0 mod 11:
    an oracle over the whole table that shares nothing with the pentagonal
    recurrence."""
    return [(m, n) for m, r in ((5, 4), (7, 5), (11, 6))
            for n in range(r, len(p_table), m) if p_table[n] % m]


def envelope_violations(table: SequenceTable, stop: int, bases) -> list:
    """(n, b) for each n from the kind's valid_from to stop and base b, base
    by base, at which the kind's log estimate does not contain the certified
    log of table[n]."""
    estimate, start = _ESTIMATE[table.kind]
    return [(n, b) for b in bases for n in range(start, stop + 1)
            if not estimate(n, b).contains(log_value_interval(table[n], b))]


def log_doubling_violations(precision: int) -> list[int]:
    """The k in -512..512 at which the certified enclosures at `precision`
    bits do not show |log(1 + x)| <= 2|x| for x = k/1024."""
    ctx = interval_context(precision)
    xs = {k: ctx.mpf(k) / 1024 for k in range(-512, 513)}
    return [k for k, x in xs.items() if sup(abs(ctx.log(1 + x))) > inf(2 * abs(x))]


def window_roundtrip(seed: int, samples: int, max_z: int, above: bool = False):
    """(checked, decided, undecided, wrong, stray) for the certified window
    test alone, with no extraction fallback, over `samples` random windows.

    Each draws b in 2..16, a t-digit f and z in 0..max_z, and checks n =
    f b^z, (f+1) b^z - 1, one n between, f b^z - 1 and, with `above`,
    (f+1) b^z.  `wrong` counts the n that extraction misplaces or that the
    window test puts opposite to extraction; `stray` the undecided n off
    every window endpoint f b^k, (f+1) b^k with k <= z.
    """
    rng = random.Random(seed)
    checked = undecided = wrong = stray = 0
    for _ in range(samples):
        b = rng.randint(2, 16)
        t = rng.randint(2 if b == 2 else 1, 3)
        fv = rng.randint(b ** (t - 1), b**t - 1)
        f = DigitString(b, t, fv)
        window = target_interval(f)
        z = rng.randint(0, max_z)
        low, high = fv * b**z, (fv + 1) * b**z - 1
        for n in (low, high, rng.randint(low, high), low - 1) + ((high + 1,) if above else ()):
            if n < b ** (t - 1):  # fewer than t digits
                continue
            checked += 1
            extracted = leading_digits(n, b, t) == f
            certified = window.contains(frac_log(n, b))
            wrong += extracted != (low <= n <= high) or certified == (not extracted)
            if certified is None:
                undecided += 1
                stray += all(n not in (fv * b**k, (fv + 1) * b**k) for k in range(z + 1))
    return checked, checked - undecided, undecided, wrong, stray
