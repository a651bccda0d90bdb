"""Leading-digit search over the exact tables, plus bound verification.

Search, verify and census are thin callers of one exact scan,
`scan_runs`, which yields the first t base-b digits of the table values
as runs of integers.  p and PL never decrease, so bisection splits each
window of the table into runs of one digit count d, and a run's heads
are one C-level map of floor division by b^(d-t).  On a built p table to
n = 24,000 a census costs 0.3-0.5 us per entry this way, against
0.5-1.0 us for a Python generator step per entry carrying the divisor
(best of 7 calls, five rounds alternating the two; CPython 3.11, 2-core
x86 VM).  Every first hit is re-confirmed by `leading_digits` before it
is reported.  The scan decides every result, so a result names no
decision tier.

`decide_membership`, the certified fractional-log window test with an
extraction fallback, is on no program path: on p(48001..50000) in base
10, window "1", it takes 13-19 us per value against 3.0-3.2 us for exact
extraction (the two alternating, 2 x 5 rounds of 2,000 values; CPython
3.11.7, pure-Python mpmath 1.3.0, 2-core Intel Xeon x86 VM).  It stays as
library API for audits of the certified layer.
"""
from __future__ import annotations

import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .asymptotics import theorem_bound
from .digits import (
    DigitString,
    TargetInterval,
    all_digit_strings,
    check_digit_domain,
    digit_count,
    frac_log,
    leading_digits,
    target_interval,  # not called here: bench/tracer.py wraps search.target_interval
)
from .engines import ResourceLimitError, SequenceKind, SequenceTable, _int_size

_GROWTH_CHUNK = 256


@dataclass
class SearchResult:
    f: DigitString
    kind: SequenceKind
    n_min: int | None
    value_digit_count: int | None
    bound: int
    within_bound: bool


@dataclass
class VerificationReport:
    kind: SequenceKind
    base: int
    t: int
    results: list[SearchResult]
    max_n_min: int | None
    all_within_bound: bool
    table_entries: int
    runtime_seconds: float


def decide_membership(value: int, target: TargetInterval) -> tuple[bool, bool]:
    """Does `value` start with target.f?  Returns (decision, used_exact_fallback).

    A value below b^(t-1) has fewer than t digits and is decided exactly:
    a power of b there has its log on the window's endpoint for f = b^(t-1),
    and the log test would count it in.  Otherwise runs the certified
    fractional-log test at DEFAULT_PRECISION, and falls back to exact digit
    extraction when the enclosure straddles a window endpoint, which
    happens when value is within rounding of f*b^z or (f+1)*b^z.  A value
    at an endpoint itself straddles it at every precision, so the test is
    not retried at a higher one.
    """
    f = target.f
    if value < f.base ** (f.t - 1):
        return False, True
    decision = target.contains(frac_log(value, f.base))
    if decision is not None:
        return decision, False
    return leading_digits(value, f.base, f.t) == f, True


def scan_runs(table: SequenceTable, base: int, t: int, start: int, stop: int):
    """Yield (n0, heads) over n = start..stop: heads[i] is the first t base-b digits of table[n0 + i].

    Values with fewer than t digits are skipped.  The table is read in
    windows of at most _GROWTH_CHUNK entries; it grows in chunks of that
    size, never past `stop`, and only as far as the caller consumes the
    scan.  p and PL never decrease, so the values below b^(t-1) are a
    prefix, found by bisection, and each window splits by bisection at
    the powers of b into runs of one digit count d, whose heads are one
    division by b^(d-t) each, mapped in C.  Every run is checked to have
    heads of exactly t digits, which holds exactly when all its values
    have d digits, and the skipped prefix to hold only values below
    b^(t-1): a table that decreased raises RuntimeError, never miscounts.
    A chunk the memory budget cannot hold raises ResourceLimitError only
    when it stops short of the next index: the entries that fit are
    scanned first.
    """
    low, top = base ** (t - 1), base**t
    skipping = True  # still in the prefix of values below low
    lo = start
    while lo <= stop:
        if lo > table.last_index:
            try:
                table.extend(min(stop, max(lo, table.last_index + _GROWTH_CHUNK)))
            except ResourceLimitError:
                if lo > table.last_index:
                    raise
        window = table.values(lo, min(stop, table.last_index, lo + _GROWTH_CHUNK - 1) + 1)
        a = bisect_left(window, low)
        if a and (not skipping or max(window[:a]) >= low):
            raise RuntimeError(f"table decreases within n = {lo}..{lo + len(window) - 1}")
        while a < len(window):
            skipping = False
            d = digit_count(window[a], base)
            b = bisect_left(window, base**d, a + 1)
            # in a window that decreases, bisection can stop at a value
            # below low: then d < t, the divisor is 1 and the check below
            # refuses the run
            heads = list(map((base ** max(d - t, 0)).__rfloordiv__, window[a:b]))
            if min(heads) < low or max(heads) >= top:
                raise RuntimeError(f"table decreases within n = {lo + a}..{lo + b - 1}")
            yield lo + a, heads
            a = b
        lo += len(window)


def _table_for(kind: SequenceKind, table: SequenceTable | None) -> SequenceTable:
    if table is None:
        return SequenceTable(kind)
    if table.kind is not kind:
        raise ValueError(f"table holds {table.kind.value}, requested {kind.value}")
    return table


def _result(
    kind: SequenceKind, f: DigitString, n_min: int | None, table: SequenceTable, bound: int
) -> SearchResult:
    """The result for first hit n_min (None: no hit), re-confirmed by exact extraction."""
    value_digits = None
    if n_min is not None:
        value = table[n_min]
        if leading_digits(value, f.base, f.t) != f:
            raise RuntimeError(f"scanned head at n = {n_min} contradicts exact extraction")
        value_digits = digit_count(value, f.base)
    return SearchResult(
        f=f,
        kind=kind,
        n_min=n_min,
        value_digit_count=value_digits,
        bound=bound,
        within_bound=n_min is not None and n_min <= bound,
    )


def find_min_n(
    kind: SequenceKind,
    f: DigitString,
    limit: int | None = None,
    *,
    table: SequenceTable | None = None,
) -> SearchResult | None:
    """Smallest n (from 0) with the table value leading with f, or None.

    An exact scan: no precision enters it.  `limit` defaults to
    theorem_bound(kind, f.base, f.t), the paper's closed-form horizon,
    which is not certified; the result's `bound` is that horizon whatever
    the limit.  Values with fewer than t digits are skipped.  A supplied
    `table` is reused and grown in place.
    """
    kind = SequenceKind(kind)
    bound = theorem_bound(kind, f.base, f.t)
    if limit is None:
        limit = bound
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    table = _table_for(kind, table)
    target = f.value
    for n0, heads in scan_runs(table, f.base, f.t, 0, limit):
        if target in heads:
            return _result(kind, f, n0 + heads.index(target), table, bound)
    return None


def verify_theorem(
    kind: SequenceKind,
    base: int,
    t: int,
    *,
    table: SequenceTable | None = None,
) -> VerificationReport:
    """First hit for every t-digit base-b string, checked against the bound.

    Equivalent to running find_min_n per f over one shared table, done as a
    single exact scan, up to theorem_bound(kind, base, t), that stops once
    every digit string has been seen.  No precision enters it.  Each digit
    string is charged at least the size of its DigitString and SearchResult,
    so a t the memory budget can never hold raises ResourceLimitError before
    any string or entry is built.
    """
    import sys

    kind = SequenceKind(kind)
    started = time.monotonic()
    bound = theorem_bound(kind, base, t)
    table = _table_for(kind, table)
    f = DigitString(base, t, base ** (t - 1))
    count = base**t - f.value
    each = sys.getsizeof(f) + sys.getsizeof(SearchResult(f, kind, None, None, 0, False))
    if (need := count * each) > table.memory_budget:
        raise ResourceLimitError(
            f"verifying {count} digit strings needs at least {need} bytes of per-string "
            f"state, over the memory budget of {table.memory_budget} bytes"
        )
    strings = all_digit_strings(base, t)
    first_hit: dict[int, int] = {}
    for n0, heads in scan_runs(table, base, t, 0, bound):
        for head in set(heads).difference(first_hit):
            first_hit[head] = n0 + heads.index(head)
        if len(first_hit) == len(strings):
            break
    results = [_result(kind, f, first_hit.get(f.value), table, bound) for f in strings]
    found = [r.n_min for r in results if r.n_min is not None]
    return VerificationReport(
        kind=kind,
        base=base,
        t=t,
        results=results,
        max_n_min=max(found) if found else None,
        all_within_bound=all(r.within_bound for r in results),
        table_entries=len(table),
        runtime_seconds=time.monotonic() - started,
    )


def digit_census(
    kind: SequenceKind,
    base: int,
    t: int,
    N: int,
    *,
    table: SequenceTable | None = None,
) -> dict[DigitString, int]:
    """Leading-digit frequency over table entries n = 1..N.

    Returns {digit string: count} for the strings that occur, in increasing
    numeric order; entries whose value has fewer than t digits are skipped,
    so the counts sum to N minus the number skipped.  N = 0 gives an empty
    census.  Every entry is charged at least _int_size(1) bytes, so an N
    the memory budget can never hold raises ResourceLimitError before any
    entry is built.
    """
    kind = SequenceKind(kind)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    check_digit_domain(base, t)
    table = _table_for(kind, table)
    if (need := (N + 1) * _int_size(1)) > table.memory_budget:
        raise ResourceLimitError(
            f"a census to n = {N} needs at least {need} bytes of {kind.value} table, "
            f"over the memory budget of {table.memory_budget} bytes"
        )
    counts: Counter[int] = Counter()
    for _, heads in scan_runs(table, base, t, 1, N):
        counts.update(heads)
    return {DigitString(base, t, head): counts[head] for head in sorted(counts)}

