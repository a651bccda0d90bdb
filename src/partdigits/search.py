"""Leading-digit search over the exact tables, plus bound verification.

Search, verify and census are thin callers of one exact scan,
`scan_heads`, which yields the first t base-b digits of each table value
as an integer.  It carries the divisor b^(d-t) from one n to the next
instead of counting digits and raising a fresh power per value, so an
index costs one bignum division with a t-digit quotient.  Every first
hit is re-confirmed by `leading_digits` before it is reported.

`decide_membership`, the certified fractional-log window test, is not on
the scan path: on p(5e4) in base 10 it takes 95 us per value against
6-11 us for exact extraction (best of three rounds of 2,000 values;
CPython 3.11, pure-Python mpmath, 2-core x86 VM).  It stays as library
API for audits of the certified layer.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from .asymptotics import theorem_bound
from .certified import DEFAULT_PRECISION
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
from .engines import ResourceLimitError, SequenceKind, SequenceTable

METHOD_EXACT = "exact"

_GROWTH_CHUNK = 256


@dataclass
class SearchResult:
    f: DigitString
    kind: SequenceKind
    n_min: int | None
    value_digit_count: int | None
    method: str
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


def decide_membership(
    value: int, target: TargetInterval, precision: int = DEFAULT_PRECISION
) -> tuple[bool, bool]:
    """Does `value` start with target.f?  Returns (decision, used_exact_fallback).

    A value below b^(t-1) has fewer than t digits and is decided exactly:
    a power of b there has its log on the window's endpoint for f = b^(t-1),
    and the log test would count it in.  Otherwise runs the certified
    fractional-log test at `precision`, and falls back to exact digit
    extraction when the enclosure straddles a window endpoint, which
    happens when value is within rounding of f*b^z or (f+1)*b^z.  A value
    at an endpoint itself straddles it at every precision, so the test is
    not retried at a higher one.
    """
    f = target.f
    if value < f.base ** (f.t - 1):
        return False, True
    decision = target.contains(frac_log(value, f.base, precision=precision))
    if decision is not None:
        return decision, False
    return leading_digits(value, f.base, f.t) == f, True


def scan_heads(table: SequenceTable, base: int, t: int, start: int, stop: int):
    """Yield (n, head) for n = start..stop, head the first t base-b digits of table[n].

    Values with fewer than t digits are skipped.  The table grows in
    chunks of _GROWTH_CHUNK entries, never past `stop`, and only as far
    as the caller consumes the scan.  The divisor b^(d-t), d the digit
    count, is carried forward and multiplied by b whenever the head
    outgrows t digits; p and PL never decrease, so it never shrinks.  A
    value smaller than the previous one gets its divisor from digit_count.
    A chunk the memory budget cannot hold raises ResourceLimitError only
    when it stops short of n: the entries that fit are scanned first.
    """
    threshold = base ** (t - 1)
    top = base**t
    div = 1
    prev = 0
    for n in range(start, stop + 1):
        if n > table.last_index:
            try:
                table.extend(min(stop, max(n, table.last_index + _GROWTH_CHUNK)))
            except ResourceLimitError:
                if n > table.last_index:
                    raise
        value = table[n]
        if value < threshold:
            continue
        if value < prev:
            div = base ** (digit_count(value, base) - t)
        prev = value
        head = value // div
        while head >= top:
            div *= base
            head //= base
        yield n, head


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
        method=METHOD_EXACT,
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
    for n, head in scan_heads(table, f.base, f.t, 0, limit):
        if head == target:
            return _result(kind, f, n, table, bound)
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
    every digit string has been seen.  No precision enters it.
    """
    kind = SequenceKind(kind)
    started = time.monotonic()
    bound = theorem_bound(kind, base, t)
    table = _table_for(kind, table)
    strings = all_digit_strings(base, t)
    first_hit: dict[int, int] = {}
    for n, head in scan_heads(table, base, t, 0, bound):
        if head not in first_hit:
            first_hit[head] = n
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
    census.
    """
    kind = SequenceKind(kind)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    check_digit_domain(base, t)
    table = _table_for(kind, table)
    counts = Counter(head for _, head in scan_heads(table, base, t, 1, N))
    return {DigitString(base, t, head): counts[head] for head in sorted(counts)}

