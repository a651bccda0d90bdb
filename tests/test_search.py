"""Leading-digit search, theorem verification, census, serialization."""
from __future__ import annotations

import random

import pytest

from partdigits import (
    DigitString,
    ResourceLimitError,
    SequenceKind,
    SequenceTable,
    decide_membership,
    digit_census,
    find_min_n,
    leading_digits,
    target_interval,
    verify_theorem,
)
from partdigits.cli import RESULT_FIELDS, _emit, _result_row
from partdigits.digits import digit_count
from partdigits.search import scan_runs

P_FIRST_HITS = {1: 0, 2: 2, 3: 3, 4: 10, 5: 4, 6: 20, 7: 5, 8: 32, 9: 60}
PL_FIRST_HITS = {1: 0, 2: 5, 3: 2, 4: 6, 5: 10, 6: 3, 7: 20, 8: 7, 9: 37}


def _naive_first_hit(table, text: str, base: int, limit: int):
    # independent oracle: digit strings via repeated division, no logarithms
    target = tuple(int(ch) for ch in text)
    t = len(target)
    for n in range(limit + 1):
        value = table[n]
        digs = []
        while value:
            value, r = divmod(value, base)
            digs.append(r)
        digs.reverse()
        if len(digs) >= t and tuple(digs[:t]) == target:
            return n
    return None


def test_find_min_n_partition_digits(p_table):
    for digit, expected in P_FIRST_HITS.items():
        r = find_min_n(SequenceKind.PARTITION, DigitString.parse(str(digit), 10), table=p_table)
        assert r.n_min == expected
        assert r.within_bound and r.bound == 5470
        assert leading_digits(p_table[r.n_min], 10, 1).text() == str(digit)


def test_find_min_n_plane_digits(pl_table):
    for digit, expected in PL_FIRST_HITS.items():
        r = find_min_n(SequenceKind.PLANE_PARTITION, DigitString.parse(str(digit), 10), table=pl_table)
        assert r.n_min == expected
        assert r.within_bound and r.bound == 266051


def test_find_min_n_binary_and_two_digit(p_table):
    assert find_min_n(SequenceKind.PARTITION, DigitString.parse("10", 2), table=p_table).n_min == 2
    assert find_min_n(SequenceKind.PARTITION, DigitString.parse("11", 2), table=p_table).n_min == 3
    r = find_min_n(SequenceKind.PARTITION, DigitString.parse("10", 10), table=p_table)
    assert r.n_min == 13  # p(13) = 101
    assert r.value_digit_count == 3


def test_find_min_n_agrees_with_naive_oracle(p_table, pl_table):
    for kind, table in ((SequenceKind.PARTITION, p_table), (SequenceKind.PLANE_PARTITION, pl_table)):
        for digit in range(1, 10):
            r = find_min_n(kind, DigitString.parse(str(digit), 10), table=table)
            assert r.n_min == _naive_first_hit(table, str(digit), 10, 100)
    for text in ("10", "19", "31", "99"):
        r = find_min_n(SequenceKind.PARTITION, DigitString.parse(text, 10), table=p_table)
        assert r.n_min == _naive_first_hit(p_table, text, 10, 500)


def test_find_min_n_not_found_and_monotone_limit(p_table):
    f9 = DigitString.parse("9", 10)
    assert find_min_n(SequenceKind.PARTITION, f9, 10, table=p_table) is None
    at_edge = find_min_n(SequenceKind.PARTITION, f9, 60, table=p_table)
    assert at_edge.n_min == 60
    full = find_min_n(SequenceKind.PARTITION, f9, table=p_table)
    assert full.n_min == at_edge.n_min


def test_find_min_n_guards(p_table):
    f = DigitString.parse("7", 10)
    with pytest.raises(ValueError):
        find_min_n(SequenceKind.PARTITION, f, -1, table=p_table)
    with pytest.raises(ValueError):
        find_min_n(SequenceKind.PLANE_PARTITION, f, table=p_table)


def test_decide_membership_audit(p_table):
    # certified decisions always agree with exact extraction
    rng = random.Random(3)
    checked = 0
    for _ in range(500):
        n = rng.randint(1, 50_000)
        value = p_table[n]
        b = rng.choice((2, 10, 16))
        t = rng.randint(2 if b == 2 else 1, 3)
        threshold = b ** (t - 1)
        truth = leading_digits(value, b, t)
        for f in {truth, DigitString(b, t, rng.randint(threshold, b**t - 1))}:
            decision, _ = decide_membership(value, target_interval(f))
            assert decision == (truth == f)
            checked += 1
    assert checked > 400
    # short values too, against f = b^(t-1): a power of b has its log on the
    # window's lower endpoint, yet with fewer than t digits it is no hit
    for b in (2, 10, 16):
        for t in range(2 if b == 2 else 1, 4):
            f = DigitString(b, t, b ** (t - 1))
            for value in (1, b, b**2, 3, b + 1, 5 * b - 1):
                truth = value >= b ** (t - 1) and leading_digits(value, b, t) == f
                decision, _ = decide_membership(value, target_interval(f))
                assert decision == truth, (value, b, t)


def _exact_heads(table, base, t, start, stop):
    threshold = base ** (t - 1)
    return [
        (n, leading_digits(table[n], base, t).value)
        for n in range(start, stop + 1)
        if table[n] >= threshold
    ]


def _scanned_heads(table, base, t, start, stop):
    """scan_runs flattened to (n, head), checking that each run has one digit count."""
    flat = []
    for n0, heads in scan_runs(table, base, t, start, stop):
        assert heads and len({digit_count(table[n], base) for n in range(n0, n0 + len(heads))}) == 1
        flat.extend(enumerate(heads, n0))
    return flat


def _base_lengths():
    for base in (2, 3, 10, 16):
        for t in range(2 if base == 2 else 1, 5):
            yield base, t


def test_scan_heads_matches_exact_extraction(p_table, pl_table):
    # each run's one division gives the exact head at every index, and
    # exactly the indices whose value has at least t digits
    for table, stop in ((p_table, 5000), (pl_table, 1500)):
        for base, t in _base_lengths():
            scanned = _scanned_heads(table, base, t, 0, stop)
            assert scanned == _exact_heads(table, base, t, 0, stop), (table.kind, base, t)


def test_scan_heads_census_start_and_grown_table():
    grown = SequenceTable(SequenceKind.PLANE_PARTITION).extend(300)
    for base, t in _base_lengths():
        assert _scanned_heads(grown, base, t, 1, 400) == _exact_heads(grown, base, t, 1, 400)
    assert grown.last_index == 400  # grown to `stop`, not past it


def test_scan_heads_start_and_stop_on_run_edges(p_table):
    # the last index whose value has d digits, the first with d + 1, and
    # an index inside a run, each as a start and as a stop
    for base, t in ((2, 3), (10, 2), (16, 1)):
        counts = [digit_count(p_table[n], base) for n in range(2001)]
        first = next(n for n in range(1000, 2001) if counts[n] > counts[n - 1])
        last = first - 1
        end = next(n for n in range(first, 2000) if counts[n + 1] > counts[n])
        middle = (first + end) // 2
        assert counts[last] < counts[first] == counts[middle]
        for start in (last, first, middle):
            for stop in (last, first, middle, 2000):
                if start <= stop:
                    assert _scanned_heads(p_table, base, t, start, stop) == _exact_heads(
                        p_table, base, t, start, stop
                    ), (base, t, start, stop)


def test_scan_heads_grows_only_as_far_as_consumed():
    table = SequenceTable(SequenceKind.PARTITION)
    scan = scan_runs(table, 10, 3, 0, 100_000)
    assert next(n0 + heads.index(727) for n0, heads in scan if 727 in heads) == 521
    assert table.last_index == 768  # three growth chunks, not the horizon or a doubling
    scan.close()


def test_scan_heads_refuses_a_decrease():
    # the scan bisects, so it needs nondecreasing values, and checks them:
    # a decrease anywhere in a run, or a large value hidden among the short
    # ones it skips, raises instead of being miscounted
    class Stub(list):
        @property
        def last_index(self):
            return len(self) - 1

        def values(self, lo, hi):
            return self[lo:hi]

    for values, base, t in (
        ([1, 5000, 7, 123456, 12, 99, 100000, 3456], 10, 1),
        ([10, 20, 30, 15, 150, 20, 300], 10, 2),
        ([1, 500, 2, 3, 5, 7, 11, 150, 220], 10, 3),  # 500 hidden in the skipped prefix
        ([1, 1, 2, 3, 5000, 7, 11, 15, 22], 10, 3),  # short values after a long one
        ([4, 5, 6, 7, 3], 2, 2),
        ([1, 2, 30, 4, 5], 10, 1),  # a long value inside a run of short ones
    ):
        stub = Stub(values)
        with pytest.raises(RuntimeError, match="decreases"):
            list(scan_runs(stub, base, t, 0, stub.last_index))
    # the same values sorted scan as usual
    stub = Stub(sorted([1, 5000, 7, 123456, 12, 99, 100000, 3456]))
    assert _scanned_heads(stub, 10, 2, 0, stub.last_index) == _exact_heads(
        stub, 10, 2, 0, stub.last_index
    )


def test_scans_parse_only_the_cache_chunks_they_read(tmp_path):
    # a 24,001-entry cache holds 94 frames of up to 256 entries
    path = tmp_path / "p.table"
    SequenceTable(SequenceKind.PARTITION).extend(24000).save(path)
    loaded = SequenceTable.load(path)
    digit_census(SequenceKind.PARTITION, 10, 1, 1500, table=loaded)
    assert loaded._unparsed_chunks == 88  # the six frames 0..1535 read
    assert None not in loaded._values[:1536]
    assert all(v is None for v in loaded._values[1536:])
    loaded = SequenceTable.load(path)
    assert verify_theorem(SequenceKind.PARTITION, 10, 1, table=loaded).max_n_min == 60
    assert loaded._unparsed_chunks == 93  # the frame 0..255 read
    assert all(v is None for v in loaded._values[256:])


def test_verify_theorem_partition(p_table):
    report = verify_theorem(SequenceKind.PARTITION, 10, 1, table=p_table)
    assert report.base == 10 and report.t == 1
    assert len(report.results) == 9
    assert report.all_within_bound
    assert report.max_n_min == 60
    assert report.runtime_seconds >= 0
    # deterministic order, and agreement with per-digit search
    for r, (digit, expected) in zip(report.results, sorted(P_FIRST_HITS.items())):
        assert r.f.text() == str(digit)
        assert r.n_min == expected
        assert r.within_bound


def test_verify_theorem_fresh_table_metadata():
    report = verify_theorem(SequenceKind.PARTITION, 10, 1)
    assert report.table_entries == 257  # one growth chunk covers the scan
    assert report.max_n_min == 60


def test_verify_theorem_plane(pl_table):
    report = verify_theorem(SequenceKind.PLANE_PARTITION, 10, 1, table=pl_table)
    assert report.all_within_bound
    assert report.max_n_min == 37
    assert [r.n_min for r in report.results] == [PL_FIRST_HITS[d] for d in range(1, 10)]


def test_verify_theorem_budget_preflight():
    table = SequenceTable(SequenceKind.PLANE_PARTITION, memory_budget=10_000)
    with pytest.raises(ResourceLimitError):
        verify_theorem(SequenceKind.PLANE_PARTITION, 10, 1, table=table)
    # the budget is charged entry by entry, so the table never exceeds it
    assert table.estimated_bytes <= table.memory_budget


def test_digit_census_empty_and_accounting(p_table):
    assert digit_census(SequenceKind.PARTITION, 10, 1, 0, table=p_table) == {}
    # two-digit census skips exactly the n with p(n) < 10, i.e. n <= 5
    counts = digit_census(SequenceKind.PARTITION, 10, 2, 50, table=p_table)
    assert sum(counts.values()) == 45
    counts = digit_census(SequenceKind.PARTITION, 2, 2, 20, table=p_table)
    assert sum(counts.values()) == 19  # only p(1) = 1 lacks two binary digits


def test_digit_census_guards(p_table):
    with pytest.raises(ValueError):
        digit_census(SequenceKind.PARTITION, 10, 1, -1, table=p_table)
    with pytest.raises(ValueError):
        digit_census(SequenceKind.PARTITION, 2, 1, 10, table=p_table)
    tiny = SequenceTable(SequenceKind.PARTITION, memory_budget=10_000)
    with pytest.raises(ResourceLimitError):
        digit_census(SequenceKind.PARTITION, 10, 1, 10**6, table=tiny)


def test_results_csv_layout(p_table, capsys):
    from partdigits import SearchResult

    r = find_min_n(SequenceKind.PARTITION, DigitString.parse("4", 10), table=p_table)
    # a not-found result leaves the n_min cell empty
    missing = SearchResult(
        f=DigitString.parse("9", 10), kind=SequenceKind.PARTITION, n_min=None,
        value_digit_count=None, bound=100, within_bound=False,
    )
    _emit("csv", None, RESULT_FIELDS, [_result_row(r), _result_row(missing)], ())
    assert capsys.readouterr().out.splitlines() == [
        "f,n_min,bound,within_bound",
        "4,10,5470,True",
        "9,,100,False",
    ]
