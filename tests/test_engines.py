"""Exact-engine tests: recurrences vs enumeration oracles, growth, cache."""
from __future__ import annotations

import pytest

from partdigits import (
    CacheFormatError,
    ResourceLimitError,
    SequenceKind,
    SequenceTable,
    brute_force_p,
    brute_force_pl,
    estimate_table_bytes,
    sigma2,
)

P_FIRST = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
PL_FIRST = [1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500]


def test_partition_recurrence_matches_enumeration():
    table = SequenceTable(SequenceKind.PARTITION)
    table.extend(30)
    for n in range(31):
        assert table[n] == brute_force_p(n)


def test_plane_recurrence_matches_enumeration():
    table = SequenceTable(SequenceKind.PLANE_PARTITION)
    table.extend(10)
    for n in range(11):
        assert table[n] == brute_force_pl(n)


def test_small_values_fixed():
    p = SequenceTable(SequenceKind.PARTITION).extend(10)
    pl = SequenceTable(SequenceKind.PLANE_PARTITION).extend(10)
    assert [p[n] for n in range(11)] == P_FIRST
    assert [pl[n] for n in range(11)] == PL_FIRST


def test_known_large_values(p_table):
    assert p_table[100] == 190569292
    assert p_table[1000] == 24061467864032622473692149727991


def test_brute_force_examples():
    assert brute_force_p(0) == 1
    assert brute_force_p(5) == 7
    assert brute_force_p(10) == 42
    assert brute_force_pl(0) == 1
    assert brute_force_pl(2) == 3
    assert brute_force_pl(5) == 24


def test_brute_force_guards():
    with pytest.raises(ValueError):
        brute_force_p(41)
    with pytest.raises(ValueError):
        brute_force_p(-1)
    with pytest.raises(ValueError):
        brute_force_pl(13)
    with pytest.raises(ValueError):
        brute_force_pl(-1)


def test_sigma2_examples():
    assert sigma2(1) == 1
    assert sigma2(4) == 21
    assert sigma2(6) == 50
    assert sigma2(12) == 210
    assert sigma2(100) == 13671
    with pytest.raises(ValueError):
        sigma2(0)


def test_sigma2_against_sieve():
    limit = 500
    sieve = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            sieve[m] += d * d
    for k in range(1, limit + 1):
        assert sigma2(k) == sieve[k]


def test_plane_table_sieve_grown_in_steps():
    # each growth step sieves only the new block of sigma2 entries
    table = SequenceTable(SequenceKind.PLANE_PARTITION)
    for n in (1, 2, 3, 4, 9, 10, 48, 49, 50, 300, 301, 1000):
        table.extend(n)
        assert table._sigma2[1:] == [sigma2(k) for k in range(1, n + 1)], n


def test_monotonicity(p_table, pl_table):
    for n in range(1, 2000):
        assert p_table[n + 1] > p_table[n]
        assert pl_table[n + 1] > pl_table[n]


def test_extension_determinism():
    stepped = SequenceTable(SequenceKind.PLANE_PARTITION)
    stepped.extend(40)
    stepped.extend(120)
    direct = SequenceTable(SequenceKind.PLANE_PARTITION).extend(120)
    assert [stepped[n] for n in range(121)] == [direct[n] for n in range(121)]
    # idempotent when already long enough
    before = stepped[120]
    stepped.extend(50)
    assert stepped.last_index == 120 and stepped[120] == before


def test_table_extend_returns_self():
    table = SequenceTable(SequenceKind.PARTITION).extend(20)
    assert table[20] == 627
    assert table.extend(25) is table and table[25] == 1958


def test_index_and_arg_guards():
    table = SequenceTable(SequenceKind.PARTITION).extend(5)
    with pytest.raises(IndexError):
        table[6]
    with pytest.raises(IndexError):
        table[-1]
    with pytest.raises(ValueError):
        table.extend(-1)
    with pytest.raises(ValueError):
        SequenceTable(SequenceKind.PARTITION, memory_budget=0)


def test_memory_budget_aborts_extension():
    table = SequenceTable(SequenceKind.PARTITION, memory_budget=4096)
    with pytest.raises(ResourceLimitError):
        table.extend(10_000)
    # the failed extension leaves a consistent prefix
    assert table[table.last_index] > 0


def test_estimate_tracks_actual_usage(p_table, pl_table):
    # the a-priori model should sit within a modest band of reality
    for kind, table, n in (
        (SequenceKind.PARTITION, p_table, 50_000),
        (SequenceKind.PLANE_PARTITION, pl_table, 20_000),
    ):
        est = estimate_table_bytes(kind, n)
        assert 0.6 * table.estimated_bytes <= est <= 1.7 * table.estimated_bytes
    small = SequenceTable(SequenceKind.PARTITION).extend(1000)
    est = estimate_table_bytes(SequenceKind.PARTITION, 1000)
    assert 0.6 * small.estimated_bytes <= est <= 1.7 * small.estimated_bytes
    with pytest.raises(ValueError):
        estimate_table_bytes(SequenceKind.PARTITION, -1)


def test_cache_round_trip(tmp_path):
    table = SequenceTable(SequenceKind.PLANE_PARTITION).extend(200)
    path = tmp_path / "pl.table"
    table.save(path)
    loaded = SequenceTable.load(path)
    assert loaded.kind is SequenceKind.PLANE_PARTITION
    assert loaded.last_index == 200
    assert [loaded[n] for n in range(201)] == [table[n] for n in range(201)]
    # loaded tables keep extending
    loaded.extend(210)
    fresh = SequenceTable(SequenceKind.PLANE_PARTITION).extend(210)
    assert loaded[210] == fresh[210]


def test_cache_expect_kind_guard(tmp_path):
    path = tmp_path / "p.table"
    SequenceTable(SequenceKind.PARTITION).extend(50).save(path)
    SequenceTable.load(path, expect_kind=SequenceKind.PARTITION)
    with pytest.raises(CacheFormatError):
        SequenceTable.load(path, expect_kind=SequenceKind.PLANE_PARTITION)


def test_cache_rejects_corruption(tmp_path):
    path = tmp_path / "p.table"
    SequenceTable(SequenceKind.PARTITION).extend(50).save(path)
    raw = bytearray(path.read_bytes())

    bad_magic = bytearray(raw)
    bad_magic[0] ^= 0xFF
    (tmp_path / "m.table").write_bytes(bad_magic)
    with pytest.raises(CacheFormatError):
        SequenceTable.load(tmp_path / "m.table")

    truncated = raw[: len(raw) - 3]
    (tmp_path / "t.table").write_bytes(truncated)
    with pytest.raises(CacheFormatError):
        SequenceTable.load(tmp_path / "t.table")

    tampered = bytearray(raw)
    tampered[-1] ^= 0x01  # flip a bit in the last entry's payload
    (tmp_path / "x.table").write_bytes(tampered)
    with pytest.raises(CacheFormatError):
        SequenceTable.load(tmp_path / "x.table")

    (tmp_path / "e.table").write_bytes(b"")
    with pytest.raises(CacheFormatError):
        SequenceTable.load(tmp_path / "e.table")


def test_cache_budget_enforced_on_load(tmp_path):
    path = tmp_path / "p.table"
    SequenceTable(SequenceKind.PARTITION).extend(500).save(path)
    with pytest.raises(ResourceLimitError):
        SequenceTable.load(path, memory_budget=1024)
