"""Exact-engine tests: recurrences vs enumeration oracles, growth, cache."""
from __future__ import annotations

import random
import struct
import sys

import pytest

from partdigits import (
    CacheFormatError,
    ResourceLimitError,
    SequenceKind,
    SequenceTable,
    brute_force_p,
    brute_force_pl,
    sigma2,
)
from partdigits.engines import _EXACT, _convolve, _pack, _unpack

ORACLE_PL_MAX = 3000

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
    # each growth step sieves only the new block of sigma2 entries; the
    # block products need the sieve ahead of n, so check all of it
    table = SequenceTable(SequenceKind.PLANE_PARTITION)
    for n in (1, 2, 3, 4, 9, 10, 48, 49, 50, 300, 301, 1000):
        table.extend(n)
        sieve = table._sigma2
        assert len(sieve) > n
        assert sieve[1:] == [sigma2(k) for k in range(1, len(sieve))], n


@pytest.fixture(scope="module")
def pl_oracle() -> list[int]:
    """PL(0..ORACLE_PL_MAX) by the per-n convolution over sigma2() values."""
    sig = [0] + [sigma2(k) for k in range(1, ORACLE_PL_MAX + 1)]
    vals = [1]
    for n in range(1, ORACLE_PL_MAX + 1):
        q, r = divmod(_convolve(sig, vals, n, n), n)
        assert r == 0, n
        vals.append(q)
    return vals


def test_plane_blocks_match_per_n_convolution(pl_oracle, tmp_path):
    # irregular steps cross the per-n leaf (256), the block products at
    # multiples of 256 and the tiles that start at 1024
    table = SequenceTable(SequenceKind.PLANE_PARTITION)
    for n in (1, 127, 128, 255, 256, 257, 511, 513, 1024, 1537, ORACLE_PL_MAX):
        table.extend(n)
        assert [table[m] for m in range(n + 1)] == pl_oracle[: n + 1], n
    # a loaded table rebuilds its pending block sums from its values
    for last in (200, 1023, 2049):
        path = tmp_path / f"pl{last}.table"
        SequenceTable(SequenceKind.PLANE_PARTITION).extend(last).save(path)
        loaded = SequenceTable.load(path).extend(ORACLE_PL_MAX)
        assert [loaded[m] for m in range(ORACLE_PL_MAX + 1)] == pl_oracle, last


def test_plane_budget_refusal_keeps_state(pl_oracle):
    # the block products run at n = 1024 are charged before PL(1024): a
    # budget that refuses them, and one that holds them but not PL(1024),
    # must both leave a table that extends correctly once the budget allows
    whole = SequenceTable(SequenceKind.PLANE_PARTITION).extend(1024)
    table = SequenceTable(SequenceKind.PLANE_PARTITION).extend(1023)
    for budget in (table.estimated_bytes + 1, whole.estimated_bytes - 1):
        table.memory_budget = budget
        with pytest.raises(ResourceLimitError):
            table.extend(1024)
        assert table.last_index == 1023
    table.memory_budget = whole.memory_budget
    table.extend(ORACLE_PL_MAX)
    assert [table[m] for m in range(ORACLE_PL_MAX + 1)] == pl_oracle


def test_pack_unpack_beyond_str_digit_limit():
    # slots wider than the int <-> str limit (4300 digits by default)
    limit = sys.get_int_max_str_digits()
    width = 5200
    rng = random.Random(5)
    a = [rng.getrandbits(16_000) for _ in range(3)]  # about 4800 digits each
    b = [rng.getrandbits(40) for _ in range(3)]
    assert _unpack(_pack(a, width), width) == a
    product = _unpack(_EXACT.multiply(_pack(a, width), _pack(b, width)), width)
    assert product == [
        sum(a[i] * b[t - i] for i in range(len(a)) if 0 <= t - i < len(b))
        for t in range(len(a) + len(b) - 1)
    ]
    assert sys.get_int_max_str_digits() == limit


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
    tampered[-1] ^= 0x01  # flip a bit in the digest trailer
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


# Cache format version 2: magic, version, kind, reserved, entry count and
# the entries' estimated bytes; a uint32 length per entry; the records;
# the SHA-256 digest of everything before it.
V2_HEADER = "<4sHBBQQ"


def _record_span(raw: bytes, n: int) -> tuple[int, int]:
    """Start and end, in a version 2 cache file, of entry n's record."""
    header = struct.calcsize(V2_HEADER)
    count = struct.unpack_from(V2_HEADER, raw)[4]
    lengths = struct.unpack_from(f"<{count}I", raw, header)
    start = header + 4 * count + sum(lengths[:n])
    return start, start + lengths[n]


@pytest.mark.parametrize("kind, count", [("p", 500), ("pl", 300)])
def test_cache_refuses_a_flipped_bit_in_the_middle(tmp_path, kind, count):
    path = tmp_path / f"{kind}.table"
    SequenceTable(SequenceKind(kind)).extend(count - 1).save(path)
    raw = bytearray(path.read_bytes())
    start, end = _record_span(raw, count // 2)
    assert end > start
    raw[start] ^= 0x04
    path.write_bytes(raw)
    with pytest.raises(CacheFormatError):
        SequenceTable.load(path)


def test_cache_refuses_version_1(tmp_path):
    # the unchecked format before digests: header, then (length, payload) per entry
    values = [1, 1, 2, 3, 5]
    blob = struct.pack("<4sHBBQ", b"PDTB", 1, 1, 0, len(values))
    for v in values:
        blob += struct.pack("<I", 1) + v.to_bytes(1, "little")
    path = tmp_path / "p.table"
    path.write_bytes(blob)
    with pytest.raises(CacheFormatError, match="version 1.*delete the file"):
        SequenceTable.load(path)


def test_loaded_table_parses_entries_on_first_use(tmp_path):
    path = tmp_path / "p.table"
    table = SequenceTable(SequenceKind.PARTITION).extend(3000)
    table.save(path)
    loaded = SequenceTable.load(path)
    assert loaded.last_index == 3000 and len(loaded) == 3001
    assert all(v is None for v in loaded._values)  # nothing parsed yet
    assert loaded[2500] == table[2500]
    assert loaded._values.count(None) == 2048  # only the chunk 2048..3000 parsed
    assert [loaded[n] for n in range(3001)] == [table[n] for n in range(3001)]


def test_load_then_save_is_byte_identical(tmp_path):
    for kind, last in (("p", 3000), ("pl", 300)):
        path = tmp_path / f"{kind}.table"
        SequenceTable(SequenceKind(kind)).extend(last).save(path)
        SequenceTable.load(path).save(tmp_path / "copy")
        assert (tmp_path / "copy").read_bytes() == path.read_bytes(), kind
    # one chunk parsed before the save, the others by it
    loaded = SequenceTable.load(tmp_path / "p.table")
    loaded[1500]
    loaded.save(tmp_path / "copy")
    assert (tmp_path / "copy").read_bytes() == (tmp_path / "p.table").read_bytes()


@pytest.mark.parametrize(
    "kind, lasts", [("p", (1, 700, 3000)), ("pl", (200, 1023, 2049))], ids=["p", "pl"]
)
def test_loaded_table_extends_like_a_fresh_one(tmp_path, kind, lasts):
    stop = max(lasts) + 600
    fresh = SequenceTable(SequenceKind(kind)).extend(stop)
    for last in lasts:
        path = tmp_path / f"{kind}{last}.table"
        SequenceTable(SequenceKind(kind)).extend(last).save(path)
        loaded = SequenceTable.load(path)
        loaded[last // 2]  # a chunk parsed before the extension, the rest by it
        loaded.extend(stop)
        assert [loaded[n] for n in range(stop + 1)] == [fresh[n] for n in range(stop + 1)], last
        if kind == "p":
            assert loaded.estimated_bytes == fresh.estimated_bytes, last


def test_loaded_budget_is_exact_and_charged_up_front(tmp_path):
    # the header stores the entries' estimated bytes, without the sieve and
    # pending sums that a pl table is charged for next to them
    pl = SequenceTable(SequenceKind.PLANE_PARTITION).extend(1100)
    pl.save(tmp_path / "pl")
    pl_entries = sum(sys.getsizeof(pl[n]) + 8 for n in range(1101))
    assert struct.unpack_from(V2_HEADER, (tmp_path / "pl").read_bytes())[5] == pl_entries
    path = tmp_path / "p"
    table = SequenceTable(SequenceKind.PARTITION).extend(2500)
    table.save(path)
    entries = sum(sys.getsizeof(table[n]) + 8 for n in range(2501))
    assert struct.unpack_from(V2_HEADER, path.read_bytes())[5] == entries
    assert SequenceTable.load(path).estimated_bytes == entries
    with pytest.raises(ResourceLimitError):
        SequenceTable.load(path, memory_budget=entries - 1)
    # a budget that holds the entries exactly: reading them refuses nothing
    loaded = SequenceTable.load(path, memory_budget=entries)
    assert [loaded[n] for n in range(2501)] == [table[n] for n in range(2501)]
    assert loaded.estimated_bytes == entries

