"""Exact-engine tests: recurrences vs enumeration oracles, growth, cache."""
from __future__ import annotations

import errno
import hashlib
import os
import random
import stat
import struct
import sys
from operator import mul
from pathlib import Path

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
from partdigits import checks
import partdigits.engines as engines
from partdigits.engines import _CACHE_VERSION, _EXACT, _LEAF, _TILE, _convolve, _pack, _unpack

ORACLE_P_MAX = 2000
ORACLE_PL_MAX = 3100

P_FIRST = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
PL_FIRST = [1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500]


def test_partition_table_matches_the_divisor_sum_recurrence():
    # n p(n) = sum_{k=1}^{n} sigma(k) p(n-k), with sigma from a divisor
    # sieve: an oracle that shares nothing with the pentagonal recurrence
    top = ORACLE_P_MAX
    sigma = [0] * (top + 1)
    for d in range(1, top + 1):
        for m in range(d, top + 1, d):
            sigma[m] += d
    oracle = [1]
    for n in range(1, top + 1):
        total = sum(sigma[k] * oracle[n - k] for k in range(1, n + 1))
        assert total % n == 0, n
        oracle.append(total // n)
    table = SequenceTable(SequenceKind.PARTITION).extend(top)
    assert [table[n] for n in range(top + 1)] == oracle


def test_small_values_fixed():
    p = SequenceTable(SequenceKind.PARTITION).extend(10)
    pl = SequenceTable(SequenceKind.PLANE_PARTITION).extend(10)
    assert [p[n] for n in range(11)] == P_FIRST
    assert [pl[n] for n in range(11)] == PL_FIRST


def test_known_large_values(p_table):
    assert p_table[100] == 190569292
    assert p_table[1000] == 24061467864032622473692149727991


def test_partition_table_satisfies_ramanujans_congruences(p_table):
    # an engine defect past the divisor-sum check's range almost surely
    # breaks one of them
    bad = checks.congruence_failures(p_table)
    assert not bad, bad[:5]


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
    # multiples of 256 and 512, the tiles that start at 1024, and 3072,
    # where three tiles run at once
    table = SequenceTable(SequenceKind.PLANE_PARTITION)
    for n in (1, 127, 128, 255, 256, 257, 511, 513, 1024, 1537, 3072, 3073, ORACLE_PL_MAX):
        table.extend(n)
        assert [table[m] for m in range(n + 1)] == pl_oracle[: n + 1], n
    # a loaded table extends from the pending block sums stored with it
    for last in (200, 1023, 2049):
        path = tmp_path / f"pl{last}.table"
        SequenceTable(SequenceKind.PLANE_PARTITION).extend(last).save(path)
        loaded = SequenceTable.load(path).extend(ORACLE_PL_MAX)
        assert [loaded[m] for m in range(ORACLE_PL_MAX + 1)] == pl_oracle, last


def test_plane_table_matches_macmahons_product():
    # sum PL(n) q^n = prod_{k>=1} (1 - q^k)^(-k), each factor multiplied in
    # through its binomial series sum_j C(j + k - 1, j) q^(jk): an oracle
    # that shares no code or formula with the engine's sigma2 convolution.
    # 1,100 lies past the block products run at 1,024.
    top = 1100
    series = [1] + [0] * top
    for k in range(1, top + 1):
        binom = [1]  # C(j + k - 1, j) for j = 0..top // k
        for j in range(1, top // k + 1):
            binom.append(binom[-1] * (j + k - 1) // j)
        series[k:] = [sum(map(mul, binom, series[n::-k])) for n in range(k, top + 1)]
    table = SequenceTable(SequenceKind.PLANE_PARTITION).extend(top)
    assert table.values(0, top + 1) == series


def test_plane_budget_refusal_keeps_state(pl_oracle, tmp_path):
    # the block products run at n = 1024 are charged with PL(1024), after
    # the sieve they read: a budget that refuses the sieve, and one that
    # holds it but not PL(1024) with the products, must both leave a table
    # that extends correctly once the budget allows, and that saves to a
    # cache which loads and extends correctly
    whole = SequenceTable(SequenceKind.PLANE_PARTITION).extend(1024)
    table = SequenceTable(SequenceKind.PLANE_PARTITION).extend(1023)
    path = tmp_path / "pl.table"
    for budget in (table.estimated_bytes + 1, whole.estimated_bytes - 1):
        table.memory_budget = budget
        with pytest.raises(ResourceLimitError):
            table.extend(1024)
        assert table.last_index == 1023
        table.save(path)
        loaded = SequenceTable.load(path).extend(ORACLE_PL_MAX)
        assert [loaded[m] for m in range(ORACLE_PL_MAX + 1)] == pl_oracle, budget
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


def test_pack_unpack_read_the_str_digit_limit_on_each_call():
    # a slot within the limit goes through str and int, one past it through
    # Decimal, and 0 means no limit: 700 digits past a limit of 640, 5200
    # with none, and 640 at the limit
    default = sys.get_int_max_str_digits()
    rng = random.Random(7)
    try:
        for limit, width in ((640, 700), (0, 5200), (640, 640)):
            sys.set_int_max_str_digits(limit)
            values = [rng.getrandbits(width * 3) for _ in range(4)]  # under 10^width
            assert _unpack(_pack(values, width), width) == values, (limit, width)
    finally:
        sys.set_int_max_str_digits(default)


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
    # p: stops on, just before and just after pentagonal numbers (1, 2, 5,
    # 7, 12, 15, ..., 1001, 1335) and 256-entry chunk edges give the values
    # and the byte count of one extension
    stops = [1, 2, 3, 4, 5, 6, 7, 11, 12, 13, 15, 16, 255, 256, 257, 511, 512, 1000, 1001,
             1002, 1024, 1334, 1335, 1336, 1536, 2000]
    stepped = SequenceTable(SequenceKind.PARTITION)
    for stop in stops:
        stepped.extend(stop)
    direct = SequenceTable(SequenceKind.PARTITION).extend(stops[-1])
    assert [stepped[n] for n in range(2001)] == [direct[n] for n in range(2001)]
    assert stepped.estimated_bytes == direct.estimated_bytes


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
    # the p counterpart of test_plane_budget_refusal_keeps_state: a refused
    # extension leaves exactly a fresh table's prefix, values and charged
    # bytes, and extends correctly once the budget allows
    full = SequenceTable(SequenceKind.PARTITION).extend(1500)
    for start, refused_at in ((0, 5), (100, 256), (700, 1002), (1000, 1499)):
        table = SequenceTable(SequenceKind.PARTITION).extend(start)
        prefix = SequenceTable(SequenceKind.PARTITION).extend(refused_at - 1)
        table.memory_budget = prefix.estimated_bytes + 1  # too small for one more entry
        with pytest.raises(ResourceLimitError):
            table.extend(1500)
        assert table.last_index == refused_at - 1, start
        assert [table[n] for n in range(refused_at)] == [full[n] for n in range(refused_at)]
        assert table.estimated_bytes == prefix.estimated_bytes, start
        table.memory_budget = full.memory_budget
        table.extend(1500)
        assert [table[n] for n in range(1501)] == [full[n] for n in range(1501)], start


def test_concurrent_saves_use_their_own_temp_files(tmp_path, monkeypatch):
    # A second save to the same path runs while the first is between
    # writing its temp file and renaming it into place.
    path = tmp_path / "p.table"
    first = SequenceTable(SequenceKind.PARTITION).extend(300)
    second = SequenceTable(SequenceKind.PARTITION).extend(200)
    replace = os.replace
    temps = []

    def racing_replace(src, dst):
        temps.append(Path(src))
        if len(temps) == 1:
            second.save(path)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", racing_replace)
    first.save(path)
    monkeypatch.undo()
    assert len(set(temps)) == 2
    assert all(t.parent == tmp_path for t in temps)
    assert os.listdir(tmp_path) == ["p.table"]
    assert SequenceTable.load(path).last_index == 300  # the last rename was the first save's


def test_a_failed_save_leaves_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "p.table"
    SequenceTable(SequenceKind.PARTITION).extend(200).save(path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    before = path.read_bytes()
    table = SequenceTable(SequenceKind.PARTITION).extend(3000)
    payload_size = engines._payload_size
    calls = 0

    def failing_payload_size(v):
        # one call per frame, 12 frames of entries: fail in the sixth
        nonlocal calls
        calls += 1
        if calls == 6:
            (temp,) = tmp_path.glob("p.table.*.tmp")
            assert temp.stat().st_size > 0  # partly written
            raise OSError(errno.ENOSPC, "No space left on device")
        return payload_size(v)

    monkeypatch.setattr(engines, "_payload_size", failing_payload_size)
    with pytest.raises(OSError, match="No space left"):
        table.save(path)
    assert os.listdir(tmp_path) == ["p.table"]
    assert path.read_bytes() == before


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


# Cache format version 5: magic, version, kind, reserved, entry count, the
# entries' estimated bytes, the pending count and the pending sums'
# estimated bytes; the SHA-256 digest of that header; the frames of the
# entries, then those of the pending sums, each a uint32 width w and then
# up to 256 records of w bytes; the SHA-256 digest of everything before it.
V5_HEADER = "<4sHBBQQQQ"
V5_HEAD = struct.calcsize(V5_HEADER)  # the header's digest follows it


def _record_span(raw: bytes, i: int) -> tuple[int, int]:
    """Start and end, in a version 5 cache file, of record i.

    Records 0..count-1 are the entries, the ones after them the pending
    sums, whose first frame follows the entries' last.  A frame's uint32
    width is the 4 bytes before its first record.
    """
    fields = struct.unpack_from(V5_HEADER, raw)
    count = fields[4]
    frames, pos = [], V5_HEAD + 32  # (first record, width) of each frame
    for total in (count, fields[6]):
        for lo in range(0, total, 256):
            (width,) = struct.unpack_from("<I", raw, pos)
            frames.append((pos + 4, width))
            pos += 4 + min(256, total - lo) * width
    j = i if i < count else i - count + 256 * -(-count // 256)
    start, width = frames[j // 256]
    start += j % 256 * width
    return start, start + width


def _redigest(raw: bytearray) -> bytearray:
    raw[V5_HEAD : V5_HEAD + 32] = hashlib.sha256(raw[:V5_HEAD]).digest()
    raw[-32:] = hashlib.sha256(raw[:-32]).digest()
    return raw


@pytest.mark.parametrize("kind, count", [("p", 500), ("pl", 300)])
def test_cache_refuses_a_flipped_bit_in_the_middle(tmp_path, kind, count):
    path = tmp_path / f"{kind}.table"
    SequenceTable(SequenceKind(kind)).extend(count - 1).save(path)
    saved = path.read_bytes()
    # an entry's record, and for pl one of the pending sums stored after them
    records = [count // 2] + ([count + 200] if kind == "pl" else [])
    for i in records:
        raw = bytearray(saved)
        start, end = _record_span(raw, i)
        assert end > start
        raw[start] ^= 0x04
        path.write_bytes(raw)
        with pytest.raises(CacheFormatError, match="checksum"):
            SequenceTable.load(path)


def test_cache_refuses_an_over_budget_file_from_its_checked_header(tmp_path):
    # the header's totals are compared with the budget once its own digest
    # holds, before the body is hashed or walked: a refusal does not depend
    # on the body, but a header that fails its digest is never trusted
    path = tmp_path / "p.table"
    SequenceTable(SequenceKind.PARTITION).extend(3000).save(path)
    raw = bytearray(path.read_bytes())
    start, _ = _record_span(raw, 1500)
    raw[start] ^= 0x04  # the body no longer matches the trailing digest
    path.write_bytes(raw)
    with pytest.raises(ResourceLimitError):
        SequenceTable.load(path, memory_budget=1024)
    with pytest.raises(CacheFormatError, match="checksum mismatch"):
        SequenceTable.load(path)
    raw[20] ^= 0x01  # a bit of the entries' estimated bytes, in the header
    path.write_bytes(raw)
    for budget in (1024, None):
        with pytest.raises(CacheFormatError, match="header checksum mismatch"):
            SequenceTable.load(path, memory_budget=budget)


def test_cache_refuses_version_1(tmp_path):
    values = [1, 1, 2, 3, 5]
    # the unchecked format before digests: header, then (length, payload) per entry
    v1 = struct.pack("<4sHBBQ", b"PDTB", 1, 1, 0, len(values))
    for v in values:
        v1 += struct.pack("<I", 1) + v.to_bytes(1, "little")
    # version 2, without pending sums: header with the entries' estimated
    # bytes, a uint32 length per entry, the records, the digest
    entry_bytes = 5 * (sys.getsizeof(1) + 8)
    v2 = struct.pack("<4sHBBQQ", b"PDTB", 2, 1, 0, len(values), entry_bytes)
    v2 += struct.pack(f"<{len(values)}I", *[1] * len(values)) + bytes(values)
    v2 += hashlib.sha256(v2).digest()
    # version 3, with a pending-sum header: the first pending target, the
    # pending count and bytes, then the lengths, records and digest as in 2
    v3 = struct.pack("<4sHBBQQQQQ", b"PDTB", 3, 1, 0, len(values), entry_bytes, 0, 0, 0)
    v3 += struct.pack(f"<{len(values)}I", *[1] * len(values)) + bytes(values)
    v3 += hashlib.sha256(v3).digest()
    # version 4, with frames: the header without its own digest, one frame
    # of a uint32 width and five 1-byte records, the digest
    v4 = struct.pack("<4sHBBQQQQ", b"PDTB", 4, 1, 0, len(values), entry_bytes, 0, 0)
    v4 += struct.pack("<I", 1) + bytes(values)
    v4 += hashlib.sha256(v4).digest()
    path = tmp_path / "p.table"
    for version, blob in ((1, v1), (2, v2), (3, v3), (4, v4)):
        path.write_bytes(blob)
        message = f"unsupported version {version}.*delete the file"
        with pytest.raises(CacheFormatError, match=message):
            SequenceTable.load(path)


def test_cache_stores_pending_sums_parsed_on_extension(tmp_path):
    path = tmp_path / "pl.table"
    table = SequenceTable(SequenceKind.PLANE_PARTITION).extend(299)
    table.save(path)
    fields = struct.unpack_from(V5_HEADER, path.read_bytes())
    assert fields[6:] == (len(table._pending), table._pending_bytes)
    loaded = SequenceTable.load(path)
    # the load parses every entry to check the last one, but no pending sum:
    # it reads the one for the last entry from its record, and keeps the file
    assert loaded._pending is None and loaded._unparsed_chunks == 0
    assert loaded._raw is not None
    sieve = 299 * (sys.getsizeof(0) + 8)  # sigma2(1..299), read by that check
    assert loaded.estimated_bytes == table._entry_bytes + table._pending_bytes + sieve
    loaded.extend(300)
    assert loaded._pending == table._pending and loaded._raw is None


def test_cache_refuses_a_wrong_pending_sum_for_the_last_entry(tmp_path):
    # files whose digest matches their bytes, and whose last entry passes its
    # recurrence check, but whose stored sum for that entry is off by one,
    # or whose pending sums stop short of that entry
    path = tmp_path / "pl.table"
    SequenceTable(SequenceKind.PLANE_PARTITION).extend(299).save(path)
    raw = bytearray(path.read_bytes())
    path.write_bytes(_redigest(bytearray(raw)))
    SequenceTable.load(path)  # re-digesting alone is accepted
    short = bytearray(raw)
    struct.pack_into("<Q", short, V5_HEAD - 16, 299 % 256)  # pending count
    path.write_bytes(_redigest(short))
    with pytest.raises(CacheFormatError, match="pending sums do not fit"):
        SequenceTable.load(path)
    start, _ = _record_span(raw, 300 + 299 - 256)  # the sum for target 299
    assert raw[start] < 0xFF
    raw[start] += 1
    path.write_bytes(_redigest(raw))
    with pytest.raises(CacheFormatError, match="pending sum for target 299"):
        SequenceTable.load(path)


def _flip_low_bit(i):
    def edit(raw: bytearray) -> None:
        start, _ = _record_span(raw, i)
        raw[start] ^= 0x01

    return edit


def _set_header_field(i, value):
    def edit(raw: bytearray) -> None:
        fields = list(struct.unpack_from(V5_HEADER, raw))
        fields[i] = value
        struct.pack_into(V5_HEADER, raw, 0, *fields)

    return edit


def _set_width(i, width):
    # the width of the frame that holds entry i, which must be its first
    def edit(raw: bytearray) -> None:
        start, _ = _record_span(raw, i)
        struct.pack_into("<I", raw, start - 4, width)

    return edit


def _append_a_byte(raw: bytearray) -> None:
    raw[-32:-32] = b"\x00"  # between the last frame and the digest


@pytest.mark.parametrize(
    "kind, last, edit, message",
    [
        ("p", 50, _flip_low_bit(50), "entry 50 fails its recurrence check"),
        ("pl", 100, _flip_low_bit(100), "entry 100 fails its recurrence check"),
        ("pl", 100, _flip_low_bit(99), "convolution remainder at n = 100"),
        ("p", 50, _set_header_field(2, 3), "unknown sequence kind 3"),
        ("p", 50, _set_header_field(4, 0), "empty table"),
        ("p", 50, _set_header_field(4, 10**6), "frame 0 of width 3 does not fit"),
        ("p", 600, _set_width(256, 0), "frame 1 of width 0 does not fit"),
        ("p", 600, _set_width(256, 2**32 - 1), "frame 1 of width 4294967295 does not fit"),
        ("p", 600, _append_a_byte, "frames end at byte 5070, the digest at 5071"),
        ("p", 50, _flip_low_bit(0), "entry 0 is 0, expected 1"),
    ],
    ids=["p-recurrence", "pl-recurrence", "pl-remainder", "kind", "empty",
         "truncated-frames", "width-0", "width-max", "bytes-after-frames", "entry-0"],
)
def test_cache_refuses_a_redigested_file(tmp_path, kind, last, edit, message):
    # files whose digest matches their bytes but whose contents do not hold
    path = tmp_path / f"{kind}.table"
    SequenceTable(SequenceKind(kind)).extend(last).save(path)
    raw = bytearray(path.read_bytes())
    edit(raw)
    path.write_bytes(_redigest(raw))
    with pytest.raises(CacheFormatError, match=message):
        SequenceTable.load(path)


def test_tile_scheme_is_pinned_to_the_cache_version():
    # the cache stores pending sums laid out by the tile scheme: a change to
    # _LEAF or _TILE must come with a new _CACHE_VERSION, and this test with it
    assert (_LEAF, _TILE, _CACHE_VERSION) == (256, 1024, 5)


def test_product_schedule_is_pinned_by_its_pending_sums():
    # the pending sums a pl table holds past the tile run at 1,024 are laid
    # out by the product schedule, and the cache stores them: a schedule
    # that changes them must come with a new _CACHE_VERSION.  The hash is
    # over the values, not a file, so it does not depend on sys.getsizeof
    table = SequenceTable(SequenceKind.PLANE_PARTITION).extend(1100)
    state = repr(([table[n] for n in range(1101)], table._pending)).encode()
    assert hashlib.sha256(state).hexdigest() == (
        "6b0902bdde146d84338a256dc55fa04eeed20705cd8c80243e3e97b96626542a"
    )


def test_loaded_table_parses_entries_on_first_use(tmp_path):
    path = tmp_path / "p.table"
    table = SequenceTable(SequenceKind.PARTITION).extend(3000)
    table.save(path)
    loaded = SequenceTable.load(path)
    assert loaded.last_index == 3000 and len(loaded) == 3001
    assert all(v is None for v in loaded._values)  # nothing parsed yet
    assert loaded[2500] == table[2500]
    parsed = [n for n, v in enumerate(loaded._values) if v is not None]
    assert parsed == list(range(2304, 2560))  # only the frame that holds 2500
    # a window parses the frames it covers and no other
    assert loaded.values(1020, 1040) == [table[n] for n in range(1020, 1040)]
    parsed = [n for n, v in enumerate(loaded._values) if v is not None]
    assert parsed == list(range(768, 1280)) + list(range(2304, 2560))
    assert loaded.values(3001, 3001) == []
    for lo, hi in ((-1, 5), (0, 3002), (10, 9)):
        with pytest.raises(IndexError):
            loaded.values(lo, hi)
    assert loaded.values(0, 3001) == [table[n] for n in range(3001)]
    assert loaded._unparsed_chunks == 0


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
        assert loaded.estimated_bytes == fresh.estimated_bytes, last


def test_loaded_budget_is_exact_and_charged_up_front(tmp_path):
    # the header stores the entries' and the pending sums' estimated bytes,
    # without the sieve that a pl table is charged for next to them
    pl = SequenceTable(SequenceKind.PLANE_PARTITION).extend(1100)
    pl.save(tmp_path / "pl")
    pl_entries = sum(sys.getsizeof(pl[n]) + 8 for n in range(1101))
    pl_pending = sum(sys.getsizeof(v) + 8 for v in pl._pending)
    fields = struct.unpack_from(V5_HEADER, (tmp_path / "pl").read_bytes())
    assert (fields[5], fields[7]) == (pl_entries, pl_pending)
    path = tmp_path / "p"
    table = SequenceTable(SequenceKind.PARTITION).extend(2500)
    table.save(path)
    entries = sum(sys.getsizeof(table[n]) + 8 for n in range(2501))
    assert struct.unpack_from(V5_HEADER, path.read_bytes())[5] == entries
    assert SequenceTable.load(path).estimated_bytes == entries
    with pytest.raises(ResourceLimitError):
        SequenceTable.load(path, memory_budget=entries - 1)
    # a budget that holds the entries exactly: reading them refuses nothing
    loaded = SequenceTable.load(path, memory_budget=entries)
    assert [loaded[n] for n in range(2501)] == [table[n] for n in range(2501)]
    assert loaded.estimated_bytes == entries

