"""Exact integer tables of partition and plane-partition counts.

Partitions p(n) come from the pentagonal-number recurrence

    p(n) = sum_{k>=1} (-1)^(k+1) [ p(n - k(3k-1)/2) + p(n - k(3k+1)/2) ],

plane partitions PL(n) from the divisor-power convolution

    n * PL(n) = sum_{k=1}^{n} sigma2(k) * PL(n-k),

with the division by n asserted exact (it is a theorem; a remainder means
a bug, never something to round away).  The tests check p against the
divisor-sum recurrence n p(n) = sum sigma(k) p(n-k) to n = 2000, PL
against the per-n convolution to n = 3000, and both against brute-force
enumeration on small n.  Between two pentagonal numbers the p terms of
each sign are one sum(map(values.__getitem__, offsets)), added in C.

The PL convolution is computed online, in blocks (a relaxed product in
the sense of van der Hoeven, "Relax, but don't be too lazy", 2002): the
terms with k < 256 are summed per n, and every other term comes from a
block product of up to 512 values by 512 sigma2 entries, run once the
block is complete, at the first n it contributes to.  A block product is
one multiplication of two Kronecker-packed `decimal.Decimal`s, 10^W per
slot (Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", 2009): libmpdec multiplies large operands with a
number-theoretic transform, CPython's int with Karatsuba.  Its sums wait
in a pending list of at most 1023 targets.  Building the PL table took
0.14 s to n = 2e3, 1.6 s to 6e3 and 33 s to 2e4, against 0.27 s, 3.0 s
and 56 s for the per-n convolution (CPython 3.11, 2-core x86 VM, one
after the other).

Tables grow lazily in chunks and account their memory against a byte
budget; extension aborts with ResourceLimitError rather than thrash.

A table saves to a cache file (format version 3): a header with the
entry count, the entries' estimated bytes and, for PL, the first pending
target, the pending count and the pending sums' estimated bytes; one
uint32 length per record; the records, entries first; and a SHA-256
digest of everything before it, so a flipped bit anywhere is refused on
load.  A loaded table is in the state the saved one was in.  Loading
checks the digest, the last entry's recurrence and, for PL, the pending
sum for the last entry, charges the budget for every record at once,
parses the pending sums and keeps the file's bytes: entries are parsed
1024 at a time when first read.  A 24,001-entry p cache
(1.2 MB, format version 2) loaded in 3.9 ms against 28 ms for the eager
version 1 reader; parsing all of it afterwards took 14 ms (best of 15
calls, same 2-core x86 VM, alternating with the old code).
"""
from __future__ import annotations

import struct
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from enum import Enum
from itertools import accumulate, islice, zip_longest
from math import isqrt
from operator import mul
from pathlib import Path

DEFAULT_MEMORY_BUDGET = 4 * 1024**3  # bytes

BRUTE_FORCE_P_MAX = 40
BRUTE_FORCE_PL_MAX = 12

_CACHE_MAGIC = b"PDTB"
_CACHE_VERSION = 3
# magic, version, kind (1 = p, 2 = pl), reserved, entry count, the
# entries' estimated bytes (the sum of _int_size over them), the first
# pending target, the pending count and the pending sums' estimated bytes
_CACHE_HEADER = struct.Struct("<4sHBBQQQQQ")
_DIGEST_SIZE = 32  # SHA-256 of everything before it
# A loaded table parses its records this many at a time, when first read.
_PARSE_CHUNK = 1024

# Blocked plane-partition convolution: terms sigma2(k) * PL(n-k) with
# k < _LEAF are summed per n; the rest come from block products of length
# _LEAF.._TILE.  _TILE bounds the pending lookahead (2*_TILE - 1 targets)
# and the size of one product; both are powers of two, _LEAF <= _TILE.
# The cache stores the pending sums, which depend on both: changing either
# must bump _CACHE_VERSION.
_LEAF = 256
_TILE = 512

# Exact for any operands: libmpdec sizes a product by its operands, and the
# trap turns a rounding, which would be a bug, into an exception.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])


class SequenceKind(str, Enum):
    PARTITION = "p"
    PLANE_PARTITION = "pl"


class ResourceLimitError(RuntimeError):
    """Raised when a table would exceed its memory budget."""


class CacheFormatError(ValueError):
    """Raised when a cache file is malformed or fails verification."""


def sigma2(k: int) -> int:
    """Sum of the squares of the divisors of k >= 1, by divisor-pair enumeration."""
    if k < 1:
        raise ValueError(f"sigma2 requires k >= 1, got {k}")
    total = 0
    for d in range(1, isqrt(k) + 1):
        if k % d == 0:
            total += d * d
            q = k // d
            if q != d:
                total += q * q
    return total


def brute_force_p(n: int) -> int:
    """Count partitions of n by enumerating non-increasing summand lists.

    Deliberately independent of the pentagonal recurrence; capped at
    n <= 40 because the enumeration is exponential.
    """
    if not 0 <= n <= BRUTE_FORCE_P_MAX:
        raise ValueError(f"brute_force_p accepts 0 <= n <= {BRUTE_FORCE_P_MAX}, got {n}")

    def count(remaining: int, max_part: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for part in range(min(remaining, max_part), 0, -1):
            total += count(remaining - part, part)
        return total

    return count(n, n) if n else 1


def brute_force_pl(n: int) -> int:
    """Count plane partitions of n by enumerating row-by-row fillings.

    A plane partition is a stack of rows, each a non-increasing tuple of
    positive parts, where row i+1 is pointwise <= row i and no longer.
    Capped at n <= 12.
    """
    if not 0 <= n <= BRUTE_FORCE_PL_MAX:
        raise ValueError(f"brute_force_pl accepts 0 <= n <= {BRUTE_FORCE_PL_MAX}, got {n}")
    if n == 0:
        return 1

    def rows(cap: tuple[int, ...], budget: int):
        # all nonempty rows pointwise bounded by cap with sum <= budget
        acc: list[int] = []

        def rec(i: int, prev: int, left: int):
            if acc:
                yield tuple(acc)
            if i >= len(cap) or left == 0:
                return
            for v in range(min(prev, cap[i], left), 0, -1):
                acc.append(v)
                yield from rec(i + 1, v, left - v)
                acc.pop()

        yield from rec(0, budget, budget)

    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def ways(remaining: int, cap: tuple[int, ...]) -> int:
        if remaining == 0:
            return 1
        key = (remaining, cap)
        if key not in memo:
            memo[key] = sum(
                ways(remaining - sum(r), r) for r in rows(cap, remaining)
            )
        return memo[key]

    return ways(n, (n,) * n)


def _int_size(v: int) -> int:
    return sys.getsizeof(v) + 8  # value plus its list slot


def _payload_size(v: int) -> int:
    """Bytes of v's cache record: its minimal little-endian encoding, at least one."""
    return (v.bit_length() + 7) // 8 or 1


def _convolve(sig: list[int], vals: list[int], n: int, terms: int) -> int:
    """sum of sig[k] * vals[n - k] for k = 1..min(n, terms); vals holds at least 0..n-1.

    With terms = n this is the whole plane-partition convolution for n, the
    per-n oracle the blocked engine is tested against.
    """
    back = reversed(vals)
    if len(vals) > n:
        back = islice(back, len(vals) - n, None)
    return sum(map(mul, islice(sig, 1, terms + 1), back))


def _pack(values: list[int], width: int) -> Decimal:
    """sum of values[i] * 10^(width*i), exactly; each value must be below 10^width.

    Goes through Decimal(int), never str(int), so values longer than
    sys.get_int_max_str_digits() pack as well.
    """
    return Decimal("".join([str(Decimal(v)).zfill(width) for v in reversed(values)]))


def _unpack(packed: Decimal, width: int) -> list[int]:
    """The base-10^width digits of a non-negative integral Decimal, least significant first.

    Each digit goes through int(Decimal), not int(str), for the same reason.
    """
    digits = str(packed)
    return [
        int(Decimal(digits[max(end - width, 0) : end]))
        for end in range(len(digits), 0, -width)
    ]


class SequenceTable:
    """Lazily extended exact table of p(n) or PL(n), n = 0..last_index.

    A table loaded from a cache keeps the file's bytes and parses its
    entries _PARSE_CHUNK at a time, when one of them is first read or
    the table extends (until then `_values` holds None for them).
    """

    def __init__(self, kind: SequenceKind, memory_budget: int | None = None):
        self.kind = SequenceKind(kind)
        self.memory_budget = (
            DEFAULT_MEMORY_BUDGET if memory_budget is None else int(memory_budget)
        )
        if self.memory_budget <= 0:
            raise ValueError("memory budget must be positive")
        self._values: list[int | None] = [1]
        self._bytes = _int_size(1)
        self._sigma2: list[int] = [0]  # index 0 unused
        self._pent: list[tuple[int, int]] = []  # (offset, sign), ascending
        # PL only: sums of the block products run so far, for the targets
        # from the last multiple of _LEAF at or below last_index on (none
        # below _LEAF), so the sum for target n is _pending[n % _LEAF].
        self._pending: list[int] = []
        self._pending_bytes = 0
        # A loaded table's file contents and the offsets of its records, the
        # entries' and then the pending sums' (one past the last as well),
        # until no chunk of entries is left unparsed.
        self._raw: bytes | None = None
        self._offsets: "array.array[int] | None" = None
        self._unparsed_chunks = 0

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n < len(self._values):
            raise IndexError(f"table holds n = 0..{self.last_index}, got {n}")
        value = self._values[n]
        if value is None:
            self._parse_chunk(n)
            value = self._values[n]
        return value

    @property
    def last_index(self) -> int:
        return len(self._values) - 1

    @property
    def estimated_bytes(self) -> int:
        return self._bytes

    @property
    def _entry_bytes(self) -> int:
        """The entries' share of the charges: the rest is the sigma2 sieve and the pending sums."""
        return self._bytes - (len(self._sigma2) - 1) * _int_size(0) - self._pending_bytes

    def _charge(self, nbytes: int) -> None:
        if self._bytes + nbytes > self.memory_budget:
            raise ResourceLimitError(
                f"{self.kind.value} table would exceed the memory budget "
                f"({self._bytes + nbytes} > {self.memory_budget} bytes) at "
                f"n = {len(self._values)}"
            )
        self._bytes += nbytes

    def _grow_pentagonal(self, n: int) -> None:
        k = len(self._pent) // 2 + 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            self._pent.append((g1, sign))
            self._pent.append((k * (3 * k + 1) // 2, sign))
            k += 1

    def _grow_sigma2(self, n: int) -> None:
        old = len(self._sigma2) - 1
        if n <= old:
            return
        self._charge((n - old) * _int_size(0))  # rough; entries are machine-sized
        sig = self._sigma2
        sig.extend([0] * (n - old))
        # Divisor pairs d * q = m with d <= q, for m in (old, n] only: a
        # chunk costs O(sqrt(n) + chunk * log n), not a pass over all of 1..n.
        for d in range(1, isqrt(n) + 1):
            dd = d * d
            if dd > old:
                sig[dd] += dd
            for q in range(max(d + 1, old // d + 1), n // d + 1):
                sig[d * q] += dd + q * q

    def extend(self, n: int) -> "SequenceTable":
        """Ensure the table covers 0..n; returns self."""
        if n < 0:
            raise ValueError(f"extend requires n >= 0, got {n}")
        if n <= self.last_index:
            return self
        if self._unparsed_chunks:
            self._parse_all()  # the recurrences read every earlier entry
        if self.kind is SequenceKind.PARTITION:
            self._extend_partition(n)
        else:
            self._extend_plane(n)
        return self

    def _extend_partition(self, n: int) -> None:
        # Entry m is computed when len(vals) == m, so p(m - g) is vals[-g],
        # and the offsets g <= m change only at pentagonal numbers.  (An
        # itemgetter per offset list, which builds a tuple of the terms for
        # each entry, was 10% faster but raised the peak RSS of building p
        # to 19,885 by 0.38 MB.)
        self._grow_pentagonal(n)
        vals = self._values
        get = vals.__getitem__
        pent = self._pent
        m, active = len(vals), 0
        while m <= n:
            while active < len(pent) and pent[active][0] <= m:
                active += 1
            stop = pent[active][0] if active < len(pent) else n + 1
            plus = [-g for g, sign in pent[:active] if sign > 0]
            minus = [-g for g, sign in pent[:active] if sign < 0]
            for _ in range(m, min(stop, n + 1)):
                total = sum(map(get, plus)) - sum(map(get, minus))
                self._charge(_int_size(total))
                vals.append(total)
            m = stop

    def _extend_plane(self, n: int) -> None:
        # Relaxed (online) convolution: PL(m) needs the terms with k < _LEAF
        # summed here, plus the block products already run, which finish
        # every term sigma2(k) * PL(m-k) with k >= _LEAF before m is reached.
        self._grow_sigma2(min(n, _LEAF - 1))  # the products grow it further
        vals = self._values
        sig = self._sigma2
        for m in range(len(vals), n + 1):
            # PL(m), and at a multiple of _LEAF the products run there merged
            # into the sums not yet consumed, are charged and stored together:
            # a refusal leaves the table as it was before m.
            pending, pending_bytes = self._pending, self._pending_bytes
            if m % _LEAF == 0:
                self._grow_sigma2(m + _TILE - 1)
                tail = islice(pending, _LEAF, None)  # the targets from m on
                pending = [
                    a + b for a, b in zip_longest(tail, self._block_products(m), fillvalue=0)
                ]
                pending_bytes = sum(map(_int_size, pending))
            acc = _convolve(sig, vals, m, _LEAF - 1)
            if pending:
                acc += pending[m % _LEAF]
            q, r = divmod(acc, m)
            if r:
                raise ArithmeticError(
                    f"plane-partition convolution not divisible at n = {m}"
                )
            self._charge(_int_size(q) + pending_bytes - self._pending_bytes)
            vals.append(q)
            self._pending, self._pending_bytes = pending, pending_bytes

    def _block_products(self, m: int) -> list[int]:
        """Coefficients, for targets m, m+1, ..., of the block products run at m.

        At m, a multiple of _LEAF, the products are values[m-s:m] times
        sigma2[s:2s] for each s = _LEAF, 2*_LEAF, ..., _TILE dividing m,
        and, when _TILE divides m, the tiles values[m-k:m-k+_TILE] times
        sigma2[k:k+_TILE] for k = 2*_TILE, 3*_TILE, ..., m.  Together with
        the per-n terms k < _LEAF they cover every (j, k) exactly once.  All
        products are Kronecker-packed with one slot width and summed before
        a single unpacking.
        """
        vals = self._values
        sig = self._sigma2
        blocks = []  # (first value, first sigma2 entry, length)
        s = _LEAF
        while s <= _TILE and m % s == 0:
            blocks.append((m - s, s, s))
            s *= 2
        if m % _TILE == 0:
            blocks.extend((m - k, k, _TILE) for k in range(2 * _TILE, m + 1, _TILE))
        # A coefficient sums at most m terms, each below PL(m-1) * 2(m+_TILE)^2
        # (PL is nondecreasing and sigma2(k) < zeta(2) k^2), so it is below
        # 2^bits, and 10^width >= 2^bits because 0.30103 > log10(2).
        bits = m.bit_length() + vals[m - 1].bit_length() + (2 * (m + _TILE) ** 2).bit_length()
        width = bits * 30103 // 100000 + 1
        total = Decimal(0)
        for j, k, size in blocks:
            packed = _pack(vals[j : j + size], width)
            total = _EXACT.fma(packed, _pack(sig[k : k + size], width), total)
        return _unpack(total, width)

    # -- cache ----------------------------------------------------------

    def save(self, path) -> None:
        """Write the table to a cache file, format version 3.

        The file is the header, one uint32 record length per entry and per
        pending sum, the records (each value's minimal little-endian bytes,
        the entries' and then the pending sums') and the SHA-256 digest of
        everything before it.  A loaded table parses its remaining entries
        first; the file is then encoded and hashed _PARSE_CHUNK records at
        a time.
        """
        import hashlib

        self._parse_all()
        records = self._values + self._pending
        kind_code = 1 if self.kind is SequenceKind.PARTITION else 2
        chunks = range(0, len(records), _PARSE_CHUNK)
        digest = hashlib.sha256()
        with open(path, "wb") as fh:

            def write(blob: bytes) -> None:
                digest.update(blob)
                fh.write(blob)

            last = self.last_index
            write(_CACHE_HEADER.pack(
                _CACHE_MAGIC, _CACHE_VERSION, kind_code, 0, len(self._values), self._entry_bytes,
                last - last % _LEAF if self._pending else 0, len(self._pending),
                self._pending_bytes,
            ))
            for lo in chunks:
                chunk = records[lo : lo + _PARSE_CHUNK]
                write(struct.pack(f"<{len(chunk)}I", *map(_payload_size, chunk)))
            for lo in chunks:
                write(b"".join(
                    [v.to_bytes(_payload_size(v), "little") for v in records[lo : lo + _PARSE_CHUNK]]
                ))
            fh.write(digest.digest())

    @classmethod
    def load(
        cls,
        path,
        memory_budget: int | None = None,
        expect_kind: SequenceKind | None = None,
    ) -> "SequenceTable":
        """Load a cache file, verifying its digest and last entry (for PL, with its pending sum).

        The pending sums are parsed here, the entries later, a chunk at a
        time as they are read.  The budget is charged for all of them here,
        with the totals that the header stores.
        """
        import hashlib
        from array import array

        path = Path(path)
        data = path.read_bytes()
        if len(data) < 6:  # magic and version
            raise CacheFormatError(f"{path}: truncated header")
        magic, version = struct.unpack_from("<4sH", data)
        if magic != _CACHE_MAGIC:
            raise CacheFormatError(f"{path}: bad magic {magic!r}")
        if version != _CACHE_VERSION:
            raise CacheFormatError(
                f"{path}: unsupported version {version} (this program reads version "
                f"{_CACHE_VERSION}); delete the file and the next run rebuilds it"
            )
        body = len(data) - _DIGEST_SIZE
        if (
            body < _CACHE_HEADER.size
            or hashlib.sha256(memoryview(data)[:body]).digest() != data[body:]
        ):
            raise CacheFormatError(f"{path}: checksum mismatch (corrupt or truncated file)")
        (_, _, kind_code, _, count, entry_bytes, pending_from, pending_count,
         pending_bytes) = _CACHE_HEADER.unpack_from(data)
        if kind_code not in (1, 2):
            raise CacheFormatError(f"{path}: unknown sequence kind {kind_code}")
        kind = SequenceKind.PARTITION if kind_code == 1 else SequenceKind.PLANE_PARTITION
        if expect_kind is not None and kind is not SequenceKind(expect_kind):
            raise CacheFormatError(
                f"{path}: holds a {kind.value} table, expected {SequenceKind(expect_kind).value}"
            )
        if count < 1:
            raise CacheFormatError(f"{path}: empty table")
        last = count - 1
        if kind is SequenceKind.PARTITION or last < _LEAF:  # no product run yet
            pending_ok = pending_from == pending_count == pending_bytes == 0
        else:  # the sums of the last run reach past the last entry
            pending_ok = pending_from == last - last % _LEAF and pending_count > last % _LEAF
        if not pending_ok:
            raise CacheFormatError(f"{path}: pending sums do not fit a {count}-entry table")
        first = _CACHE_HEADER.size + 4 * (count + pending_count)  # the first record
        if first > body:
            raise CacheFormatError(f"{path}: truncated record lengths")
        lengths = array("I", data[_CACHE_HEADER.size : first])
        if sys.byteorder == "big":
            lengths.byteswap()
        offsets = array("Q", accumulate(lengths, initial=first))
        if offsets[-1] != body:
            raise CacheFormatError(f"{path}: record lengths do not match the records")
        table = cls(kind, memory_budget=memory_budget)
        if entry_bytes + pending_bytes > table.memory_budget:
            raise ResourceLimitError(f"{path}: cached table exceeds the memory budget")
        table._values = [None] * count
        table._bytes = entry_bytes + pending_bytes
        table._pending_bytes = pending_bytes
        table._raw, table._offsets = data, offsets
        table._unparsed_chunks = -(-count // _PARSE_CHUNK)
        table._pending = [table._record(n) for n in range(count, count + pending_count)]
        if table._record(0) != 1:
            raise CacheFormatError(f"{path}: entry 0 is {table._record(0)}, expected 1")
        table._verify_last_entry()
        return table

    def _record(self, n: int) -> int:
        """Record n of a loaded table (past last_index, a pending sum), read without parsing."""
        return int.from_bytes(self._raw[self._offsets[n] : self._offsets[n + 1]], "little")

    def _parse_chunk(self, n: int) -> None:
        """Parse the chunk of records that holds entry n; drop the file once none is left."""
        lo = n - n % _PARSE_CHUNK
        hi = min(lo + _PARSE_CHUNK, len(self._values))
        raw, off = self._raw, self._offsets
        self._values[lo:hi] = [
            int.from_bytes(raw[a:b], "little") for a, b in zip(off[lo:hi], off[lo + 1 : hi + 1])
        ]
        self._unparsed_chunks -= 1
        if not self._unparsed_chunks:
            self._raw = self._offsets = None

    def _parse_all(self) -> None:
        """Parse every entry left."""
        for lo in range(0, len(self._values), _PARSE_CHUNK):
            if self._values[lo] is None:
                self._parse_chunk(lo)

    def _verify_last_entry(self) -> None:
        """Recompute a loaded table's last entry from the entries before it.

        For p that reads the ~2 sqrt(2n/3) pentagonal predecessors from
        their records; the PL convolution reads every entry, so it parses
        all of them.  A PL table from n = _LEAF on also checks its pending
        sum for n: with the per-n terms below _LEAF it must make n * PL(n).
        """
        n = self.last_index
        if n < 1:
            return
        if self.kind is SequenceKind.PARTITION:
            self._grow_pentagonal(n)
            record = self._record
            expected = sum(sign * record(n - g) for g, sign in self._pent if g <= n)
            actual = record(n)
        else:
            self._parse_all()
            vals = self._values
            self._grow_sigma2(n)
            expected, r = divmod(_convolve(self._sigma2, vals, n, n), n)
            if r:
                raise CacheFormatError(f"corrupt cache: convolution remainder at n = {n}")
            actual = vals[n]
        if actual != expected:
            raise CacheFormatError(
                f"corrupt cache: entry {n} fails its recurrence check"
            )
        if self.kind is SequenceKind.PLANE_PARTITION and n >= _LEAF:
            stored = self._pending[n % _LEAF]
            if _convolve(self._sigma2, self._values, n, _LEAF - 1) + stored != n * actual:
                raise CacheFormatError(
                    f"corrupt cache: the pending sum for target {n} fails its check"
                )
