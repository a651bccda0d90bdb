"""Exact integer tables of partition and plane-partition counts.

Partitions p(n) come from the pentagonal-number recurrence

    p(n) = sum_{k>=1} (-1)^(k+1) [ p(n - k(3k-1)/2) + p(n - k(3k+1)/2) ],

plane partitions PL(n) from the divisor-power convolution

    n * PL(n) = sum_{k=1}^{n} sigma2(k) * PL(n-k),

with the division by n asserted exact (it is a theorem; a remainder means
a bug, never something to round away).  Both recurrences are validated in
the tests against brute-force enumeration oracles on small n.

Tables grow lazily in chunks and account their memory against a byte
budget; extension aborts with ResourceLimitError rather than thrash.
"""
from __future__ import annotations

import struct
import sys
from enum import Enum
from itertools import islice
from math import isqrt
from operator import mul
from pathlib import Path

DEFAULT_MEMORY_BUDGET = 4 * 1024**3  # bytes

BRUTE_FORCE_P_MAX = 40
BRUTE_FORCE_PL_MAX = 12

_CACHE_MAGIC = b"PDTB"
_CACHE_VERSION = 1


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


class SequenceTable:
    """Lazily extended exact table of p(n) or PL(n), n = 0..last_index."""

    def __init__(self, kind: SequenceKind, memory_budget: int | None = None):
        self.kind = SequenceKind(kind)
        self.memory_budget = (
            DEFAULT_MEMORY_BUDGET if memory_budget is None else int(memory_budget)
        )
        if self.memory_budget <= 0:
            raise ValueError("memory budget must be positive")
        self._values: list[int] = [1]
        self._bytes = _int_size(1)
        self._sigma2: list[int] = [0]  # index 0 unused
        self._pent: list[tuple[int, int]] = []  # (offset, sign), ascending

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n < len(self._values):
            raise IndexError(f"table holds n = 0..{self.last_index}, got {n}")
        return self._values[n]

    @property
    def last_index(self) -> int:
        return len(self._values) - 1

    @property
    def estimated_bytes(self) -> int:
        return self._bytes

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
        if self.kind is SequenceKind.PARTITION:
            self._extend_partition(n)
        else:
            self._extend_plane(n)
        return self

    def _extend_partition(self, n: int) -> None:
        self._grow_pentagonal(n)
        vals = self._values
        pent = self._pent
        for m in range(len(vals), n + 1):
            total = 0
            for g, sign in pent:
                if g > m:
                    break
                if sign > 0:
                    total += vals[m - g]
                else:
                    total -= vals[m - g]
            self._charge(_int_size(total))
            vals.append(total)

    def _extend_plane(self, n: int) -> None:
        self._grow_sigma2(n)
        vals = self._values
        sig = self._sigma2
        for m in range(len(vals), n + 1):
            acc = sum(map(mul, islice(sig, 1, m + 1), reversed(vals)))
            q, r = divmod(acc, m)
            if r:
                raise ArithmeticError(
                    f"plane-partition convolution not divisible at n = {m}"
                )
            self._charge(_int_size(q))
            vals.append(q)

    # -- cache ----------------------------------------------------------

    def save(self, path) -> None:
        """Write the table to a binary cache file."""
        kind_code = 1 if self.kind is SequenceKind.PARTITION else 2
        path = Path(path)
        with open(path, "wb") as fh:
            fh.write(
                struct.pack("<4sHBBQ", _CACHE_MAGIC, _CACHE_VERSION, kind_code, 0, len(self._values))
            )
            for v in self._values:
                blob = v.to_bytes((v.bit_length() + 7) // 8 or 1, "little")
                fh.write(struct.pack("<I", len(blob)))
                fh.write(blob)

    @classmethod
    def load(
        cls,
        path,
        memory_budget: int | None = None,
        expect_kind: SequenceKind | None = None,
    ) -> "SequenceTable":
        """Load a cache file, verifying shape and the last entry's recurrence."""
        path = Path(path)
        data = path.read_bytes()
        header = struct.calcsize("<4sHBBQ")
        if len(data) < header:
            raise CacheFormatError(f"{path}: truncated header")
        magic, version, kind_code, _, count = struct.unpack_from("<4sHBBQ", data)
        if magic != _CACHE_MAGIC:
            raise CacheFormatError(f"{path}: bad magic {magic!r}")
        if version != _CACHE_VERSION:
            raise CacheFormatError(f"{path}: unsupported version {version}")
        if kind_code not in (1, 2):
            raise CacheFormatError(f"{path}: unknown sequence kind {kind_code}")
        kind = SequenceKind.PARTITION if kind_code == 1 else SequenceKind.PLANE_PARTITION
        if expect_kind is not None and kind is not SequenceKind(expect_kind):
            raise CacheFormatError(
                f"{path}: holds a {kind.value} table, expected {SequenceKind(expect_kind).value}"
            )
        if count < 1:
            raise CacheFormatError(f"{path}: empty table")
        table = cls(kind, memory_budget=memory_budget)
        values: list[int] = []
        nbytes = 0
        off = header
        for _ in range(count):
            if off + 4 > len(data):
                raise CacheFormatError(f"{path}: truncated record length")
            (ln,) = struct.unpack_from("<I", data, off)
            off += 4
            if off + ln > len(data):
                raise CacheFormatError(f"{path}: truncated record payload")
            v = int.from_bytes(data[off : off + ln], "little")
            off += ln
            nbytes += _int_size(v)
            if nbytes > table.memory_budget:
                raise ResourceLimitError(
                    f"{path}: cached table exceeds the memory budget"
                )
            values.append(v)
        if off != len(data):
            raise CacheFormatError(f"{path}: {len(data) - off} trailing bytes")
        if values[0] != 1:
            raise CacheFormatError(f"{path}: entry 0 is {values[0]}, expected 1")
        table._values = values
        table._bytes = nbytes
        table._verify_last_entry()
        return table

    def _verify_last_entry(self) -> None:
        n = self.last_index
        if n < 1:
            return
        vals = self._values
        if self.kind is SequenceKind.PARTITION:
            self._grow_pentagonal(n)
            total = 0
            for g, sign in self._pent:
                if g > n:
                    break
                total += vals[n - g] if sign > 0 else -vals[n - g]
            expected = total
        else:
            self._grow_sigma2(n)
            acc = sum(map(mul, islice(self._sigma2, 1, n + 1), islice(reversed(vals), 1, None)))
            q, r = divmod(acc, n)
            if r:
                raise CacheFormatError(f"corrupt cache: convolution remainder at n = {n}")
            expected = q
        if vals[n] != expected:
            raise CacheFormatError(
                f"corrupt cache: entry {n} fails its recurrence check"
            )


# Leading-order byte-cost model for the two tables: entry n of the p table
# has ~3.71*sqrt(n) bits, entry n of the PL table ~2.90*n^(2/3) bits; the
# constants below fold in per-int object overhead.
def estimate_table_bytes(kind: SequenceKind, n: int) -> int:
    """Rough a-priori memory estimate for a table covering 0..n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    kind = SequenceKind(kind)
    if kind is SequenceKind.PARTITION:
        payload = 0.309 * (n + 1) ** 1.5
        overhead = 36.0 * (n + 1)
    else:
        payload = 0.218 * (n + 1) ** (5.0 / 3.0)
        overhead = 80.0 * (n + 1)  # includes the sigma2 sieve entries
    return int(payload + overhead)
