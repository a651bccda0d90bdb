"""Reference answers for the benchmark, computed without partdigits.

Nothing here imports the package under test.  Answers come from three
independent sources:

- ``reference_data.json``: first hits and leading digits pinned by
  ``make_reference.py`` from its own recurrences, plus SHA-256 digests of
  the exact tables at the sizes the workloads build;
- an exact head scan over tables whose digest matched;
- closed forms evaluated in ``decimal`` (bounds) or binary floats (log
  envelopes, whose margins are many orders above float error).
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from decimal import Decimal, localcontext
from pathlib import Path

DATA_PATH = Path(__file__).with_name("reference_data.json")

DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"

PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
ZETA3 = Decimal("1.202056903159594285399738161511449990764986292340498882")
ZETA_PRIME_MINUS_ONE = -0.1654211437004509292139196602427806427640363803352017837

# partdigits rounds a bound up from a certified enclosure about 4e-16
# wide (relative), so a true value within this relative distance of an
# integer may legitimately come out one higher; the reference refuses those.
_CEIL_GUARD = Decimal("1e-14")


class ReferenceError(RuntimeError):
    """The reference cannot decide an answer, or its inputs fail a digest."""


def load_data() -> dict:
    return json.loads(DATA_PATH.read_text())


def digit_text(value: int, base: int) -> str:
    digits = []
    while value:
        value, r = divmod(value, base)
        digits.append(DIGIT_CHARS[r])
    return "".join(reversed(digits)) or "0"


def table_digest(values) -> str:
    """SHA-256 over length-prefixed little-endian entries."""
    h = hashlib.sha256()
    for v in values:
        blob = v.to_bytes((v.bit_length() + 7) // 8 or 1, "little")
        h.update(len(blob).to_bytes(4, "little"))
        h.update(blob)
    return h.hexdigest()


def check_digest(kind: str, values, pins: dict) -> None:
    """Raise unless every pinned prefix of `values` has its pinned digest."""
    checked = 0
    for last, digest in pins[kind].items():
        last = int(last)
        if last < len(values):
            if table_digest(values[: last + 1]) != digest:
                raise ReferenceError(f"{kind} table to n = {last} fails its pinned digest")
            checked += 1
    if not checked:
        raise ReferenceError(f"no pinned {kind} digest covers {len(values)} entries")


def head(value: int, base: int, t: int) -> int | None:
    """Leading t base-b digits of value, or None when it has fewer than t."""
    if value < base ** (t - 1):
        return None
    if base == 2:
        return value >> (value.bit_length() - t)
    # (bit_length - 1) * log_b 2 <= log_b value, so k never exceeds the
    # digit count minus t; the loop strips whatever digits remain.
    k = max(0, int((value.bit_length() - 1) * math.log(2) / math.log(base)) - t - 1)
    h = value // base**k
    top = base**t
    while h >= top:
        h //= base
    return h


def heads(values, base: int, t: int) -> list[int | None]:
    return [head(v, base, t) for v in values]


def first_hits(head_list, start: int = 0) -> dict[int, int]:
    """First index (>= start) of every head value that occurs."""
    first: dict[int, int] = {}
    for n in range(start, len(head_list)):
        h = head_list[n]
        if h is not None and h not in first:
            first[h] = n
    return first


def census_counts(head_list, N: int) -> dict[int, int]:
    """{head: count} over n = 1..N, heads in increasing order."""
    counts = Counter(h for h in head_list[1 : N + 1] if h is not None)
    return {h: counts[h] for h in sorted(counts)}


# -- closed-form bounds ------------------------------------------------------

def _ceil(x: Decimal) -> int:
    c = int(x.to_integral_value(rounding="ROUND_CEILING"))
    if min(c - x, x - (c - 1)) < _CEIL_GUARD * x:
        raise ReferenceError(f"bound {x} is too close to an integer to decide")
    return c


def theorem_bound(kind: str, base: int, t: int) -> int:
    """ceil(290 b^(2t)/ln(b)^2) for p, ceil(29396 b^(3t/2)/ln(b)^(3/2)) for pl."""
    with localcontext() as ctx:
        ctx.prec = 60
        b = Decimal(base)
        lb = b.ln()
        if kind == "p":
            return _ceil(290 * b ** (2 * t) / lb**2)
        return _ceil(29396 * b ** (Decimal(3 * t) / 2) / (lb * lb.sqrt()))


def _cbrt(x: Decimal) -> Decimal:
    return (x.ln() / 3).exp()


def framework_bound(kind: str, base: int, delta: Decimal) -> int:
    """ceil(2 max(K, L1, L2 + 1, L3, L4)) for the growth model of `kind`."""
    with localcontext() as ctx:
        ctx.prec = 60
        lb = Decimal(base).ln()
        if kind == "p":
            # theta = 1/2: 1/theta = 2, 1/(1 - theta) = 2, 2^(theta-1) = 1/sqrt 2
            K = 4
            c1 = PI * Decimal(24).sqrt() / 6 / lb
            c2 = -1 / lb
            c4 = 4 / lb
            theta = Decimal("0.5")
            l1 = (-3 * c2 / (c1 * theta)) ** 2
            l2 = (3 * c4 / delta) ** 2
            l3 = (2 / (c1 * theta / Decimal(2).sqrt())) ** 2
            l4 = (3 * c1 * theta / delta) ** 2
        else:
            # theta = 2/3: 1/theta = 3/2, 1/(1 - theta) = 3, 2^(theta-1) = 2^(-1/3)
            K = 2829
            c1 = 3 * _cbrt(ZETA3 / 4) / lb
            c2 = Decimal(-25) / 36 / lb
            c4 = 200 / lb
            theta = Decimal(2) / 3
            three_halves = Decimal("1.5")
            l1 = (-3 * c2 / (c1 * theta)) ** three_halves
            l2 = (3 * c4 / delta) ** three_halves
            l3 = (2 / (c1 * theta / _cbrt(Decimal(2)))) ** three_halves
            l4 = (3 * c1 * theta / delta) ** 3
        top = max(l1, l2 + 1, l3, l4)
        return 2 * K if top <= K else _ceil(2 * top)


def nominal_delta(base: int, t: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return 1 / Decimal(base) ** t


def window_delta(f_value: int, base: int) -> Decimal:
    """log_b((f + 1) / f), the width of the window of digit string f."""
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(f_value + 1) / f_value).ln() / Decimal(base).ln()


# -- log envelopes -----------------------------------------------------------

_LN_PL_PREFACTOR = (
    25 / 26 * math.log(2)
    + ZETA_PRIME_MINUS_ONE
    + 7 / 26 * math.log(float(ZETA3))
    - 0.5 * math.log(12 * math.pi)
)
_ENVELOPE_GUARD = 1e-9


def envelope_margin(kind: str, n: int, base: int, value: int) -> float:
    """Envelope minus |log_b value - midpoint| for the estimate of `kind`.

    The midpoint and envelope follow the formulas documented in
    partdigits.asymptotics (including its plane-partition prefactor), so
    a positive margin is exactly the answer `contains` must give.
    """
    lb = math.log(base)
    if kind == "p":
        root = math.sqrt(n)
        mid = (math.pi * math.sqrt(24) / 6 * root - math.log(n)
               + math.log(math.sqrt(3) / 12)) / lb
        env = 4 / (root * lb)
    else:
        pow23 = n ** (2 / 3)
        mid = (3 * (float(ZETA3) / 4) ** (1 / 3) * pow23 - 25 / 36 * math.log(n)
               + _LN_PL_PREFACTOR) / lb
        env = 200 / (pow23 * lb)
    return env - abs(math.log(value) / lb - mid)


def envelope_contains(kind: str, n: int, base: int, value: int) -> bool:
    margin = envelope_margin(kind, n, base, value)
    if abs(margin) < _ENVELOPE_GUARD:
        raise ReferenceError(f"{kind}({n}) base {base} lies on its envelope edge")
    return margin > 0
