"""Base-b digit strings, leading-digit extraction, and fractional logs.

The central fact used throughout: a positive integer n starts with the
t-digit string f (in base b) exactly when the fractional part of log_b n
lies in the half-open window

    [ log_b f - (t - 1),  log_b (f + 1) - (t - 1) ).

Everything here is exact integer arithmetic plus certified intervals; no
value is ever converted to a decimal string (big-int str() is both slow
and capped by CPython's digit limit).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import iv
from mpmath.libmp import fone, from_int, mpf_add, mpf_div, mpf_lt, mpf_mul, round_ceiling, round_floor

from .certified import (
    DEFAULT_PRECISION,
    ln_base,
    membership_half_open,
    working_precision,
)

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class DigitString:
    """A t-digit base-b string with a nonzero leading digit.

    Valid digit strings have base >= 2, every digit in [0, base), a first
    digit != 0, and (for base 2) at least two digits: the one-digit binary
    string "1" matches every positive integer, so it is excluded from the
    domain.
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if not self.digits:
            raise ValueError("digit string must be nonempty")
        if any(not (0 <= d < self.base) for d in self.digits):
            raise ValueError(f"digits {self.digits} out of range for base {self.base}")
        if self.digits[0] == 0:
            raise ValueError("leading digit must be nonzero")
        if self.base == 2 and len(self.digits) < 2:
            raise ValueError("base 2 requires at least two digits")

    @property
    def t(self) -> int:
        return len(self.digits)

    @property
    def value(self) -> int:
        v = 0
        for d in self.digits:
            v = v * self.base + d
        return v

    @classmethod
    def from_value(cls, value: int, base: int, t: int) -> "DigitString":
        """Digit string of a t-digit integer value (base^(t-1) <= value < base^t)."""
        if not base ** (t - 1) <= value < base**t:
            raise ValueError(f"{value} is not a {t}-digit base-{base} integer")
        digs = []
        for _ in range(t):
            value, r = divmod(value, base)
            digs.append(r)
        return cls(base, tuple(reversed(digs)))

    @classmethod
    def parse(cls, text: str, base: int) -> "DigitString":
        """Parse a textual digit string; letters a-z cover digits 10-35."""
        if base > len(_DIGIT_CHARS):
            raise ValueError(f"textual digit strings support bases 2-36, got {base}")
        digs = []
        for ch in text.lower():
            d = _DIGIT_CHARS.find(ch)
            if d < 0 or d >= base:
                raise ValueError(f"invalid base-{base} digit {ch!r} in {text!r}")
            digs.append(d)
        return cls(base, tuple(digs))

    def text(self) -> str:
        if self.base <= len(_DIGIT_CHARS):
            return "".join(_DIGIT_CHARS[d] for d in self.digits)
        return ".".join(str(d) for d in self.digits)

    def __str__(self) -> str:
        return self.text()


def check_digit_domain(base: int, t: int) -> None:
    """Raise ValueError unless t-digit base-b strings exist: base >= 2,
    t >= 1, and not base 2 with t = 1 (the string "1" matches everything)."""
    if base < 2 or t < 1 or (base == 2 and t == 1):
        raise ValueError(f"no valid digit strings for base {base}, t {t}")


def all_digit_strings(base: int, t: int):
    """All valid t-digit base-b strings, in increasing numeric order."""
    check_digit_domain(base, t)
    return [DigitString.from_value(v, base, t) for v in range(base ** (t - 1), base**t)]


def digit_count(n: int, base: int) -> int:
    """Number of base-b digits of n >= 1 (exact)."""
    if n < 1 or base < 2:
        raise ValueError(f"digit_count requires n >= 1 and base >= 2, got {n}, {base}")
    if base == 2:
        return n.bit_length()
    # Float estimate of floor(log_b n) from the bit length, then an exact
    # fixup; the estimate is off by at most a few in pathological cases and
    # the loops below correct any error.
    est = max(0, int((n.bit_length() - 1) * 0.6931471805599453 / math.log(base)))
    p = base**est
    if p <= n:
        while True:
            nxt = p * base
            if nxt > n:
                return est + 1
            p, est = nxt, est + 1
    while p > n:
        p //= base
        est -= 1
    return est + 1


def leading_digits(n: int, base: int, t: int) -> DigitString:
    """First t base-b digits of n, exactly (requires n >= base^(t-1))."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    d = digit_count(n, base)
    if d < t:
        raise ValueError(f"{n} has only {d} base-{base} digits, need {t}")
    if base == 2:
        w = n >> (d - t)
    else:
        w = n // base ** (d - t)
    return DigitString.from_value(w, base, t)


def _log_int(value: int, base: int, precision: int):
    """(Enclosure of log_base(value), digit count of value) for an integer >= 1.

    Reads a leading window head = value // b^z of 3/4 of the working
    `precision` in bits, so value lies in [head*b^z, (head+1)*b^z).  The one
    logarithm taken is log_b(head); the upper end uses
    log_b(head + 1) <= log_b(head) + 1/(head ln b), capped at w because
    head + 1 <= b^w.  Endpoints at powers of b are exact, so fractional parts
    never spill outside [0, 1].
    """
    d = digit_count(value, base)
    w = min(d, max(2, math.ceil(precision * 3 / 4 / math.log2(base))))
    z = d - w
    if base == 2:
        head, rem = value >> z, value & ((1 << z) - 1)
    else:
        head, rem = divmod(value, base**z)
    lb = ln_base(base)
    lo = iv.mpf(w - 1) if head * base == base**w else iv.log(head) / lb
    # endpoints as raw mpf values, each operation rounded outward
    lo_end, hi_end = lo._mpi_
    if rem:
        head_lb = mpf_mul(from_int(head), lb._mpi_[0], precision, round_floor)
        step = mpf_div(fone, head_lb, precision, round_ceiling)
        hi_end = mpf_add(hi_end, step, precision, round_ceiling)
        if mpf_lt(from_int(w), hi_end):
            hi_end = from_int(w)
    shift = from_int(z)
    return iv.make_mpf((
        mpf_add(lo_end, shift, precision, round_floor),
        mpf_add(hi_end, shift, precision, round_ceiling),
    )), d


def log_value_interval(value: int, base: int, precision: int | None = None):
    """Certified enclosure of log_base(value), value >= 1 exact."""
    prec = precision or DEFAULT_PRECISION
    with working_precision(prec):
        return _log_int(value, base, prec)[0]


def frac_log(n: int, base: int, precision: int | None = None):
    """Certified enclosure of the fractional part of log_base(n), n >= 1.

    The enclosure never straddles an integer: it equals the full log
    enclosure shifted down by the exact digit count minus one, and exact
    powers of the base return the zero-width interval [0, 0].
    """
    prec = precision or DEFAULT_PRECISION
    with working_precision(prec):
        x, d = _log_int(n, base, prec)
        return x - (d - 1)


@dataclass(eq=False)
class TargetInterval:
    """Half-open window [lo, hi) of fractional parts of log_b n that start with f.

    lo and hi are certified enclosures of log_b f - (t-1) and
    log_b(f+1) - (t-1); both land in [0, 1], with lo exactly 0 when
    f = b^(t-1) and hi exactly 1 when f + 1 = b^t.
    """

    f: DigitString
    lo: object
    hi: object

    @property
    def delta(self):
        """Enclosure of the window length log_b(1 + 1/f)."""
        return self.hi - self.lo

    def contains(self, x) -> bool | None:
        """Certified membership of the real enclosed by x in [lo, hi)."""
        return membership_half_open(x, self.lo, self.hi)


def target_interval(f: DigitString, precision: int | None = None) -> TargetInterval:
    """Fractional-part window for digit string f, with certified endpoints."""
    prec = precision or DEFAULT_PRECISION
    with working_precision(prec):
        shift = f.t - 1
        lo = _log_int(f.value, f.base, prec)[0] - shift
        hi = _log_int(f.value + 1, f.base, prec)[0] - shift
        return TargetInterval(f=f, lo=lo, hi=hi)
