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
from mpmath.libmp import fone, from_int, mpf_add, mpf_div, mpf_log, mpf_lt, mpf_mul, mpf_sub
from mpmath.libmp import round_ceiling, round_floor

from .certified import DEFAULT_PRECISION, ln_base, membership_half_open

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class DigitString:
    """A t-digit base-b string with a nonzero leading digit.

    Valid digit strings have a (base, t) in the domain of
    check_digit_domain (base 2 needs two digits: the one-digit binary string
    "1" matches every positive integer), every digit in [0, base) and a
    first digit != 0.
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        check_digit_domain(self.base, len(self.digits))
        if any(not (0 <= d < self.base) for d in self.digits):
            raise ValueError(f"digits {self.digits} out of range for base {self.base}")
        if self.digits[0] == 0:
            raise ValueError("leading digit must be nonzero")

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


def _log_int(value: int, base: int, precision: int, less: int | None):
    """Enclosure of log_b(value) - less for an integer value >= 1, at `precision` bits.

    less = None subtracts the digit count of value minus one, which leaves
    the fractional part.  Reads a leading window head = value // b^z of 3/4
    of `precision`, w digits, so value lies in [head*b^z, (head+1)*b^z).
    The one logarithm taken is ln(head), rounded down and up and divided
    outward by ln_base's endpoints; the upper end adds
    1/(head ln b) >= log_b(head + 1) - log_b(head), capped at w because
    head + 1 <= b^w.  Only raw endpoints are handled, every operation
    rounded outward at `precision`, so the working precision plays no part;
    the shift z - less is added in the last rounding.  Endpoints at powers
    of b are exact, so fractional parts never spill outside [0, 1].
    """
    d = digit_count(value, base)
    w = min(d, max(2, math.ceil(precision * 3 / 4 / math.log2(base))))
    z = d - w
    if base == 2:
        head, rem = value >> z, value & ((1 << z) - 1)
    else:
        head, rem = divmod(value, base**z)
    lb_lo, lb_hi = ln_base(base, precision)._mpi_
    h = from_int(head)
    if head * base == base**w:
        lo_end = hi_end = from_int(w - 1)
    else:
        lo_end = mpf_div(mpf_log(h, precision, round_floor), lb_hi, precision, round_floor)
        hi_end = mpf_div(mpf_log(h, precision, round_ceiling), lb_lo, precision, round_ceiling)
    if rem:
        head_lb = mpf_mul(h, lb_lo, precision, round_floor)
        step = mpf_div(fone, head_lb, precision, round_ceiling)
        hi_end = mpf_add(hi_end, step, precision, round_ceiling)
        if mpf_lt(from_int(w), hi_end):
            hi_end = from_int(w)
    shift = from_int(1 - w if less is None else z - less)
    return iv.make_mpf((
        mpf_add(lo_end, shift, precision, round_floor),
        mpf_add(hi_end, shift, precision, round_ceiling),
    ))


def log_value_interval(value: int, base: int, precision: int = DEFAULT_PRECISION):
    """Certified enclosure of log_base(value), value >= 1 exact."""
    return _log_int(value, base, precision, 0)


def frac_log(n: int, base: int, precision: int = DEFAULT_PRECISION):
    """Certified enclosure of the fractional part of log_base(n), n >= 1.

    The enclosure never straddles an integer: it is the log enclosure
    shifted down by the exact digit count minus one, and exact powers of
    the base return the zero-width interval [0, 0].
    """
    return _log_int(n, base, precision, None)


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
        """Enclosure of the window length log_b(1 + 1/f), from exact endpoint differences."""
        (lo_lo, lo_hi), (hi_lo, hi_hi) = self.lo._mpi_, self.hi._mpi_
        return iv.make_mpf((mpf_sub(hi_lo, lo_hi, 0), mpf_sub(hi_hi, lo_lo, 0)))

    def contains(self, x) -> bool | None:
        """Certified membership of the real enclosed by x in [lo, hi)."""
        return membership_half_open(x, self.lo, self.hi)


def target_interval(f: DigitString, precision: int = DEFAULT_PRECISION) -> TargetInterval:
    """Fractional-part window for digit string f, with certified endpoints."""
    shift = f.t - 1
    lo = _log_int(f.value, f.base, precision, shift)
    hi = _log_int(f.value + 1, f.base, precision, shift)
    return TargetInterval(f=f, lo=lo, hi=hi)
