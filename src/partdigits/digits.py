"""Base-b digit strings, leading-digit extraction, and fractional logs.

The central fact used throughout: a positive integer n starts with the
t-digit string f (in base b) exactly when the fractional part of log_b n
lies in the half-open window

    [ log_b f - (t - 1),  log_b (f + 1) - (t - 1) ).

Everything here is exact integer arithmetic plus certified intervals; no
value is ever converted to a decimal string (big-int str() is both slow
and capped by CPython's digit limit).  The log enclosures take no
precision: they run on `certified`'s fixed-point kernel at its one scale.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from mpmath import iv
from mpmath.libmp import mpf_sub

from .certified import DEFAULT_PRECISION, GUARD_BITS, SCALE, from_fixed, ln_fixed
from .certified import membership_half_open

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class DigitString:
    """A t-digit base-b string with a nonzero leading digit, held as its value.

    Valid digit strings have a (base, t) in the domain of
    check_digit_domain (base 2 needs two digits: the one-digit binary string
    "1" matches every positive integer) and a value in
    [base^(t-1), base^t), which makes every digit fit the base and the
    first one nonzero.
    """

    base: int
    t: int
    value: int

    def __post_init__(self):
        check_digit_domain(self.base, self.t)
        if not self.base ** (self.t - 1) <= self.value < self.base**self.t:
            raise ValueError(f"{self.value} is not a {self.t}-digit base-{self.base} integer")

    @property
    def digits(self) -> tuple[int, ...]:
        """The t digits, most significant first."""
        digs = []
        value = self.value
        for _ in range(self.t):
            value, r = divmod(value, self.base)
            digs.append(r)
        return tuple(reversed(digs))

    @classmethod
    def parse(cls, text: str, base: int) -> "DigitString":
        """Parse a textual digit string; letters a-z cover digits 10-35."""
        if base > len(_DIGIT_CHARS):
            raise ValueError(f"textual digit strings support bases 2-36, got {base}")
        lowered = text.lower()
        value = 0
        for ch in lowered:
            d = _DIGIT_CHARS.find(ch)
            if d < 0 or d >= base:
                raise ValueError(f"invalid base-{base} digit {ch!r} in {text!r}")
            value = value * base + d
        # The domain, then the leading digit, each with its own message: the
        # constructor's range check refuses a leading zero as a value.
        check_digit_domain(base, len(lowered))
        if lowered[0] == "0":
            raise ValueError("leading digit must be nonzero")
        return cls(base, len(lowered), value)

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
    return [DigitString(base, t, v) for v in range(base ** (t - 1), base**t)]


def _log_below(n: int, base: int) -> int:
    """An integer at most floor(log_b n) for n >= 1 and base >= 2, from n's bit
    length: the 2^-40 taken off the float quotient outweighs its error."""
    if n < 1 or base < 2:
        raise ValueError(f"need n >= 1 and base >= 2, got {n}, {base}")
    return int((n.bit_length() - 1) / math.log2(base) * (1 - 2**-40))


def digit_count(n: int, base: int) -> int:
    """Number of base-b digits of n >= 1 (exact)."""
    if base == 2 and n >= 1:
        return n.bit_length()
    est = _log_below(n, base)
    p = base ** (est + 1)
    while p <= n:
        p, est = p * base, est + 1
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
    return DigitString(base, t, w)


@functools.cache
def _window(base: int) -> tuple[int, int, int, int]:
    """w, the width in digits of 3/4 of DEFAULT_PRECISION bits, b^w, and 2^S / ln b
    divided outward from ln_fixed at SCALE bits (about 2^-SCALE wide); per base."""
    ln_lo, ln_hi = ln_fixed(base, SCALE)  # at scale SCALE + GUARD_BITS
    top = 1 << (2 * SCALE + GUARD_BITS)
    w = max(2, math.ceil(DEFAULT_PRECISION * 3 / 4 / math.log2(base)))
    return w, base**w, top // ln_hi, -(-top // ln_lo)


def _log_int(value: int, base: int, less: int | None):
    """Enclosure of log_b(value) - less for an integer value >= 1, at 192 bits.

    less = None subtracts the digit count of value minus one, which leaves
    the fractional part.  Reads a leading window head = value // b^z of w
    digits (_window), so value lies in [head*b^z, (head+1)*b^z): one power
    of b at z from _log_below, then exact fixups on the head, give both the
    head and the digit count z + w.  On the fixed-point kernel at S = SCALE,
    every step rounded outward: ln(head) from one mpf_log (ln_fixed) times
    the cached bracket of 2^S / ln b, and on the upper end one ceiling
    division adds 1/(head ln b) >= log_b(head + 1) - log_b(head), capped at
    w because head + 1 <= b^w; the shift z - less is exact.  Endpoints at
    powers of b are exact, so fractional parts never spill outside [0, 1].
    """
    est = _log_below(value, base)  # first: it refuses value < 1 and base < 2
    w, top, r_lo, r_hi = _window(base)
    s, z = SCALE, max(0, est + 1 - w)
    head, rem = divmod(value, base**z)
    while head >= top:  # z was low: one more digit of value goes to rem
        head, digit = divmod(head, base)
        rem, z = rem or digit, z + 1
    if not z:  # the window is all of value
        w = digit_count(value, base)
        top = base**w
    if head * base == top:
        lo = hi = (w - 1) << s
    else:
        ln_lo, ln_hi = ln_fixed(head, DEFAULT_PRECISION)
        lo, hi = ln_lo * r_lo >> s, -(-ln_hi * r_hi >> s)
    if rem:
        hi = min(hi - (-r_hi // head), w << s)
    shift = (1 - w if less is None else z - less) << s
    return from_fixed(lo + shift, hi + shift)


def log_value_interval(value: int, base: int):
    """Certified enclosure of log_base(value), value >= 1 exact."""
    return _log_int(value, base, 0)


def frac_log(n: int, base: int):
    """Certified enclosure of the fractional part of log_base(n), n >= 1.

    The enclosure never straddles an integer: it is the log enclosure
    shifted down by the exact digit count minus one, and exact powers of
    the base return the zero-width interval [0, 0].
    """
    return _log_int(n, base, None)


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


def target_interval(f: DigitString) -> TargetInterval:
    """Fractional-part window for digit string f, with certified endpoints."""
    shift = f.t - 1
    lo = _log_int(f.value, f.base, shift)
    hi = _log_int(f.value + 1, f.base, shift)
    return TargetInterval(f=f, lo=lo, hi=hi)
