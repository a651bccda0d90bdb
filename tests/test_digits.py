"""Digit strings, leading-digit extraction, and fractional-log windows."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv, mp
from mpmath.libmp import mpf_add

from partdigits import (
    DigitString,
    all_digit_strings,
    compute_bounds,
    digit_count,
    frac_log,
    instantiate_p,
    leading_digits,
    log_p_estimate,
    log_value_interval,
    target_interval,
)
from partdigits.certified import DEFAULT_PRECISION, as_interval, inf, interval_context, sup


def test_digit_string_validation():
    with pytest.raises(ValueError):
        DigitString(1, 1, 1)
    with pytest.raises(ValueError):
        DigitString(10, 0, 0)
    with pytest.raises(ValueError, match="31 is not a 1-digit base-10 integer"):
        DigitString(10, 1, 31)  # a digit beyond the base
    with pytest.raises(ValueError, match="5 is not a 2-digit base-10 integer"):
        DigitString(10, 2, 5)  # a leading zero
    with pytest.raises(ValueError):
        DigitString(2, 1, 1)  # one-digit binary string matches everything
    assert DigitString(2, 2, 2).text() == "10"  # minimal valid binary string


def test_value_range():
    assert DigitString(10, 2, 10).text() == "10"
    with pytest.raises(ValueError):
        DigitString(10, 2, 9)
    with pytest.raises(ValueError):
        DigitString(10, 2, 100)


def test_digit_string_is_its_value():
    f = DigitString(16, 3, 0x1F0)
    assert (f.base, f.t, f.value) == (16, 3, 0x1F0) and f.digits == (1, 15, 0)
    assert f == DigitString.parse("1f0", 16) and hash(f) == hash(DigitString.parse("1F0", 16))
    assert DigitString(40, 2, 40 * 39 + 7).text() == "39.7"  # past 36, digits are numbers


def test_parse_and_text():
    f = DigitString.parse("31", 10)
    assert f.base == 10 and f.digits == (3, 1) and f.t == 2 and f.value == 31
    assert f.text() == "31" and str(f) == "31"
    hexs = DigitString.parse("1F", 16)
    assert hexs.value == 31 and hexs.text() == "1f"
    with pytest.raises(ValueError, match="invalid base-2 digit '2' in '12'"):
        DigitString.parse("12", 2)
    with pytest.raises(ValueError, match="invalid base-16 digit 'x' in '0X1'"):
        DigitString.parse("0X1", 16)
    with pytest.raises(ValueError, match="support bases 2-36, got 37"):
        DigitString.parse("7", 37)
    # the checks after the characters, in order: the (base, t) domain, then the leading digit
    with pytest.raises(ValueError, match="no valid digit strings for base 10, t 0"):
        DigitString.parse("", 10)
    with pytest.raises(ValueError, match="no valid digit strings for base 2, t 1"):
        DigitString.parse("0", 2)
    with pytest.raises(ValueError, match="leading digit must be nonzero"):
        DigitString.parse("07", 10)


def test_all_digit_strings():
    assert [f.text() for f in all_digit_strings(10, 1)] == [str(d) for d in range(1, 10)]
    assert [f.text() for f in all_digit_strings(2, 2)] == ["10", "11"]
    for b, t in ((3, 2), (10, 2), (16, 1)):
        assert len(all_digit_strings(b, t)) == (b - 1) * b ** (t - 1)
    with pytest.raises(ValueError):
        all_digit_strings(2, 1)
    with pytest.raises(ValueError):
        all_digit_strings(10, 0)
    with pytest.raises(ValueError):
        all_digit_strings(1, 3)
    with pytest.raises(ValueError):
        all_digit_strings(0, 1)


def test_digit_count_matches_string_length():
    rng = random.Random(7)
    values = [1, 9, 10, 11, 99, 100, 10**12 - 1, 10**12, 3**200]
    values += [rng.randrange(1, 10**30) for _ in range(200)]
    for n in values:
        assert digit_count(n, 10) == len(str(n))
        assert digit_count(n, 2) == n.bit_length()
    for b in (3, 7, 16, 36):
        for e in range(0, 40, 7):
            assert digit_count(b**e, b) == e + 1
            assert digit_count(b**e + 1, b) == e + 1
            if e:
                assert digit_count(b**e - 1, b) == e
    with pytest.raises(ValueError):
        digit_count(0, 10)
    with pytest.raises(ValueError):
        digit_count(5, 1)
    with pytest.raises(ValueError):
        digit_count(5, 0)
    with pytest.raises(ValueError):
        leading_digits(5, 1, 1)


def test_log_enclosures_refuse_a_value_below_1_in_their_own_terms():
    # the shared check names no function: log_value_interval and frac_log
    # never call digit_count
    for call, args in ((log_value_interval, (0, 10)), (frac_log, (5, 1)), (digit_count, (0, 10))):
        with pytest.raises(ValueError, match="need n >= 1 and base >= 2") as raised:
            call(*args)
        assert "digit_count" not in str(raised.value), call.__name__


def test_leading_digits_examples():
    assert leading_digits(31415, 10, 2).text() == "31"
    assert leading_digits(10**6, 10, 3).text() == "100"
    assert leading_digits(0b110101, 2, 3).text() == "110"
    with pytest.raises(ValueError):
        leading_digits(99, 10, 3)  # fewer than t digits
    with pytest.raises(ValueError):
        leading_digits(99, 10, 0)


def test_leading_digits_of_table_value(p_table):
    # p(100) = 190569292
    assert leading_digits(p_table[100], 10, 3).text() == "190"
    assert leading_digits(p_table[100], 10, 1).text() == "1"


def test_frac_log_exact_powers():
    for n, b in ((1, 10), (1000, 10), (10**30, 10), (2**80, 2), (3**12, 3)):
        x = frac_log(n, b)
        assert inf(x) == 0 and sup(x) == 0


def test_frac_log_value():
    # log10(2) = 0.3010299956639811952...; bracket loosely since the
    # enclosure is far tighter than a 53-bit float literal
    x = frac_log(2, 10)
    assert 0.301029995663980 < inf(x) and sup(x) < 0.301029995663982
    assert sup(x) - inf(x) < 1e-40


def test_frac_log_stays_inside_unit_interval():
    rng = random.Random(11)
    samples = [10**100 + 3, 10**90 - 1, 7**333, 2**500 - 1, 2**500 + 1]
    samples += [rng.randrange(1, 10**60) for _ in range(100)]
    for n in samples:
        for b in (2, 10, 16):
            x = frac_log(n, b)
            assert inf(x) >= 0 and sup(x) <= 1
    with pytest.raises(ValueError):
        frac_log(0, 10)
    with pytest.raises(ValueError):
        frac_log(5, 1)


def test_frac_log_boundary_windows_are_exact():
    # a value whose leading window is itself a power of the base gets an
    # exact lower endpoint, so windows starting at 0 stay decidable
    x = frac_log(10**100 + 3, 10)
    assert inf(x) == 0 and 0 < sup(x) < 1e-40
    y = frac_log(10**90 - 1, 10)
    assert sup(y) == 1


def test_log_value_interval(p_table):
    # log10(190569292) = 8.2800529204922...
    x = log_value_interval(p_table[100], 10)
    assert 8.28005292049 < inf(x) and sup(x) < 8.28005292050
    assert sup(x) - inf(x) < 1e-40
    with pytest.raises(ValueError):
        log_value_interval(0, 10)


def test_target_interval_examples():
    # loose two-sided brackets around log10(2), log10(9), log10(3.1),
    # log10(3.2); each enclosure is tighter than 1e-40
    one = target_interval(DigitString.parse("1", 10))
    assert inf(one.lo) == 0 and sup(one.lo) == 0
    assert 0.301029995663980 < inf(one.hi) and sup(one.hi) < 0.301029995663982

    nine = target_interval(DigitString.parse("9", 10))
    assert 0.954242509439 < inf(nine.lo) and sup(nine.lo) < 0.954242509440
    assert inf(nine.hi) == 1 and sup(nine.hi) == 1

    f31 = target_interval(DigitString.parse("31", 10))
    assert 0.491361693834 < inf(f31.lo) and sup(f31.lo) < 0.491361693835
    assert 0.505149978319 < inf(f31.hi) and sup(f31.hi) < 0.505149978320
    assert inf(f31.delta) > 0


def test_target_intervals_partition_unit_interval():
    for b, t in ((10, 1), (10, 2), (2, 2), (16, 1), (3, 3)):
        strings = all_digit_strings(b, t)
        first = target_interval(strings[0])
        last = target_interval(strings[-1])
        assert inf(first.lo) == 0 and sup(first.lo) == 0
        assert inf(last.hi) == 1 and sup(last.hi) == 1
        prev = first
        for f in strings[1:]:
            cur = target_interval(f)
            # adjacent windows share their endpoint enclosure exactly
            assert inf(prev.hi) == inf(cur.lo) and sup(prev.hi) == sup(cur.lo)
            prev = cur
        for f in strings:
            ti = target_interval(f)
            assert inf(ti.delta) > 0  # delta positivity
            assert inf(ti.lo) >= 0 and sup(ti.hi) <= 1


def test_membership_round_trip_small_grid():
    # both directions of the window characterization on a seeded sample,
    # boundary values f*b^z and (f+1)*b^z - 1 included
    rng = random.Random(20260816)
    for _ in range(300):
        b = rng.randint(2, 16)
        t = rng.randint(2 if b == 2 else 1, 3)
        fv = rng.randint(b ** (t - 1), b**t - 1)
        f = DigitString(b, t, fv)
        ti = target_interval(f)
        z = rng.randint(0, 10)
        lo, hi = fv * b**z, (fv + 1) * b**z - 1
        for n in (lo, hi, rng.randint(lo, hi)):
            assert leading_digits(n, b, t) == f
            decision = ti.contains(frac_log(n, b))
            assert decision is not False
        outside = hi + 1
        if digit_count(outside, b) >= t and leading_digits(outside, b, t) != f:
            assert ti.contains(frac_log(outside, b)) is not True


def test_window_width_parameter():
    # the leading window is 3/4 of the kernel's 192 bits, so an enclosure
    # is about 2^-144 wide
    x = frac_log(7**333, 10)
    assert sup(x) - inf(x) < 2.0 ** (8 - 3 * DEFAULT_PRECISION // 4)


def _certified_answers():
    """Endpoints and answers of the certified log layer at its default precision."""
    window = target_interval(DigitString.parse("37", 10))
    estimate = log_p_estimate(100, 10)
    # exactly the envelope's radius above the midpoint's lower end: inside
    edge = mpf_add(estimate.midpoint._mpi_[0], estimate.envelope._mpi_[0], 0)
    return (
        log_value_interval(7**333, 10)._mpi_,
        frac_log(7**333, 10)._mpi_,
        window.lo._mpi_,
        window.hi._mpi_,
        window.delta._mpi_,
        estimate.contains(log_value_interval(190569292, 10)),  # p(100)
        estimate.contains(iv.make_mpf((edge, edge))),
    )


def test_certified_logs_ignore_the_working_precision(monkeypatch):
    outside = _certified_answers()
    assert outside[-2:] == (True, True)
    for bits in (64, 512):
        monkeypatch.setattr(iv, "prec", bits)
        monkeypatch.setattr(mp, "prec", bits)
        assert _certified_answers() == outside, bits


def test_log_enclosures_refuse_a_precision_below_8_bits():
    # the per-n logs take no precision; the layers that do compute on
    # interval_context, which refuses one below 8 bits.  0 is a precision
    # like any other: it is refused, not read as the default
    for precision in (0, 7):
        with pytest.raises(ValueError, match="at least 8 bits"):
            instantiate_p(10, precision)
        with pytest.raises(ValueError, match="at least 8 bits"):
            compute_bounds(instantiate_p(10), Fraction(1, 10), precision)
        with pytest.raises(ValueError, match="at least 8 bits"):
            as_interval(Fraction(1, 3), precision)


def test_as_interval_takes_a_pair():
    for pair in ((1, 2), [1, 2]):
        x = as_interval(pair)
        assert (inf(x), sup(x)) == (1, 2)


def _leading_window(value, base, precision):
    """(head, rem, w, z): value = head*b^z + rem with head of w digits, the
    leading window of 3/4 of `precision` that log_value_interval reads."""
    d = digit_count(value, base)
    w = min(d, max(2, math.ceil(precision * 3 / 4 / math.log2(base))))
    head, rem = divmod(value, base ** (d - w))
    return head, rem, w, d - w


def _two_log_interval(value, base, precision):
    """Oracle: the enclosure as computed with two logarithms, log_b(head)
    and log_b(head + 1), over the same leading window."""
    ctx = interval_context(precision)
    head, rem, w, z = _leading_window(value, base, precision)
    top = base**w
    lb = ctx.log(base)
    lo = ctx.mpf(w - 1) if head * base == top else ctx.log(head) / lb
    if rem == 0:
        return lo + z
    hi = ctx.mpf(w) if head + 1 == top else ctx.log(head + 1) / lb
    return ctx.mpf([inf(lo), sup(hi)]) + z


def _log_cases(base, precision, rng):
    """Powers of the base and their neighbours, windows that end at b^w,
    values with rem == 0 or rem at either end, and random 50-600 digit
    values.  The structured values stay below about 2^(1.7P), so that a
    2P-bit enclosure separates them from the exact endpoints near them."""
    w = max(2, math.ceil(precision * 3 / 4 / math.log2(base)))
    values = [1]
    for k in (1, 3, w - 1, w, w + 1, 2 * w):
        values += [base**k, base**k - 1, base**k + 1]
    for z in (1, w // 4 + 1, w // 2 + 1):  # the last puts the ends within an ulp
        for _ in range(16):
            head = rng.randrange(base ** (w - 1), base**w)
            values += [head * base**z, head * base**z + 1, (head + 1) * base**z - 1]
    values += [(base**w - 1) * base**z for z in (1, 5)]  # head + 1 == top, rem == 0
    for _ in range(12):
        digits = rng.randint(50, 600)
        values.append(rng.randrange(10 ** (digits - 1), 10**digits))
    return [v for v in values if v >= 1]


@pytest.mark.parametrize("base", [2, 3, 10, 16, 36])
@pytest.mark.parametrize("precision", [DEFAULT_PRECISION])  # the per-n kernel's only precision
def test_log_value_interval_against_two_log_oracle(base, precision):
    rng = random.Random(1000 * base + precision)
    for value in _log_cases(base, precision, rng):
        x = log_value_interval(value, base)
        oracle = _two_log_interval(value, base, precision)
        wide = interval_context(2 * precision)
        ref = wide.log(value) / wide.log(base)
        if inf(x) == sup(x):  # exact: value is a power of the base
            assert inf(ref) <= inf(x) <= sup(ref), value
        else:
            assert inf(x) <= inf(ref) and sup(ref) <= sup(x), value
        assert inf(x) <= sup(oracle) and inf(oracle) <= sup(x), value
        assert sup(x) - inf(x) <= 2 * (sup(oracle) - inf(oracle)), value
        head, rem, _, _ = _leading_window(value, base, precision)
        if rem == 0:
            # no 1/(head ln b) step: the width is one ulp of ln(head) at
            # `precision` bits over ln b, and the guard bits keep the
            # kernel's own roundings below 2^-16 of that
            ulp = mp.mpf(2) ** (mpmath.frexp(sup(wide.log(head)))[1] - precision)
            assert sup(x) - inf(x) <= (1 + 2**-16) * ulp / sup(wide.log(base)), value
        fr = frac_log(value, base)
        assert 0 <= inf(fr) and sup(fr) <= 1, value


def test_one_power_head_matches_two_powers_at_power_boundaries(log_int_reference):
    # values on either side of b^k, and windows that end at b^w, where the
    # float estimate of the head's place is most often off and fixed up;
    # k runs from w - 2 (the window is all of the value) to w + 3
    for base in range(2, 37):
        w = math.ceil(DEFAULT_PRECISION * 3 / 4 / math.log2(base))
        for k in range(w - 2, w + 4):
            for value in (base**k - 1, base**k, base**k + 1, (base**w - 1) * base**k):
                d = digit_count(value, base)
                assert base ** (d - 1) <= value < base**d, (base, value)
                for ours, less in ((log_value_interval, 0), (frac_log, None)):
                    ref = log_int_reference(value, base, less)
                    assert ours(value, base)._mpi_ == ref._mpi_, (base, value, less)
