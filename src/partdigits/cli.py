"""Command-line surface: search, bound, verify, census, selftest."""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from functools import cache
from itertools import chain
from pathlib import Path

import mpmath
from mpmath import iv

from .asymptotics import (
    instantiate_p,
    instantiate_pl,
    log_p_estimate,
    log_pl_estimate,
    theorem_bound,
)
from .certified import (
    DEFAULT_PRECISION,
    as_interval,
    inf,
    sup,
    working_precision,
)
from .digits import DigitString, leading_digits, log_value_interval, target_interval
from .engines import (
    DEFAULT_MEMORY_BUDGET,
    CacheFormatError,
    ResourceLimitError,
    SequenceKind,
    SequenceTable,
    brute_force_p,
    brute_force_pl,
    sigma2,
)
from .framework import compute_bounds, find_m_a_delta
from .search import (
    SearchResult,
    VerificationReport,
    decide_membership,
    digit_census,
    find_min_n,
    verify_theorem,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

ENV_CACHE_DIR = "PARTDIGITS_CACHE_DIR"
MAX_TEXT_BASE = 36  # textual digit strings use 0-9a-z


def _parse_bytes(text: str) -> int:
    scale = {"k": 1024, "m": 1024**2, "g": 1024**3}
    t = text.strip().lower()
    mult = scale.get(t[-1:], 1)
    digits = t[:-1] if mult != 1 else t
    try:
        value = int(digits) * mult
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad byte count {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("memory budget must be positive")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared: parsing
    leaves it unchanged, and building it costs about 1.2 ms."""
    parser = argparse.ArgumentParser(
        prog="partdigits",
        description=(
            "Exact partition/plane-partition tables, smallest-n leading-digit "
            "search, and certified first-hit bounds."
        ),
    )
    # Each command takes only the options it reads (README "CLI").
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--output", choices=("json", "csv", "text"), default="json",
        help="report format (default json)",
    )
    tables = argparse.ArgumentParser(add_help=False)
    tables.add_argument(
        "--memory-budget", type=_parse_bytes, default=DEFAULT_MEMORY_BUDGET,
        metavar="BYTES", help="exact-table byte cap; suffixes K/M/G accepted (default 4G)",
    )
    tables.add_argument(
        "--cache", metavar="DIR", default=None,
        help=f"table cache directory (fallback: ${ENV_CACHE_DIR})",
    )
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument(
        "--precision", type=int, default=DEFAULT_PRECISION, metavar="BITS",
        help=f"working precision in bits (default {DEFAULT_PRECISION})",
    )

    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--kind", choices=("p", "pl"), required=True,
                       help="p = partitions, pl = plane partitions")
    sized.add_argument("--base", type=int, required=True, metavar="B",
                       help=f"digit base, 2..{MAX_TEXT_BASE}")

    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", parents=[output, tables, sized],
                              help="smallest n whose value starts with the digit string")
    p_search.add_argument("--digits", required=True, metavar="F",
                          help="target digit string in the given base (0-9a-z)")
    p_search.add_argument("--limit", type=int, default=None, metavar="N",
                          help="scan horizon (default: the uncertified closed form theorem_bound)")
    p_search.set_defaults(handler=_cmd_search)

    p_bound = sub.add_parser("bound", parents=[output, precision, sized],
                             help="first-hit bound and threshold breakdown")
    p_bound.add_argument("--t", type=int, required=True, metavar="T",
                         help="digit-string length")
    p_bound.add_argument("--digits", default=None, metavar="F",
                         help="specific digit string for the actual-delta breakdown")
    p_bound.set_defaults(handler=_cmd_bound)

    p_verify = sub.add_parser("verify", parents=[output, tables, sized],
                              help="first hit for every t-digit string vs the bound")
    p_verify.add_argument("--t", type=int, required=True, metavar="T",
                          help="digit-string length")
    p_verify.set_defaults(handler=_cmd_verify)

    p_census = sub.add_parser("census", parents=[output, tables, sized],
                              help="leading-digit frequencies over n = 1..N")
    p_census.add_argument("--t", type=int, required=True, metavar="T",
                          help="digit-string length")
    p_census.add_argument("--limit", type=int, required=True, metavar="N",
                          help="last table index to count")
    p_census.set_defaults(handler=_cmd_census)

    p_self = sub.add_parser("selftest", parents=[output, precision],
                            help="reduced-scale oracle and envelope checks")
    p_self.set_defaults(handler=_cmd_selftest)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        _validate_common(args)
        return args.handler(args)
    except (ValueError, CacheFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def main() -> None:
    sys.exit(run())


def _validate_common(args) -> None:
    precision = getattr(args, "precision", None)
    if precision is not None and precision < 64:
        raise ValueError(f"precision must be at least 64 bits, got {precision}")
    base = getattr(args, "base", None)
    if base is not None and not 2 <= base <= MAX_TEXT_BASE:
        raise ValueError(f"base must be in 2..{MAX_TEXT_BASE}, got {base}")
    t = getattr(args, "t", None)
    if t is not None and t < 1:
        raise ValueError(f"t must be >= 1, got {t}")


# -- cache ----------------------------------------------------------------

def _cache_file(args, kind: SequenceKind) -> Path | None:
    directory = args.cache or os.environ.get(ENV_CACHE_DIR)
    if not directory:
        return None
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return directory / f"{kind.value}.table"


@contextlib.contextmanager
def _cached_table(args, kind: SequenceKind):
    """The table to scan, loaded from the cache if there is one, and saved
    back once the scan is done or refused by the memory budget: a refused
    table holds exactly the entries before the n it stopped at."""
    path = _cache_file(args, kind)
    if path is not None and path.exists():
        table = SequenceTable.load(path, memory_budget=args.memory_budget, expect_kind=kind)
        loaded = table.last_index
    else:
        table, loaded = SequenceTable(kind, memory_budget=args.memory_budget), -1
    try:
        yield table
    except ResourceLimitError:
        _save_table(table, path, loaded)
        raise
    _save_table(table, path, loaded)


def _save_table(table: SequenceTable, path: Path | None, loaded_last: int) -> None:
    if path is None or table.last_index <= loaded_last:
        return
    # A temp file of its own per writer, so runs saving at once never mix
    # their bytes; the rename makes the last complete write win.
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        table.save(tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# -- rendering ------------------------------------------------------------

RESULT_FIELDS = ("f", "n_min", "bound", "within_bound", "method")


def _fmt(x, digits: int = 25) -> str:
    """Deterministic decimal rendering of a certified value's midpoint."""
    mid = (inf(x) + sup(x)) / 2
    return mpmath.nstr(mid, digits)


def _result_dict(r: SearchResult) -> dict:
    return {
        "f": r.f.text(),
        "kind": r.kind.value,
        "n_min": r.n_min,
        "value_digit_count": r.value_digit_count,
        "method": r.method,
        "bound": r.bound,
        "within_bound": r.within_bound,
    }


def _result_row(r: SearchResult) -> tuple:
    return (r.f.text(), "" if r.n_min is None else r.n_min, r.bound, r.within_bound, r.method)


def _report_dict(report: VerificationReport) -> dict:
    # runtime_seconds and table_entries stay off the wire, so identical
    # configs emit byte-identical JSON, with or without a cache; the text
    # rendering shows both.
    return {
        "kind": report.kind.value,
        "b": report.base,
        "t": report.t,
        "results": [_result_dict(r) for r in report.results],
        "max_n_min": report.max_n_min,
        "all_within_bound": report.all_within_bound,
    }


def _emit(output: str, payload, csv_header, csv_rows, text_lines) -> None:
    """Write one report to stdout in the chosen format.

    `payload` is the JSON document; `csv_rows` and `text_lines` may be
    lazy iterables, and only the chosen format's are consumed.
    """
    if output == "json":
        print(json.dumps(payload, indent=2))
    elif output == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
    else:
        for line in text_lines:
            print(line)


# -- commands -------------------------------------------------------------

def _cmd_search(args) -> int:
    kind = SequenceKind(args.kind)
    f = DigitString.parse(args.digits, args.base)
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"limit must be >= 0, got {args.limit}")
    with _cached_table(args, kind) as table:
        result = find_min_n(kind, f, args.limit, table=table)
    if result is None:
        horizon = args.limit if args.limit is not None else theorem_bound(kind, f.base, f.t)
        print(
            f"not found: no n <= {horizon} with {kind.value}(n) starting '{f}'",
            file=sys.stderr,
        )
        return EXIT_FINDINGS
    text = (
        f"{kind.value}({result.n_min}) starts with '{f}' (base {f.base}); "
        f"value has {result.value_digit_count} digits; method {result.method}; "
        f"bound {result.bound}; within_bound {result.within_bound}"
    )
    _emit(args.output, _result_dict(result), RESULT_FIELDS, [_result_row(result)], [text])
    return EXIT_OK


def _bound_breakdown(params, delta, precision: int) -> dict:
    bounds = compute_bounds(params, delta, precision=precision)
    with working_precision(precision):
        return {
            "delta": _fmt(as_interval(delta)),
            "L1": _fmt(bounds.L1),
            "L2": _fmt(bounds.L2),
            "L3": _fmt(bounds.L3),
            "L4": _fmt(bounds.L4),
            "D": _fmt(bounds.D),
            "bound": bounds.bound,
        }


def _cmd_bound(args) -> int:
    kind = SequenceKind(args.kind)
    b, t, prec = args.base, args.t, args.precision
    tb = theorem_bound(kind, b, t)  # also validates (b, t)
    if args.digits is not None:
        f = DigitString.parse(args.digits, b)
        if f.t != t:
            raise ValueError(f"--digits {args.digits!r} has length {f.t}, but --t is {t}")
    else:
        f = DigitString.from_value(b**t - 1, b, t)  # narrowest window
    params = instantiate_p(b, prec) if kind is SequenceKind.PARTITION else instantiate_pl(b, prec)
    conventions = {
        "nominal_delta": _bound_breakdown(params, Fraction(1, b**t), prec),
        "actual_delta": {
            "f": f.text(), **_bound_breakdown(params, target_interval(f, prec).delta, prec)
        },
    }
    payload = {
        "kind": kind.value,
        "b": b,
        "t": t,
        "theorem_bound": tb,
        "conventions": conventions,
    }
    keys = ("delta", "L1", "L2", "L3", "L4", "D", "bound")
    rows = [(name, bd.get("f", ""), *(bd[k] for k in keys), tb)
            for name, bd in conventions.items()]
    text = [f"{kind.value} base {b} t {t}: theorem bound {tb}"]
    for name, bd in conventions.items():
        extra = f" (f = {bd['f']})" if "f" in bd else ""
        text += [
            f"  {name}{extra}: delta {bd['delta']}, bound {bd['bound']}",
            f"    L1 {bd['L1']}, L2 {bd['L2']}, L3 {bd['L3']}, L4 {bd['L4']}, D {bd['D']}",
        ]
    _emit(args.output, payload, ("convention", "f", *keys, "theorem_bound"), rows, text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    kind = SequenceKind(args.kind)
    with _cached_table(args, kind) as table:
        report = verify_theorem(kind, args.base, args.t, table=table)
    results = report.results
    text = chain(
        [f"{kind.value} base {report.base} t {report.t}: "
         f"{len(results)} digit strings, bound {results[0].bound}"],
        (f"  f {r.f}: {'not found' if r.n_min is None else f'n_min {r.n_min}'}, "
         f"within_bound {r.within_bound}" for r in results),
        [f"max_n_min {report.max_n_min}; all_within_bound {report.all_within_bound}; "
         f"table entries {report.table_entries}; runtime {report.runtime_seconds:.3f}s"],
    )
    _emit(args.output, _report_dict(report), RESULT_FIELDS, map(_result_row, results), text)
    return EXIT_OK if report.all_within_bound else EXIT_FINDINGS


def _cmd_census(args) -> int:
    kind = SequenceKind(args.kind)
    if args.limit < 0:
        raise ValueError(f"census size must be >= 0, got {args.limit}")
    with _cached_table(args, kind) as table:
        census = digit_census(kind, args.base, args.t, args.limit, table=table)
    counts = [(f.text(), c) for f, c in census.items()]
    total = sum(census.values())
    skipped = args.limit - total
    payload = {
        "kind": kind.value,
        "b": args.base,
        "t": args.t,
        "N": args.limit,
        "counts": [{"f": f, "count": c} for f, c in counts],
        "total": total,
        "skipped": skipped,
    }
    text = chain(
        [f"{kind.value} base {args.base} t {args.t}, n = 1..{args.limit}:"],
        (f"  {f}: {c}" for f, c in counts),
        [f"total {total}, skipped {skipped}"],
    )
    _emit(args.output, payload, ("f", "count"), counts, text)
    return EXIT_OK


# -- selftest -------------------------------------------------------------

def _selftest_checks(precision: int):
    checks = []

    p_table = SequenceTable(SequenceKind.PARTITION)
    p_table.extend(1500)
    checks.append((
        "partition-recurrence-vs-enumeration",
        all(p_table[n] == brute_force_p(n) for n in range(16)),
    ))

    pl_table = SequenceTable(SequenceKind.PLANE_PARTITION)
    pl_table.extend(2960)
    checks.append((
        "plane-recurrence-vs-enumeration",
        all(pl_table[n] == brute_force_pl(n) for n in range(9)),
    ))

    sieve = [0] * 301
    for d in range(1, 301):
        for m in range(d, 301, d):
            sieve[m] += d * d
    checks.append((
        "sigma2-vs-divisor-sieve",
        all(sigma2(k) == sieve[k] for k in range(1, 301)),
    ))

    ok = True
    for b in (2, 10):
        for n in range(4, 1501):
            est = log_p_estimate(n, b, precision)
            if not est.contains(log_value_interval(p_table[n], b, precision)):
                ok = False
                break
    checks.append(("partition-log-envelope", ok))

    ok = True
    for n in range(2829, 2961):
        est = log_pl_estimate(n, 10, precision)
        if not est.contains(log_value_interval(pl_table[n], 10, precision)):
            ok = False
            break
    checks.append(("plane-log-envelope", ok))

    ok = True
    with working_precision(precision):
        for k in range(-512, 513):
            x = iv.mpf(k) / 1024
            lhs = iv.log(1 + x)
            if max(abs(inf(lhs)), abs(sup(lhs))) > inf(2 * abs(x)):
                ok = False
                break
    checks.append(("log-doubling-inequality", ok))

    rng = random.Random(20260816)
    ok = True
    for _ in range(300):
        b = rng.randint(2, 16)
        t = rng.randint(2 if b == 2 else 1, 3)
        fv = rng.randint(b ** (t - 1), b**t - 1)
        f = DigitString.from_value(fv, b, t)
        z = rng.randint(0, 8)
        lo, hi = fv * b**z, (fv + 1) * b**z - 1
        for n in (lo, hi, rng.randint(lo, hi)):
            if leading_digits(n, b, t) != f:
                ok = False
            decision, _ = decide_membership(n, target_interval(f, precision), precision)
            if not decision:
                ok = False
    checks.append(("digit-roundtrip", ok))

    hit = find_m_a_delta(
        lambda m: m * ((iv.sqrt(iv.mpf(5)) - 1) / 2), 1, 0, Fraction(1, 2), 50,
        precision=precision,
    )
    checks.append(("golden-ratio-first-hit", hit == 2))

    return checks


def _cmd_selftest(args) -> int:
    checks = [(name, "pass" if ok else "fail") for name, ok in _selftest_checks(args.precision)]
    all_pass = all(status == "pass" for _, status in checks)
    payload = {
        "checks": [{"name": name, "status": status} for name, status in checks],
        "all_pass": all_pass,
    }
    text = [*(f"{status.upper()}  {name}" for name, status in checks), f"all_pass {all_pass}"]
    _emit(args.output, payload, ("name", "status"), checks, text)
    return EXIT_OK if all_pass else EXIT_FINDINGS


if __name__ == "__main__":
    main()
