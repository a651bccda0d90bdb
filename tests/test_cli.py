"""Command-line surface: outputs, exit statuses, cache handling."""
from __future__ import annotations

import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import iv, mp

import partdigits
import partdigits.asymptotics as asymptotics
import partdigits.certified as certified
import partdigits.cli as cli
import partdigits.engines as engines
from partdigits import (
    DigitString,
    FrameworkParams,
    SequenceKind,
    SequenceTable,
    as_interval,
    compute_bounds,
    frac_log,
    instantiate_p,
    instantiate_pl,
    log_p_estimate,
    log_pl_estimate,
    log_value_interval,
    target_interval,
    theorem_bound,
)
from partdigits.cli import (
    EXIT_FINDINGS,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    ENV_CACHE_DIR,
    _parse_bytes,
    run,
)


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_bytes():
    assert _parse_bytes("1024") == 1024
    assert _parse_bytes("4k") == 4096
    assert _parse_bytes("2M") == 2 * 1024**2
    assert _parse_bytes("1G") == 1024**3
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _parse_bytes("abc")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_bytes("0")


def test_search_json(capsys):
    code, out, err = _run(capsys, "search", "--kind", "p", "--base", "10", "--digits", "7")
    assert code == EXIT_OK and err == ""
    payload = json.loads(out)
    assert payload["n_min"] == 5
    assert payload["f"] == "7" and payload["kind"] == "p"
    assert payload["within_bound"] is True


def test_search_csv_matches_json(capsys):
    code, out_json, _ = _run(capsys, "search", "--kind", "p", "--base", "10", "--digits", "4")
    assert code == EXIT_OK
    payload = json.loads(out_json)
    code, out_csv, _ = _run(
        capsys, "search", "--kind", "p", "--base", "10", "--digits", "4", "--output", "csv"
    )
    assert code == EXIT_OK
    header, row = out_csv.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert int(cells["n_min"]) == payload["n_min"]
    assert int(cells["bound"]) == payload["bound"]
    assert cells["method"] == payload["method"]


def test_search_text_output(capsys):
    code, out, _ = _run(
        capsys, "search", "--kind", "p", "--base", "10", "--digits", "7", "--output", "text"
    )
    assert code == EXIT_OK
    assert "p(5) starts with '7'" in out


def test_search_not_found_exit(capsys):
    code, out, err = _run(
        capsys, "search", "--kind", "p", "--base", "10", "--digits", "9", "--limit", "10"
    )
    assert code == EXIT_FINDINGS
    assert out == ""
    assert "not found" in err


def test_search_binary(capsys):
    code, out, _ = _run(capsys, "search", "--kind", "p", "--base", "2", "--digits", "11")
    assert code == EXIT_OK
    assert json.loads(out)["n_min"] == 3


def test_bound_json(capsys):
    code, out, _ = _run(capsys, "bound", "--kind", "p", "--base", "10", "--t", "1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["theorem_bound"] == 5470
    conventions = payload["conventions"]
    assert set(conventions) == {"nominal_delta", "actual_delta"}
    assert conventions["actual_delta"]["f"] == "9"  # narrowest window by default
    assert conventions["actual_delta"]["bound"] == 25946
    for key in ("delta", "L1", "L2", "L3", "L4", "D", "bound"):
        assert key in conventions["nominal_delta"]


def test_bound_with_digits(capsys):
    code, out, _ = _run(
        capsys, "bound", "--kind", "p", "--base", "10", "--t", "1", "--digits", "2"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["conventions"]["actual_delta"]["f"] == "2"
    code, _, err = _run(
        capsys, "bound", "--kind", "p", "--base", "10", "--t", "2", "--digits", "2"
    )
    assert code == EXIT_USAGE and "length" in err


def test_bound_actual_delta_matches_mpmath(capsys):
    # log10(10/9) and the thresholds it drives, from mpmath at 400 bits: the
    # window of f = 9, L2 = (3 c4 / delta)^2 and L4 = (3 c1 theta / delta)^2
    # for p in base 10 (theta = 1/2)
    with mpmath.workprec(400):
        delta = mpmath.log10(mpmath.mpf(10) / 9)
        ln10 = mpmath.log(10)
        expected = {
            "delta": delta,
            "L2": (3 * (4 / ln10) / delta) ** 2,
            "L4": (mpmath.mpf(3) / 2 * (mpmath.pi * mpmath.sqrt(24) / 6 / ln10) / delta) ** 2,
        }
        expected = {key: mpmath.nstr(value, 25) for key, value in expected.items()}
    code, out, _ = _run(capsys, "bound", "--kind", "p", "--base", "10", "--t", "1")
    assert code == EXIT_OK
    actual = json.loads(out)["conventions"]["actual_delta"]
    assert {key: actual[key] for key in expected} == expected


def test_bound_ceilings_equal_those_at_far_higher_precision(capsys):
    # bound computes at horizon_precision(b, t); at a fixed 192 bits these
    # ceilings came out too high or exited 2.  pl's constants take about
    # 27 s at 8,192 bits (Glaisher's constant), so pl is compared at 2,048
    # bits, where these ceilings equal the 8,192-bit ones.
    rng = random.Random(20261019)
    for kind, base, t in (("p", 10, 28), ("p", 36, 37), ("p", 3, 23),
                          ("pl", 10, 35), ("pl", 16, 30)):
        bits = 8192 if kind == "p" else 2048
        params = (instantiate_p if kind == "p" else instantiate_pl)(base, bits)
        nominal = compute_bounds(params, Fraction(1, base**t), bits).bound
        argv = ("bound", "--kind", kind, "--base", str(base), "--t", str(t))
        random_f = DigitString(base, t, rng.randint(base ** (t - 1), base**t - 1))
        for digits in (None, random_f.text()):  # the narrowest window, then a random one
            code, out, err = _run(capsys, *argv, *(("--digits", digits) if digits else ()))
            assert code == EXIT_OK, (argv, err)
            conventions = json.loads(out)["conventions"]
            f = DigitString.parse(conventions["actual_delta"]["f"], base)
            ctx = certified.interval_context(bits)  # the window's width from its two endpoint logs
            width = (ctx.log(f.value + 1) - ctx.log(f.value)) / ctx.log(base)
            actual = compute_bounds(params, width, bits).bound
            assert conventions["nominal_delta"]["bound"] == nominal, argv
            assert conventions["actual_delta"]["bound"] == actual, (argv, digits)
    # p b10 t28 at f = 10^28 - 1: the bound is ceil(2 (L2 + 1)), and
    # L2 = (3 c4 / delta)^2 = 144 / ln(1 + 1/f)^2 with c4 = 4 / ln 10
    code, out, _ = _run(capsys, "bound", "--kind", "p", "--base", "10", "--t", "28")
    with mpmath.workprec(600):
        l2 = 144 / mpmath.log1p(mpmath.mpf(1) / (10**28 - 1)) ** 2
        expected = int(mpmath.ceil(2 * (l2 + 1)))
    assert json.loads(out)["conventions"]["actual_delta"]["bound"] == expected


def test_bound_window_width_agrees_with_target_interval(capsys, monkeypatch):
    # where the per-n kernel resolves the window (t lg b <= 64), bound's
    # width log_b(1 + 1/f) at the horizon precision prints as target_interval's
    # endpoint difference at 192 bits, and the two enclosures overlap
    widths = []
    compute = cli.compute_bounds

    def record(params, delta, precision):
        widths.append(delta)
        return compute(params, delta, precision)

    monkeypatch.setattr(cli, "compute_bounds", record)
    rng = random.Random(20261020)
    for _ in range(400):
        kind, base = rng.choice(("p", "pl")), rng.randint(2, 36)
        t = rng.randint(2 if base == 2 else 1, int(64 / math.log2(base)))
        f = DigitString(base, t, rng.randrange(base ** (t - 1), base**t))
        code, out, err = _run(capsys, "bound", "--kind", kind, "--base", str(base),
                              "--t", str(t), "--digits", f.text())
        assert code == EXIT_OK, err
        window = target_interval(f).delta
        actual = json.loads(out)["conventions"]["actual_delta"]["delta"]
        assert actual == cli._fmt(window, 192), (kind, base, f.text())
        width = widths[-1]
        assert certified.inf(width) <= certified.sup(window), (kind, base, f.text())
        assert certified.inf(window) <= certified.sup(width), (kind, base, f.text())


def test_bound_csv_and_text(capsys):
    code, out, _ = _run(
        capsys, "bound", "--kind", "pl", "--base", "10", "--t", "1", "--output", "csv"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 3 and lines[0].startswith("convention,")
    code, out, _ = _run(
        capsys, "bound", "--kind", "p", "--base", "10", "--t", "1", "--output", "text"
    )
    assert code == EXIT_OK and "theorem bound 5470" in out


def test_verify_json(capsys):
    code, out, _ = _run(capsys, "verify", "--kind", "p", "--base", "10", "--t", "1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_within_bound"] is True
    assert payload["max_n_min"] == 60
    assert len(payload["results"]) == 9
    assert "runtime" not in out


def test_verify_text_and_csv(capsys):
    code, out, _ = _run(
        capsys, "verify", "--kind", "p", "--base", "2", "--t", "2", "--output", "text"
    )
    assert code == EXIT_OK and "all_within_bound True" in out
    code, out, _ = _run(
        capsys, "verify", "--kind", "p", "--base", "2", "--t", "2", "--output", "csv"
    )
    assert code == EXIT_OK
    assert len(out.splitlines()) == 3  # header + the two binary strings


def test_verify_resource_exit(capsys):
    # the scan to the last first hit (n = 19,885) needs about 1.6 MB of table
    code, out, err = _run(
        capsys, "verify", "--kind", "p", "--base", "10", "--t", "3",
        "--memory-budget", "1M",
    )
    assert code == EXIT_RESOURCE
    assert "resource error" in err


def test_verify_budget_at_a_chunk_edge(capsys):
    # enough for the scan to its last first hit, n = 19,885, but not for
    # the rest of the 256-entry chunk that holds it
    needed = partdigits.SequenceTable(partdigits.SequenceKind.PARTITION).extend(19885)
    code, out, err = _run(
        capsys, "verify", "--kind", "p", "--base", "10", "--t", "3",
        "--memory-budget", str(needed.estimated_bytes + 1),
    )
    assert code == EXIT_OK, err
    assert json.loads(out)["max_n_min"] == 19885


@pytest.mark.parametrize(
    "kind, base, t, max_n_min",
    [("p", 10, 3, 19885), ("pl", 10, 2, 956), ("p", 2, 8, 670)],
)
def test_verify_within_default_budget(capsys, kind, base, t, max_n_min):
    # a bound far beyond what fits in memory does not matter: the scan stops
    # at the last first hit
    code, out, _ = _run(
        capsys, "verify", "--kind", kind, "--base", str(base), "--t", str(t)
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["max_n_min"] == max_n_min
    assert payload["all_within_bound"] is True


def test_census_json(capsys):
    code, out, _ = _run(
        capsys, "census", "--kind", "p", "--base", "10", "--t", "1", "--limit", "10"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["counts"] == [
        {"f": "1", "count": 3},
        {"f": "2", "count": 2},
        {"f": "3", "count": 2},
        {"f": "4", "count": 1},
        {"f": "5", "count": 1},
        {"f": "7", "count": 1},
    ]
    assert payload["total"] == 10 and payload["skipped"] == 0


def test_census_csv(capsys):
    code, out, _ = _run(
        capsys, "census", "--kind", "p", "--base", "10", "--t", "1", "--limit", "10",
        "--output", "csv",
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "f,count"
    assert len(out.splitlines()) == 7


def test_usage_errors(capsys):
    cases = [
        ("search", "--kind", "p", "--base", "1", "--digits", "1"),
        ("search", "--kind", "p", "--base", "10", "--digits", "a"),
        ("search", "--kind", "p", "--base", "10", "--digits", "07"),
        ("search", "--kind", "p", "--base", "2", "--digits", "1"),
        ("bound", "--kind", "p", "--base", "2", "--t", "1"),
        ("search", "--kind", "p", "--base", "10", "--digits", "7", "--precision", "32"),
        ("search", "--kind", "p", "--base", "10", "--digits", "7", "--limit", "-4"),
    ]
    for argv in cases:
        code, _, err = _run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert err


def test_each_command_takes_only_the_options_it_reads(capsys, tmp_path):
    # no command takes a precision: bound works out its own from (b, t)
    for argv in (
        ("search", "--kind", "p", "--base", "10", "--digits", "7"),
        ("verify", "--kind", "p", "--base", "10", "--t", "1"),
        ("census", "--kind", "p", "--base", "10", "--t", "1", "--limit", "10"),
        ("bound", "--kind", "p", "--base", "10", "--t", "1"),
        ("selftest",),
    ):
        code, out, err = _run(capsys, *argv, "--precision", "96")
        assert code == EXIT_USAGE and not out, argv
        assert "unrecognized arguments: --precision 96" in err, argv
    # the certified commands read no table
    cache = tmp_path / "cache"
    for argv in (("bound", "--kind", "p", "--base", "10", "--t", "1"), ("selftest",)):
        for flag in (("--cache", str(cache)), ("--memory-budget", "1M")):
            code, out, err = _run(capsys, *argv, *flag)
            assert code == EXIT_USAGE and not out, (argv, flag)
            assert f"unrecognized arguments: {flag[0]}" in err, (argv, flag)
    assert not cache.exists()


def test_argparse_errors_map_to_usage(capsys):
    assert run(["search", "--kind", "p"]) == EXIT_USAGE  # missing required flags
    assert run(["no-such-command"]) == EXIT_USAGE
    capsys.readouterr()


# -- one parser per process: runs share it, and no run leaves a trace in it


def test_a_cached_run_leaves_nothing_for_the_next_one(tmp_path, capsys, monkeypatch):
    # the run without --cache extends past the cached table and must not
    # save into the previous run's directory
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    cache = tmp_path / "tables"
    code, _, err = _run(
        capsys, "search", "--kind", "p", "--base", "10", "--digits", "7", "--cache", str(cache)
    )
    assert code == EXIT_OK, err
    before = {f.name: (f.read_bytes(), f.stat().st_mtime_ns) for f in cache.iterdir()}
    assert list(before) == ["p.table"]
    code, _, err = _run(capsys, "verify", "--kind", "p", "--base", "10", "--t", "2")
    assert code == EXIT_OK, err
    assert {f.name: (f.read_bytes(), f.stat().st_mtime_ns) for f in cache.iterdir()} == before


def test_a_usage_error_leaves_the_parser_usable(capsys):
    argv = ["search", "--kind", "p", "--base", "10", "--digits", "37", "--output", "csv"]
    fresh = subprocess.run(
        [sys.executable, "-m", "partdigits.cli", *argv],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert fresh.returncode == EXIT_OK, fresh.stderr
    assert run(["search", "--kind", "p", "--output", "xml"]) == EXIT_USAGE
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_OK, err
    assert out == fresh.stdout


def test_the_parser_is_built_on_the_first_run_only():
    # counted in a fresh interpreter: importing the CLI builds no parser,
    # and a second run builds none either
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import partdigits.cli as cli\n"
        "assert not built, len(built)\n"
        "argv = ['bound', '--kind', 'p', '--base', '10', '--t', '1']\n"
        "assert cli.run(argv) == 0\n"
        "first = len(built)\n"
        "assert first and cli.run(argv) == 0 and len(built) == first, (first, len(built))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_src_env(),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_json_determinism(capsys):
    argv = ("verify", "--kind", "p", "--base", "10", "--t", "1")
    _, first, _ = _run(capsys, *argv)
    _, second, _ = _run(capsys, *argv)
    assert first == second


def test_cache_flag_round_trip(tmp_path, capsys):
    cache = tmp_path / "tables"
    argv = (
        "search", "--kind", "p", "--base", "10", "--digits", "7", "--cache", str(cache)
    )
    code, first, _ = _run(capsys, *argv)
    assert code == EXIT_OK
    stored = cache / "p.table"
    assert stored.exists()
    code, second, _ = _run(capsys, *argv)  # now served from the cache
    assert code == EXIT_OK and second == first


def test_cache_env_var_and_flag_priority(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "envcache"
    flag_dir = tmp_path / "flagcache"
    monkeypatch.setenv(ENV_CACHE_DIR, str(env_dir))
    code, _, _ = _run(capsys, "search", "--kind", "p", "--base", "10", "--digits", "7")
    assert code == EXIT_OK
    assert (env_dir / "p.table").exists()
    code, _, _ = _run(
        capsys, "search", "--kind", "p", "--base", "10", "--digits", "7",
        "--cache", str(flag_dir),
    )
    assert code == EXIT_OK
    assert (flag_dir / "p.table").exists()


def test_cache_corruption_is_reported(tmp_path, capsys):
    cache = tmp_path / "tables"
    argv = (
        "search", "--kind", "p", "--base", "10", "--digits", "7", "--cache", str(cache)
    )
    assert _run(capsys, *argv)[0] == EXIT_OK
    stored = cache / "p.table"
    stored.write_bytes(b"JUNK" + stored.read_bytes()[4:])
    code, _, err = _run(capsys, *argv)
    assert code == EXIT_USAGE and "bad magic" in err


def test_cache_version_1_is_refused(tmp_path, capsys):
    cache = tmp_path / "tables"
    cache.mkdir()
    # a version 1 file: header, then (length, payload) per entry, no digest
    blob = struct.pack("<4sHBBQ", b"PDTB", 1, 1, 0, 3)
    for v in (1, 1, 2):
        blob += struct.pack("<I", 1) + bytes([v])
    (cache / "p.table").write_bytes(blob)
    code, _, err = _run(
        capsys, "search", "--kind", "p", "--base", "10", "--digits", "7", "--cache", str(cache)
    )
    assert code == EXIT_USAGE
    assert "unsupported version 1" in err and "delete the file" in err


def test_cached_verify_leaves_the_cache_alone(tmp_path, capsys):
    # a verify inside a 24,000-entry cache reads a prefix and writes nothing
    cache = tmp_path / "tables"
    cache.mkdir()
    stored = cache / "p.table"
    SequenceTable(SequenceKind.PARTITION).extend(24000).save(stored)
    before = (stored.stat().st_size, stored.stat().st_mtime_ns)
    argv = ("verify", "--kind", "p", "--base", "10", "--t", "2")
    code, cached, err = _run(capsys, *argv, "--cache", str(cache))
    assert code == EXIT_OK, err
    assert (stored.stat().st_size, stored.stat().st_mtime_ns) == before
    assert cached == _run(capsys, *argv)[1]


def test_verify_stdout_does_not_depend_on_the_cache(tmp_path, capsys):
    # the cache holds 3,001 entries, the scan reads 769 of them
    cache = tmp_path / "tables"
    cache.mkdir()
    SequenceTable(SequenceKind.PARTITION).extend(3000).save(cache / "p.table")
    for output in ("json", "csv"):
        argv = ("verify", "--kind", "p", "--base", "10", "--t", "2", "--output", output)
        code, cached, err = _run(capsys, *argv, "--cache", str(cache))
        assert code == EXIT_OK, err
        assert cached == _run(capsys, *argv)[1], output


def test_a_cache_the_budget_cannot_hold_is_skipped(tmp_path, capsys):
    # the scan stops at n = 60, well inside a 1M budget; the cache's 24,001
    # entries are not, so the run builds its own table and saves nothing
    cache = tmp_path / "tables"
    cache.mkdir()
    stored = cache / "p.table"
    SequenceTable(SequenceKind.PARTITION).extend(24000).save(stored)
    before = stored.read_bytes()
    argv = ("verify", "--kind", "p", "--base", "10", "--t", "1", "--memory-budget", "1M")
    code, cached, err = _run(capsys, *argv, "--cache", str(cache))
    assert code == EXIT_OK, err
    assert cached == _run(capsys, *argv)[1]
    assert stored.read_bytes() == before and os.listdir(cache) == ["p.table"]


@pytest.mark.parametrize("case", ["under-a-file", "table-is-a-directory"])
def test_an_unusable_cache_path_is_a_usage_error(tmp_path, case):
    if case == "under-a-file":
        (tmp_path / "FILE").write_bytes(b"")
        cache, reason = tmp_path / "FILE" / "sub", "Not a directory"
    else:
        (tmp_path / "tables" / "p.table").mkdir(parents=True)
        cache, reason = tmp_path / "tables", "Is a directory"
    done = subprocess.run(
        [sys.executable, "-m", "partdigits.cli", "search", "--kind", "p", "--base", "10",
         "--digits", "7", "--cache", str(cache)],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert (done.returncode, done.stdout) == (EXIT_USAGE, ""), done.stderr
    assert done.stderr.startswith("error: ") and reason in done.stderr
    assert "Traceback" not in done.stderr and done.stderr.count("\n") == 1


def test_a_run_refused_by_its_budget_saves_what_it_built(tmp_path, capsys, monkeypatch):
    census = ("census", "--kind", "pl", "--base", "10", "--t", "1")
    cached = (*census, "--cache", str(tmp_path))
    code, _, err = _run(capsys, *cached, "--limit", "3000", "--memory-budget", "256K")
    assert code == EXIT_RESOURCE and "at n = 1554" in err
    assert SequenceTable.load(tmp_path / "pl.table").last_index == 1553

    def rebuild(*args):
        raise AssertionError("the run rebuilt entries the cache holds")

    monkeypatch.setattr(SequenceTable, "_extend_plane", rebuild)
    code, out, _ = _run(capsys, *cached, "--limit", "1553")
    monkeypatch.undo()
    assert (code, out) == _run(capsys, *census, "--limit", "1553")[:2]


def test_a_census_past_what_the_budget_can_hold_is_refused_up_front(capsys, monkeypatch):
    # 1e8 entries need at least 3.6 GB of table, so a 4M budget refuses at
    # once, where building up to the budget took over a second
    def build(*args):
        raise AssertionError("the refused census built entries")

    monkeypatch.setattr(SequenceTable, "extend", build)
    started = time.perf_counter()
    code, out, err = _run(
        capsys, "census", "--kind", "p", "--base", "10", "--t", "1",
        "--limit", "100000000", "--memory-budget", "4M",
    )
    assert time.perf_counter() - started < 0.2
    assert (code, out) == (EXIT_RESOURCE, "")
    need = (10**8 + 1) * engines._int_size(1)
    assert f"a census to n = 100000000 needs at least {need} bytes" in err


@pytest.mark.parametrize("base, t, strings", [(10, 8, 9 * 10**7), (36, 5, 36**5 - 36**4)])
def test_a_verify_past_what_the_budget_can_hold_is_refused_up_front(
    capsys, monkeypatch, base, t, strings
):
    # at 112 bytes of DigitString and SearchResult per string these need
    # 10.1 and 6.6 GB, over the default 4 GiB budget, so they are refused
    # before any string or table entry is built
    def build(*args):
        raise AssertionError("the refused verify built digit strings or entries")

    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    monkeypatch.setattr(partdigits.search, "all_digit_strings", build)
    monkeypatch.setattr(SequenceTable, "extend", build)
    started = time.perf_counter()
    code, out, err = _run(capsys, "verify", "--kind", "p", "--base", str(base), "--t", str(t))
    assert time.perf_counter() - started < 1
    assert (code, out) == (EXIT_RESOURCE, "")
    assert f"verifying {strings} digit strings needs at least" in err


SELFTEST_NAMES = (
    "partition-recurrence-vs-enumeration",
    "partition-ramanujan-congruences",
    "plane-recurrence-vs-enumeration",
    "sigma2-vs-divisor-sieve",
    "partition-log-envelope",
    "plane-log-envelope",
    "log-doubling-inequality",
    "digit-roundtrip",
    "golden-ratio-first-hit",
)
BOUND_TERMS = {
    "nominal_delta": {
        "delta": "0.1",
        "L1": "5.471343916686239657969491",
        "L2": "2716.008436967240580767436",
        "L3": "25.78534042102777915594388",
        "L4": "279.2284252384136197024823",
        "D": "5.077926783740366136389381",
        "bound": 5435,
    },
    "actual_delta": {
        "f": "9",
        "delta": "0.04575749056067512540994419",
        "L1": "5.471343916686239657969491",
        "L2": "12971.9933424299191755753",
        "L3": "25.78534042102777915594388",
        "L4": "1333.629610243210309770229",
        "D": "5.077926783740366136389381",
        "bound": 25946,
    },
}


def _p_result(f, n_min, digits, bound):
    return {"f": f, "kind": "p", "n_min": n_min, "value_digit_count": digits,
            "method": "exact", "bound": bound, "within_bound": True}


def _json(document):
    return json.dumps(document, indent=2) + "\n"


# The whole stdout of one small case per (command, format).  JSON is pinned
# as the document whose two-space-indented dump it must equal byte for byte.
EXACT_STDOUT = {
    ("search --kind p --base 10 --digits 7", "json"): _json(_p_result("7", 5, 1, 5470)),
    ("search --kind p --base 10 --digits 7", "csv"):
        "f,n_min,bound,within_bound,method\n7,5,5470,True,exact\n",
    ("search --kind p --base 10 --digits 7", "text"):
        "p(5) starts with '7' (base 10); value has 1 digits; method exact; "
        "bound 5470; within_bound True\n",
    ("bound --kind p --base 10 --t 1", "json"): _json({
        "kind": "p", "b": 10, "t": 1, "theorem_bound": 5470, "conventions": BOUND_TERMS,
    }),
    ("bound --kind p --base 10 --t 1", "csv"):
        "convention,f,delta,L1,L2,L3,L4,D,bound,theorem_bound\n"
        "nominal_delta,,0.1,5.471343916686239657969491,2716.008436967240580767436,"
        "25.78534042102777915594388,279.2284252384136197024823,"
        "5.077926783740366136389381,5435,5470\n"
        "actual_delta,9,0.04575749056067512540994419,5.471343916686239657969491,"
        "12971.9933424299191755753,25.78534042102777915594388,"
        "1333.629610243210309770229,5.077926783740366136389381,25946,5470\n",
    ("bound --kind p --base 10 --t 1", "text"):
        "p base 10 t 1: theorem bound 5470\n"
        "  nominal_delta: delta 0.1, bound 5435\n"
        "    L1 5.471343916686239657969491, L2 2716.008436967240580767436, "
        "L3 25.78534042102777915594388, L4 279.2284252384136197024823, "
        "D 5.077926783740366136389381\n"
        "  actual_delta (f = 9): delta 0.04575749056067512540994419, bound 25946\n"
        "    L1 5.471343916686239657969491, L2 12971.9933424299191755753, "
        "L3 25.78534042102777915594388, L4 1333.629610243210309770229, "
        "D 5.077926783740366136389381\n",
    ("verify --kind p --base 2 --t 2", "json"): _json({
        "kind": "p", "b": 2, "t": 2,
        "results": [_p_result("10", 2, 2, 9658), _p_result("11", 3, 2, 9658)],
        "max_n_min": 3, "all_within_bound": True,
    }),
    ("verify --kind p --base 2 --t 2", "csv"):
        "f,n_min,bound,within_bound,method\n10,2,9658,True,exact\n11,3,9658,True,exact\n",
    ("verify --kind p --base 2 --t 2", "text"):
        "p base 2 t 2: 2 digit strings, bound 9658\n"
        "  f 10: n_min 2, within_bound True\n"
        "  f 11: n_min 3, within_bound True\n"
        "max_n_min 3; all_within_bound True; table entries 257; runtime <masked>s\n",
    ("census --kind p --base 10 --t 1 --limit 10", "json"): _json({
        "kind": "p", "b": 10, "t": 1, "N": 10,
        "counts": [{"f": f, "count": c} for f, c in
                   (("1", 3), ("2", 2), ("3", 2), ("4", 1), ("5", 1), ("7", 1))],
        "total": 10, "skipped": 0,
    }),
    ("census --kind p --base 10 --t 1 --limit 10", "csv"):
        "f,count\n1,3\n2,2\n3,2\n4,1\n5,1\n7,1\n",
    ("census --kind p --base 10 --t 1 --limit 10", "text"):
        "p base 10 t 1, n = 1..10:\n"
        "  1: 3\n  2: 2\n  3: 2\n  4: 1\n  5: 1\n  7: 1\n"
        "total 10, skipped 0\n",
    ("selftest", "json"): _json({
        "checks": [{"name": name, "status": "pass"} for name in SELFTEST_NAMES],
        "all_pass": True,
    }),
    ("selftest", "csv"): "name,status\n" + "".join(f"{n},pass\n" for n in SELFTEST_NAMES),
    ("selftest", "text"):
        "".join(f"PASS  {n}\n" for n in SELFTEST_NAMES) + "all_pass True\n",
}


@pytest.fixture(scope="module")
def selftest_checks():
    return cli._selftest_checks()


@pytest.mark.parametrize("command, output", list(EXACT_STDOUT))
def test_exact_stdout(capsys, monkeypatch, selftest_checks, command, output):
    # selftest's checks run once per module; only their rendering runs per format
    monkeypatch.setattr(cli, "_selftest_checks", lambda: selftest_checks)
    code, out, err = _run(capsys, *command.split(), "--output", output)
    assert (code, err) == (EXIT_OK, "")
    assert re.sub(r"runtime \d+\.\d+s", "runtime <masked>s", out) == \
        EXACT_STDOUT[command, output]


def test_selftest(capsys):
    code, out, _ = _run(capsys, "selftest", "--output", "text")
    assert code == EXIT_OK
    assert "all_pass True" in out
    assert out.count("PASS") == 9


def test_selftest_checks_the_sieve_the_pl_engine_uses(monkeypatch):
    # one wrong entry of the built pl table's sigma2 sieve must fail the check
    extend = SequenceTable.extend

    def extend_then_corrupt(table, n):
        extend(table, n)
        if table.kind is SequenceKind.PLANE_PARTITION:
            table._sigma2[150] += 1
        return table

    monkeypatch.setattr(SequenceTable, "extend", extend_then_corrupt)
    checks = dict(cli._selftest_checks())
    assert checks["sigma2-vs-divisor-sieve"] is False
    assert checks["plane-recurrence-vs-enumeration"] is True


def test_selftest_checks_ramanujans_congruences(monkeypatch):
    # a p table that drops every pentagonal term past offset 1,000 still
    # matches enumeration below 16; the congruences mod 7 and 11 catch it
    grow = SequenceTable._grow_pentagonal

    def grow_then_truncate(table, n):
        grow(table, n)
        table._pent = [(g, sign) for g, sign in table._pent if g <= 1000]

    monkeypatch.setattr(SequenceTable, "_grow_pentagonal", grow_then_truncate)
    checks = dict(cli._selftest_checks())
    assert checks["partition-ramanujan-congruences"] is False
    assert [name for name, ok in checks.items() if not ok] == ["partition-ramanujan-congruences"]


# the certified layers' memoised functions, cleared so that each run
# below computes its answers afresh
_CERTIFIED_CACHES = (
    certified.interval_context,
    partdigits.digits._window,
    asymptotics.eval_constants,
    asymptotics._instantiate,
    asymptotics._fixed_params,
    asymptotics._theorem_bound,
)


def _certified_answers(capsys):
    """Exact endpoints and outputs of every certified layer: the horizon layer at
    64, 192 and 384 bits, the per-n layer at its one scale."""
    answers = []
    window = target_interval(DigitString.parse("99", 10))
    for precision in (64, 192, 384):
        for instantiate in (instantiate_p, instantiate_pl):
            params = instantiate(10, precision)
            for delta in (Fraction(1, 100), window.delta):
                bounds = compute_bounds(params, delta, precision)
                answers.append((bounds.bound, *(getattr(bounds, name)._mpi_
                                                for name in ("L1", "L2", "L3", "L4", "D"))))
    for estimate, n in ((log_p_estimate, 1234), (log_pl_estimate, 5000)):
        est = estimate(n, 10)
        answers.append((est.midpoint._mpi_, est.envelope._mpi_))
    for value, base in ((7, 10), (10**40 + 1, 10), (3**500, 2), (2**300 - 1, 36)):
        answers += [log(value, base)._mpi_ for log in (log_value_interval, frac_log)]
    # closed forms evaluated at 192, 624 and 864 bits
    answers += [theorem_bound(kind, 10, t) for kind, t in (("p", 2), ("p", 28), ("pl", 40))]
    params = FrameworkParams(c1=Fraction(3, 2), c2=Fraction(-1, 3), c3=0, c4=Fraction(1, 7),
                             theta=Fraction(2, 3), K=5)
    answers.append(tuple(x._mpi_ for x in (params.c1, params.c2, params.c4, params.theta)))
    answers.append(compute_bounds(params, Fraction(1, 10)).bound)
    answers.append(as_interval(Fraction(1, 3))._mpi_)
    for argv in (("bound", "--kind", "p", "--base", "10", "--t", "4"),
                 ("bound", "--kind", "pl", "--base", "10", "--t", "2"),
                 ("selftest",)):
        answers.append(_run(capsys, *argv, "--output", "text"))
    return answers


def test_certified_answers_ignore_the_global_precision(capsys, monkeypatch):
    # each certified layer rounds at its own precision, so the answers
    # under a global 20 bits are those under mpmath's default
    for cache in _CERTIFIED_CACHES:
        cache.cache_clear()
    at_default = _certified_answers(capsys)
    monkeypatch.setattr(iv, "prec", 20)
    monkeypatch.setattr(mp, "prec", 20)
    for cache in _CERTIFIED_CACHES:
        cache.cache_clear()
    at_20_bits = _certified_answers(capsys)
    for cache in _CERTIFIED_CACHES:  # keep nothing computed under 20 bits
        cache.cache_clear()
    assert at_20_bits == at_default


def _src_env():
    env = dict(os.environ)
    src = str(Path(partdigits.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_module_entry_point():
    env = _src_env()
    done = subprocess.run(
        [sys.executable, "-m", "partdigits.cli", "search", "--kind", "p", "--base", "10",
         "--digits", "37"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    n_min = json.loads(done.stdout)["n_min"]
    assert isinstance(n_min, int) and n_min == 28


def test_readme_library_example_runs_and_shows_its_values():
    # the Python block under "## Library" in README.md runs as written, and
    # each line with a "# value" comment evaluates to that value (the text
    # before any " = " explanation)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    shown = [line.split("  # ", 1) for line in block.splitlines() if "  # " in line]
    assert len(shown) == 5
    for expression, comment in shown:
        assert repr(eval(expression, scope)) == comment.split(" = ", 1)[0], expression


def test_import_does_not_load_the_cache_modules():
    # the cache imports hashlib when it saves or loads, not at import time;
    # no module imports array
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, partdigits; assert not {'hashlib', 'array'} & set(sys.modules)"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
