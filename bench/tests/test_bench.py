"""Tests of the benchmark harness itself.

Run:  python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import copy
import json
import math
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import partdigits.cli  # noqa: E402
import partdigits.search  # noqa: E402
from partdigits import SequenceTable  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402

DATA = reference.load_data()


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """Every workload, set up and with its reference answers."""
    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        workload.prepare(tmp_path_factory.mktemp(name))
        workload.reference(DATA)
        out[name] = workload
    return out


def _deck(workload, seed):
    return workload.deck(random.Random(f"{workload.name}:{seed}"), 0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_deck(prepared, name):
    workload = prepared[name]
    assert _deck(workload, 7) == _deck(workload, 7)
    assert _deck(workload, 7) != _deck(workload, 8)


def _only(workload, ops):
    """A copy of `workload` whose every deck is `ops`."""
    fixed = copy.copy(workload)
    fixed.deck = lambda rng, number: list(ops)
    fixed.DECK_SECONDS = 1.0
    return fixed


def _first_hit(digits):
    return DATA["first_hits"][f"p/10/{len(digits)}"][digits]


def _search_op(digits="37", n_min=28):
    bound = reference.theorem_bound("p", 10, len(digits))
    return Op(argv=("search", "--kind", "p", "--base", "10", "--digits", digits),
              expected=(n_min, bound, True))


def test_reference_first_hit_matches_a_passing_op():
    assert DATA["first_hits"]["p/10/2"]["37"] == 28
    _, passed, _ = run.execute(None, _search_op())
    assert passed


def test_checker_flags_a_tampered_expected_answer():
    _, passed, note = run.execute(None, _search_op(n_min=29))
    assert not passed
    assert "differs from the reference" in note


def test_checker_flags_a_tampered_program_answer(monkeypatch):
    original = partdigits.cli.find_min_n

    def off_by_one(*args, **kwargs):
        result = original(*args, **kwargs)
        return replace(result, n_min=result.n_min + 1)

    monkeypatch.setattr(partdigits.cli, "find_min_n", off_by_one)
    _, passed, _ = run.execute(None, _search_op())
    assert not passed


def test_checker_reports_an_unexpected_exit_code():
    op = Op(argv=("verify", "--kind", "p", "--base", "10", "--t", "3"), expected=())
    _, passed, note = run.execute(None, op)
    assert not passed
    assert note.startswith("exit 3: resource error")


def test_failed_op_counts_as_infinitely_slow():
    assert run.percentile([0.1, 0.2, math.inf], 50) == 0.2
    assert run.percentile([0.1, math.inf, math.inf], 50) == math.inf
    assert run.percentile([0.3] * 9 + [math.inf], 90) == 0.3
    assert run.percentile([0.3] * 8 + [math.inf] * 2, 90) == math.inf
    workload = _only(Workload(), [_search_op(), _search_op(n_min=29)])
    plain, _, failures, _ = run.measure(workload, 1, 0, trace=False)
    assert math.inf in plain
    assert len(failures) == plain.count(math.inf) == len(plain) // 2


def test_seconds_fix_the_work_not_a_deadline():
    workload = _only(Workload(), [_search_op()])
    assert len(run.measure(workload, 1, 3, trace=False)[0]) == 3
    workload.DECK_SECONDS = 2.0
    assert len(run.measure(workload, 1, 3, trace=False)[0]) == 2


def test_traced_mode_keeps_answers_and_restores_the_program(prepared):
    patched = [(partdigits.cli, name) for name in ("run", "find_min_n", "theorem_bound")]
    patched += [(SequenceTable, "__dict__"), (partdigits.search, "decide_membership")]
    before = [getattr(owner, name).copy() if name == "__dict__" else getattr(owner, name)
              for owner, name in patched]
    warm, envelope = prepared["warm-cache"], prepared["envelope-audit"]
    for workload, ops in ((warm, _deck(warm, 3)[:8]), (envelope, _deck(envelope, 3)[:4]),
                          (Workload(), [_search_op(), _search_op("999", _first_hit("999"))])):
        plain, traced, failures, _ = run.measure(_only(workload, ops), 1, 0, trace=True)
        assert not failures, failures
        assert len(plain) == len(traced) == len(ops)
    after = [getattr(owner, name).copy() if name == "__dict__" else getattr(owner, name)
             for owner, name in patched]
    assert after == before


def test_trace_reports_every_per_layer_metric():
    workload = _only(Workload(), [_search_op("999", _first_hit("999"))])
    plain, traced, _, trace = run.measure(workload, 1, 0, trace=True)
    metrics = trace.metrics(traced[0] / plain[0] - 1, 0)
    assert list(metrics) == list(tracer.PER_LAYER)
    assert metrics["search.scan.entries"]["value"] == _first_hit("999") + 1
    assert metrics["search.decide_membership.calls"]["value"] > 0
    assert metrics["engines.p.entries_built"]["value"] > _first_hit("999")


def test_digest_check_catches_a_corrupt_table():
    values = [1, 1, 2, 3, 5, 7]
    pins = {"p": {"5": reference.table_digest(values)}}
    reference.check_digest("p", values, pins)
    with pytest.raises(reference.ReferenceError):
        reference.check_digest("p", values[:5] + [8], pins)


def test_reference_heads_agree_with_partdigits():
    rng = random.Random(5)
    for _ in range(500):
        base = rng.choice((2, 3, 10, 16, 36))
        t = rng.randint(2 if base == 2 else 1, 4)
        value = rng.randrange(base ** (t - 1), base ** rng.randint(t, 120))
        expected = partdigits.digits.leading_digits(value, base, t).value
        assert reference.head(value, base, t) == expected


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES) == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(tracer.PER_LAYER.values())
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "latency_p50_s", "latency_p90_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
