"""Run one workload of the partdigits benchmark and print its metrics.

    python3 bench/run.py --workload search-mix --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

A run first times its set-up: importing partdigits in a fresh
interpreter (IMPORT_REPS times) and the workload's own preparation
through the program, such as tables built and a cache saved
(PREPARE_REPS times).  setup_s is the sum of the two medians.
It then derives reference answers (untimed) and runs seeded decks of ops
in a closed loop, one client on one thread, the next op starting when the
previous one returns.  --seconds fixes the amount of work, not a deadline:
a run measures ceil(seconds / DECK_SECONDS) whole decks, DECK_SECONDS
being a deck's duration on the 2-core machine the benchmark was tuned on
(half of it for pl-build and envelope-audit, whose runs take twice as
long).  So every
commit measures the same ops for a seed, and the sample of ops does not
change with the program's speed.  Each op's answer is checked
against the reference outside the timed region.  An op that fails or
answers wrongly counts as infinitely slow in the latency percentiles.

With --trace 1 every op of half as many decks runs twice, untraced and
traced, in alternating order; the result then holds the per-layer
metrics from the traced runs,
and trace.overhead_frac compares the two latency medians.  End-to-end
metrics come only from --trace 0 runs.

Output: an environment line, one line per failed op (argv and the first
line of its stderr), the known-defect probes, the metrics by name and
unit, and as the last line one JSON object with the keys correct,
attempted, failed and metrics.  Without src/partdigits beside this
directory the run exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("search-mix", "pl-build", "warm-cache", "envelope-audit")
IMPORT_REPS, PREPARE_REPS = 7, 3
HARD_STOP_S = 120  # no op starts later than this into the measuring loop (exit within 180 s)

_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import partdigits; print(time.perf_counter() - t)"
)


def percentile(latencies, q: float) -> float:
    """Nearest-rank percentile; failed ops enter as float('inf')."""
    ordered = sorted(latencies)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def time_import() -> float:
    """Seconds to import partdigits in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def execute(workload, op, tracer=None):
    """Run one op; returns (seconds, passed, first stderr line)."""
    from partdigits import cli
    from workloads import cli_answer

    out, err = io.StringIO(), io.StringIO()
    answer = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if op.argv is not None:
            fn, arg, root = cli.run, list(op.argv), "cli.run"
        else:
            fn, arg, root = workload.run_check, op, "op"
        start = perf_counter()
        try:
            result = tracer.span(root, fn, arg) if tracer else fn(arg)
        except Exception:  # the loop must go on; the op is reported as failed
            elapsed = perf_counter() - start
            traceback.print_exc()
            code = "exception"
        else:
            elapsed = perf_counter() - start
            code, answer = (result, None) if op.argv is not None else (0, result)
    if op.argv is not None and code == 0:
        try:
            answer = cli_answer(op.argv, out.getvalue())
        except (ValueError, KeyError, TypeError) as exc:
            print(f"unreadable output: {exc!r}", file=err)
    passed = code == 0 and answer == op.expected
    lines = err.getvalue().strip().splitlines()
    if code == "exception":
        first = lines[-1] if lines else "exception"  # the exception, not the traceback header
    elif lines:
        first = lines[0]
    else:
        first = "" if passed else "answer differs from the reference"
    return elapsed, passed, f"exit {code}: {first}"


def measure(workload, seed: int, seconds: int, trace: bool):
    """The closed loop over the run's seeded decks."""
    from tracer import Tracer

    rng = random.Random(f"{workload.name}:{seed}")
    tracer = Tracer() if trace else None
    plain, traced, failures = [], [], []
    started = perf_counter()
    op_id = 0
    # a traced run runs every op twice, so it takes half the decks
    decks = max(1, math.ceil(seconds / workload.DECK_SECONDS / (2 if trace else 1)))
    for number in range(decks):
        for op in workload.deck(rng, number):
            if perf_counter() - started > HARD_STOP_S:
                return plain, traced, failures, tracer
            turns = ((False, True) if op_id % 2 == 0 else (True, False)) if trace else (False,)
            for traced_turn in turns:
                if traced_turn:
                    tracer.op_id = op_id
                    tracer.install()
                    try:
                        elapsed, passed, note = execute(workload, op, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    elapsed, passed, note = execute(workload, op)
                workload.after_op()
                (traced if traced_turn else plain).append(elapsed if passed else float("inf"))
                if not passed:
                    failures.append((op, note))
            op_id += 1
    return plain, traced, failures, tracer


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    import reference
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    env = environment(seed)
    print(json.dumps({"environment": env}))
    workdirs = []
    try:
        import_times = [time_import() for _ in range(IMPORT_REPS)]
        prepare_times = []
        for _ in range(PREPARE_REPS):
            gc.collect()
            workdirs.append(Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)))
            workload = WORKLOADS[name]()
            start = perf_counter()
            workload.prepare(workdirs[-1])
            prepare_times.append(perf_counter() - start)
        setup_s = statistics.median(import_times) + statistics.median(prepare_times)
        workload.reference(reference.load_data())
        gc.collect()
        plain, traced, failures, tracer = measure(workload, seed, seconds, trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probe_failures = []
        for op in workload.probes():
            _, passed, note = execute(workload, op)
            if not passed:
                probe_failures.append((op, note))
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)

    for op, note in failures:
        print(f"FAILED {op.describe()}  ({note})")
    for op, note in probe_failures:
        print(f"KNOWN DEFECT, not scored: {op.describe()}  ({note})")
    attempted = len(plain) + len(traced)
    if trace:
        overhead = percentile(traced, 50) / percentile(plain, 50) - 1
        metrics = tracer.metrics(overhead, len(probe_failures))
        trace_path = OUT / f"trace-{name}.jsonl"  # the latest traced run of the workload
        tracer.dump(trace_path, {"environment": env, "workload": name, "metrics": metrics})
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "latency_p50_s": {"value": percentile(plain, 50), "unit": "s"},
            "latency_p90_s": {"value": percentile(plain, 90), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"{name}: {attempted} ops, {len(failures)} failed, "
          f"error_rate {len(failures) / attempted:.6g}")
    for metric, m in metrics.items():
        print(f"  {metric:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload, each in a process of its own so peak_rss_mb stays per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "partdigits" / "__init__.py").is_file():
        print(f"error: no partdigits sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("PARTDIGITS_CACHE_DIR", None)  # only warm-cache uses a cache, explicitly
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
