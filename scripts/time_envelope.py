"""Per-layer cost of the public envelope check, in µs per n.

    python3 scripts/time_envelope.py [--rounds 5]
    python3 scripts/time_envelope.py --src OLD/src --src NEW/src

On p(n) for the 2,000 n from 48,001, in base 10, each round times

    estimate  log_p_estimate(n, b)
    log       log_value_interval(p(n), b)
    compare   estimate.contains(log), on operands built beforehand
    check     log_p_estimate(n, b).contains(log_value_interval(p(n), b))

and the script prints the best and the median over the rounds.  Every
round runs in a fresh interpreter that imports partdigits from its
`--src` tree (default: the `src` next to this script).  Given two trees,
the rounds alternate between them, so that both see the same swings of
the host's speed, and the last column is the second tree's median over
the first's.  No timing is asserted.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

LAYERS = ("estimate", "log", "compare", "check")
START, COUNT, BASE = 48001, 2000, 10


def _round() -> dict[str, float]:
    """One round of the four layers in this interpreter, µs per n."""
    from partdigits import SequenceKind, SequenceTable
    from partdigits.asymptotics import log_p_estimate
    from partdigits.digits import log_value_interval

    table = SequenceTable(SequenceKind.PARTITION)
    table.extend(START + COUNT - 1)
    ns = range(START, START + COUNT)
    values = [table[n] for n in ns]
    estimates = [log_p_estimate(n, BASE) for n in ns]
    logs = [log_value_interval(v, BASE) for v in values]
    timings = {}

    def timed(layer, loop):
        began = time.perf_counter()
        loop()
        timings[layer] = (time.perf_counter() - began) / COUNT * 1e6

    timed("estimate", lambda: [log_p_estimate(n, BASE) for n in ns])
    timed("log", lambda: [log_value_interval(v, BASE) for v in values])
    timed("compare", lambda: [e.contains(x) for e, x in zip(estimates, logs)])
    timed("check", lambda: [log_p_estimate(n, BASE).contains(log_value_interval(v, BASE))
                            for n, v in zip(ns, values)])
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", type=Path,
                        help="tree to import partdigits from; give it twice to compare two")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(_round()))
        return 0
    srcs = [src.resolve() for src in args.src or [Path(__file__).resolve().parent.parent / "src"]]
    if len(srcs) > 2:
        parser.error("--src may be given at most twice")
    runs = {src: [] for src in srcs}
    for _ in range(args.rounds):
        for src in srcs:
            out = subprocess.run([sys.executable, __file__, "--worker"],
                                 env={**os.environ, "PYTHONPATH": str(src)},
                                 capture_output=True, text=True, check=True)
            runs[src].append(json.loads(out.stdout))
    print(f"µs per n over p({START}..{START + COUNT - 1}), base {BASE}, {args.rounds} rounds")
    medians = {}
    for src, rounds in runs.items():
        print(src)
        for layer in LAYERS:
            samples = [r[layer] for r in rounds]
            medians[src, layer] = statistics.median(samples)
            line = f"  {layer:9s} best {min(samples):7.2f}  median {medians[src, layer]:7.2f}"
            if len(srcs) == 2 and src == srcs[1]:
                line += f"  x{medians[src, layer] / medians[srcs[0], layer]:.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
