"""Per-layer cost of the public envelope check, in µs per n.

    python3 scripts/time_envelope.py [--rounds 5]
    python3 scripts/time_envelope.py --src OLD/src --src NEW/src

On p(n) for the 2,000 n from 48,001, in base 10, each round times

    estimate  log_p_estimate(n, b)
    log       log_value_interval(p(n), b)
    compare   estimate.contains(log), on operands built beforehand
    check     log_p_estimate(n, b).contains(log_value_interval(p(n), b))
    ln        ln_fixed(n) and ln_fixed(head) at 192 bits, head the leading
              window of p(n) that log_value_interval takes the log of

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

LAYERS = ("estimate", "log", "compare", "check", "ln")
START, COUNT, BASE = 48001, 2000, 10


def _round() -> dict[str, float]:
    """One round of the layers in this interpreter, µs per n."""
    from partdigits import SequenceKind, SequenceTable
    from partdigits.asymptotics import log_p_estimate
    from partdigits.certified import DEFAULT_PRECISION, ln_fixed
    from partdigits.digits import _window, digit_count, log_value_interval

    table = SequenceTable(SequenceKind.PARTITION)
    table.extend(START + COUNT - 1)
    ns = range(START, START + COUNT)
    values = [table[n] for n in ns]
    estimates = [log_p_estimate(n, BASE) for n in ns]
    logs = [log_value_interval(v, BASE) for v in values]
    width = _window(BASE)[0]
    heads = [v // BASE ** (digit_count(v, BASE) - width) for v in values]
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
    timed("ln", lambda: [(ln_fixed(n, DEFAULT_PRECISION), ln_fixed(h, DEFAULT_PRECISION))
                         for n, h in zip(ns, heads)])
    return timings


def make_parser(doc: str, rounds: int) -> argparse.ArgumentParser:
    """The options of a timing script: `--src` (at most twice), `--rounds`, and the hidden `--worker`."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--src", action="append", type=Path,
                        help="tree to import partdigits from; give it twice to compare two")
    parser.add_argument("--rounds", type=int, default=rounds)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser


def trees(parser: argparse.ArgumentParser, args) -> list[Path]:
    """The `--src` trees to time, one or two; by default the `src` next to this script."""
    srcs = [src.resolve() for src in args.src or [Path(__file__).resolve().parent.parent / "src"]]
    if len(srcs) > 2:
        parser.error("--src may be given at most twice")
    return srcs


def run_rounds(script: str, srcs: list[Path], rounds: int, jobs=((),)) -> dict[Path, list[dict]]:
    """Each tree's rounds, alternating between the trees.  Per round and tree,
    each job runs `script --worker *job` in a fresh interpreter that imports
    partdigits from the tree, and the JSON objects they print merge into
    that round's record."""
    runs = {src: [] for src in srcs}
    for _ in range(rounds):
        for src in srcs:
            record = {}
            for job in jobs:
                out = subprocess.run([sys.executable, script, "--worker", *job],
                                     env={**os.environ, "PYTHONPATH": str(src)},
                                     capture_output=True, text=True, check=True)
                record.update(json.loads(out.stdout))
            runs[src].append(record)
    return runs


def print_medians(runs: dict[Path, list[dict]], layers, digits: int = 2) -> None:
    """Best and median of each layer per tree and, for a second tree, its median over the first's."""
    srcs = list(runs)
    width = max(9, *map(len, layers))
    medians = {}
    for src, rounds in runs.items():
        print(src)
        for layer in layers:
            samples = [r[layer] for r in rounds]
            medians[src, layer] = statistics.median(samples)
            line = (f"  {layer:{width}s} best {min(samples):7.{digits}f}"
                    f"  median {medians[src, layer]:7.{digits}f}")
            if len(srcs) == 2 and src == srcs[1]:
                line += f"  x{medians[src, layer] / medians[srcs[0], layer]:.3f}"
            print(line)


def main(argv=None) -> int:
    parser = make_parser(__doc__, rounds=5)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(_round()))
        return 0
    runs = run_rounds(__file__, trees(parser, args), args.rounds)
    print(f"µs per n over p({START}..{START + COUNT - 1}), base {BASE}, {args.rounds} rounds")
    print_medians(runs, LAYERS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
