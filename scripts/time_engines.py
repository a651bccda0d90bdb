"""Per-layer cost of the exact engines: seconds per table build.

    python3 scripts/time_engines.py [--rounds 3] [--pl 2000 4000 6000 20000]
    python3 scripts/time_engines.py --src OLD/src --src NEW/src

Each round builds the `p` table to `--p` (default 24,000) and the `pl`
table to each `--pl` (default 2,000, 4,000 and 6,000; add 20,000 for the
ROADMAP D7 gate), every build in a fresh interpreter that imports
partdigits from its `--src` tree, and reports its seconds and that
interpreter's peak RSS (`ru_maxrss`, MB).  The script prints the best and
the median over the rounds.  Given two trees, the rounds alternate
between them (scripts/time_envelope.py's runner), so that both see the
same swings of the host's speed, and the last column is the second
tree's median over the first's.  No timing is asserted.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from time_envelope import make_parser, print_medians, run_rounds, trees


def _build(kind: str, n: int) -> dict[str, float]:
    """Build one table in this interpreter: its seconds and the peak RSS."""
    from partdigits import SequenceKind, SequenceTable

    table = SequenceTable(SequenceKind(kind))
    began = time.perf_counter()
    table.extend(n)
    seconds = time.perf_counter() - began
    label = f"{kind} {n}"
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {label: seconds, f"{label} MB": rss}


def main(argv=None) -> int:
    parser = make_parser(__doc__, rounds=3)
    parser.add_argument("--p", type=int, default=24000, help="p table size")
    parser.add_argument("--pl", type=int, nargs="+", default=[2000, 4000, 6000],
                        help="pl table sizes")
    parser.add_argument("job", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        kind, n = args.job
        print(json.dumps(_build(kind, int(n))))
        return 0
    jobs = [("p", str(args.p)), *(("pl", str(n)) for n in args.pl)]
    srcs = trees(parser, args)
    runs = run_rounds(__file__, srcs, args.rounds, jobs)
    print(f"seconds per build and peak RSS (MB), {args.rounds} rounds")
    print_medians(runs, list(runs[srcs[0]][0]), digits=3)
    return 0


if __name__ == "__main__":
    sys.exit(main())
