"""Print a fingerprint of every CLI output on a fixed grid, one line each.

Runs bound/search/verify/census/selftest argv lists, each with
`--output json`, `csv` and `text`, through `partdigits.cli.run` in this
process and prints, per output,

    <argv> | <format> | exit <code> | stdout <sha256> | stderr <sha256>

with the runtime in verify's text masked and a temporary cache directory
shown as `<cache>`.  Run it in two checkouts and `diff` the results to
see which outputs a change alters:

    PYTHONPATH=src python3 scripts/output_grid.py > grid.txt
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import re
import tempfile

from partdigits.cli import run

FORMATS = ("json", "csv", "text")
RUNTIME = re.compile(r"runtime \d+\.\d+s")
CACHE = "<cache>"


def _grid():
    for kind in ("p", "pl"):
        for base, t in ((2, 2), (10, 1), (10, 2), (16, 1)):
            yield ("bound", "--kind", kind, "--base", str(base), "--t", str(t))
        for base, digits in ((2, "11"), (2, "101"), (10, "7"), (10, "37"),
                             (16, "a"), (16, "ff")):
            yield ("search", "--kind", kind, "--base", str(base), "--digits", digits)
        for base, t in ((2, 2), (2, 3), (10, 1), (10, 2), (16, 1)):
            yield ("verify", "--kind", kind, "--base", str(base), "--t", str(t))
        for base, t, n in ((2, 2, 100), (10, 1, 10), (10, 2, 300), (16, 1, 200)):
            yield ("census", "--kind", kind, "--base", str(base), "--t", str(t),
                   "--limit", str(n))
    yield ("bound", "--kind", "p", "--base", "10", "--t", "1", "--digits", "2")
    yield ("search", "--kind", "p", "--base", "10", "--digits", "9", "--limit", "10")
    yield ("search", "--kind", "p", "--base", "10", "--digits", "07")
    yield ("census", "--kind", "p", "--base", "10", "--t", "1", "--limit", "0")
    # the census fills the cache past what the verify after it reads
    yield ("census", "--kind", "p", "--base", "10", "--t", "1", "--limit", "3000",
           "--cache", CACHE)
    yield ("verify", "--kind", "p", "--base", "10", "--t", "2", "--cache", CACHE)
    for _ in range(2):  # builds the pl cache, then reads it
        yield ("census", "--kind", "pl", "--base", "10", "--t", "1", "--limit", "300",
               "--cache", CACHE)
    # extends the loaded pl cache across the tile step at 512
    yield ("census", "--kind", "pl", "--base", "10", "--t", "1", "--limit", "700",
           "--cache", CACHE)
    yield ("selftest",)
    # budget refusals: each exits 3 with the n it stopped at on stderr
    yield ("verify", "--kind", "p", "--base", "10", "--t", "3", "--memory-budget", "1M")
    yield ("census", "--kind", "pl", "--base", "10", "--t", "1", "--limit", "3000",
           "--memory-budget", "256K")
    # usage errors: each exits 2 with its message on stderr
    yield ("search", "--kind", "p", "--base", "2", "--digits", "1")
    yield ("bound", "--kind", "p", "--base", "2", "--t", "1")
    yield ("verify", "--kind", "p", "--base", "10", "--t", "0")
    yield ("census", "--kind", "p", "--base", "10", "--t", "1", "--limit", "-1")
    yield ("search", "--kind", "p", "--base", "10", "--digits", "7", "--limit", "-4")
    yield ("bound", "--kind", "p", "--base", "10", "--t", "1", "--precision", "32")
    # a flag the command does not take
    yield ("census", "--kind", "p", "--base", "10", "--t", "1", "--limit", "10",
           "--precision", "96")
    # the precision sets the width of every log enclosure
    for precision in ("64", "384"):
        for kind in ("p", "pl"):
            yield ("bound", "--kind", kind, "--base", "10", "--t", "2",
                   "--precision", precision)
        yield ("selftest", "--precision", precision)


def _fingerprint(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    stdout = RUNTIME.sub("runtime <masked>s", out.getvalue())
    return code, *(hashlib.sha256(s.encode()).hexdigest() for s in (stdout, err.getvalue()))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for argv in _grid():
            real = [tmp if a == CACHE else a for a in argv]
            for fmt in FORMATS:
                code, out, err = _fingerprint([*real, "--output", fmt])
                print(f"{' '.join(argv)} | {fmt} | exit {code} | stdout {out} | stderr {err}",
                      flush=True)


if __name__ == "__main__":
    main()
