"""The benchmark's workloads: set-up, seeded decks of ops, and reference answers.

An op is one in-process ``partdigits.cli.run(argv)`` call with stdout and
stderr captured, except in envelope-audit, where it is one library check.
Every deck is stratified: each category's candidates are sorted by cost
(their first hit, or N) and split into equal strata, and the seed picks
one candidate from the middle half of each stratum.  Runs on different
seeds therefore see different inputs with the same spread of costs,
which keeps percentiles steady.  Why each workload exists is recorded in
BENCHMARK.json and DESIGN.md.
"""
from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import partdigits.asymptotics
import partdigits.digits
from partdigits import SequenceKind, SequenceTable

import reference as ref


@dataclass(frozen=True)
class Op:
    """One operation and the answer the reference expects from it."""

    argv: tuple[str, ...] | None = None  # a CLI op
    check: tuple[str, int, int] | None = None  # a library op: (kind, n, base)
    expected: object = None  # the answer; any exit code but 0 fails the op

    def describe(self) -> str:
        if self.argv is not None:
            return "partdigits " + " ".join(self.argv)
        kind, n, base = self.check
        return f"envelope-check kind={kind} n={n} base={base}"


def cli_answer(argv, stdout: str):
    """The answer in a CLI op's JSON output; `method` and `table_entries` are left out."""
    payload = json.loads(stdout)
    command = argv[0]
    if command == "search":
        return (payload["n_min"], payload["bound"], payload["within_bound"])
    if command == "verify":
        return tuple(
            (r["f"], r["n_min"], r["bound"], r["within_bound"]) for r in payload["results"]
        )
    if command == "census":
        return tuple((c["f"], c["count"]) for c in payload["counts"])
    if command == "bound":
        conv = payload["conventions"]
        return (payload["theorem_bound"], conv["nominal_delta"]["bound"],
                conv["actual_delta"]["f"], conv["actual_delta"]["bound"])
    raise ValueError(f"no answer defined for {command!r}")


def _middle_half(rng, lo, hi):
    """A seeded integer from the middle half of [lo, hi)."""
    quarter = (hi - lo) // 4
    return rng.randrange(lo + quarter, max(hi - quarter, lo + quarter + 1))


def stratified(rng, candidates, count):
    """One seeded pick from each of `count` equal slices of `candidates`."""
    size = len(candidates)
    return [candidates[_middle_half(rng, i * size // count, (i + 1) * size // count)]
            for i in range(count)]


def stratified_ints(rng, lo, hi, count):
    """One seeded integer from each of `count` equal slices of [lo, hi]."""
    span = hi - lo + 1
    return [lo + _middle_half(rng, i * span // count, (i + 1) * span // count)
            for i in range(count)]


def checked_values(tables, data):
    """The tables' values, after each matched its pinned digest."""
    values = {kind: [table[n] for n in range(len(table))] for kind, table in tables.items()}
    for kind, vals in values.items():
        ref.check_digest(kind, vals, data["digests"])
    return values


def _sized(kind, base):
    return ("--kind", kind, "--base", str(base))


class Workload:
    """Base: no set-up, CLI ops, nothing to restore between ops."""

    name = ""
    # Seconds of --seconds one deck stands for: a deck's duration on the
    # machine the benchmark was tuned on, or half of it where a run needs
    # more ops (pl-build, envelope-audit).
    DECK_SECONDS: float
    workdir: Path

    def prepare(self, workdir: Path) -> None:
        """The workload's own set-up through the program; timed as part of setup_s."""
        self.workdir = workdir

    def reference(self, data: dict) -> None:
        """Untimed: derive reference answers."""

    def deck(self, rng, number: int) -> list[Op]:
        """The ops of the run's deck `number` (0, 1, ...), drawn from rng."""
        raise NotImplementedError

    def after_op(self) -> None:
        """Untimed: undo any state an op left behind."""

    def probes(self) -> list[Op]:
        """Ops that fail at a known defect; reported every run, never scored."""
        return []

    # -- helpers shared by the CLI workloads --------------------------------

    def _first_hits(self, kind, base, t):
        return self.hits[f"{kind}/{base}/{t}"]

    def _search_op(self, kind, base, t, f):
        n_min = self._first_hits(kind, base, t)[f]
        bound = ref.theorem_bound(kind, base, t)
        return Op(argv=("search", *_sized(kind, base), "--digits", f),
                  expected=(n_min, bound, n_min <= bound))

    def _verify_op(self, kind, base, t, extra=()):
        bound = ref.theorem_bound(kind, base, t)
        hits = self._first_hits(kind, base, t)
        strings = [ref.digit_text(v, base) for v in range(base ** (t - 1), base**t)]
        expected = tuple((f, hits[f], bound, hits[f] <= bound) for f in strings)
        return Op(argv=("verify", *_sized(kind, base), "--t", str(t), *extra),
                  expected=expected)

    def _census_op(self, kind, base, t, N, head_list, extra=()):
        counts = ref.census_counts(head_list, N)
        return Op(argv=("census", *_sized(kind, base), "--t", str(t),
                        "--limit", str(N), *extra),
                  expected=tuple((ref.digit_text(h, base), c) for h, c in counts.items()))


class SearchMix(Workload):
    """search over p and pl, plus the verify grid; no cache."""

    name = "search-mix"
    DECK_SECONDS = 5.5
    # (kind, base, lengths, ops per deck)
    SEARCHES = (
        ("p", 10, (3,), 32),
        ("p", 10, (2,), 16),
        ("p", 16, (2,), 16),
        ("p", 2, tuple(range(2, 9)), 20),
        ("pl", 10, (2,), 16),
    )
    VERIFY = (("p", 10, 2), ("pl", 10, 1))
    # exit 3 where the benchmark was introduced: verify refuses up front to
    # build a table reaching the whole theorem bound (ROADMAP D3)
    PROBES = (("p", 10, 3), ("pl", 10, 2))

    def reference(self, data):
        self.hits = data["first_hits"]
        self.candidates = []
        for kind, base, lengths, count in self.SEARCHES:
            pool = sorted(
                (n, t, f) for t in lengths
                for f, n in self._first_hits(kind, base, t).items()
            )
            self.candidates.append((kind, base, pool, count))

    def deck(self, rng, number):
        ops = []
        for kind, base, pool, count in self.candidates:
            ops += [self._search_op(kind, base, t, f)
                    for _, t, f in stratified(rng, pool, count)]
        ops += [self._verify_op(*spec) for spec in self.VERIFY]
        if number == 0:
            # The last first hit (n = 19,885) once per run: it alone grows the
            # p table past 16,384 entries, so peak_rss_mb would otherwise
            # depend on whether the seed happens to draw it.
            kind, base, pool, _ = self.candidates[0]
            _, t, f = pool[-1]
            ops.append(self._search_op(kind, base, t, f))
        rng.shuffle(ops)
        return ops

    def probes(self):
        return [self._verify_op(*spec) for spec in self.PROBES]


class PlBuild(Workload):
    """census over pl tables of 2e3..6e3 entries, plus verify pl t1; no cache."""

    name = "pl-build"
    # A deck takes about 11 s.  Counting it as 5.5 s gives three decks per
    # 15 s, so a run lasts about twice --seconds: with fewer than 27 ops of
    # about a second each, the run's p50 and p90 each rest on one or two
    # ops and move with the host's speed.
    DECK_SECONDS = 5.5
    CENSUS_N = (2000, 6000)
    CENSUS_OPS = 8
    # Cost grows like N^2.2, so three consecutive decks share 24 strata of
    # N, and the ops near each percentile differ little in N.
    DECKS_SHARING_STRATA = 3

    def reference(self, data):
        self.hits = data["first_hits"]
        self.pl_heads = [int(c) for c in data["pl_lead10"]]

    def _census_sizes(self, rng, number):
        share = self.DECKS_SHARING_STRATA
        sizes = stratified_ints(rng, *self.CENSUS_N, self.CENSUS_OPS * share)
        return sizes[number % share :: share]

    def deck(self, rng, number):
        ops = [self._census_op("pl", 10, 1, N, self.pl_heads)
               for N in self._census_sizes(rng, number)]
        ops.append(self._verify_op("pl", 10, 1))
        rng.shuffle(ops)
        return ops


class WarmCache(Workload):
    """Short verify, census and bound ops against a pre-built table cache."""

    name = "warm-cache"
    DECK_SECONDS = 1.1
    P_CACHED, PL_CACHED = 24000, 2400  # saved into the cache
    P_REF, PL_REF = 30000, 3000  # reach of the ops that extend the cache
    # Per deck: 9 cheap ops (bound, pl), then 6 p verifies dominated by the
    # cache load, 6 p census ops that also scan up to 24,000 entries, and
    # the p op that extends the cache.  The median then falls inside the
    # p-verify cluster and p90 inside the p-census one, not on a step
    # between clusters, where it would jump from run to run.
    VERIFY_P = (("p", 10, 1), ("p", 10, 2), ("p", 16, 1), ("p", 16, 2),
                ("p", 2, 4), ("p", 2, 5), ("p", 2, 6))
    VERIFY_P_OPS = 6
    CENSUS_P_OPS, CENSUS_PL_OPS = 6, 3  # inside the cached range
    BOUND_OPS = 4
    PROBES = (("p", 2, 8),)  # exit 3 for the same reason as search-mix's probes

    def prepare(self, workdir):
        super().prepare(workdir)
        self.cache = workdir / "cache"
        self.cache.mkdir()
        self.tables = {}
        for kind, cached, last in (("p", self.P_CACHED, self.P_REF),
                                   ("pl", self.PL_CACHED, self.PL_REF)):
            table = SequenceTable(SequenceKind(kind)).extend(cached)
            table.save(self.cache / f"{kind}.table")
            self.tables[kind] = table.extend(last)

    def reference(self, data):
        self.hits = data["first_hits"]
        values = checked_values(self.tables, data)
        self.heads = {
            ("p", 1): ref.heads(values["p"], 10, 1),
            ("p", 2): ref.heads(values["p"], 10, 2),
            ("pl", 1): ref.heads(values["pl"], 10, 1),
        }
        self.pristine = self.workdir / "pristine"
        shutil.copytree(self.cache, self.pristine)
        self.snapshot = self._stat()

    def probes(self):
        return [self._verify_op(*spec, extra=("--cache", str(self.cache)))
                for spec in self.PROBES]

    def _stat(self):
        return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
                for p in sorted(self.cache.iterdir())}

    def after_op(self):
        if self._stat() != self.snapshot:
            shutil.rmtree(self.cache)
            shutil.copytree(self.pristine, self.cache)
            self.snapshot = self._stat()

    def _bound_op(self, rng):
        while True:
            kind = rng.choice(("p", "pl"))
            base = rng.randint(2, 16)
            t = rng.randint(2 if base == 2 else 1, 3)
            narrowest = rng.random() < 0.5  # without --digits the CLI takes f = b^t - 1
            f_value = base**t - 1 if narrowest else rng.randint(base ** (t - 1), base**t - 1)
            extra = () if narrowest else ("--digits", ref.digit_text(f_value, base))
            try:
                expected = (ref.theorem_bound(kind, base, t),
                            ref.framework_bound(kind, base, ref.nominal_delta(base, t)),
                            ref.digit_text(f_value, base),
                            ref.framework_bound(kind, base, ref.window_delta(f_value, base)))
            except ref.ReferenceError:
                continue  # the reference cannot decide this bound; draw again
            return Op(argv=("bound", *_sized(kind, base), "--t", str(t), *extra),
                      expected=expected)

    def deck(self, rng, number):
        cache = ("--cache", str(self.cache))
        ops = [self._verify_op(*spec, extra=cache)
               for spec in rng.sample(self.VERIFY_P, self.VERIFY_P_OPS)]
        ops.append(self._verify_op("pl", 10, 1, extra=cache))
        for N in stratified_ints(rng, 1000, self.P_CACHED, self.CENSUS_P_OPS):
            t = rng.choice((1, 2))
            ops.append(self._census_op("p", 10, t, N, self.heads["p", t], cache))
        for N in stratified_ints(rng, 300, self.PL_CACHED, self.CENSUS_PL_OPS):
            ops.append(self._census_op("pl", 10, 1, N, self.heads["pl", 1], cache))
        # the minority that extends the cache and saves it again
        ops.append(self._census_op("p", 10, 1, rng.randint(self.P_CACHED + 1, self.P_REF),
                                   self.heads["p", 1], cache))
        ops.append(self._census_op("pl", 10, 1, rng.randint(self.PL_CACHED + 1, self.PL_REF),
                                   self.heads["pl", 1], cache))
        ops += [self._bound_op(rng) for _ in range(self.BOUND_OPS)]
        rng.shuffle(ops)
        return ops


class EnvelopeAudit(Workload):
    """Certified log-envelope checks against exact table values (library ops)."""

    name = "envelope-audit"
    # A deck takes about 0.09 s; counting it as half that makes a run last
    # about twice --seconds, so that each run averages over more of the
    # host's speed swings (its median moved most between runs).
    DECK_SECONDS = 0.045
    P_LAST, PL_LAST = 30000, 4000
    PL_FROM = 2829  # where the plane-partition envelope starts to hold
    P_OPS = 50  # per base
    PL_OPS = 50
    BASES = (2, 10, 16)

    def prepare(self, workdir):
        super().prepare(workdir)
        self.tables = {
            "p": SequenceTable(SequenceKind.PARTITION).extend(self.P_LAST),
            "pl": SequenceTable(SequenceKind.PLANE_PARTITION).extend(self.PL_LAST),
        }

    def reference(self, data):
        checked_values(self.tables, data)

    def _op(self, kind, n, base):
        value = self.tables[kind][n]
        return Op(check=(kind, n, base),
                  expected=ref.envelope_contains(kind, n, base, value))

    def deck(self, rng, number):
        ops = [self._op("p", n, base) for base in self.BASES
               for n in stratified_ints(rng, 4, self.P_LAST, self.P_OPS)]
        ops += [self._op("pl", n, 10)
                for n in stratified_ints(rng, self.PL_FROM, self.PL_LAST, self.PL_OPS)]
        rng.shuffle(ops)
        return ops

    def run_check(self, op: Op) -> bool:
        """The library op.  Names are looked up at call time, so traced runs see wrappers."""
        kind, n, base = op.check
        estimate = (partdigits.asymptotics.log_p_estimate if kind == "p"
                    else partdigits.asymptotics.log_pl_estimate)
        value = self.tables[kind][n]
        return estimate(n, base).contains(partdigits.digits.log_value_interval(value, base))


WORKLOADS = {w.name: w for w in (SearchMix, PlBuild, WarmCache, EnvelopeAudit)}
