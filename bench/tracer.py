"""Per-layer tracing from outside the program.

While installed, a Tracer replaces the module-level names that callers
look up (``partdigits.search.decide_membership``, the ``find_min_n``
that ``partdigits.cli`` imported, ``SequenceTable.extend``, ...) with
wrappers.  A span wrapper records (name, start, end, parent span, op id)
in memory; a count wrapper only bumps counters, for calls of a few
microseconds that a span would distort.  The layers are the modules of
partdigits; a layer's self time is its spans minus the time their child
spans cover.
"""
from __future__ import annotations

import json
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import partdigits.asymptotics as asymptotics
import partdigits.cli as cli
import partdigits.digits as digits
import partdigits.framework as framework
import partdigits.search as search
from partdigits.engines import SequenceTable

# name -> unit, in the order the result lists them
PER_LAYER = {
    "search.scan.entries": "count",
    "search.scan.self_s": "s",
    "search.scan.us_per_entry": "us",
    "search.decide_membership.calls": "count",
    "search.decide_membership.busy_s": "s",
    "search.decide_membership.exact_fallbacks": "ratio",
    "search.stop_to_bound": "ratio",
    "search.verify_probe.failed": "count",
    "digits.frac_log.calls": "count",
    "digits.frac_log.busy_s": "s",
    "digits.target_interval.calls": "count",
    "digits.target_interval.busy_s": "s",
    "digits.log_value_interval.calls": "count",
    "digits.log_value_interval.busy_s": "s",
    "digits.leading_digits.calls": "count",
    "digits.digit_count.calls": "count",
    "certified.membership_half_open.calls": "count",
    "certified.membership_half_open.undecided": "count",
    "engines.p.extend.busy_s": "s",
    "engines.p.entries_built": "count",
    "engines.pl.extend.busy_s": "s",
    "engines.pl.entries_built": "count",
    "engines.entries_used_ratio": "ratio",
    "engines.load.calls": "count",
    "engines.load.busy_s": "s",
    "engines.load.bytes": "bytes",
    "engines.save.calls": "count",
    "engines.save.busy_s": "s",
    "engines.save.bytes": "bytes",
    "asymptotics.log_p_estimate.calls": "count",
    "asymptotics.log_p_estimate.busy_s": "s",
    "asymptotics.log_pl_estimate.calls": "count",
    "asymptotics.log_pl_estimate.busy_s": "s",
    "asymptotics.eval_constants.calls": "count",
    "framework.theorem_bound.calls": "count",
    "framework.theorem_bound.busy_s": "s",
    "framework.compute_bounds.calls": "count",
    "framework.compute_bounds.busy_s": "s",
    "framework.instantiate.calls": "count",
    "framework.instantiate.busy_s": "s",
    "cli.run.self_s": "s",
    "trace.overhead_frac": "ratio",
}

_SCAN = "search.scan"
_EXTEND = ("engines.p.extend", "engines.pl.extend")
_TIMED = (
    "search.decide_membership", "digits.frac_log", "digits.target_interval",
    "digits.log_value_interval", "engines.p.extend", "engines.pl.extend",
    "engines.load", "engines.save", "asymptotics.log_p_estimate",
    "asymptotics.log_pl_estimate", "framework.theorem_bound",
    "framework.compute_bounds", "framework.instantiate",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.counts: Counter[str] = Counter()
        self.stop_ratios: list[float] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op_id = -1

    # -- recording ------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def _timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def _counted(self, name, fn, after=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return wrapper

    # -- what each wrapper learns from a call ------------------------------

    def _scan_done(self, entries, table, stop_ratio=None):
        self.counts["search.scan.entries"] += entries
        self.counts["engines.entries_held"] += len(table)
        if stop_ratio is not None:
            self.stop_ratios.append(stop_ratio)

    def _after_search(self, result, *args, table=None, **_):
        if result is None:  # scanned the whole horizon
            self._scan_done(len(table), table)
        else:
            self._scan_done(result.n_min + 1, table, result.n_min / result.bound)

    def _after_verify(self, report, *args, table=None, **_):
        bound = report.results[0].bound
        if all(r.n_min is not None for r in report.results):
            self._scan_done(report.max_n_min + 1, table, report.max_n_min / bound)
        else:
            self._scan_done(bound + 1, table)

    def _after_census(self, counts, kind, base, t, N, *, table=None, **_):
        self._scan_done(N, table)

    def _after_decide(self, result, *args, **kwargs):
        if result[1]:
            self.counts["search.decide_membership.exact_fallbacks"] += 1

    def _after_membership(self, result):
        if result is None:
            self.counts["certified.membership_half_open.undecided"] += 1

    def _after_save(self, result, table, path):
        self.counts["engines.save.bytes"] += os.stat(path).st_size

    # -- installing -------------------------------------------------------

    def _targets(self):
        timed, counted = self._timed, self._counted
        table_extend = SequenceTable.extend
        table_save = SequenceTable.save
        table_load = SequenceTable.__dict__["load"].__func__

        def extend(table, n):
            before = len(table)
            result = self.span(f"engines.{table.kind.value}.extend", table_extend, table, n)
            self.counts[f"engines.{table.kind.value}.entries_built"] += len(table) - before
            return result

        def load(cls, path, *args, **kwargs):
            result = self.span("engines.load", table_load, cls, path, *args, **kwargs)
            self.counts["engines.load.bytes"] += os.stat(path).st_size
            return result

        yield SequenceTable, "extend", extend
        yield SequenceTable, "save", timed("engines.save", table_save, self._after_save)
        yield SequenceTable, "load", classmethod(load)
        yield cli, "find_min_n", timed(_SCAN, cli.find_min_n, self._after_search)
        yield cli, "verify_theorem", timed(_SCAN, cli.verify_theorem, self._after_verify)
        yield cli, "digit_census", timed(_SCAN, cli.digit_census, self._after_census)
        yield search, "decide_membership", timed(
            "search.decide_membership", search.decide_membership, self._after_decide)
        yield search, "frac_log", timed("digits.frac_log", search.frac_log)
        for module in (search, cli):
            yield module, "target_interval", timed(
                "digits.target_interval", module.target_interval)
            yield module, "leading_digits", counted(
                "digits.leading_digits.calls", module.leading_digits)
            yield module, "theorem_bound", timed("framework.theorem_bound", module.theorem_bound)
        for module in (search, digits):
            yield module, "digit_count", counted("digits.digit_count.calls", module.digit_count)
        for module in (digits, framework):
            yield module, "membership_half_open", counted(
                "certified.membership_half_open.calls", module.membership_half_open,
                self._after_membership)
        for module in (digits, cli):
            yield module, "log_value_interval", timed(
                "digits.log_value_interval", module.log_value_interval)
        for module in (asymptotics, cli):
            yield module, "log_p_estimate", timed(
                "asymptotics.log_p_estimate", module.log_p_estimate)
            yield module, "log_pl_estimate", timed(
                "asymptotics.log_pl_estimate", module.log_pl_estimate)
        yield asymptotics, "eval_constants", counted(
            "asymptotics.eval_constants.calls", asymptotics.eval_constants)
        yield cli, "compute_bounds", timed("framework.compute_bounds", cli.compute_bounds)
        yield cli, "instantiate_p", timed("framework.instantiate", cli.instantiate_p)
        yield cli, "instantiate_pl", timed("framework.instantiate", cli.instantiate_pl)

    def install(self):
        for owner, attr, wrapper in self._targets():
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self, overhead_frac: float, probe_failures: int) -> dict:
        busy: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        self_time: Counter[str] = Counter()
        child_time: defaultdict[int, float] = defaultdict(float)
        extend_in_scan = 0.0
        spans = self.spans
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name in _EXTEND and spans[parent][0] == _SCAN:
                    extend_in_scan += end - start
        for index, (name, start, end, _, _) in enumerate(spans):
            busy[name] += end - start
            calls[name] += 1
            self_time[name] += end - start - child_time[index]
        c = self.counts
        entries = c["search.scan.entries"]
        out = {
            "search.scan.entries": entries,
            "search.scan.self_s": self_time[_SCAN],
            "search.scan.us_per_entry":
                (busy[_SCAN] - extend_in_scan) / entries * 1e6 if entries else 0.0,
            "search.decide_membership.exact_fallbacks":
                c["search.decide_membership.exact_fallbacks"]
                / calls["search.decide_membership"] if calls["search.decide_membership"] else 0.0,
            "search.stop_to_bound":
                statistics.median(self.stop_ratios) if self.stop_ratios else 0.0,
            "search.verify_probe.failed": probe_failures,
            "engines.entries_used_ratio":
                entries / c["engines.entries_held"] if c["engines.entries_held"] else 0.0,
            "cli.run.self_s": self_time["cli.run"],
            "trace.overhead_frac": overhead_frac,
        }
        for name in _TIMED:
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.calls"] = calls[name]
        for name in PER_LAYER:
            if name not in out:
                out[name] = c[name]
        return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER.items()}

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
