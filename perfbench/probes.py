"""Per-layer probes installed from outside the program, for the traced run.

The benchmark does not change `siotrust`. Instead it replaces functions
and methods with wrappers, at the place where their callers look them up:
a module attribute (`siotrust.cli:compute_stats`, which `cli` imported by
name), a class attribute (`siotrust.domain:TrustStore.get`), or every
value of a dispatch dict (`siotrust.experiments:_RUNNERS[*]`).

Two kinds of probe exist:

* a span times each call and keeps its self time, the duration minus the
  part covered by spans opened inside it;
* a counter only counts. Methods called millions of times (store lookups,
  `pair_info`, `post_evaluate`, `transit_pair`) get counters, because a
  timer there would cost more than the work it times.

Targets are resolved by name when the probes are installed. A target
that no longer exists is recorded as absent and the metrics that depend
only on it are left out of the result, so a later change that renames a
function does not crash the benchmark. Timed end-to-end runs never
import this module.
"""

from __future__ import annotations

import gc
import importlib
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

SPAN = "span"
COUNT = "count"


@dataclass(frozen=True)
class Probe:
    """One layer boundary: a metric stem, how to wrap it, and its lookup sites."""

    name: str
    mode: str
    sites: tuple[str, ...]


_UNITS = tuple(
    f"siotrust.experiments:_{w}_unit"
    for w in ("mutuality", "inference", "transitivity", "profit", "environment")
)

PROBES = (
    Probe("graph.load", SPAN, ("siotrust.cli:load_edge_list", "siotrust.cli:load_features")),
    Probe("graph.compute_stats", SPAN, ("siotrust.cli:compute_stats",)),
    Probe("graph.sample_roles", SPAN, ("siotrust.experiments:sample_roles",)),
    Probe("experiments.exp", SPAN, ("siotrust.experiments:_RUNNERS[*]",)),
    Probe("experiments.map_units", SPAN, ("siotrust.experiments:_map_units",)),
    Probe("experiments.unit", SPAN, _UNITS),
    Probe("delegation.discover", SPAN, (
        "siotrust.delegation:find_potential_trustees",
        "siotrust.experiments:find_potential_trustees",
    )),
    Probe("delegation.run_delegation", SPAN, ("siotrust.experiments:run_delegation",)),
    Probe("delegation.evidence_row", SPAN, ("siotrust.delegation:PathEvaluator.evidence_row",)),
    Probe("delegation.trace_to_dict", SPAN, ("siotrust.delegation:DelegationTrace.to_dict",)),
    Probe("delegation.pair_info", COUNT, ("siotrust.delegation:PathEvaluator.pair_info",)),
    Probe("delegation.invalidate", COUNT, ("siotrust.delegation:PathEvaluator.invalidate",)),
    Probe("trust_engine.post_evaluate", COUNT, ("siotrust.trust_engine:post_evaluate",)),
    Probe("trust_engine.infer_task_tw", COUNT, ("siotrust.trust_engine:infer_task_tw",)),
    Probe("trust_engine.infer_subset_tw", COUNT, ("siotrust.trust_engine:infer_subset_tw",)),
    Probe("trust_engine.transit_pair", COUNT, ("siotrust.trust_engine:transit_pair",)),
    Probe("trust_engine.reverse_evaluate", COUNT, ("siotrust.trust_engine:reverse_evaluate",)),
    Probe("trust_engine.update_estimates", COUNT, ("siotrust.trust_engine:update_estimates",)),
    Probe("trust_engine.select_trustee", COUNT, ("siotrust.trust_engine:select_trustee",)),
    Probe("domain.store_get", COUNT, ("siotrust.domain:TrustStore.get",)),
    Probe("domain.store_put", COUNT, ("siotrust.domain:TrustStore.put",)),
    Probe("domain.task_records", COUNT, ("siotrust.domain:TrustStore.task_records",)),
    Probe("report.metrics", SPAN, ("siotrust.cli:write_metrics",)),
    Probe("report.plot", SPAN, ("siotrust.cli:write_plot",)),
    Probe("report.summary", SPAN, ("siotrust.cli:write_summary",)),
    Probe("report.trace", SPAN, ("siotrust.cli:write_trace_log",)),
)

# Discovery call durations are kept for percentiles.
SAMPLED = frozenset({"delegation.discover"})
REPORT_SPANS = ("report.metrics", "report.plot", "report.summary", "report.trace")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of the pct-th percentile of n samples."""
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def nearest_rank(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(values) -> Optional[tuple[float, float]]:
    """(percentile, value) for the highest percentile with >= 10 samples beyond it.

    A sample is beyond the p-th percentile when its nearest rank is above
    ceil(p/100 * n). Returns None when no candidate qualifies.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in PERCENTILES:  # highest first
        if n - _rank(pct, n) >= 10:
            return pct, nearest_rank(ordered, pct)
    return None


@dataclass
class SpanStat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    samples: Optional[list] = None


@dataclass
class Tracer:
    """Span and counter state for one traced process."""

    clock: Callable[[], float] = time.perf_counter
    spans: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    gc_s: float = 0.0
    gc_gen2: int = 0
    _stack: list = field(default_factory=list)
    _active: dict = field(default_factory=dict)
    _undo: list = field(default_factory=list)
    _gc_start: float = 0.0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call adds to the named span's time and self time."""
        stat = self.spans.setdefault(name, SpanStat(samples=[] if name in SAMPLED else None))
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if stat.samples is not None:
                    stat.samples.append(duration)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call increments the named count and marks it active."""
        counts = self.counts
        active = self._active
        counts.setdefault(name, 0)
        active.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                active[name] -= 1
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, probes=PROBES) -> None:
        """Wrap every resolvable site; record probes with no site left as absent."""
        for probe in probes:
            wrap = self.span if probe.mode == SPAN else self.counter
            after = self._after_hook(probe.name)
            installed = 0
            for site in probe.sites:
                installed += self._patch(site, lambda fn: wrap(probe.name, fn, after))
            if not installed:
                self.absent.append(probe.name)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every patched attribute and remove the GC hook."""
        while self._undo:
            self._undo.pop()()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _patch(self, site: str, make: Callable) -> int:
        """Wrap the callable(s) at `module:attr.path` or `module:dict[*]`; count patched."""
        module_name, _, path = site.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if path.endswith("[*]"):
                table = getattr(owner, path[:-3])
                if not isinstance(table, dict):
                    return 0
                patched = 0
                for key, fn in list(table.items()):
                    if callable(fn):
                        table[key] = make(fn)
                        self._undo.append(lambda t=table, k=key, f=fn: t.__setitem__(k, f))
                        patched += 1
                return patched
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            return 0
        if not callable(original):
            return 0
        setattr(owner, attr, make(original))
        self._undo.append(lambda: setattr(owner, attr, original))
        return 1

    def _after_hook(self, name: str) -> Optional[Callable]:
        if name == "delegation.discover":
            def after(result, _args):
                self.count("delegation.candidates_total", len(result.candidates))
                self.count("delegation.interrogated_total", result.nodes_interrogated)
            return after
        if name == "trust_engine.reverse_evaluate":
            def after(result, _args):
                self.count("trust_engine.reverse_accepts", 1 if result[0] else 0)
            return after
        if name == "domain.task_records":
            def after(_result, _args):
                if self._active.get("delegation.pair_info"):
                    self.count("delegation.pair_info_misses")
            return after
        if name in REPORT_SPANS:
            def after(_result, args):
                self.count("report.bytes_written", os.path.getsize(args[1]))
            return after
        return None

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self.clock()
        else:
            self.gc_s += self.clock() - self._gc_start
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; a metric whose probe is absent is left out."""
        absent = set(self.absent)
        spans = self.spans
        counts = self.counts
        out: dict[str, float] = {}

        def span(name: str) -> SpanStat:
            return spans.get(name) or SpanStat()

        def put(probe: str, metric: str, value) -> None:
            if probe not in absent:
                out[metric] = value

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        put("graph.load", "graph.load_s", span("graph.load").total)
        put("graph.compute_stats", "graph.compute_stats_s", span("graph.compute_stats").total)
        put("graph.sample_roles", "graph.sample_roles_s", span("graph.sample_roles").total)
        put("graph.sample_roles", "graph.sample_roles_calls", span("graph.sample_roles").calls)
        put("experiments.unit", "experiments.units", span("experiments.unit").calls)
        put("experiments.unit", "experiments.unit_self_s", span("experiments.unit").self_time)
        put("experiments.exp", "experiments.aggregate_s", span("experiments.exp").self_time)

        discover = span("delegation.discover")
        samples = discover.samples or []
        tail = tail_percentile(samples)
        p50 = nearest_rank(sorted(samples), 50.0) if samples else 0.0
        put("delegation.discover", "delegation.discover_calls", discover.calls)
        put("delegation.discover", "delegation.discover_s", discover.total)
        put("delegation.discover", "delegation.discover_p50_us", p50 * 1e6)
        put("delegation.discover", "delegation.discover_tail_us", tail[1] * 1e6 if tail else 0.0)
        put("delegation.discover", "delegation.discover_tail_pct", tail[0] if tail else 0.0)
        put("delegation.discover", "delegation.candidates_total",
            counts.get("delegation.candidates_total", 0))
        put("delegation.discover", "delegation.interrogated_total",
            counts.get("delegation.interrogated_total", 0))

        evidence = span("delegation.evidence_row")
        put("delegation.evidence_row", "delegation.evidence_row_calls", evidence.calls)
        put("delegation.evidence_row", "delegation.evidence_row_s", evidence.total)

        pair_calls = counts.get("delegation.pair_info", 0)
        put("delegation.pair_info", "delegation.pair_info_calls", pair_calls)
        if "domain.task_records" not in absent:
            put("delegation.pair_info", "delegation.pair_info_hit_ratio",
                1.0 - ratio(counts.get("delegation.pair_info_misses", 0), pair_calls)
                if pair_calls else 0.0)

        protocol = span("delegation.run_delegation")
        put("delegation.run_delegation", "delegation.delegations", protocol.calls)
        put("delegation.run_delegation", "delegation.protocol_self_s", protocol.self_time)
        put("delegation.invalidate", "delegation.invalidate_calls",
            counts.get("delegation.invalidate", 0))
        put("delegation.trace_to_dict", "delegation.trace_to_dict_s",
            span("delegation.trace_to_dict").total)

        for name in ("post_evaluate", "infer_task_tw", "infer_subset_tw", "transit_pair",
                     "reverse_evaluate", "update_estimates", "select_trustee"):
            probe = f"trust_engine.{name}"
            put(probe, f"{probe}_calls", counts.get(probe, 0))
        put("trust_engine.reverse_evaluate", "trust_engine.reverse_accept_ratio",
            ratio(counts.get("trust_engine.reverse_accepts", 0),
                  counts.get("trust_engine.reverse_evaluate", 0)))

        for name in ("store_get", "store_put", "task_records"):
            probe = f"domain.{name}"
            put(probe, f"{probe}_calls", counts.get(probe, 0))

        if not absent.issuperset(REPORT_SPANS):
            out["report.write_s"] = sum(span(name).total for name in REPORT_SPANS)
            out["report.bytes_written"] = counts.get("report.bytes_written", 0)
        put("report.trace", "report.trace_write_s", span("report.trace").total)

        out["runtime.gc_s"] = self.gc_s
        out["runtime.gc_gen2_collections"] = self.gc_gen2
        return out
