"""Tests for the traced run's probes: span arithmetic, percentiles, installation."""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from probes import COUNT, SPAN, Probe, Tracer, nearest_rank, tail_percentile  # noqa: E402
from run import _unit  # noqa: E402


class FakeClock:
    """A clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        wrapped_leaf()
        clock.advance(0.5)

    def outer():
        clock.advance(3.0)
        wrapped_middle()
        wrapped_leaf()

    wrapped_leaf = tracer.span("leaf", leaf)
    wrapped_middle = tracer.span("middle", middle)
    tracer.span("outer", outer)()

    spans = tracer.spans
    assert spans["leaf"].calls == 2
    assert spans["leaf"].total == pytest.approx(2.0)
    assert spans["leaf"].self_time == pytest.approx(2.0)
    assert spans["middle"].total == pytest.approx(3.5)
    assert spans["middle"].self_time == pytest.approx(2.5)
    # outer: 3 + middle 3.5 + leaf 1 = 7.5 total; only its direct children count
    assert spans["outer"].total == pytest.approx(7.5)
    assert spans["outer"].self_time == pytest.approx(3.0)


def test_span_keeps_accounts_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise RuntimeError("x")

    def outer():
        with pytest.raises(RuntimeError):
            wrapped_boom()
        clock.advance(1.0)

    wrapped_boom = tracer.span("boom", boom)
    tracer.span("outer", outer)()
    assert tracer.spans["boom"].total == pytest.approx(1.0)
    assert tracer.spans["outer"].self_time == pytest.approx(1.0)
    assert tracer._stack == []


def test_counter_counts_without_opening_a_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    counted = tracer.counter("hot", lambda: clock.advance(1.0))
    outer = tracer.span("outer", lambda: [counted() for _ in range(3)])
    outer()
    assert tracer.counts["hot"] == 3
    assert tracer.spans["outer"].self_time == pytest.approx(3.0)


@pytest.mark.parametrize("n, pct", [
    (1000, 99.0), (999, 95.0), (10000, 99.9), (20, 50.0), (40, 75.0),
])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, pct):
    values = list(range(1, n + 1))
    got_pct, value = tail_percentile(values)
    assert got_pct == pct
    beyond = sum(1 for v in values if v > value)
    assert beyond >= 10


def test_tail_percentile_needs_twenty_samples():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile([]) is None


def test_nearest_rank():
    values = [10, 20, 30, 40]
    assert nearest_rank(values, 50.0) == 20
    assert nearest_rank(values, 75.0) == 30
    assert nearest_rank(values, 100.0) == 40
    assert nearest_rank(values, 0.0) == 10


@pytest.fixture
def fake_program(monkeypatch):
    """A stand-in module with a function, a class method and a dispatch dict."""
    module = types.ModuleType("fake_program")

    def work(x):
        return x + 1

    class Store:
        def get(self, key):
            return key

    module.work = work
    module.Store = Store
    module.RUNNERS = {"a": work}
    monkeypatch.setitem(sys.modules, "fake_program", module)
    return module


def test_install_wraps_sites_and_reports_missing_ones_absent(fake_program):
    original_work = fake_program.work
    tracer = Tracer()
    tracer.install((
        Probe("graph.load", SPAN, ("fake_program:work",)),
        Probe("domain.store_get", COUNT, ("fake_program:Store.get",)),
        Probe("experiments.exp", SPAN, ("fake_program:RUNNERS[*]",)),
        Probe("delegation.pair_info", COUNT, ("fake_program:Evaluator.pair_info",)),
        Probe("graph.compute_stats", SPAN, ("no_such_module:compute_stats",)),
    ))
    try:
        assert fake_program.work(1) == 2
        assert fake_program.Store().get(5) == 5
        assert fake_program.RUNNERS["a"](2) == 3
    finally:
        tracer.uninstall()

    assert tracer.absent == ["delegation.pair_info", "graph.compute_stats"]
    metrics = tracer.metrics()
    assert metrics["graph.load_s"] >= 0.0
    assert metrics["domain.store_get_calls"] == 1
    assert "delegation.pair_info_calls" not in metrics
    assert "delegation.pair_info_hit_ratio" not in metrics
    assert "graph.compute_stats_s" not in metrics
    assert fake_program.work is original_work
    assert fake_program.RUNNERS["a"] is original_work
    assert fake_program.Store.get.__name__ == "get"


def test_pair_info_misses_count_store_scans_inside_pair_info(fake_program):
    class Evaluator:
        def __init__(self, store):
            self.store = store
            self.cache = {}

        def pair_info(self, key):
            if key not in self.cache:
                self.cache[key] = self.store.task_records(key)
            return self.cache[key]

    class Store:
        def task_records(self, key):
            return [key]

    fake_program.Evaluator = Evaluator
    fake_program.Store = Store
    tracer = Tracer()
    tracer.install((
        Probe("delegation.pair_info", COUNT, ("fake_program:Evaluator.pair_info",)),
        Probe("domain.task_records", COUNT, ("fake_program:Store.task_records",)),
    ))
    try:
        store = Store()
        ev = Evaluator(store)
        for key in (1, 1, 2, 1):
            ev.pair_info(key)
        store.task_records(9)  # outside pair_info: not a miss
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["delegation.pair_info_calls"] == 4
    assert metrics["domain.task_records_calls"] == 3
    assert metrics["delegation.pair_info_hit_ratio"] == pytest.approx(0.5)


def test_traced_metrics_match_the_per_layer_schema():
    schema = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in schema["per_layer"]}
    reported = set(Tracer().metrics()) | {"trace.overhead_frac"}
    assert reported == set(declared)
    assert {name: _unit(name) for name in declared} == declared
