import concurrent.futures
import gc
import json
import random
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import siotrust.trust_engine as eng
from siotrust import experiments
from siotrust.delegation import sample_outcome
from siotrust.domain import (
    SERVICE,
    AgentProfile,
    Scenario,
    ScenarioError,
    TrustRecord,
    TrustStore,
    initial_record,
    make_task,
)
from siotrust.experiments import (
    AGGREGATE,
    exp_environment,
    exp_inference,
    exp_mutuality,
    exp_profit,
    exp_transitivity,
    run_experiment_rows,
)
from siotrust.graph import sample_roles
from siotrust.seeds import derive_seed

from test_transitivity import _oracle_full_tw


def agg_map(rows):
    return {(r.param, r.metric): r.value for r in rows if r.run == AGGREGATE}


def per_run(rows, param, metric):
    return {r.run: r.value for r in rows
            if r.param == param and r.metric == metric and isinstance(r.run, int)}


SMALL = Scenario(mutuality_rounds=3, preseed_uses=5)


class TestMutuality:
    def test_counters_consistent(self, syn50_graph):
        rows = exp_mutuality(syn50_graph, SMALL, runs=3, master_seed=1)
        for run in range(3):
            for theta in (0.0, 0.3, 0.6):
                values = per_run(rows, f"theta={theta:g}", "requests")
                uses = per_run(rows, f"theta={theta:g}", "uses")[run]
                unavailable = per_run(rows, f"theta={theta:g}", "unavailable_rate")[run]
                total = values[run]
                assert uses + unavailable * total == pytest.approx(total)

    def test_theta_one_sanity_point(self, syn50_graph):
        sc = SMALL.replace(theta_grid=(1.0,))
        rows = exp_mutuality(syn50_graph, sc, runs=2, master_seed=1)
        agg = agg_map(rows)
        assert agg[("theta=1", "unavailable_rate")] == 1.0
        assert agg[("theta=1", "abuse_rate")] == 0.0
        assert agg[("theta=1", "zero_uses")] == 1.0

    def test_determinism(self, syn50_graph):
        a = exp_mutuality(syn50_graph, SMALL, runs=2, master_seed=9)
        b = exp_mutuality(syn50_graph, SMALL, runs=2, master_seed=9)
        assert a == b

    def test_adding_runs_preserves_earlier_results(self, syn50_graph):
        short = exp_mutuality(syn50_graph, SMALL, runs=2, master_seed=5)
        long = exp_mutuality(syn50_graph, SMALL, runs=4, master_seed=5)
        for theta in (0.0, 0.3, 0.6):
            short_runs = per_run(short, f"theta={theta:g}", "abuse_rate")
            long_runs = per_run(long, f"theta={theta:g}", "abuse_rate")
            for run, value in short_runs.items():
                assert long_runs[run] == value

    def test_trace_sink_collects(self, syn50_graph):
        sink = []
        exp_mutuality(syn50_graph, SMALL.replace(theta_grid=(0.0,)),
                      runs=1, master_seed=1, trace_sink=sink)
        assert sink
        assert {"trustor", "chosen", "interrogated"} <= set(json.loads(sink[0]))


class TestInference:
    def test_all_honest_selects_honest_everywhere(self, syn50_graph):
        sc = Scenario(dishonest_fraction=0.0)
        rows = exp_inference(syn50_graph, sc, runs=3, master_seed=1)
        agg = agg_map(rows)
        assert agg[("selection", "with_inference")] == 1.0
        assert agg[("selection", "without_inference")] == 1.0

    def test_inference_beats_blind_selection(self, syn50_graph):
        rows = exp_inference(syn50_graph, Scenario(), runs=5, master_seed=1)
        agg = agg_map(rows)
        assert agg[("selection", "with_inference")] > agg[("selection", "without_inference")]
        assert agg[("selection", "wins")] == 5.0

    def test_unrelated_taint_keeps_methods_close(self, syn50_graph):
        # taint penalty 1.0 means dishonest history looks clean, so inference
        # has no signal and both modes are statistically alike
        sc = Scenario(taint_penalty=1.0)
        rows = exp_inference(syn50_graph, sc, runs=10, master_seed=1)
        agg = agg_map(rows)
        assert abs(agg[("selection", "improvement_pp")]) < 15.0

    def test_determinism(self, syn50_graph):
        a = exp_inference(syn50_graph, Scenario(), runs=3, master_seed=2)
        b = exp_inference(syn50_graph, Scenario(), runs=3, master_seed=2)
        assert a == b


def reference_inference(graph, sc, rep, master):
    """The inference unit with the oracle's trust evaluated for every (trustor, candidate) pair.

    Every pair gets records of its own, so nothing here relies on trust in a
    trustee being the same for all of its trustors.
    """
    rng = random.Random(derive_seed(master, "inference-state", rep))
    roles = sample_roles(graph, sc.role_fraction, rng, sc.disjoint_roles)
    dishonest = set(rng.sample(roles.trustees, round(sc.dishonest_fraction * len(roles.trustees))))
    competence = {t: (0.5 + 0.5 * rng.random(), 0.5 + 0.5 * rng.random()) for t in roles.trustees}
    target = make_task(experiments.TARGET_TASK, [(0, 0.5), (1, 0.5)])
    tasks = {experiments.TAINTED_TASK: make_task(experiments.TAINTED_TASK, [(0, 1.0)]),
             experiments.CLEAN_TASK: make_task(experiments.CLEAN_TASK, [(1, 1.0)]),
             target.id: target}
    trustees = set(roles.trustees)
    cands = {x: [t for t in graph.neighbors(x) if t in trustees] for x in roles.trustors}
    store = TrustStore()
    for x in roles.trustors:
        for t in cands[x]:
            tainted = competence[t][0] * (sc.taint_penalty if t in dishonest else 1.0)
            store.put(x, t, experiments.TAINTED_TASK, SERVICE, TrustRecord(tainted, 1.0, 1.0, 0.0, 1))
            store.put(x, t, experiments.CLEAN_TASK, SERVICE, TrustRecord(competence[t][1], 1.0, 1.0, 0.0, 1))
    rng_pick = random.Random(derive_seed(master, "inference-pick", rep))
    honest_with = honest_without = participants = 0
    for x in roles.trustors:
        if not cands[x]:
            continue
        participants += 1
        scored = [(t, tw) for t in cands[x]
                  if (tw := _oracle_full_tw(store, tasks, x, t, SERVICE, target)) is not None]
        best = sorted(scored, key=lambda pair: (-pair[1], pair[0]))[0][0] if scored else cands[x][0]
        honest_with += best not in dishonest
        honest_without += rng_pick.choice(cands[x]) not in dishonest
    w, wo = honest_with / participants, honest_without / participants
    return {"with_inference": w, "without_inference": wo, "improvement_pp": 100.0 * (w - wo)}


class TestInferenceOracle:
    @pytest.mark.parametrize("dishonest_fraction", [0.0, 0.5, 1.0])
    def test_unit_matches_per_pair_reference(self, syn50_graph, dishonest_fraction):
        sc = Scenario(dishonest_fraction=dishonest_fraction)
        for rep in range(4):
            entries, traces = experiments._inference_unit((syn50_graph, sc, rep, 3))
            assert entries == [(experiments.SELECTION, rep,
                                reference_inference(syn50_graph, sc, rep, 3), {})]
            assert traces == []


class TestTransitivity:
    def test_structural_orderings_hold_at_small_scale(self, syn50_graph):
        sc = Scenario(char_counts=(4,))
        rows = exp_transitivity(syn50_graph, sc, runs=3, master_seed=1)
        agg = agg_map(rows)
        trad = agg[("chars=4,method=traditional", "mean_candidates")]
        cons = agg[("chars=4,method=conservative", "mean_candidates")]
        aggr = agg[("chars=4,method=aggressive", "mean_candidates")]
        assert trad <= cons <= aggr
        assert agg[("chars=4,method=traditional", "unavailable_rate")] >= \
            agg[("chars=4,method=conservative", "unavailable_rate")] >= \
            agg[("chars=4,method=aggressive", "unavailable_rate")]
        assert agg[("chars=4,method=traditional", "mean_interrogated")] <= \
            agg[("chars=4,method=conservative", "mean_interrogated")] <= \
            agg[("chars=4,method=aggressive", "mean_interrogated")]

    def test_feature_mode_runs(self, syn50_graph):
        from siotrust.graph import load_features
        from conftest import data_text
        g = load_features(data_text("synthetic_50.feat"), syn50_graph)
        sc = Scenario(char_counts=(4,), use_features=True)
        rows = exp_transitivity(g, sc, runs=2, master_seed=1)
        assert agg_map(rows)

    def test_feature_mode_needs_features(self, syn50_graph):
        sc = Scenario(char_counts=(4,), use_features=True)
        # graph without features silently falls back to random tasks
        rows = exp_transitivity(syn50_graph, sc, runs=1, master_seed=1)
        assert rows

    def test_determinism(self, syn50_graph):
        sc = Scenario(char_counts=(4, 5))
        a = exp_transitivity(syn50_graph, sc, runs=2, master_seed=3)
        b = exp_transitivity(syn50_graph, sc, runs=2, master_seed=3)
        assert a == b

    def test_explicit_task_pool(self, syn50_graph):
        sc = Scenario(tasks=(
            (0, ((0, 1.0),)),
            (1, ((1, 1.0),)),
            (2, ((0, 0.5), (1, 0.5))),
            (3, ((2, 1.0),)),
        ))
        rows = exp_transitivity(syn50_graph, sc, runs=2, master_seed=1)
        params = {r.param for r in rows}
        assert all(p.startswith("chars=3,") for p in params)


class TestMutualityExplicitTask:
    def test_scenario_task_used(self, syn50_graph):
        sc = SMALL.replace(tasks=((7, ((2, 1.0), (3, 1.0))),), theta_grid=(0.0,))
        sink = []
        rows = exp_mutuality(syn50_graph, sc, runs=1, master_seed=1, trace_sink=sink)
        assert rows
        assert all(json.loads(t)["task"] == 7 for t in sink)


class TestProfit:
    def test_series_lengths(self):
        sc = Scenario(profit_iterations=30, attack_tasks=20)
        rows = exp_profit(None, sc, runs=3, master_seed=1)
        agg = agg_map(rows)
        profit_keys = [k for k in agg if k[0] == "variant=random,strategy=full_profit"
                       and not k[1].endswith("_std")]
        cost_keys = [k for k in agg if k[0] == "variant=attack,strategy=full_profit"
                     and not k[1].endswith("_std")]
        assert len(profit_keys) == 30
        assert len(cost_keys) == 20

    def test_identical_candidates_make_strategies_equal(self):
        # candidate pool of one: both strategies must pick it and realize the
        # same draws, so the aggregate curves coincide
        sc = Scenario(profit_candidates=1, profit_iterations=15, attack_tasks=5)
        rows = exp_profit(None, sc, runs=2, master_seed=1)
        agg = agg_map(rows)
        for i in range(15):
            a = agg[("variant=random,strategy=success_only", f"net_profit[{i:03d}]")]
            b = agg[("variant=random,strategy=full_profit", f"net_profit[{i:03d}]")]
            assert a == b

    def test_determinism(self):
        sc = Scenario(profit_iterations=10, attack_tasks=5)
        assert exp_profit(None, sc, runs=2, master_seed=4) == \
            exp_profit(None, sc, runs=2, master_seed=4)


def reference_profit_series(profiles, trustor, sc, variant, run_idx, master, strategy):
    """The profit loop with a full (-score, node) sort per selection."""
    if strategy == eng.SUCCESS_ONLY:
        score = lambda rec: rec.s_hat
    else:
        score = eng.net_profit
    iterations = sc.attack_tasks if variant == experiments.VARIANT_ATTACK else sc.profit_iterations
    records = {i: initial_record(sc.initial_estimates) for i in range(len(profiles))}
    rng = random.Random(derive_seed(master, "profit-play", variant, run_idx))
    task = make_task(0, [(0, 1.0)])
    profits, costs = [], []
    for _ in range(iterations):
        node = sorted(records.items(), key=lambda pair: (-score(pair[1]), pair[0]))[0][0]
        outcome = sample_outcome(trustor, profiles[node], task, (), rng)
        records[node] = eng.update_estimates(records[node], outcome, sc.beta)
        profits.append(outcome.gain - outcome.damage - outcome.cost)
        costs.append(outcome.cost)
    return {"profits": profits, "costs": costs}


def profit_unit_and_profiles(sc, variant, run_idx, master):
    """`_profit_unit`'s result, its candidates' profiles and its trustor's."""
    built = []

    def recording_profile(**kwargs):
        built.append(AgentProfile(**kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "AgentProfile", recording_profile)
        result = experiments._profit_unit((sc, variant, run_idx, master))
    *profiles, trustor = built
    return result, profiles, trustor


class TestProfitOracle:
    @pytest.mark.parametrize("variant", [experiments.VARIANT_RANDOM, experiments.VARIANT_ATTACK])
    def test_unit_matches_full_sort_reference(self, variant):
        # equal initial estimates make the first picks five-way ties
        sc = Scenario(profit_candidates=5, profit_iterations=80, attack_tasks=60)
        for run_idx in range(3):
            (entries, traces), profiles, trustor = profit_unit_and_profiles(sc, variant, run_idx, 7)
            assert len(profiles) == 5
            assert traces == []
            strategies = (eng.SUCCESS_ONLY, eng.FULL_PROFIT)
            assert [entry[:2] for entry in entries] == [
                (experiments.label(variant=variant, strategy=s), run_idx) for s in strategies]
            for (_, _, windows, series), strategy in zip(entries, strategies):
                expected = reference_profit_series(profiles, trustor, sc, variant, run_idx, 7, strategy)
                if variant == experiments.VARIANT_RANDOM:
                    assert series == {"net_profit": expected["profits"]}
                    assert windows == {}
                else:
                    costs = expected["costs"]
                    assert series == {"cost": costs}
                    assert windows == {
                        "cost_tasks_1_10": statistics.fmean(costs[0:10]),
                        "cost_tasks_40_50": statistics.fmean(costs[39:50]),
                    }


@st.composite
def profit_scenarios(draw):
    return Scenario(profit_candidates=draw(st.integers(1, 12)),
                    profit_iterations=draw(st.integers(1, 60)),
                    attack_tasks=draw(st.integers(1, 60)),
                    dishonest_fraction=draw(st.floats(0.0, 1.0)),
                    cost_multiplier=draw(st.sampled_from([0.0, 1.0, 3.0, 50.0])),
                    beta=draw(st.sampled_from([0.0, 0.1, 0.5])))


class TestProfitOutcomeTable:
    @settings(max_examples=60, deadline=None)
    @given(sc=profit_scenarios(),
           variant=st.sampled_from([experiments.VARIANT_RANDOM, experiments.VARIANT_ATTACK]),
           run_idx=st.integers(0, 3), master=st.integers(0, 2 ** 16))
    def test_unit_matches_a_sample_outcome_per_draw(self, sc, variant, run_idx, master):
        # the unit indexes outcomes built once per candidate; the reference
        # loop realizes every draw through `sample_outcome` with the same seeds
        (entries, _), profiles, trustor = profit_unit_and_profiles(sc, variant, run_idx, master)
        for (_, _, _, series), strategy in zip(entries, eng.STRATEGIES):
            expected = reference_profit_series(profiles, trustor, sc, variant, run_idx, master, strategy)
            if variant == experiments.VARIANT_RANDOM:
                assert series == {"net_profit": expected["profits"]}
            else:
                assert series == {"cost": expected["costs"]}


class TestEnvironment:
    def test_ideal_environment_converges_everywhere(self):
        sc = Scenario(env_values=(1.0, 1.0, 1.0), env_epoch_length=60)
        rows = exp_environment(None, sc, runs=5, master_seed=1)
        agg = agg_map(rows)
        for regime in ("baseline", "uncorrected", "corrected"):
            assert abs(agg[(f"regime={regime}", "s_hat[179]")] - 0.8) < 0.05

    def test_row_count_matches_three_regimes_by_iterations(self):
        sc = Scenario(env_epoch_length=10)
        rows = exp_environment(None, sc, runs=2, master_seed=1)
        means = [r for r in rows if not r.metric.endswith("_std")]
        assert len(means) == 3 * 30

    def test_determinism(self):
        sc = Scenario(env_epoch_length=20)
        assert exp_environment(None, sc, runs=3, master_seed=6) == \
            exp_environment(None, sc, runs=3, master_seed=6)

    @pytest.mark.parametrize("sc", [
        Scenario(),
        Scenario(env_values=(0.5, 1.0, 0.25), env_noise=0.0),
        Scenario(beta=0.0),
    ], ids=["default", "noiseless-three-epochs", "beta-zero"])
    def test_unit_matches_reference_loop(self, sc):
        for run_idx in range(3):
            entries, traces = experiments._environment_unit((sc, run_idx, 5))
            assert traces == []
            expected = reference_environment_series(sc, run_idx, 5)
            assert entries == [(experiments.label(regime=regime), run_idx, {},
                                {"s_hat": expected[regime]})
                               for regime in ("baseline", "uncorrected", "corrected")]


def reference_environment_series(sc, run_idx, master):
    """The three regimes' s_hat series, one dict entry per regime, per step."""
    def clamp(x):
        return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x

    rng = random.Random(derive_seed(master, "environment", run_idx))
    s_hat = {"baseline": sc.env_initial_s, "uncorrected": sc.env_initial_s,
             "corrected": sc.env_initial_s}
    series = {regime: [] for regime in s_hat}
    for value in sc.env_values:
        for _ in range(sc.env_epoch_length):
            noise = rng.uniform(-sc.env_noise, sc.env_noise)
            realized = {
                "baseline": clamp(sc.env_competence + noise),
                "uncorrected": clamp(sc.env_competence * value + noise),
                "corrected": clamp(clamp(sc.env_competence * value + noise) / value),
            }
            for regime in s_hat:
                s_hat[regime] = sc.beta * s_hat[regime] + (1.0 - sc.beta) * realized[regime]
                series[regime].append(s_hat[regime])
    return series


def _demo_unit(run):
    return [("x=1", run, {"m": float(run)}, {"s": [float(run), 2.0 * run]})], [f"trace{run}"]


class TestDriver:
    def test_rows_from_entries(self):
        sink = []
        rows = experiments._drive("demo", _demo_unit, [0, 1, 2], jobs=1, trace_sink=sink)
        assert {r.experiment for r in rows} == {"demo"}
        assert {r.param for r in rows} == {"x=1"}
        spread = statistics.pstdev([0.0, 1.0, 2.0])
        assert {(r.run, r.metric): r.value for r in rows} == {
            (0, "m"): 0.0, (1, "m"): 1.0, (2, "m"): 2.0,
            (AGGREGATE, "m"): 1.0, (AGGREGATE, "m_std"): spread,
            (AGGREGATE, "s[000]"): 1.0, (AGGREGATE, "s[000]_std"): spread,
            (AGGREGATE, "s[001]"): 2.0, (AGGREGATE, "s[001]_std"): 2.0 * spread,
        }
        assert len(rows) == 9
        assert sink == ["trace0", "trace1", "trace2"]


STD_VALUES = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(-1e-9, 1e-9),
    st.sampled_from([0.0, 0.1, -0.1, 1.0, 5e-324, -5e-324]),
    st.floats(-1e300, 1e300),  # wide, yet far enough from overflow for the mean
)


class TestStd:
    @settings(max_examples=500)
    @example([0.7])
    @example([5e-324])
    @example([0.1] * 9)
    @example([5e-324, 0.0])
    @example([-0.0, -0.0])
    @example([0.1, 0.1, -0.3, 0.1, -0.3])
    @example([1e-9, -2e-9, 3e-9])
    # one scale would overflow `ldexp`: these take the per-ratio fallback
    @example([5e-324, 1.0])
    @example([1e-300, 2.0 ** 1000])
    @example([5e-324, 1e-320, 3e-310])  # all subnormal
    @example([1e300, 3e300, -2e300])  # 53 - frexp exponent < 0: the shift stops at 0
    @example([0.0, -0.0, 0.0])
    @example([0.0, 0.1])
    @given(st.lists(STD_VALUES, min_size=1, max_size=100))
    def test_matches_pstdev_bit_for_bit(self, values):
        mean, std = experiments._mean_std("demo", "x=1", "m", values)
        assert mean.metric == "m"
        assert mean.value.hex() == statistics.fmean(values).hex()  # a signed zero too
        assert std.metric == "m_std"
        assert std.value == statistics.pstdev(values)


class TestLabels:
    def test_formats(self):
        assert experiments.label(theta=0.3) == "theta=0.3"
        assert experiments.label(theta=0) == "theta=0"
        assert experiments.label(theta=0.1234567) == "theta=0.123457"
        assert experiments.label(chars=4, method="aggressive") == "chars=4,method=aggressive"
        assert experiments.series_metric("s_hat", 7) == "s_hat[007]"

    def test_explicit_task_pool_is_one_grid_point(self):
        tasks = ((0, ((0, 1.0),)), (1, ((2, 0.5), (5, 0.5))))
        assert experiments.char_grid(Scenario(tasks=tasks)) == (3,)
        assert experiments.char_grid(Scenario(char_counts=(4, 5))) == (4, 5)


class _SerialPool:
    """A stand-in for ProcessPoolExecutor that maps in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


class TestRunner:
    def test_parallel_jobs_bit_identical(self):
        sc = Scenario(env_epoch_length=20)
        serial = run_experiment_rows("environment", None, sc, 4, 1, jobs=1)
        parallel = run_experiment_rows("environment", None, sc, 4, 1, jobs=2)
        assert serial == parallel

    def test_parallel_jobs_graph_experiment(self, syn50_graph):
        serial = run_experiment_rows("mutuality", syn50_graph, SMALL, 2, 1, jobs=1)
        parallel = run_experiment_rows("mutuality", syn50_graph, SMALL, 2, 1, jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize("which", ["mutuality", "inference", "transitivity"])
    @pytest.mark.parametrize("overrides", [
        {"role_fraction": 0.005}, {"role_fraction": 0.6, "disjoint_roles": True},
    ], ids=["no-trustors", "disjoint-overflow"])
    def test_role_sampling_checked_before_compute(self, syn50_graph, monkeypatch, which, overrides):
        def no_compute(*args):
            raise AssertionError("units ran")
        monkeypatch.setattr(experiments, "_map_units", no_compute)
        with pytest.raises(ScenarioError, match="role|trustor"):
            run_experiment_rows(which, syn50_graph, Scenario(**overrides), 1, 1)

    def test_jobs_capped_at_unit_count(self, monkeypatch):
        workers = []

        class SerialPool(_SerialPool):
            def __init__(self, max_workers):
                workers.append(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        sc = Scenario(env_epoch_length=5)
        rows = run_experiment_rows("environment", None, sc, 4, 1, jobs=64)
        assert workers == [4]
        assert rows == run_experiment_rows("environment", None, sc, 4, 1, jobs=1)


# one unit of each experiment on synthetic-50, the mutuality one with traces on
UNITS = {
    "mutuality-traced": (experiments._mutuality_unit, lambda g: (g, SMALL, 0.3, 0, 1, True)),
    "inference": (experiments._inference_unit, lambda g: (g, Scenario(), 0, 1)),
    "transitivity": (experiments._transitivity_unit, lambda g: (g, Scenario(), 4, 0, 1)),
    "profit-random": (experiments._profit_unit,
                      lambda g: (Scenario(profit_iterations=50), experiments.VARIANT_RANDOM, 0, 1)),
    "profit-attack": (experiments._profit_unit, lambda g: (Scenario(), experiments.VARIANT_ATTACK, 0, 1)),
    "environment": (experiments._environment_unit, lambda g: (Scenario(env_epoch_length=20), 0, 1)),
}


@pytest.fixture()
def collector_state():
    """Restores the collector's state after a test that changes it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    """Units run with the cyclic collector paused, so they must free all they build."""

    @pytest.mark.parametrize("name", list(UNITS))
    def test_unit_creates_no_cycles(self, syn50_graph, collector_state, name):
        worker, make_unit = UNITS[name]
        unit = make_unit(syn50_graph)
        gc.collect()
        gc.disable()
        worker(unit)  # the result is dropped too, so a cycle in it would count
        assert gc.collect() == 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
    def test_paused_in_unit_and_restored(self, monkeypatch, collector_state, enabled, pooled):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
        if enabled:
            gc.enable()
        else:
            gc.disable()
        seen = experiments._map_units(lambda unit: gc.isenabled(), [0, 1, 2], jobs=2 if pooled else 1)
        assert seen == [False, False, False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
    def test_restored_when_worker_raises(self, monkeypatch, collector_state, pooled):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)

        def failing(unit):
            raise RuntimeError(f"unit {unit}")

        gc.enable()
        with pytest.raises(RuntimeError, match="unit 0"):
            experiments._map_units(failing, [0, 1], jobs=2 if pooled else 1)
        assert gc.isenabled()
