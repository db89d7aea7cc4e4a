"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Budgets are wall-clock bounds for the measured computation on a
desk-class machine; all randomness is fixed by master seed 1.
"""

import json
import math
import random
import statistics
import time

import siotrust.trust_engine as eng
from siotrust.cli import main as cli_main
from siotrust.domain import DelegationOutcome, Scenario, TrustRecord, make_task
from siotrust.experiments import (
    AGGREGATE,
    exp_environment,
    exp_inference,
    exp_mutuality,
    exp_profit,
    exp_transitivity,
)
from siotrust.graph import compute_stats

from conftest import data_text
import test_transitivity as oracle_suite

MASTER_SEED = 1

# Reference values for the bundled 347-node fixture, computed once with an
# independent graph library and frozen (see tools/make_fixtures.py and
# src/siotrust/data/fixture_stats.json).
FIXTURE_ORACLE = {
    "nodes": 347,
    "edges": 5038,
    "avg_degree": 29.037463976945244,
    "diameter": 3,
    "avg_path_length": 2.3062584331428764,
    "avg_clustering": 0.4665673143885878,
    "components": 1,
}


def agg_map(rows):
    return {(r.param, r.metric): r.value for r in rows if r.run == AGGREGATE}


def run_map(rows, param, metric):
    return {r.run: r.value for r in rows
            if r.param == param and r.metric == metric and isinstance(r.run, int)}


def report(line):
    print(f"\n{line}")


class TestCriterion1GraphStats:
    def test_fixture_reproduces_reference_statistics(self, fb_graph):
        started = time.perf_counter()
        stats = compute_stats(fb_graph)
        elapsed = time.perf_counter() - started

        assert stats.node_count == FIXTURE_ORACLE["nodes"]
        assert stats.edge_count == FIXTURE_ORACLE["edges"]
        # avg degree of the real subnetwork this fixture mirrors
        assert abs(stats.avg_degree - 29.04) <= 0.01
        assert abs(stats.avg_degree - FIXTURE_ORACLE["avg_degree"]) <= 1e-9
        assert stats.diameter == FIXTURE_ORACLE["diameter"]
        assert abs(stats.avg_path_length - FIXTURE_ORACLE["avg_path_length"]) <= 0.01
        assert abs(stats.avg_clustering - FIXTURE_ORACLE["avg_clustering"]) <= 0.01
        assert stats.components == 1
        assert elapsed < 10.0

        frozen = json.loads(data_text("fixture_stats.json"))["facebook_like"]
        assert frozen["diameter"] == FIXTURE_ORACLE["diameter"]
        assert abs(frozen["avg_path_length"] - FIXTURE_ORACLE["avg_path_length"]) < 1e-12
        report(f"PASS criterion 1: graph stats match frozen oracle "
               f"(N={stats.node_count}, E={stats.edge_count}, "
               f"deg={stats.avg_degree:.4f}, diam={stats.diameter}, "
               f"apl={stats.avg_path_length:.4f}, clust={stats.avg_clustering:.4f}) "
               f"in {elapsed:.2f}s < 10s")


class TestCriterion2Mutuality:
    def test_abuse_and_unavailability_respond_to_theta(self, fb_graph):
        scenario = Scenario()
        started = time.perf_counter()
        rows = exp_mutuality(fb_graph, scenario, runs=100, master_seed=MASTER_SEED)
        elapsed = time.perf_counter() - started

        agg = agg_map(rows)
        abuse = [agg[(f"theta={t:g}", "abuse_rate")] for t in (0.0, 0.3, 0.6)]
        unavailable = [agg[(f"theta={t:g}", "unavailable_rate")] for t in (0.0, 0.3, 0.6)]
        assert abuse[0] > 0.35
        assert abuse[0] > abuse[1] > abuse[2]
        assert unavailable[0] < unavailable[1] < unavailable[2]
        assert elapsed < 60.0
        report(f"PASS criterion 2: mutuality abuse={['%.3f' % a for a in abuse]} "
               f"unavailable={['%.3f' % u for u in unavailable]} over theta (0, 0.3, 0.6), "
               f"100 runs in {elapsed:.1f}s < 60s")


class TestCriterion3Inference:
    def test_inference_selects_honest_trustees(self, fb_graph):
        scenario = Scenario()
        started = time.perf_counter()
        rows = exp_inference(fb_graph, scenario, runs=50, master_seed=MASTER_SEED)
        elapsed = time.perf_counter() - started

        agg = agg_map(rows)
        wins = agg[("selection", "wins")]
        improvement = agg[("selection", "improvement_pp")]
        assert wins >= 45
        assert improvement >= 10.0
        assert elapsed < 30.0
        report(f"PASS criterion 3: inference wins {wins:.0f}/50, "
               f"mean improvement {improvement:.1f}pp >= 10pp in {elapsed:.1f}s < 30s")


class TestCriterion4Transitivity:
    def test_method_orderings_and_gaps(self, fb_graph):
        scenario = Scenario()
        started = time.perf_counter()
        rows = exp_transitivity(fb_graph, scenario, runs=20, master_seed=MASTER_SEED)
        elapsed = time.perf_counter() - started

        agg = agg_map(rows)
        for chars in (4, 5, 6, 7):
            succ = {m: agg[(f"chars={chars},method={m}", "success_rate")]
                    for m in ("traditional", "conservative", "aggressive")}
            unav = {m: agg[(f"chars={chars},method={m}", "unavailable_rate")]
                    for m in ("traditional", "conservative", "aggressive")}
            assert succ["aggressive"] >= succ["conservative"] >= succ["traditional"], chars
            assert unav["aggressive"] <= unav["conservative"] <= unav["traditional"], chars

        succ4 = {m: agg[(f"chars=4,method={m}", "success_rate")]
                 for m in ("traditional", "aggressive")}
        unav4 = {m: agg[(f"chars=4,method={m}", "unavailable_rate")]
                 for m in ("traditional", "aggressive")}
        success_gap = succ4["aggressive"] - succ4["traditional"]
        unavailable_gap = unav4["traditional"] - unav4["aggressive"]
        assert success_gap >= 0.15
        assert unavailable_gap >= 0.2

        counts = [agg[(f"chars=4,method={m}", "mean_candidates")]
                  for m in ("traditional", "conservative", "aggressive")]
        assert counts[0] < counts[1] < counts[2]
        assert elapsed < 120.0
        report(f"PASS criterion 4: transitivity orderings hold at all char counts; "
               f"4-char gaps success={success_gap:.3f} >= 0.15, "
               f"unavailable={unavailable_gap:.3f} >= 0.2; "
               f"candidates {counts[0]:.2f} < {counts[1]:.2f} < {counts[2]:.2f}; "
               f"{elapsed:.1f}s < 120s")


class TestCriterion5Profit:
    def test_full_profit_strategy_wins_and_learns_costs(self):
        scenario = Scenario()
        started = time.perf_counter()
        rows = exp_profit(None, scenario, runs=100, master_seed=MASTER_SEED)
        elapsed = time.perf_counter() - started

        agg = agg_map(rows)
        profit_full = agg[("variant=random,strategy=full_profit", "net_profit[199]")]
        profit_succ = agg[("variant=random,strategy=success_only", "net_profit[199]")]
        assert profit_full > profit_succ

        decreases = {}
        for strategy in ("full_profit", "success_only"):
            param = f"variant=attack,strategy={strategy}"
            early = run_map(rows, param, "cost_tasks_1_10")
            late = run_map(rows, param, "cost_tasks_40_50")
            decreases[strategy] = [early[r] - late[r] for r in sorted(early)]
        full_decrease = statistics.fmean(decreases["full_profit"])
        succ_decrease = statistics.fmean(decreases["success_only"])
        succ_noise = statistics.pstdev(decreases["success_only"]) / math.sqrt(
            len(decreases["success_only"]))
        assert full_decrease > 0.0
        assert succ_decrease <= succ_noise
        assert elapsed < 60.0
        report(f"PASS criterion 5: profit@200 full={profit_full:.3f} > "
               f"success_only={profit_succ:.3f}; attack cost decrease "
               f"full={full_decrease:+.3f} > 0, success_only={succ_decrease:+.3f} "
               f"<= 1 sigma ({succ_noise:.3f}); {elapsed:.1f}s < 60s")


class TestCriterion6Environment:
    def test_three_regimes_track_reference_bands(self):
        scenario = Scenario()
        started = time.perf_counter()
        rows = exp_environment(None, scenario, runs=100, master_seed=MASTER_SEED)
        elapsed = time.perf_counter() - started

        agg = agg_map(rows)

        def value(regime, iteration):
            return agg[(f"regime={regime}", f"s_hat[{iteration - 1:03d}]")]

        assert abs(value("baseline", 100) - 0.80) <= 0.02
        assert abs(value("uncorrected", 200) - 0.32) <= 0.03
        assert abs(value("uncorrected", 300) - 0.56) <= 0.03
        corrected = [value("corrected", it) for it in range(120, 301)]
        assert all(abs(v - 0.80) <= 0.05 for v in corrected)
        assert elapsed < 30.0
        report(f"PASS criterion 6: environment baseline@100={value('baseline', 100):.3f}, "
               f"uncorrected@200={value('uncorrected', 200):.3f}, "
               f"@300={value('uncorrected', 300):.3f}, corrected stays in "
               f"[{min(corrected):.3f}, {max(corrected):.3f}] within 0.80 +/- 0.05; "
               f"{elapsed:.1f}s < 30s")


class TestCriterion7Properties:
    def test_geometric_convergence_of_updates(self):
        rng = random.Random(99)
        for _ in range(300):
            beta = rng.uniform(0.0, 0.99)
            c = rng.random()
            s0 = rng.random()
            n = rng.randint(1, 60)
            rec = TrustRecord(s0, 0.5, 0.5, 0.5)
            for _ in range(n):
                rec = eng.update_from_realized(rec, c, c, c, c, beta)
            assert abs(abs(rec.s_hat - c) - beta ** n * abs(s0 - c)) < 1e-12
        report("PASS criterion 7a: geometric convergence |S_n - c| = beta^n |S_0 - c| to 1e-12")

    def test_transit_pair_identities(self):
        rng = random.Random(5)
        for _ in range(10_000):
            a, b = rng.random(), rng.random()
            assert eng.transit_pair(a, b) == eng.transit_pair(b, a)
            assert 0.0 <= eng.transit_pair(a, b) <= 1.0
            t = rng.random()
            assert eng.transit_pair(1.0, t) == t
            assert abs(eng.transit_pair(0.0, t) - (1.0 - t)) < 1e-15
            assert eng.transit_pair(0.5, t) == 0.5
        report("PASS criterion 7b: transit identities f(1,t)=t, f(0,t)=1-t, "
               "f(0.5,t)=0.5, symmetry, range over 10^4 samples")

    def test_inference_fixed_point_and_coverage(self):
        rng = random.Random(17)
        for _ in range(500):
            n_chars = rng.randint(1, 6)
            t = rng.random()
            history = []
            for i in range(rng.randint(1, 4)):
                chars = rng.sample(range(n_chars), rng.randint(1, n_chars))
                history.append((make_task(i, [(c, rng.uniform(0.1, 2.0)) for c in chars]), t))
            covered = {c for task, _ in history for c in task.char_ids}
            target = make_task(99, [(c, rng.uniform(0.1, 2.0)) for c in range(n_chars)])
            value = eng.infer_task_tw(history, target)
            if covered >= set(range(n_chars)):
                assert value is not None and abs(value - t) < 1e-9
            else:
                assert value is None
        report("PASS criterion 7c: inference fixed point on all-equal history "
               "and coverage blocking")

    def test_oracle_equivalence_and_monotonicity(self):
        started = time.perf_counter()
        for method in ("conservative", "aggressive"):
            oracle_suite.test_oracle_equivalence(method)
        oracle_suite.test_candidate_set_monotonicity()
        elapsed = time.perf_counter() - started
        report(f"PASS criterion 7d/7e: oracle equivalence and candidate-set "
               f"monotonicity on {oracle_suite.N_INSTANCES} random instances "
               f"({elapsed:.1f}s)")

    def test_env_update_reduction_bit_for_bit(self):
        rng = random.Random(23)
        beta = 0.1
        for _ in range(2000):
            success = rng.random() < 0.5
            outcome = DelegationOutcome(
                success=success,
                gain=rng.random() if success else 0.0,
                damage=0.0 if success else rng.random(),
                cost=rng.random(),
                env_snapshot=(1.0, 1.0, 1.0, 1.0),
            )
            rec = TrustRecord(rng.random(), rng.random(), rng.random(), rng.random())
            assert eng.update_estimates_env(rec, outcome, beta) == \
                eng.update_estimates(rec, outcome, beta)
        report("PASS criterion 7f: environment-corrected update reduces to the "
               "plain update bit-for-bit under E = 1")

    def test_experiment_determinism_byte_identical(self, tmp_path, capsys):
        argv = ["mutuality", "--runs", "2", "--iterations", "3", "--seed", "1",
                "--graph", "synthetic-50", "--trace"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(argv + ["--out", str(out_a)]) == 0
        assert cli_main(argv + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        for name in ("metrics_mutuality.csv", "plot_mutuality.svg", "trace_mutuality.ndjson"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        report("PASS criterion 7g: repeated seeded invocations produce "
               "byte-identical CSV, SVG, and trace outputs")
