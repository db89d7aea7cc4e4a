import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import siotrust.trust_engine as eng
from siotrust.delegation import PathEvaluator
from siotrust.domain import (
    SERVICE,
    AgentProfile,
    DelegationOutcome,
    TrustRecord,
    TrustStore,
    UsageLog,
    make_task,
)

from conftest import chain_candidate, discover_on, make_graph, tw_record

unit = st.floats(0.0, 1.0)


def record(s, g=0.5, d=0.5, c=0.5, count=0):
    return TrustRecord(s, g, d, c, count)


class TestNormalize:
    def test_best_case_maps_to_one(self):
        assert eng.normalize(1.0) == 1.0

    def test_worst_case_maps_to_zero(self):
        assert eng.normalize(-2.0) == 0.0

    def test_midpoint(self):
        assert eng.normalize(-0.5) == 0.5

    def test_clamps_out_of_range(self):
        assert eng.normalize(5.0) == 1.0
        assert eng.normalize(-5.0) == 0.0

    @given(st.floats(-2.0, 1.0), st.floats(-2.0, 1.0))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert eng.normalize(lo) <= eng.normalize(hi)


class TestClamp01:
    @given(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1.0 + 2 ** -52])))
    def test_bit_identical_to_builtin_min_max(self, x):
        # NaN and -0.0 clamp to +0.0, as the builtins' first-argument ties give
        assert eng.clamp01(x).hex() == min(1.0, max(0.0, x)).hex()


class TestPostEvaluate:
    def test_guaranteed_full_gain(self):
        assert eng.post_evaluate(record(1.0, 1.0, 0.7, 0.0)) == 1.0

    def test_guaranteed_full_loss(self):
        assert eng.post_evaluate(record(0.0, 0.3, 1.0, 1.0)) == 0.0

    def test_mixed_case(self):
        value = eng.post_evaluate(record(0.8, 1.0, 0.5, 0.1))
        assert abs(value - 0.8667) < 5e-5

    @given(unit, unit, unit, unit)
    def test_range(self, s, g, d, c):
        assert 0.0 <= eng.post_evaluate(record(s, g, d, c)) <= 1.0


class TestNetProfit:
    def test_sure_success_no_cost(self):
        assert eng.net_profit(record(1.0, 0.7, 0.5, 0.0)) == 0.7

    def test_symmetric_gamble(self):
        assert eng.net_profit(record(0.5, 1.0, 1.0, 0.0)) == 0.0

    def test_arithmetic(self):
        assert abs(eng.net_profit(record(0.8, 0.6, 0.4, 0.2)) - 0.2) < 1e-12


class TestUpdateEstimates:
    def outcome(self, success=True, gain=0.6, damage=0.4, cost=0.2):
        return DelegationOutcome(
            success=success,
            gain=gain if success else 0.0,
            damage=0.0 if success else damage,
            cost=cost,
        )

    def test_beta_zero_jumps_to_realized(self):
        updated = eng.update_estimates(record(0.3, 0.3, 0.3, 0.3), self.outcome(True), 0.0)
        assert (updated.s_hat, updated.g_hat, updated.d_hat, updated.c_hat) == (1.0, 0.6, 0.0, 0.2)

    def test_failure_blend(self):
        updated = eng.update_estimates(record(1.0), self.outcome(False), 0.1)
        assert abs(updated.s_hat - 0.1) < 1e-12

    def test_count_increments(self):
        updated = eng.update_estimates(record(0.5, count=4), self.outcome(True), 0.5)
        assert updated.interaction_count == 5

    @settings(max_examples=200)
    @given(st.floats(0.0, 0.99), unit, unit, st.integers(1, 60))
    def test_geometric_convergence(self, beta, c, s0, n):
        rec = record(s0)
        for _ in range(n):
            rec = eng.update_from_realized(rec, c, c, c, c, beta)
        assert abs(abs(rec.s_hat - c) - beta ** n * abs(s0 - c)) < 1e-12


class TestEnvCorrect:
    def test_inverts_environment_scaling(self):
        assert abs(eng.correct_realized(0.32, 0.4) - 0.8) < 1e-12

    def test_ideal_environment_identity(self):
        assert eng.correct_realized(0.73, 1.0) == 0.73

    def test_overperformance_clamped(self):
        assert eng.correct_realized(0.9, 0.5) == 1.0

    def test_min_rule_uses_worst_node(self):
        # snapshot (trustor, trustee, intermediate): the intermediate's 0.4 is the worst
        outcome = DelegationOutcome(success=False, gain=0.0, damage=0.2, cost=0.2,
                                    env_snapshot=(1.0, 0.8, 0.4))
        updated = eng.update_estimates_env(record(0.5), outcome, 0.0)
        assert abs(updated.d_hat - 0.5) < 1e-12
        assert abs(updated.c_hat - 0.5) < 1e-12


class TestUpdateEstimatesEnv:
    @given(unit, unit, unit, unit, st.booleans(), unit, unit, unit, st.floats(0.0, 0.99))
    def test_all_ones_reduces_bit_for_bit(self, s, g, d, c, success, gain, damage, cost, beta):
        outcome = DelegationOutcome(
            success=success,
            gain=gain if success else 0.0,
            damage=0.0 if success else damage,
            cost=cost,
            env_snapshot=(1.0, 1.0, 1.0),
        )
        rec = record(s, g, d, c)
        assert eng.update_estimates_env(rec, outcome, beta) == eng.update_estimates(rec, outcome, beta)

    def test_block_rate_stays_at_history(self):
        # realized success rate 0.32 under min-E 0.4 corrects to 0.8
        corrected = eng.correct_realized(0.32, 0.4)
        assert abs(eng.blend(0.8, corrected, 0.1) - 0.8) < 1e-12

    def test_success_under_low_env_clamps(self):
        outcome = DelegationOutcome(success=True, gain=1.0, damage=0.0, cost=0.0,
                                    env_snapshot=(0.5, 0.5))
        updated = eng.update_estimates_env(record(0.2), outcome, 0.0)
        assert updated.s_hat == 1.0


class TestInference:
    def test_single_source_average(self):
        task = make_task(1, [(0, 0.5), (1, 0.5)])
        assert eng.infer_characteristic_tw([(task, 0.7)], 0) == 0.7

    def test_weighted_mean(self):
        t1 = make_task(1, [(0, 0.5), (1, 0.5)])
        t2 = make_task(2, [(0, 0.5), (2, 0.5)])
        value = eng.infer_characteristic_tw([(t1, 0.6), (t2, 0.8)], 0)
        assert abs(value - 0.7) < 1e-12

    def test_no_data(self):
        task = make_task(1, [(0, 1.0)])
        assert eng.infer_characteristic_tw([(task, 0.9)], 5) is None

    def test_fig3_style_split(self):
        # target's two characteristics learned from two different prior tasks
        t2 = make_task(2, [(0, 0.5), (2, 0.5)])
        t3 = make_task(3, [(1, 0.5), (3, 0.5)])
        target = make_task(4, [(0, 0.5), (1, 0.5)])
        value = eng.infer_task_tw([(t2, 0.9), (t3, 0.5)], target)
        assert abs(value - 0.7) < 1e-12

    def test_uncovered_characteristic_blocks(self):
        t1 = make_task(1, [(0, 1.0)])
        target = make_task(2, [(0, 0.5), (1, 0.5)])
        assert eng.infer_task_tw([(t1, 0.9)], target) is None

    @settings(max_examples=100)
    @given(unit, st.integers(1, 5))
    def test_all_equal_history_fixed_point(self, t, n_chars):
        history = [(make_task(i, [(c, 1.0 + c) for c in range(n_chars)]), t) for i in range(3)]
        target = make_task(99, [(c, 2.0 + c) for c in range(n_chars)])
        value = eng.infer_task_tw(history, target)
        assert abs(value - t) < 1e-9

    def test_subset_renormalizes(self):
        t1 = make_task(1, [(0, 1.0)])
        value = eng.infer_subset_tw([(t1, 0.8)], [(0, 0.25)])
        assert value == 0.8

    def test_unrelated_characteristics_do_not_leak(self):
        # a terrible record on a disjoint task leaves the inferred value alone
        clean = [(make_task(1, [(0, 1.0)]), 0.9), (make_task(2, [(1, 1.0)]), 0.8)]
        tainted = clean + [(make_task(3, [(7, 1.0)]), 0.05)]
        target = make_task(9, [(0, 0.5), (1, 0.5)])
        assert eng.infer_task_tw(clean, target) == eng.infer_task_tw(tainted, target)


def history_st():
    """0-4 `make_task` tasks of 1-3 parts over characteristics 0-4, each with a trust."""
    part = st.tuples(st.integers(0, 4), st.floats(0.01, 10.0))
    parts = st.lists(part, min_size=1, max_size=3, unique_by=lambda p: p[0])
    return st.lists(st.tuples(parts, unit), max_size=4).map(
        lambda entries: [(make_task(i, ps), tw) for i, (ps, tw) in enumerate(entries)])


def weight_of_characteristic_tw(history, char_id):
    """`infer_characteristic_tw` as a loop over `Task.weight_of`."""
    num = 0.0
    den = 0.0
    for task, tw in history:
        w = task.weight_of(char_id)
        if w is None:
            continue
        num += w * tw
        den += w
    if den == 0.0:
        return None
    return num / den


def hex_or_none(x):
    return None if x is None else x.hex()


class TestInferenceBits:
    """Inference gives the bits of its reference folds, entry by entry."""

    @settings(max_examples=150, deadline=None)
    @given(history_st(), st.integers(0, 5))
    def test_characteristic_matches_weight_of_loop(self, history, char_id):
        assert (hex_or_none(eng.infer_characteristic_tw(history, char_id))
                == hex_or_none(weight_of_characteristic_tw(history, char_id)))

    @settings(max_examples=150, deadline=None)
    @given(history_st(), st.data())
    def test_subset_matches_left_to_right_fold(self, history, data):
        seen = sorted({c for task, _ in history for c in task.char_ids})
        assume(seen)
        chars = data.draw(st.lists(st.sampled_from(seen), min_size=1, max_size=3, unique=True))
        parts = [(c, data.draw(st.floats(0.01, 1.0))) for c in chars]
        total_w = 0.0
        for _, w in parts:
            total_w += w
        expected = 0.0
        for c, w in parts:
            expected += (w / total_w) * weight_of_characteristic_tw(history, c)
        assert eng.infer_subset_tw(history, parts).hex() == expected.hex()


def full_tw(store, tasks, target):
    """Node 0's trust in node 1 for `target`, as discovery and the inference unit read it."""
    return PathEvaluator(make_graph(2, [(0, 1)]), {}, store, tasks).hop_tw(0, 1, SERVICE, target)[1]


class TestTaskTrust:
    def test_direct_record_wins_over_inference(self):
        store = TrustStore()
        target = make_task(1, [(0, 1.0)])
        other = make_task(2, [(0, 1.0)])
        tasks = {1: target, 2: other}
        store.put(0, 1, 1, SERVICE, record(1.0, 1.0, 0.0, 0.0))
        store.put(0, 1, 2, SERVICE, record(0.0, 0.0, 1.0, 1.0))
        assert full_tw(store, tasks, target) == 1.0

    def test_falls_back_to_inference(self):
        store = TrustStore()
        other = make_task(2, [(0, 1.0)])
        target = make_task(1, [(0, 1.0)])
        tasks = {1: target, 2: other}
        store.put(0, 1, 2, SERVICE, record(1.0, 1.0, 0.0, 0.0))
        assert full_tw(store, tasks, target) == 1.0

    def test_no_records_is_none(self):
        store = TrustStore()
        target = make_task(1, [(0, 1.0)])
        assert full_tw(store, {1: target}, target) is None


class TestTransitPair:
    def test_fully_trusted_recommender(self):
        for t in (0.0, 0.3, 1.0):
            assert eng.transit_pair(1.0, t) == t

    def test_fully_distrusted_recommender(self):
        assert eng.transit_pair(0.0, 0.3) == 0.7

    def test_half_collapses(self):
        for t in (0.0, 0.25, 0.9):
            assert eng.transit_pair(0.5, t) == 0.5

    def test_arithmetic(self):
        assert abs(eng.transit_pair(0.8, 0.9) - 0.74) < 1e-12

    @settings(max_examples=500)
    @given(unit, unit)
    def test_symmetry_and_range(self, a, b):
        assert eng.transit_pair(a, b) == eng.transit_pair(b, a)
        assert 0.0 <= eng.transit_pair(a, b) <= 1.0


class TestTransitTraditional:
    """The traditional product rule, through discovery along a path graph."""

    def test_single_hop_is_direct_trust(self):
        cand = chain_candidate([0.37], "traditional")
        assert cand.trust == eng.post_evaluate(tw_record(0.37))

    def test_all_ones(self):
        assert chain_candidate([1.0] * 5, "traditional").trust == 1.0

    def test_product(self):
        assert abs(chain_candidate([0.9, 0.8], "traditional").trust - 0.72) < 1e-12

    def test_empty_rejected(self):
        target = make_task(0, [(0, 1.0)])
        params = eng.TransitivityParams(0.0, 0.0, 3, "traditional")
        assert discover_on(2, [(0, 1)], {}, target, {0: target}, params) == {}


class TestTransitChain:
    """Gated chain folding, through discovery along a path graph."""

    def test_two_hop_value(self):
        cand = chain_candidate([0.9, 0.8], "aggressive", 0.6, 0.6)
        assert abs(cand.trust - 0.74) < 1e-12

    def test_blocked_on_low_recommendation(self):
        assert chain_candidate([0.5, 0.8], "conservative", 0.6, 0.6) is None

    def test_blocked_on_low_task_trust(self):
        assert chain_candidate([0.9, 0.5], "conservative", 0.6, 0.6) is None

    def test_perfect_chain(self):
        assert chain_candidate([1.0, 1.0], "conservative", 0.6, 0.6).trust == 1.0

    def test_fold_order(self):
        cand = chain_candidate([0.9, 0.8, 0.7], "conservative", 0.6, 0.6)
        tw = [eng.post_evaluate(tw_record(v)) for v in (0.9, 0.8, 0.7)]
        assert cand.trust == eng.transit_pair(eng.transit_pair(tw[0], tw[1]), tw[2])
        assert cand.best_path == (0, 1, 2, 3)


class TestReverseEvaluation:
    def test_theta_zero_accepts_everyone(self):
        log = UsageLog()
        log.seed(1, 2, 0, 50)
        trustee = AgentProfile(node=1, is_trustee=True, default_threshold=0.0)
        accepted, _ = eng.reverse_evaluate(trustee, 2, log)
        assert accepted

    def test_stranger_prior_is_half(self):
        log = UsageLog()
        trustee = AgentProfile(node=1, is_trustee=True, default_threshold=0.3)
        accepted, value = eng.reverse_evaluate(trustee, 2, log)
        assert value == 0.5
        assert accepted

    def test_smoothed_estimate_rejects(self):
        log = UsageLog()
        log.seed(1, 2, 0, 8)
        trustee = AgentProfile(node=1, is_trustee=True, default_threshold=0.3)
        accepted, value = eng.reverse_evaluate(trustee, 2, log)
        assert abs(value - 0.1) < 1e-12
        assert not accepted

    def test_threshold_boundary_inclusive(self):
        # a stranger's reverse trust is exactly 0.5
        for threshold, expected in ((0.5, True), (0.51, False)):
            trustee = AgentProfile(node=1, is_trustee=True, default_threshold=threshold)
            accepted, _ = eng.reverse_evaluate(trustee, 2, UsageLog())
            assert accepted is expected


class TestSelectTrustee:
    def test_single_candidate(self):
        assert eng.select_trustee([eng.strategy_score(record(0.5), eng.SUCCESS_ONLY)]) == 0

    def test_success_ranking(self):
        scores = [eng.strategy_score(r, eng.SUCCESS_ONLY) for r in (record(0.7), record(0.9))]
        assert scores == [0.7, 0.9]
        assert eng.select_trustee(scores) == 1

    def test_full_profit_overrides_success(self):
        a = record(0.9, 0.1, 0.9, 0.1)
        b = record(0.7, 0.8, 0.1, 0.1)
        assert eng.select_trustee([eng.strategy_score(r, eng.SUCCESS_ONLY) for r in (a, b)]) == 0
        assert eng.select_trustee([eng.strategy_score(r, eng.FULL_PROFIT) for r in (a, b)]) == 1
        assert abs(eng.strategy_score(a, eng.FULL_PROFIT) - (-0.1)) < 1e-12
        assert abs(eng.strategy_score(b, eng.FULL_PROFIT) - 0.43) < 1e-12

    def test_tie_breaks_to_lower_id(self):
        assert eng.select_trustee([0.3, 0.5, 0.2, 0.5]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            eng.select_trustee([])

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            eng.strategy_score(record(0.5), "both")

    @settings(max_examples=100)
    @given(st.lists(st.tuples(unit, unit, unit, unit), min_size=2, max_size=6),
           st.floats(0.01, 1.0))
    def test_scaling_invariance(self, specs, k):
        base = [eng.strategy_score(record(s, g, d, c), eng.FULL_PROFIT) for s, g, d, c in specs]
        scaled = [eng.strategy_score(record(s, g * k, d * k, c * k), eng.FULL_PROFIT)
                  for s, g, d, c in specs]
        assert eng.select_trustee(base) == eng.select_trustee(scaled)
