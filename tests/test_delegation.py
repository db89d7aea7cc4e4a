import gc
import hashlib
import json
import math
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import siotrust.trust_engine as eng
from siotrust.delegation import (
    Candidate,
    DelegationRequest,
    DelegationTrace,
    PairText,
    PathEvaluator,
    find_potential_trustees,
    rank_candidates,
    run_delegation,
    sample_outcome,
)
from siotrust.domain import (
    KINDS,
    METHODS,
    RECOMMENDATION,
    SERVICE,
    AgentProfile,
    DelegationOutcome,
    TrustRecord,
    TrustStore,
    UsageLog,
    make_task,
)
from siotrust.report import write_trace_log

from conftest import make_graph
from test_transitivity import _oracle_subset_tw, _oracle_tw, oracle_discover, random_instance


class StubRng:
    """An rng whose first draw is fixed; later draws are 0."""

    def __init__(self, first):
        self._draws = [first]

    def random(self):
        return self._draws.pop() if self._draws else 0.0


def star_world(theta=0.0, trustee_count=3, s_hat=0.9):
    """Trustor 0 linked to trustees 1..k, each holding a direct service record."""
    edges = [(0, t) for t in range(1, trustee_count + 1)]
    graph = make_graph(trustee_count + 1, edges)
    task = make_task(0, [(0, 1.0)])
    tasks = {0: task}
    store = TrustStore()
    profiles = {0: AgentProfile(node=0, integrity=1.0, competence={0: 1.0})}
    for t in range(1, trustee_count + 1):
        profiles[t] = AgentProfile(
            node=t, is_trustee=True, competence={0: 1.0}, default_threshold=theta)
        store.put(0, t, 0, SERVICE, TrustRecord(s_hat, 1.0, 1.0, 0.0, 1))
    return graph, store, profiles, task, tasks


def request_for(task, method="traditional", max_hops=1, omega=0.0, **kw):
    return DelegationRequest(
        trustor=0, task=task,
        transitivity=eng.TransitivityParams(omega, omega, max_hops, method), **kw)


class TestDiscovery:
    def test_direct_record_candidate_under_all_methods(self):
        graph, store, profiles, task, tasks = star_world(trustee_count=1)
        for method in ("traditional", "conservative", "aggressive"):
            req = request_for(task, method=method, max_hops=3, omega=0.6)
            disc = find_potential_trustees(PathEvaluator(graph, profiles, store, tasks), req)
            assert [c.node for c in disc.candidates] == [1]

    def test_no_records_unavailable(self):
        graph = make_graph(3, [(0, 1), (1, 2)])
        task = make_task(0, [(0, 1.0)])
        profiles = {n: AgentProfile(node=n, is_trustee=n > 0,
                                    competence={0: 1.0}) for n in range(3)}
        evaluator = PathEvaluator(graph, profiles, TrustStore(), {0: task})
        disc = find_potential_trustees(evaluator, request_for(task, max_hops=3))
        assert disc.candidates == ()

    def test_split_characteristics_only_aggressive_reaches(self):
        # 0-1-4 knows characteristic 0, 0-2-4 knows characteristic 1; only the
        # aggressive method can combine them into a candidate for the pair task.
        graph = make_graph(5, [(0, 1), (0, 2), (1, 4), (2, 4)])
        target = make_task(0, [(0, 0.5), (1, 0.5)])
        t_a = make_task(1, [(0, 1.0)])
        t_b = make_task(2, [(1, 1.0)])
        tasks = {t.id: t for t in (target, t_a, t_b)}
        store = TrustStore()
        rec = TrustRecord(0.85, 1.0, 1.0, 0.0, 1)
        svc = TrustRecord(0.7, 1.0, 1.0, 0.0, 1)
        store.put(0, 1, 1, RECOMMENDATION, rec)
        store.put(1, 4, 1, SERVICE, svc)
        store.put(0, 2, 2, RECOMMENDATION, rec)
        store.put(2, 4, 2, SERVICE, svc)
        profiles = {n: AgentProfile(node=n, is_trustee=n == 4,
                                    competence={0: 1.0, 1: 1.0}) for n in range(5)}
        for method, expected in (("traditional", []), ("conservative", []), ("aggressive", [4])):
            req = request_for(target, method=method, max_hops=3, omega=0.6)
            disc = find_potential_trustees(PathEvaluator(graph, profiles, store, tasks), req)
            assert [c.node for c in disc.candidates] == expected, method
        req = request_for(target, method="aggressive", max_hops=3, omega=0.6)
        disc = find_potential_trustees(PathEvaluator(graph, profiles, store, tasks), req)
        cand = disc.candidates[0]
        assert cand.char_paths == {0: (0, 1, 4), 1: (0, 2, 4)}
        assert abs(cand.trust - 0.74) < 1e-12

    def test_interrogated_includes_candidates(self):
        graph, store, profiles, task, tasks = star_world()
        disc = find_potential_trustees(PathEvaluator(graph, profiles, store, tasks), request_for(task))
        assert {c.node for c in disc.candidates} <= set(disc.interrogated)

    def test_candidates_in_node_order_on_random_worlds(self):
        # rank_candidates relies on this order to break trust ties
        multi = 0
        for seed in range(40):
            graph, store, profiles, trustor, task, params, tasks = random_instance(seed)
            ev = PathEvaluator(graph, profiles, store, tasks)
            for method in METHODS:
                for hops in (1, 2, 3):
                    for omega1, omega2 in ((0.0, 0.0), (params.omega1, params.omega2)):
                        probe = eng.TransitivityParams(omega1, omega2, hops, method)
                        disc = find_potential_trustees(
                            ev, DelegationRequest(trustor=trustor, task=task, transitivity=probe))
                        nodes = [c.node for c in disc.candidates]
                        assert nodes == sorted(set(nodes)), (seed, method, hops)
                        assert all(type(c) is Candidate for c in disc.candidates)
                        assert all((c.char_paths is None) == (method != eng.AGGRESSIVE)
                                   for c in disc.candidates)
                        multi += len(nodes) > 1
        assert multi

    def test_evaluator_freed_without_cycle_collection(self):
        # a cycle left by discovery would keep a finished unit's evaluator,
        # and through it the unit's whole store, alive until a gen-2 collection
        graph, store, profiles, task, tasks = star_world()
        ev = PathEvaluator(graph, profiles, store, tasks)
        ref = weakref.ref(ev)
        gc.disable()
        try:
            find_potential_trustees(ev, request_for(task, max_hops=3))
            del ev
            assert ref() is None
        finally:
            gc.enable()


class TestRanking:
    # node-ordered candidates, as discovery returns them, with trusts from a
    # small set so that ties are common
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.dictionaries(st.integers(0, 40), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                           max_size=12))
    def test_rank_is_the_trust_then_node_sort(self, trust_by_node):
        candidates = [Candidate(n, t, (0, n)) for n, t in sorted(trust_by_node.items())]
        assert rank_candidates(candidates) == sorted(candidates, key=lambda c: (-c.trust, c.node))


class TestSampleOutcome:
    def test_effective_probability_scales_with_environment(self):
        # the protocol's environment is ideal, so the task competence is the threshold
        trustor = AgentProfile(node=0, integrity=1.0)
        trustee = AgentProfile(node=1, is_trustee=True, competence={0: 0.32})
        task = make_task(0, [(0, 1.0)])
        for draw, success in ((0.3199, True), (0.3201, False)):
            outcome = sample_outcome(trustor, trustee, task, (), StubRng(draw))
            assert outcome.success is success

    def test_perfect_competence_ideal_env_always_succeeds(self):
        trustor = AgentProfile(node=0, integrity=1.0)
        trustee = AgentProfile(node=1, is_trustee=True, competence={0: 1.0})
        task = make_task(0, [(0, 1.0)])
        rng = random.Random(0)
        for _ in range(64):
            outcome = sample_outcome(trustor, trustee, task, (), rng)
            assert outcome.success

    def test_cost_inflation_attack(self):
        trustor = AgentProfile(node=0)
        trustee = AgentProfile(node=1, is_trustee=True, competence={0: 1.0},
                               cost=0.2, honest=False, cost_multiplier=3.0)
        task = make_task(0, [(0, 1.0)])
        outcome = sample_outcome(trustor, trustee, task, (), random.Random(0))
        assert abs(outcome.cost - 0.6) < 1e-12

    def test_honest_trustee_ignores_multiplier(self):
        trustor = AgentProfile(node=0)
        trustee = AgentProfile(node=1, is_trustee=True, competence={0: 1.0},
                               cost=0.2, honest=True, cost_multiplier=3.0)
        task = make_task(0, [(0, 1.0)])
        outcome = sample_outcome(trustor, trustee, task, (), random.Random(0))
        assert outcome.cost == 0.2

    def test_env_snapshot_records_path(self):
        trustor = AgentProfile(node=0)
        trustee = AgentProfile(node=3, is_trustee=True, competence={0: 1.0})
        task = make_task(0, [(0, 1.0)])
        outcome = sample_outcome(trustor, trustee, task, (7,), random.Random(1))
        assert outcome.env_snapshot == (1.0, 1.0, 1.0)

    def test_binomial_convergence(self):
        trustor = AgentProfile(node=0, integrity=1.0)
        trustee = AgentProfile(node=1, is_trustee=True, competence={0: 0.7})
        task = make_task(0, [(0, 1.0)])
        rng = random.Random(42)
        n = 2000
        hits = sum(
            sample_outcome(trustor, trustee, task, (), rng).success
            for _ in range(n)
        )
        sigma = math.sqrt(0.7 * 0.3 / n)
        assert abs(hits / n - 0.7) <= 3 * sigma


class TestRunDelegation:
    def run_one(self, theta=0.0, seed=1, usage=None, trustee_count=3):
        graph, store, profiles, task, tasks = star_world(theta=theta, trustee_count=trustee_count)
        usage = usage if usage is not None else UsageLog()
        trace = run_delegation(PathEvaluator(graph, profiles, store, tasks), usage,
                               request_for(task), random.Random(seed))
        return trace, store, usage

    def test_single_honest_candidate_delegates_and_updates(self):
        trace, store, usage = self.run_one(trustee_count=1)
        assert trace.chosen == 1
        assert trace.outcome.success
        rec = store.get(0, 1, 0, SERVICE)
        assert rec.interaction_count == 2
        assert usage.counts(1, 0) == (1, 1)

    def test_first_rejects_second_accepts(self):
        usage = UsageLog()
        usage.seed(1, 0, 0, 8)  # first-ranked trustee has seen only abuse
        graph, store, profiles, task, tasks = star_world(theta=0.3)
        trace = run_delegation(PathEvaluator(graph, profiles, store, tasks), usage,
                               request_for(task), random.Random(1))
        assert trace.rejections and trace.rejections[0][0] == 1
        assert trace.chosen == 2

    def test_all_reject_unavailable_no_updates(self):
        trace, store, usage = self.run_one(theta=1.0)
        assert trace.chosen is None
        assert trace.outcome is None
        assert len(trace.rejections) == 3
        for t in (1, 2, 3):
            assert store.get(0, t, 0, SERVICE).interaction_count == 1
            assert usage.counts(t, 0) == (0, 0)

    def test_impossible_threshold_never_chosen(self):
        # smoothed reverse trust is strictly below 1, so theta=1 blocks forever
        for seed in range(10):
            trace, _, _ = self.run_one(theta=1.0, seed=seed)
            assert trace.chosen is None

    def test_abusive_draw_recorded_in_log(self):
        graph, store, profiles, task, tasks = star_world()
        profiles[0] = AgentProfile(node=0, integrity=0.0, competence={0: 1.0})
        usage = UsageLog()
        trace = run_delegation(PathEvaluator(graph, profiles, store, tasks), usage,
                               request_for(task), random.Random(1))
        assert trace.outcome.abusive
        assert usage.counts(trace.chosen, 0) == (0, 1)

    def test_recommendation_records_updated_along_path(self):
        graph = make_graph(3, [(0, 1), (1, 2)])
        task = make_task(0, [(0, 1.0)])
        tasks = {0: task}
        store = TrustStore()
        store.put(0, 1, 0, RECOMMENDATION, TrustRecord(0.9, 1.0, 1.0, 0.0, 1))
        store.put(1, 2, 0, SERVICE, TrustRecord(0.8, 1.0, 1.0, 0.0, 1))
        profiles = {
            0: AgentProfile(node=0, integrity=1.0),
            1: AgentProfile(node=1),
            2: AgentProfile(node=2, is_trustee=True, competence={0: 1.0}),
        }
        req = request_for(task, method="conservative", max_hops=2, omega=0.0)
        trace = run_delegation(PathEvaluator(graph, profiles, store, tasks), UsageLog(),
                               req, random.Random(3))
        assert trace.chosen == 2
        rec = store.get(0, 1, 0, RECOMMENDATION)
        assert rec.interaction_count == 2
        svc = store.get(0, 2, 0, SERVICE)
        assert svc is not None and svc.interaction_count == 1
        # one relay: a snapshot entry per party, and a trace line with three env values
        assert trace.outcome.env_snapshot == (1.0, 1.0, 1.0)
        line = trace.to_line(PairText())
        assert line == json.dumps(trace.to_dict(), sort_keys=True, separators=(",", ":"))
        assert '"env":[1.0,1.0,1.0]' in line


def assert_memos_fresh(ev):
    """Every cached pair info, index entry, evidence row and hop of `ev` is a fresh evaluator's."""
    fresh = PathEvaluator(ev.graph, ev.profiles, ev.store, ev.tasks)
    for key, info in ev._pair.items():
        assert info == fresh.pair_info(*key), key
    for (node, kind), entries in ev._neighbours.items():
        assert entries == fresh._neighbour_index(node, kind), (node, kind)
    for (method, task_id, kind), rows in ev._evidence.items():
        for node, row in rows.items():
            assert row == fresh.evidence_row(method, ev.tasks[task_id], kind, node), (method, node)
    for (observer, kind), by_task in ev._hops.items():
        for task_id, row in by_task.items():
            for subject, hop in row.items():
                expected = fresh.hop_tw(observer, subject, kind, ev.tasks[task_id])
                assert hop == expected, (observer, subject, kind, task_id)


class CheckedEvaluator(PathEvaluator):
    """An evaluator whose memos are checked against a fresh one's after every write."""

    writes = 0

    def invalidate(self, *args, **kwargs):
        super().invalidate(*args, **kwargs)
        self.writes += 1
        assert_memos_fresh(self)


class TestEvaluatorCoherence:
    """A reused evaluator must agree with a fresh one after each of run_delegation's writes."""

    METHODS = ("traditional", "conservative", "aggressive")

    def world(self):
        # The 2-hop route 0-1-2 is evidenced only through tasks 1 and 2, which
        # cover the target's characteristics; the edge 0-2 carries no record
        # until a delegation to 2 creates one. 0-3-4 covers characteristic 1.
        graph = make_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
        target = make_task(0, [(0, 0.5), (1, 0.5)])
        tasks = {t.id: t for t in (target, make_task(1, [(0, 1.0)]), make_task(2, [(1, 1.0)]))}
        store = TrustStore()
        rec = TrustRecord(0.9, 1.0, 1.0, 0.0, 1)
        svc = TrustRecord(0.9, 1.0, 1.0, 0.0, 1)
        store.put(0, 1, 1, RECOMMENDATION, rec)
        store.put(0, 1, 2, RECOMMENDATION, rec)
        store.put(1, 2, 0, SERVICE, svc)
        store.put(0, 3, 2, RECOMMENDATION, rec)
        store.put(3, 4, 0, SERVICE, svc)
        profiles = {n: AgentProfile(node=n, is_trustee=n in (2, 3, 4),
                                    integrity=1.0, competence={0: 1.0, 1: 1.0})
                    for n in range(5)}
        return graph, store, profiles, target, tasks

    def test_reused_evaluator_matches_fresh_after_each_delegation(self):
        graph, store, profiles, target, tasks = self.world()
        ev = CheckedEvaluator(graph, profiles, store, tasks)
        usage = UsageLog()
        rng = random.Random(1)
        row_before = tuple(ev.evidence_row(eng.TRADITIONAL, target, kind, 0)
                           for kind in (RECOMMENDATION, SERVICE))
        assert row_before == ((), ())
        for step, method in enumerate(("conservative", "traditional", "aggressive", "conservative")):
            trace = run_delegation(ev, usage, request_for(target, method=method, max_hops=3), rng)
            assert trace.chosen == 2
            if step == 0:
                # structural: the delegation created 0's records about 1 and 2
                assert store.get(0, 1, 0, RECOMMENDATION) is not None
                assert ev.evidence_row(eng.TRADITIONAL, target, RECOMMENDATION, 0) == (1,)
                assert ev.evidence_row(eng.TRADITIONAL, target, SERVICE, 0) == (2,)
            # value-only from step 1 on: the service record about 2 is updated
            assert store.get(0, 2, 0, SERVICE).interaction_count == step + 1
            for m in self.METHODS:
                request = request_for(target, method=m, max_hops=3)
                reused = find_potential_trustees(ev, request)
                fresh = find_potential_trustees(PathEvaluator(graph, profiles, store, tasks),
                                                request)
                assert reused == fresh, (step, m)
                assert reused.candidates
        assert ev.writes >= 4

    def test_value_write_drops_the_hops_it_inferred(self):
        # Trustor 0 holds service records about trustee 1 on the target and
        # on task 1. Discoveries of every task first memoize 0's hops to 1:
        # task 2's is inferred from the target's record alone, as task 1
        # does not cover characteristic 1. Each delegation then rewrites the
        # target's record, a value-only write, so task 2's hop must go.
        graph = make_graph(2, [(0, 1)])
        target = make_task(0, [(0, 0.5), (1, 0.5)])
        tasks = {t.id: t for t in (target, make_task(1, [(0, 1.0)]), make_task(2, [(1, 1.0)]))}
        store = TrustStore()
        store.put(0, 1, 0, SERVICE, TrustRecord(0.9, 1.0, 1.0, 0.0, 1))
        store.put(0, 1, 1, SERVICE, TrustRecord(0.4, 1.0, 1.0, 0.0, 1))
        profiles = {0: AgentProfile(node=0, integrity=1.0),
                    1: AgentProfile(node=1, is_trustee=True, competence={0: 1.0, 1: 1.0})}
        ev = CheckedEvaluator(graph, profiles, store, tasks)
        usage, rng = UsageLog(), random.Random(1)
        for step in range(4):
            for task in tasks.values():
                for m in self.METHODS:
                    find_potential_trustees(ev, request_for(task, method=m))
            inferred = ev.hop_tw(0, 1, SERVICE, tasks[2])
            trace = run_delegation(ev, usage, request_for(target), rng)
            assert trace.chosen == 1
            assert ev.hop_tw(0, 1, SERVICE, tasks[2]) != inferred, step
        assert ev.writes == 4
        assert store.get(0, 1, 0, SERVICE).interaction_count == 5

    def read_everything(self, ev):
        """Fill the memos: every evidence row, and every hop along an edge."""
        for node in ev.graph.nodes():
            for kind in KINDS:
                for task in ev.tasks.values():
                    for m in self.METHODS:
                        ev.evidence_row(m, task, kind, node)
                    for nbr in ev.graph.neighbors(node):
                        ev.hop_tw(node, nbr, kind, task)

    def test_created_record_leaves_the_other_kind_cached(self):
        # 0 holds records of both kinds about 1 and 2 on task 0. A created
        # service record on task 1 can change 0's service ids and masks only,
        # so 0's recommendation memos must stay, the same objects as before.
        graph = make_graph(3, [(0, 1), (0, 2)])
        tasks = {0: make_task(0, [(0, 1.0)]), 1: make_task(1, [(0, 0.5), (1, 0.5)])}
        store = TrustStore()
        for kind in KINDS:
            for s in (1, 2):
                store.put(0, s, 0, kind, TrustRecord(0.9, 1.0, 1.0, 0.0, 1))
        profiles = {n: AgentProfile(node=n, is_trustee=n > 0) for n in range(3)}
        ev = PathEvaluator(graph, profiles, store, tasks)
        self.read_everything(ev)
        pairs = {s: ev.pair_info(0, s, RECOMMENDATION) for s in (1, 2)}
        # every recommendation hop, and the service hops to 2: only the
        # service hops to the written subject 1 go
        hops = {(s, kind, t): ev.hop_tw(0, s, kind, task)
                for s in (1, 2) for kind in KINDS for t, task in tasks.items()
                if kind == RECOMMENDATION or s == 2}
        index = ev._neighbour_index(0, RECOMMENDATION)
        rows = {(m, t): ev.evidence_row(m, task, RECOMMENDATION, 0)
                for m in self.METHODS for t, task in tasks.items()}
        written = TrustRecord(0.2, 1.0, 1.0, 0.0, 1)
        store.put(0, 1, 1, SERVICE, written)
        ev.invalidate(0, 1, SERVICE, 1, written)
        assert_memos_fresh(ev)
        assert (0, 1, SERVICE) not in ev._pair
        assert ev.evidence_rows(eng.AGGRESSIVE, tasks[1], SERVICE).get(0) is None
        for s, info in pairs.items():
            assert ev.pair_info(0, s, RECOMMENDATION) is info
        for (s, kind, t), hop in hops.items():
            assert ev.hop_tw(0, s, kind, tasks[t]) is hop, (s, kind, t)
        assert ev._neighbour_index(0, RECOMMENDATION) is index
        for (m, t), row in rows.items():
            assert ev.evidence_rows(m, tasks[t], RECOMMENDATION).get(0) is row, (m, t)

    def test_write_to_an_unread_pair_leaves_every_memo(self):
        # 0 and 2 are not neighbours, so no memo reads the pair (0, 2), as
        # with a two-hop delegation's service record about its trustee.
        graph = make_graph(3, [(0, 1), (1, 2)])
        tasks = {0: make_task(0, [(0, 1.0)])}
        store = TrustStore()
        store.put(0, 1, 0, RECOMMENDATION, TrustRecord(0.9, 1.0, 1.0, 0.0, 1))
        store.put(1, 2, 0, SERVICE, TrustRecord(0.9, 1.0, 1.0, 0.0, 1))
        profiles = {n: AgentProfile(node=n, is_trustee=n == 2) for n in range(3)}
        ev = PathEvaluator(graph, profiles, store, tasks)
        self.read_everything(ev)
        find_potential_trustees(ev, request_for(tasks[0], max_hops=2))

        def memos():
            return (dict(ev._pair),
                    {k: {t: dict(row) for t, row in by_task.items()} for k, by_task in ev._hops.items()},
                    dict(ev._neighbours), {k: dict(rows) for k, rows in ev._evidence.items()})

        before = memos()
        written = TrustRecord(0.2, 1.0, 1.0, 0.0, 1)
        store.put(0, 2, 0, SERVICE, written)
        ev.invalidate(0, 2, SERVICE, 0, written)
        assert memos() == before
        assert_memos_fresh(ev)
        assert ev.pair_info(0, 2, SERVICE)[0] == {0: eng.post_evaluate(written)}

    def test_reused_evaluator_matches_fresh_on_random_worlds(self):
        # Every delegation writes through invalidate; afterwards the reused
        # evaluator's memos, index and rows must give what a fresh one and
        # the exhaustive oracle read from the store, for every method and
        # hop limit. Gates at most 0.6 let over half the delegations write.
        # Each trustee's reverse threshold comes from a generator of its own,
        # so the world's records stay those of `random_instance(seed)`; a
        # fresh pair's reverse trust is 0.5, so thresholds above it reject.
        rejections = writes = checked = 0
        for seed in range(40):
            graph, store, profiles, _, _, _, tasks = random_instance(seed)
            thresholds = random.Random(seed + 1000)
            profiles = {
                node: AgentProfile(p.node, p.is_trustee, p.competence,
                                   default_threshold=thresholds.uniform(0.0, 0.8))
                if p.is_trustee else p
                for node, p in profiles.items()
            }
            nodes = list(graph.nodes())
            pool = [tasks[i] for i in sorted(tasks)]
            ev = CheckedEvaluator(graph, profiles, store, tasks)
            usage = UsageLog()
            rng = random.Random(seed)
            for step in range(8):
                trustor, task = rng.choice(nodes), rng.choice(pool)
                omega1, omega2 = rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.6)
                params = eng.TransitivityParams(omega1, omega2, rng.randint(1, 3),
                                                rng.choice(self.METHODS))
                trace = run_delegation(ev, usage,
                                       DelegationRequest(trustor=trustor, task=task,
                                                         transitivity=params),
                                       rng)
                rejections += len(trace.rejections)
                writes += trace.chosen is not None
                fresh = PathEvaluator(graph, profiles, store, tasks)
                for m in self.METHODS:
                    for hops in (1, 2, 3):
                        probe = eng.TransitivityParams(omega1, omega2, hops, m)
                        request = DelegationRequest(trustor=trustor, task=task, transitivity=probe)
                        reused = find_potential_trustees(ev, request)
                        where = (seed, step, m, hops)
                        assert reused == find_potential_trustees(fresh, request), where
                        expected = oracle_discover(graph, store, profiles, trustor, task, probe,
                                                   tasks, m)
                        assert ({c.node: c.trust for c in reused.candidates}
                                == {n: e[0] for n, e in expected.items()}), where
            checked += ev.writes
        assert rejections and writes
        assert checked >= writes


class TestHopTw:
    def test_hop_tw_matches_oracle_on_random_worlds(self):
        # One hop rule for every method: the exact-task record wins, else
        # inference over the covered characteristics, renormalized when the
        # coverage is partial
        lookups = exact = partial = 0
        for seed in range(40):
            graph, store, profiles, _, _, _, tasks = random_instance(seed)
            ev = PathEvaluator(graph, profiles, store, tasks)
            for o in graph.nodes():
                for s in graph.neighbors(o):
                    for kind in (SERVICE, RECOMMENDATION):
                        for task in tasks.values():
                            covered, value = ev.hop_tw(o, s, kind, task)
                            chars, expected = _oracle_subset_tw(store, tasks, o, s, kind, task)
                            where = (seed, o, s, kind, task.id)
                            assert covered == sum(1 << c for c in chars), where
                            assert value == expected, where
                            rec = store.get(o, s, task.id, kind)
                            if rec is not None:
                                assert value == _oracle_tw(rec), where
                                exact += 1
                            partial += covered not in (0, task.mask)
                            lookups += 1
        assert lookups and exact and partial

    def test_value_write_drops_every_task_hop_to_subject_only(self):
        # Two tasks over one characteristic: task 1's hop is inferred from the
        # task-0 record, so a value-only write to (0, 1) must reach the memo
        # rows of both tasks. The hops to 2 stay memoized: the same objects
        # come back, still holding the values of the overwritten records.
        graph = make_graph(3, [(0, 1), (0, 2)])
        tasks = {0: make_task(0, [(0, 1.0)]), 1: make_task(1, [(0, 1.0)])}
        store = TrustStore()
        for kind in KINDS:
            store.put(0, 1, 0, kind, TrustRecord(0.9, 1.0, 1.0, 0.0, 1))
            store.put(0, 2, 0, kind, TrustRecord(0.8, 1.0, 1.0, 0.0, 1))
        ev = PathEvaluator(graph, {}, store, tasks)
        before = {(s, kind, t): ev.hop_tw(0, s, kind, tasks[t])
                  for s in (1, 2) for kind in KINDS for t in tasks}
        for kind in KINDS:
            written = TrustRecord(0.2, 1.0, 1.0, 0.0, 2)
            store.put(0, 1, 0, kind, written)
            ev.invalidate(0, 1, kind, 0, written)
            store.put(0, 2, 0, kind, TrustRecord(0.3, 1.0, 1.0, 0.0, 2))
        fresh = PathEvaluator(graph, {}, store, tasks)
        for kind in KINDS:
            for t in tasks:
                assert ev.hop_tw(0, 1, kind, tasks[t]) == fresh.hop_tw(0, 1, kind, tasks[t])
                assert ev.hop_tw(0, 1, kind, tasks[t]) != before[1, kind, t]
                assert ev.hop_tw(0, 2, kind, tasks[t]) is before[2, kind, t]

    def test_task_outside_the_task_map_is_rejected(self):
        # the exact-task trust comes from pair_info, which sees only mapped tasks
        store = TrustStore()
        store.put(0, 1, 7, SERVICE, TrustRecord(0.9, 1.0, 1.0, 0.0, 1))
        ev = PathEvaluator(make_graph(2, [(0, 1)]), {}, store, {0: make_task(0, [(0, 1.0)])})
        with pytest.raises(ValueError, match="task 7"):
            ev.hop_tw(0, 1, SERVICE, make_task(7, [(0, 1.0)]))


class TestDeterminism:
    def run_sequence(self, seed):
        graph, store, profiles, task, tasks = star_world(theta=0.3)
        profiles[0] = AgentProfile(node=0, integrity=0.5, competence={0: 1.0})
        for t in (1, 2, 3):
            profiles[t] = AgentProfile(node=t, is_trustee=True, competence={0: 0.6},
                                       default_threshold=0.3)
        usage = UsageLog()
        rng = random.Random(seed)
        lines = []
        evaluator = PathEvaluator(graph, profiles, store, tasks)
        for _ in range(40):
            trace = run_delegation(evaluator, usage, request_for(task), rng)
            lines.append(trace.to_dict())
        return lines

    def test_identical_seeds_identical_traces(self):
        assert self.run_sequence(7) == self.run_sequence(7)

    def test_different_seeds_diverge(self):
        assert self.run_sequence(7) != self.run_sequence(8)

    def test_trace_line_is_the_dict_as_json(self):
        traces = []
        for theta in (0.3, 0.6):  # delegations with and without rejections, then unavailable
            graph, store, profiles, task, tasks = star_world(theta=theta)
            profiles[0] = AgentProfile(node=0, integrity=0.5, competence={0: 1.0})
            evaluator = PathEvaluator(graph, profiles, store, tasks)
            usage, rng = UsageLog(), random.Random(3)
            traces += [run_delegation(evaluator, usage, request_for(task), rng)
                       for _ in range(4)]
        assert {t.outcome is None for t in traces} == {True, False}
        assert any(t.rejections and t.outcome for t in traces)
        for trace in traces:
            line = trace.to_line(PairText())
            assert line == json.dumps(trace.to_dict(), sort_keys=True, separators=(",", ":"))
            assert json.loads(line) == trace.to_dict()

    def test_trace_json_round_trips(self, tmp_path):
        graph, store, profiles, task, tasks = star_world()
        trace = run_delegation(PathEvaluator(graph, profiles, store, tasks), UsageLog(),
                               request_for(task), random.Random(1))
        path = tmp_path / "trace.ndjson"
        write_trace_log([trace.to_line(PairText())], path)
        data = json.loads(path.read_text())
        assert data["trustor"] == 0
        assert data["chosen"] == trace.chosen
        assert data["outcome"]["success"] == trace.outcome.success
        assert data["interrogated"] == trace.nodes_interrogated


# values in [0, 1], with some whose repr needs an exponent
_EXPONENT = st.sampled_from([1e-05, 2.5e-07, 1e-09, 3e-10, 1e-300, 5e-324])
_UNIT = st.one_of(st.floats(0.0, 1.0), _EXPONENT)
_ENV = st.one_of(st.floats(0.0, 1.0, exclude_min=True), _EXPONENT)
_PAIRS = st.lists(st.tuples(st.integers(0, 10**6), _UNIT), max_size=6)
# ranked candidates as discovery builds them; an aggressive one's char_paths
# is a dict, so the trace must not hash a candidate whole
_PATH = st.lists(st.integers(0, 10**6), min_size=2, max_size=4).map(tuple)
_RANKED = st.lists(st.builds(Candidate, st.integers(0, 10**6), _UNIT, _PATH,
                             st.none() | st.dictionaries(st.integers(0, 9), _PATH, max_size=3)),
                   max_size=6)


@st.composite
def _outcomes(draw):
    success, value = draw(st.booleans()), draw(_UNIT)
    return DelegationOutcome(success=success, gain=value if success else 0.0,
                             damage=0.0 if success else value, cost=draw(_UNIT),
                             abusive=draw(st.booleans()),
                             env_snapshot=tuple(draw(st.lists(_ENV, min_size=2, max_size=6))))


class TestTraceEncoder:
    @settings(max_examples=200, deadline=None, derandomize=True)
    # a -0.0 beside a 0.0 in one outcome, which `_UNIT` never draws: the
    # outcome floats must keep their sign, so no value memo may serve both
    @example(DelegationTrace(1, 2, [(3, 0.0)], [], 3, DelegationOutcome(
        success=True, gain=0.0, damage=0.0, cost=-0.0, abusive=False), 4))
    @example(DelegationTrace(1, 2, [(3, 0.0)], [], 3, DelegationOutcome(
        success=False, gain=-0.0, damage=0.5, cost=0.0, abusive=True), 4))
    @given(st.builds(DelegationTrace, trustor=st.integers(0, 10**6), task_id=st.integers(0, 10**6),
                     ranked_candidates=_RANKED, rejections=_PAIRS,
                     chosen=st.none() | st.integers(0, 10**6), outcome=st.none() | _outcomes(),
                     nodes_interrogated=st.integers(0, 10**6)))
    def test_line_is_canonical_json_of_the_dict(self, trace):
        line = trace.to_line(PairText())
        assert line == json.dumps(trace.to_dict(), sort_keys=True, separators=(",", ":"))
        assert json.loads(line) == trace.to_dict()

    def test_lines_stay_canonical_across_text_memo_clears(self):
        # 1,000 traces are encoded twice through one shared pair-text memo,
        # so the second pass reads every pair's text from the memo; values a
        # few ulps apart share their rounded text under distinct keys
        rng = random.Random(5)
        traces = []
        for i in range(1000):
            ranked = [(n, rng.random()) for n in range(6)]
            ranked[0] = (0, ranked[1][1] + 1e-12)
            traces.append(DelegationTrace(i, 0, ranked, [(n, rng.random()) for n in range(3)],
                                          None, None, 9))
        text = PairText()
        for _ in range(2):
            for trace in traces:
                assert trace.to_line(text) == json.dumps(trace.to_dict(), sort_keys=True,
                                                         separators=(",", ":"))


class TestOracleInstances:
    # sha256 over every record of random_instance(seed), seeds 0-199, recorded
    # while records still carried their kind and the store keyed them by a
    # (context type, task id) pair: the oracle's instances must not move
    RECORDS_SHA256 = "05346210f03323743db50f7f8f5386f39e599397e08fa565029596cffaf5d9c3"

    def test_random_instance_records_pinned(self):
        lines = []
        for seed in range(200):
            graph, store, *_ = random_instance(seed)
            records = sorted(
                (o, s, kind, task_id, r.s_hat, r.g_hat, r.d_hat, r.c_hat, r.interaction_count)
                for o in graph.nodes() for s in graph.nodes() for kind in KINDS
                for task_id, r in store.task_records(o, s, kind))
            lines.append(repr(records))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.RECORDS_SHA256
