"""Transitivity behaviour against an independent exhaustive-path oracle.

The transitivity rules (hop coverage, the omega gates, path folding, and the
aggressive method's per-characteristic combination) live only in
`delegation.find_potential_trustees`. The oracle below is their reference:
it re-derives hop trust, gating, and path selection straight from the
store, enumerating every simple path by permutation, and shares no code
with the package's discovery walk. The unit cases below run discovery on
path graphs of a few nodes.
"""

import itertools
import random

import pytest

import siotrust.trust_engine as eng
from siotrust.delegation import DelegationRequest, PathEvaluator, find_potential_trustees
from siotrust.domain import (
    RECOMMENDATION,
    SERVICE,
    AgentProfile,
    TrustRecord,
    TrustStore,
    make_task,
)

from conftest import chain_candidate, discover_on, make_graph, tw_record


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def _oracle_tw(rec):
    raw = rec.s_hat * rec.g_hat - (1.0 - rec.s_hat) * rec.d_hat - rec.c_hat
    return min(1.0, max(0.0, (raw + 2.0) / 3.0))


def _oracle_char_tw(store, tasks, o, s, kind, char_id):
    num = 0.0
    den = 0.0
    for tid, rec in store.task_records(o, s, kind):
        task = tasks[tid]
        w = task.weight_of(char_id)
        if w is not None:
            num += w * _oracle_tw(rec)
            den += w
    return num / den if den else None


def _oracle_full_tw(store, tasks, o, s, kind, target):
    for tid, rec in store.task_records(o, s, kind):
        if tid == target.id:
            return _oracle_tw(rec)
    if not store.task_records(o, s, kind):
        return None
    total = 0.0
    for char_id, weight in target.parts:
        v = _oracle_char_tw(store, tasks, o, s, kind, char_id)
        if v is None:
            return None
        total += weight * v
    return total


def _oracle_covered(store, tasks, o, s, kind, target):
    covered = set()
    for tid, _ in store.task_records(o, s, kind):
        covered.update(set(tasks[tid].char_ids) & set(target.char_ids))
    return covered


def _oracle_subset_tw(store, tasks, o, s, kind, target):
    covered = _oracle_covered(store, tasks, o, s, kind, target)
    if not covered:
        return covered, None
    if len(covered) == len(target.parts):
        return covered, _oracle_full_tw(store, tasks, o, s, kind, target)
    parts = [(c, w) for c, w in target.parts if c in covered]
    total_w = sum(w for _, w in parts)
    value = 0.0
    for char_id, weight in parts:
        v = _oracle_char_tw(store, tasks, o, s, kind, char_id)
        if v is None:
            return covered, None
        value += (weight / total_w) * v
    return covered, value


def _oracle_eval_path(store, tasks, path, target, params, method):
    """(carried characteristic set, chain value) or None when blocked."""
    carried = set(target.char_ids)
    tws = []
    for i in range(len(path) - 1):
        o, s = path[i], path[i + 1]
        last = i == len(path) - 2
        kind = SERVICE if last else RECOMMENDATION
        omega = params.omega2 if last else params.omega1
        if method == "traditional":
            tw = None
            for tid, rec in store.task_records(o, s, kind):
                if tid == target.id:
                    tw = _oracle_tw(rec)
            cov = set(target.char_ids)
        elif method == "conservative":
            cov = _oracle_covered(store, tasks, o, s, kind, target)
            if len(cov) != len(target.parts):
                return None
            tw = _oracle_full_tw(store, tasks, o, s, kind, target)
            cov = set(target.char_ids)
        else:
            cov, tw = _oracle_subset_tw(store, tasks, o, s, kind, target)
        if tw is None or tw < omega:
            return None
        carried &= cov
        if not carried:
            return None
        tws.append(tw)
    if method == "traditional":
        value = 1.0
        for tw in tws:
            value *= tw
    else:
        value = tws[0]
        for tw in tws[1:]:
            value = value * tw + (1.0 - value) * (1.0 - tw)
    return carried, value


def _better(new, cur):
    if cur is None:
        return True
    if new[0] != cur[0]:
        return new[0] > cur[0]
    if len(new[1]) != len(cur[1]):
        return len(new[1]) < len(cur[1])
    return new[1] < cur[1]


def oracle_discover(graph, store, profiles, trustor, target, params, tasks, method):
    """All candidates by exhaustive simple-path enumeration."""
    others = [n for n in graph.nodes() if n != trustor]
    results = {}
    for t in others:
        prof = profiles.get(t)
        if prof is None or not prof.is_trustee:
            continue
        best_single = None
        best_by_char = {}
        mids_pool = [m for m in others if m != t]
        for k in range(0, params.max_hops):
            for mids in itertools.permutations(mids_pool, k):
                path = (trustor, *mids, t)
                if not all(graph.has_edge(path[i], path[i + 1]) for i in range(len(path) - 1)):
                    continue
                evaluated = _oracle_eval_path(store, tasks, path, target, params, method)
                if evaluated is None:
                    continue
                carried, value = evaluated
                entry = (value, path)
                if method == "aggressive":
                    for char_id in carried:
                        if _better(entry, best_by_char.get(char_id)):
                            best_by_char[char_id] = entry
                else:
                    if _better(entry, best_single):
                        best_single = entry
        if method == "aggressive":
            if len(best_by_char) == len(target.parts):
                value = 0.0
                for char_id, weight in target.parts:
                    value += weight * best_by_char[char_id][0]
                results[t] = (value, {c: e[1] for c, e in best_by_char.items()})
        elif best_single is not None:
            results[t] = (best_single[0], best_single[1])
    return results


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def random_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.uniform(0.25, 0.6)]
    graph = make_graph(n, edges)

    n_chars = rng.randint(2, 4)
    pool = []
    tid = 0
    for c in range(n_chars):
        pool.append(make_task(tid, [(c, 1.0)]))
        tid += 1
    for a in range(n_chars):
        for b in range(a + 1, n_chars):
            pool.append(make_task(tid, [(a, rng.uniform(0.3, 0.7)), (b, 1.0)]))
            tid += 1
    tasks = {t.id: t for t in pool}

    store = TrustStore()
    for o in graph.nodes():
        for s in graph.neighbors(o):
            for task in pool:
                if rng.random() < 0.35:
                    store.put(o, s, task.id, SERVICE,
                              TrustRecord(rng.random(), rng.random(), rng.random(), rng.random(),
                                          1))
                if rng.random() < 0.35:
                    store.put(o, s, task.id, RECOMMENDATION,
                              TrustRecord(rng.random(), rng.random(), rng.random(), rng.random(),
                                          1))

    trustees = [node for node in graph.nodes() if rng.random() < 0.5]
    if not trustees:
        trustees = [n - 1]
    profiles = {
        node: AgentProfile(node=node, is_trustee=node in trustees,
                           competence={c: rng.random() for c in range(n_chars)})
        for node in graph.nodes()
    }
    params = eng.TransitivityParams(
        omega1=rng.uniform(0.2, 0.8),
        omega2=rng.uniform(0.2, 0.8),
        max_hops=rng.randint(1, 3),
        method="traditional",
    )
    trustor = rng.randrange(n)
    target = pool[rng.randrange(len(pool))]
    return graph, store, profiles, trustor, target, params, tasks


def discover(graph, store, profiles, trustor, target, params, tasks, method):
    request = DelegationRequest(
        trustor=trustor, task=target,
        transitivity=eng.TransitivityParams(params.omega1, params.omega2, params.max_hops, method),
    )
    return find_potential_trustees(PathEvaluator(graph, profiles, store, tasks), request)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

N_INSTANCES = 200


@pytest.mark.parametrize("method", ["traditional", "conservative", "aggressive"])
def test_oracle_equivalence(method):
    for seed in range(N_INSTANCES):
        graph, store, profiles, trustor, target, params, tasks = random_instance(seed)
        expected = oracle_discover(graph, store, profiles, trustor, target, params, tasks, method)
        disc = discover(graph, store, profiles, trustor, target, params, tasks, method)
        got = {c.node: c for c in disc.candidates}
        assert set(got) == set(expected), f"seed {seed}: candidate sets differ"
        for node, cand in got.items():
            value = expected[node][0]
            assert cand.trust == value, f"seed {seed}: value mismatch at node {node}"
            if method == "aggressive":
                assert cand.char_paths == expected[node][1], f"seed {seed}: paths differ"
            else:
                assert cand.best_path == expected[node][1], f"seed {seed}: path differs"


def test_candidate_set_monotonicity():
    for seed in range(N_INSTANCES):
        graph, store, profiles, trustor, target, params, tasks = random_instance(seed)
        sets = {}
        for method in ("traditional", "conservative", "aggressive"):
            disc = discover(graph, store, profiles, trustor, target, params, tasks, method)
            sets[method] = {c.node for c in disc.candidates}
        assert sets["traditional"] <= sets["conservative"], f"seed {seed}"
        assert sets["conservative"] <= sets["aggressive"], f"seed {seed}"


def test_interrogation_ordering():
    for seed in range(0, N_INSTANCES, 2):
        graph, store, profiles, trustor, target, params, tasks = random_instance(seed)
        counts = {}
        for method in ("traditional", "conservative", "aggressive"):
            disc = discover(graph, store, profiles, trustor, target, params, tasks, method)
            counts[method] = disc.nodes_interrogated
            assert {c.node for c in disc.candidates} <= set(disc.interrogated), f"seed {seed}"
        assert counts["traditional"] <= counts["conservative"] <= counts["aggressive"], f"seed {seed}"


class TestConservativeOp:
    def test_degenerate_direct_path_equals_record(self):
        cand = chain_candidate([0.9], "conservative", 0.6, 0.6)
        assert cand.trust == eng.post_evaluate(tw_record(0.9))
        assert cand.best_path == (0, 1)

    def test_missing_coverage_blocks(self):
        target = make_task(0, [(0, 0.5), (1, 0.5)])
        tasks = {0: target, 1: make_task(1, [(0, 1.0)])}
        params = eng.TransitivityParams(0.0, 0.0, 3, "conservative")
        edges = [(0, 1), (1, 2)]
        # the recommendation hop vouches for characteristic 0 only
        partial = {(0, 1, 1, RECOMMENDATION): 0.9, (1, 2, 0, SERVICE): 0.9}
        assert 2 not in discover_on(3, edges, partial, target, tasks, params)
        full = {(0, 1, 0, RECOMMENDATION): 0.9, (1, 2, 0, SERVICE): 0.9}
        assert 2 in discover_on(3, edges, full, target, tasks, params)

    def test_two_hop_chain_value(self):
        cand = chain_candidate([0.9, 0.8], "conservative", 0.6, 0.6)
        assert abs(cand.trust - 0.74) < 1e-12
        assert cand.best_path == (0, 1, 2)

    def test_max_hops_enforced(self):
        assert chain_candidate([0.9, 0.8], "conservative", max_hops=1) is None
        assert chain_candidate([0.9, 0.8], "conservative", max_hops=2) is not None

    def test_short_path_rejected(self):
        # a path back to the trustor itself never yields a candidate
        target = make_task(0, [(0, 1.0)])
        records = {(0, 1, 0, RECOMMENDATION): 0.9, (1, 0, 0, SERVICE): 0.9,
                   (0, 1, 0, SERVICE): 0.9}
        params = eng.TransitivityParams(0.0, 0.0, 3, "conservative")
        assert set(discover_on(2, [(0, 1)], records, target, {0: target}, params)) == {1}


class TestAggressiveOp:
    EDGES = [(0, 1), (1, 4), (0, 2), (2, 4)]

    def split_world(self):
        """Fig style: two characteristics vouched along two disjoint paths."""
        target = make_task(0, [(0, 0.5), (1, 0.5)])
        tasks = {0: target, 1: make_task(1, [(0, 1.0)]), 2: make_task(2, [(1, 1.0)])}
        # path 0-1-4 vouches characteristic 0; path 0-2-4 vouches characteristic 1
        records = {
            (0, 1, 1, RECOMMENDATION): 0.9, (1, 4, 1, SERVICE): 0.8,
            (0, 2, 2, RECOMMENDATION): 0.9, (2, 4, 2, SERVICE): 0.8,
        }
        return records, target, tasks

    def discover(self, records, target, tasks):
        params = eng.TransitivityParams(0.6, 0.6, 3, "aggressive")
        return discover_on(5, self.EDGES, records, target, tasks, params)

    def test_symmetric_split(self):
        cand = self.discover(*self.split_world())[4]
        assert abs(cand.trust - 0.74) < 1e-12
        assert cand.char_paths == {0: (0, 1, 4), 1: (0, 2, 4)}

    def test_missing_characteristic_blocks(self):
        records, target, tasks = self.split_world()
        del records[(2, 4, 2, SERVICE)]
        assert 4 not in self.discover(records, target, tasks)

    def test_path_not_carrying_characteristic_blocks(self):
        # path 0-1-4 covers characteristic 0, then characteristic 1: it carries neither
        records, target, tasks = self.split_world()
        del records[(1, 4, 1, SERVICE)]
        records[(1, 4, 2, SERVICE)] = 0.8
        assert 4 not in self.discover(records, target, tasks)

    def test_single_characteristic_equals_conservative(self):
        for seed in range(40):
            graph, store, profiles, trustor, _, params, tasks = random_instance(seed)
            singles = [t for t in tasks.values() if len(t.parts) == 1]
            target = singles[seed % len(singles)]
            cons = discover(graph, store, profiles, trustor, target, params, tasks, "conservative")
            aggr = discover(graph, store, profiles, trustor, target, params, tasks, "aggressive")
            assert {c.node: c.trust for c in cons.candidates} == \
                   {c.node: c.trust for c in aggr.candidates}
