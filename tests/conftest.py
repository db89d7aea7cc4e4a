from importlib import resources

import pytest

from siotrust.delegation import DelegationRequest, PathEvaluator, find_potential_trustees
from siotrust.domain import (
    RECOMMENDATION,
    SERVICE,
    AgentProfile,
    TrustRecord,
    TrustStore,
    make_task,
)
from siotrust.graph import SocialGraph, load_edge_list
from siotrust.trust_engine import TransitivityParams


def make_graph(n: int, edges) -> SocialGraph:
    """Graph over nodes 0..n-1 with the given edges; isolated nodes kept."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            continue
        adj[u].add(v)
        adj[v].add(u)
    return SocialGraph(
        adjacency=tuple(tuple(sorted(s)) for s in adj),
        original_ids=tuple(range(n)),
    )


def tw_record(tw: float) -> TrustRecord:
    """A record whose post-evaluated trust is `tw` (gain 1, damage 1, cost 0)."""
    return TrustRecord((3.0 * tw - 1.0) / 2.0, 1.0, 1.0, 0.0, 1)


def discover_on(n: int, edges, records, target, tasks, params: TransitivityParams) -> dict:
    """Node 0's discovered candidates, by node, on a tiny graph.

    `records` maps (observer, subject, task id, kind) to a trust value.
    Every node is trustee-capable, node 0 included.
    """
    store = TrustStore()
    for (observer, subject, task_id, kind), tw in records.items():
        store.put(observer, subject, task_id, kind, tw_record(tw))
    profiles = {v: AgentProfile(node=v, is_trustee=True) for v in range(n)}
    request = DelegationRequest(trustor=0, task=target, transitivity=params)
    evaluator = PathEvaluator(make_graph(n, edges), profiles, store, tasks)
    disc = find_potential_trustees(evaluator, request)
    return {c.node: c for c in disc.candidates}


def chain_candidate(tws, method: str, omega1=0.0, omega2=0.0, max_hops=None):
    """Node 0's candidate at the end of the path 0-1-...-k, or None when blocked.

    Hop i holds trust tws[i] on the target task itself: recommendation
    records on every hop but the last, a service record on the last.
    """
    k = len(tws)
    target = make_task(0, [(0, 0.5), (1, 0.5)])
    records = {
        (i, i + 1, 0, RECOMMENDATION if i < k - 1 else SERVICE): tw
        for i, tw in enumerate(tws)
    }
    params = TransitivityParams(omega1, omega2, max_hops or k, method)
    edges = [(i, i + 1) for i in range(k)]
    return discover_on(k + 1, edges, records, target, {0: target}, params).get(k)


def data_text(name: str) -> str:
    return resources.files("siotrust.data").joinpath(name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def fb_graph() -> SocialGraph:
    return load_edge_list(data_text("facebook_like.edges"))


@pytest.fixture(scope="session")
def syn50_graph() -> SocialGraph:
    return load_edge_list(data_text("synthetic_50.edges"))


@pytest.fixture()
def triangle() -> SocialGraph:
    return load_edge_list("0 1\n1 2\n2 0\n")


@pytest.fixture()
def path3() -> SocialGraph:
    return load_edge_list("0 1\n1 2\n")
