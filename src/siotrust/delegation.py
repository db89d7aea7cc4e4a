"""End-to-end delegation over the social graph.

Candidate discovery walks the graph outward from the trustor: a request is
relayed only along edges where the sender holds relevant recommendation
records about the receiver, and a node counts as interrogated once it
receives the request (relay targets plus trustees examined through service
records). Gates never suppress interrogation, only candidacy, so search
overhead reflects communication rather than trust.

Discovery, mutual evaluation with retry, outcome sampling against hidden
ground truth, and the post-evaluation updates are all deterministic given
the rng state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from . import trust_engine as eng
from .domain import (
    RECOMMENDATION,
    SERVICE,
    AgentProfile,
    DelegationOutcome,
    Environment,
    Task,
    TrustRecord,
    TrustStore,
    UsageLog,
    initial_record,
)
from .graph import SocialGraph


@dataclass(frozen=True)
class DelegationRequest:
    """One trustor's wish to delegate one task."""

    trustor: int
    task: Task
    strategy: str = eng.SUCCESS_ONLY
    transitivity: eng.TransitivityParams = eng.TransitivityParams()
    update: eng.UpdateParams = eng.UpdateParams()
    env_corrected: bool = False
    allow_self: bool = False
    initial_estimates: tuple[float, float, float, float] = (0.5, 0.5, 0.5, 0.5)


@dataclass(frozen=True)
class Candidate:
    """A non-blocked potential trustee with its inferred trust and paths."""

    node: int
    trust: float
    best_path: tuple[int, ...]
    char_paths: Optional[dict[int, tuple[int, ...]]] = None
    record: Optional[TrustRecord] = None


@dataclass(frozen=True)
class DiscoveryResult:
    candidates: tuple[Candidate, ...]
    interrogated: frozenset[int]

    @property
    def nodes_interrogated(self) -> int:
        return len(self.interrogated)


@dataclass
class DelegationTrace:
    """What happened during one delegation, serializable for the trace log."""

    trustor: int
    task_id: int
    ranked_candidates: list[tuple[int, float]]
    rejections: list[tuple[int, float]]
    chosen: Optional[int]
    outcome: Optional[DelegationOutcome]
    nodes_interrogated: int
    char_paths: Optional[dict[int, tuple[int, ...]]] = None
    self_executed: bool = False

    def to_dict(self) -> dict:
        out = {
            "trustor": self.trustor,
            "task": self.task_id,
            "ranked": [[n, round(t, 9)] for n, t in self.ranked_candidates],
            "rejections": [[n, round(t, 9)] for n, t in self.rejections],
            "chosen": self.chosen if self.chosen is not None else "unavailable",
            "interrogated": self.nodes_interrogated,
            "self_executed": self.self_executed,
        }
        if self.outcome is not None:
            out["outcome"] = {
                "success": self.outcome.success,
                "gain": self.outcome.gain,
                "damage": self.outcome.damage,
                "cost": self.outcome.cost,
                "abusive": self.outcome.abusive,
                "env": list(self.outcome.env_snapshot),
            }
        if self.char_paths:
            out["paths"] = {str(c): list(p) for c, p in sorted(self.char_paths.items())}
        return out


class PathEvaluator:
    """Memoized discovery evidence and hop evaluations against one store.

    Neighbour index: for each node, built lazily from `pair_info` at most
    once, the node's neighbours in `graph.neighbors` order with the
    task-independent evidence the node holds about them, as two lists of
    (neighbour, exact task ids, covered-characteristic mask): one of
    recommendation evidence, one of service evidence about trustee-capable
    neighbours only. Neighbours without records are left out, since an
    empty mask passes no method's test.

    Row cache: `evidence_row` filters a node's index per (method, task)
    with one test per neighbour and caches the resulting row.

    Hop cache: `pair_info`, `full_tw` and `subset_tw` memoize per
    (observer, subject, kind), trust values per task on top.

    Invalidation contract: profiles must stay fixed for the evaluator's
    lifetime. The store may change as long as every written (observer,
    subject) pair is passed to `invalidate`, as run_delegation does. A
    value-only write (an existing record updated) drops that pair's hop
    cache and keeps the index and rows, whose ids and masks it cannot
    change; a structural write (a record created) also drops the
    observer's index entry and all of its rows.
    """

    def __init__(self, store: TrustStore, tasks: Mapping[int, Task]):
        self.store = store
        self.tasks = tasks
        self._pair: dict = {}
        self._full: dict = {}
        self._subset: dict = {}
        self._neighbours: dict = {}
        self._evidence: dict = {}

    def invalidate(self, observer: int, subject: int, structural: bool = False) -> None:
        """Drop cached hop data after the observer's records about subject changed.

        `structural` marks a newly created record, which also drops the
        observer's neighbour index entry and evidence rows.
        """
        for kind in (SERVICE, RECOMMENDATION):
            key = (observer, subject, kind)
            self._pair.pop(key, None)
            self._full.pop(key, None)
            self._subset.pop(key, None)
        if structural:
            self._neighbours.pop(observer, None)
            for rows in self._evidence.values():
                rows.pop(observer, None)

    def pair_info(self, observer: int, subject: int, kind: str):
        """(exact task ids, covered-characteristic mask, (task, tw) history)."""
        key = (observer, subject, kind)
        hit = self._pair.get(key)
        if hit is None:
            ids = set()
            mask = 0
            history = []
            for task_id, rec in self.store.task_records(observer, subject, kind):
                task = self.tasks.get(task_id)
                if task is None:
                    continue
                ids.add(task_id)
                mask |= task.mask
                history.append((task, eng.post_evaluate(rec)))
            hit = (frozenset(ids), mask, tuple(history))
            self._pair[key] = hit
        return hit

    def exact_tw(self, observer: int, subject: int, kind: str, task: Task) -> Optional[float]:
        rec = self.store.get(observer, subject, ("task", task.id), kind)
        return None if rec is None else eng.post_evaluate(rec)

    def full_tw(self, observer: int, subject: int, kind: str, task: Task) -> Optional[float]:
        bucket = self._full.setdefault((observer, subject, kind), {})
        if task.id in bucket:
            return bucket[task.id]
        rec = self.store.get(observer, subject, ("task", task.id), kind)
        if rec is not None:
            value = eng.post_evaluate(rec)
        else:
            history = self.pair_info(observer, subject, kind)[2]
            value = eng.infer_task_tw(history, task) if history else None
        bucket[task.id] = value
        return value

    def subset_tw(self, observer: int, subject: int, kind: str, task: Task) -> tuple[int, Optional[float]]:
        """Covered-mask and trust over the hop's covered part of the task."""
        bucket = self._subset.setdefault((observer, subject, kind), {})
        hit = bucket.get(task.id)
        if hit is None:
            _, pair_mask, history = self.pair_info(observer, subject, kind)
            covered = pair_mask & task.mask
            if covered == 0:
                hit = (0, None)
            elif covered == task.mask:
                hit = (covered, self.full_tw(observer, subject, kind, task))
            else:
                parts = [(c, w) for c, w in task.parts if (1 << c) & covered]
                hit = (covered, eng.infer_subset_tw(history, parts) if history else None)
            bucket[task.id] = hit
        return hit

    def _neighbour_index(self, graph, profiles, node: int):
        """(recommendation evidence, service evidence) lists of `node`'s neighbours."""
        hit = self._neighbours.get(node)
        if hit is None:
            rec = []
            svc = []
            for nbr in graph.neighbors(node):
                rec_ids, rec_mask, _ = self.pair_info(node, nbr, RECOMMENDATION)
                if rec_mask:
                    rec.append((nbr, rec_ids, rec_mask))
                prof = profiles.get(nbr)
                if prof is not None and prof.is_trustee:
                    svc_ids, svc_mask, _ = self.pair_info(node, nbr, SERVICE)
                    if svc_mask:
                        svc.append((nbr, svc_ids, svc_mask))
            hit = (rec, svc)
            self._neighbours[node] = hit
        return hit

    def evidence_row(self, graph, profiles, method: str, task: Task, node: int):
        """Evidenced out-edges of `node`: (recommendation targets, service targets).

        Evidence is the method's ungated relevance test: the exact task id
        (traditional), every task characteristic (conservative) or any of
        them (aggressive). Gates are applied later, during path evaluation.
        """
        rows = self._evidence.setdefault((method, task.id), {})
        hit = rows.get(node)
        if hit is None:
            rec, svc = self._neighbour_index(graph, profiles, node)
            hit = (_evidenced(rec, method, task), _evidenced(svc, method, task))
            rows[node] = hit
        return hit


def _evidenced(entries, method: str, task: Task) -> tuple[int, ...]:
    """The neighbours in `entries` whose evidence passes the method's test."""
    if method == eng.TRADITIONAL:
        task_id = task.id
        return tuple(nbr for nbr, ids, _ in entries if task_id in ids)
    task_mask = task.mask
    if method == eng.CONSERVATIVE:
        return tuple(nbr for nbr, _, mask in entries if mask & task_mask == task_mask)
    return tuple(nbr for nbr, _, mask in entries if mask & task_mask)


def _prefer(new: tuple[float, tuple[int, ...]], cur: Optional[tuple[float, tuple[int, ...]]]) -> bool:
    """Best path: higher value, then fewer hops, then lexicographically smaller."""
    if cur is None:
        return True
    if new[0] != cur[0]:
        return new[0] > cur[0]
    if len(new[1]) != len(cur[1]):
        return len(new[1]) < len(cur[1])
    return new[1] < cur[1]


def find_potential_trustees(
    graph: SocialGraph,
    store: TrustStore,
    profiles: Mapping[int, AgentProfile],
    request: DelegationRequest,
    tasks: Mapping[int, Task],
    evaluator: Optional[PathEvaluator] = None,
) -> DiscoveryResult:
    """Discover non-blocked potential trustees within max_hops of the trustor.

    Relevance per method: traditional requires records on the exact task,
    conservative records covering all target characteristics, aggressive
    records covering any of them. Candidates are trustee-capable nodes whose
    method-specific transitivity value is not blocked.
    """
    params = request.transitivity
    method = params.method
    task = request.task
    trustor = request.trustor
    ev = evaluator or PathEvaluator(store, tasks)
    task_mask = task.mask

    def row(node: int):
        return ev.evidence_row(graph, profiles, method, task, node)

    # Interrogation sweep: ungated, breadth-first through evidenced relays.
    interrogated: set[int] = set()
    reached = {trustor}
    current = [trustor]
    depth = 0
    while current:
        nxt = []
        relay = depth + 1 <= params.max_hops - 1
        for o in current:
            rec_out, svc_out = row(o)
            interrogated.update(svc_out)
            if relay:
                for s in rec_out:
                    if s != trustor and s not in reached:
                        interrogated.add(s)
                        reached.add(s)
                        nxt.append(s)
        current = nxt
        depth += 1
    interrogated.discard(trustor)

    # Candidate search: depth-first over gated recommendation hops.
    def rec_hop(o: int, s: int) -> Optional[tuple[int, float]]:
        if method == eng.TRADITIONAL:
            tw = ev.exact_tw(o, s, RECOMMENDATION, task)
            covered = task_mask
        elif method == eng.CONSERVATIVE:
            tw = ev.full_tw(o, s, RECOMMENDATION, task)
            covered = task_mask
        else:
            covered, tw = ev.subset_tw(o, s, RECOMMENDATION, task)
        if tw is None or tw < params.omega1:
            return None
        return covered, tw

    def svc_hop(o: int, t: int) -> Optional[tuple[int, float]]:
        if method == eng.TRADITIONAL:
            tw = ev.exact_tw(o, t, SERVICE, task)
            covered = task_mask
        elif method == eng.CONSERVATIVE:
            tw = ev.full_tw(o, t, SERVICE, task)
            covered = task_mask
        else:
            covered, tw = ev.subset_tw(o, t, SERVICE, task)
        if tw is None or tw < params.omega2:
            return None
        return covered, tw

    best_single: dict[int, tuple[float, tuple[int, ...]]] = {}
    best_by_char: dict[int, dict[int, tuple[float, tuple[int, ...]]]] = {}
    char_bits = [(char_id, 1 << char_id) for char_id in task.char_ids]

    def walk(path: tuple[int, ...], prefix: Optional[float], carried: int):
        o = path[-1]
        rec_out, svc_out = row(o)
        for t in svc_out:
            if t == trustor or t in path:
                continue
            hop = svc_hop(o, t)
            if hop is None:
                continue
            covered, tw = hop
            final_carried = carried & covered
            if not final_carried:
                continue
            if prefix is None:
                value = tw
            elif method == eng.TRADITIONAL:
                value = prefix * tw
            else:
                value = eng.transit_pair(prefix, tw)
            entry = (value, path + (t,))
            if method == eng.AGGRESSIVE:
                per_char = best_by_char.setdefault(t, {})
                for char_id, bit in char_bits:
                    if bit & final_carried and _prefer(entry, per_char.get(char_id)):
                        per_char[char_id] = entry
            else:
                if _prefer(entry, best_single.get(t)):
                    best_single[t] = entry
        if len(path) > params.max_hops - 1:
            return
        for s in rec_out:
            if s == trustor or s in path:
                continue
            hop = rec_hop(o, s)
            if hop is None:
                continue
            covered, tw = hop
            next_carried = carried & covered
            if not next_carried:
                continue
            next_prefix = tw if prefix is None else (
                prefix * tw if method == eng.TRADITIONAL else eng.transit_pair(prefix, tw)
            )
            walk(path + (s,), next_prefix, next_carried)

    walk((trustor,), None, task_mask)
    # walk's closure holds walk itself; clearing it frees that cycle, and the
    # evaluator it reaches, by reference counting rather than the collector
    del walk

    candidates = []
    if method == eng.AGGRESSIVE:
        for t in sorted(best_by_char):
            per_char = best_by_char[t]
            if len(per_char) != len(task.parts):
                continue
            char_paths = {c: per_char[c][1] for c in sorted(per_char)}
            value = 0.0
            for char_id, weight in task.parts:
                value += weight * per_char[char_id][0]
            shortest = min(char_paths.values(), key=lambda p: (len(p), p))
            candidates.append(Candidate(
                node=t,
                trust=value,
                best_path=shortest,
                char_paths=char_paths,
                record=store.get(trustor, t, ("task", task.id), SERVICE),
            ))
    else:
        for t in sorted(best_single):
            value, path = best_single[t]
            candidates.append(Candidate(
                node=t,
                trust=value,
                best_path=path,
                record=store.get(trustor, t, ("task", task.id), SERVICE),
            ))
    return DiscoveryResult(candidates=tuple(candidates), interrogated=frozenset(interrogated))


def sample_outcome(
    trustor: AgentProfile,
    trustee: AgentProfile,
    task: Task,
    env: Environment,
    intermediates: Sequence[int],
    rng,
) -> DelegationOutcome:
    """Realize one delegation against hidden ground truth.

    Success is Bernoulli in the trustee's competence scaled by the worst
    environment in the outcome's snapshot (trustor, trustee, then the
    intermediates); an abusive use is Bernoulli in (1 - trustor integrity).
    Dishonest trustees inflate the realized cost by their scripted
    multiplier. Draw order is fixed: success first, then abuse.
    """
    snapshot = (env.at(trustor.node), env.at(trustee.node), *(env.at(i) for i in intermediates))
    success = rng.random() < trustee.task_competence(task) * min(snapshot)
    abusive = rng.random() >= trustor.integrity
    cost = trustee.cost if trustee.honest else min(1.0, trustee.cost * trustee.cost_multiplier)
    return DelegationOutcome(
        success=success,
        gain=trustee.gain if success else 0.0,
        damage=0.0 if success else trustee.damage,
        cost=cost,
        abusive=abusive,
        env_snapshot=snapshot,
    )


def _rank(candidates: Sequence[Candidate], strategy: str) -> list[Candidate]:
    if strategy == eng.FULL_PROFIT:
        def key(c: Candidate):
            score = eng.net_profit(c.record) if c.record is not None else c.trust
            return (-score, c.node)
    else:
        def key(c: Candidate):
            return (-c.trust, c.node)
    return sorted(candidates, key=key)


def _path_interiors(candidate: Candidate) -> list[int]:
    paths = candidate.char_paths.values() if candidate.char_paths else [candidate.best_path]
    interior = set()
    for path in paths:
        interior.update(path[1:-1])
    return sorted(interior)


def run_delegation(
    graph: SocialGraph,
    profiles: Mapping[int, AgentProfile],
    store: TrustStore,
    usage_log: UsageLog,
    env: Environment,
    request: DelegationRequest,
    rng,
    tasks: Mapping[int, Task],
    discovery: Optional[DiscoveryResult] = None,
    evaluator: Optional[PathEvaluator] = None,
) -> DelegationTrace:
    """Run the full mutual-evaluation protocol for one request.

    Walks the ranked candidates, applying the trustee-side reverse
    evaluation at each; the first acceptor executes the task. Both sides
    then update: the trustor's service record about the trustee (and
    recommendation records along the used paths), the trustee's usage log
    with the responsive/abusive draw. A caller-owned evaluator is kept
    coherent by invalidating every record pair this delegation writes.
    """
    task = request.task
    disc = discovery if discovery is not None else find_potential_trustees(
        graph, store, profiles, request, tasks, evaluator)
    ranked = _rank(disc.candidates, request.strategy)
    trace = DelegationTrace(
        trustor=request.trustor,
        task_id=task.id,
        ranked_candidates=[(c.node, c.trust) for c in ranked],
        rejections=[],
        chosen=None,
        outcome=None,
        nodes_interrogated=disc.nodes_interrogated,
    )

    if request.allow_self:
        self_key = (request.trustor, request.trustor, ("task", task.id), SERVICE)
        self_record = store.get(*self_key)
        if self_record is not None:
            best_other = ranked[0].record if ranked else None
            if eng.should_self_execute(self_record, best_other):
                profile = profiles[request.trustor]
                outcome = sample_outcome(profile, profile, task, env, (), rng)
                store.put(*self_key, eng.update_estimates(self_record, outcome, request.update))
                if evaluator is not None:
                    evaluator.invalidate(request.trustor, request.trustor, structural=False)
                trace.chosen = request.trustor
                trace.outcome = outcome
                trace.self_executed = True
                return trace

    chosen: Optional[Candidate] = None
    for candidate in ranked:
        accepted, rev = eng.reverse_evaluate(profiles[candidate.node], request.trustor, usage_log, task)
        if accepted:
            chosen = candidate
            break
        trace.rejections.append((candidate.node, rev))
    if chosen is None:
        return trace

    trustor_profile = profiles[request.trustor]
    trustee_profile = profiles[chosen.node]
    intermediates = _path_interiors(chosen)
    outcome = sample_outcome(trustor_profile, trustee_profile, task, env, intermediates, rng)
    usage_log.record(chosen.node, request.trustor, responsive=not outcome.abusive)

    update = eng.update_estimates_env if request.env_corrected else eng.update_estimates
    svc_key = (request.trustor, chosen.node, ("task", task.id), SERVICE)
    svc_record = store.get(*svc_key)
    created = svc_record is None
    svc_record = svc_record or initial_record(request.initial_estimates, SERVICE)
    store.put(*svc_key, update(svc_record, outcome, request.update))
    if evaluator is not None:
        evaluator.invalidate(request.trustor, chosen.node, structural=created)

    rec_pairs = set()
    paths = chosen.char_paths.values() if chosen.char_paths else [chosen.best_path]
    for path in paths:
        for i in range(len(path) - 2):
            rec_pairs.add((path[i], path[i + 1]))
    for observer, subject in sorted(rec_pairs):
        key = (observer, subject, ("task", task.id), RECOMMENDATION)
        rec_record = store.get(*key)
        created = rec_record is None
        rec_record = rec_record or initial_record(request.initial_estimates, RECOMMENDATION)
        store.put(*key, update(rec_record, outcome, request.update))
        if evaluator is not None:
            evaluator.invalidate(observer, subject, structural=created)

    trace.chosen = chosen.node
    trace.outcome = outcome
    trace.char_paths = chosen.char_paths
    return trace
