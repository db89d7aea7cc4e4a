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

from operator import itemgetter
from typing import Mapping, NamedTuple, Optional, Sequence

from . import trust_engine as eng
from .domain import (
    RECOMMENDATION,
    SERVICE,
    AgentProfile,
    DelegationOutcome,
    Task,
    TrustRecord,
    TrustStore,
    UsageLog,
    initial_record,
)
from .graph import SocialGraph


class DelegationRequest(NamedTuple):
    """One trustor's wish to delegate one task."""

    trustor: int
    task: Task
    transitivity: eng.TransitivityParams = eng.TransitivityParams()
    beta: float = 0.1  # the forgetting factor of the record updates
    initial_estimates: tuple[float, float, float, float] = (0.5, 0.5, 0.5, 0.5)


class Candidate(NamedTuple):
    """A non-blocked potential trustee with its inferred trust and paths.

    Exactly one of `best_path` and `char_paths` is set: the aggressive
    method carries one path per task characteristic, the others one path.
    """

    node: int
    trust: float
    best_path: Optional[tuple[int, ...]]
    char_paths: Optional[dict[int, tuple[int, ...]]] = None


# `Candidate.trust` as a C-level sort key, and (node, trust) as the trace's pair
_TRUST = itemgetter(1)
_NODE_TRUST = itemgetter(0, 1)
_new_tuple = tuple.__new__


class DiscoveryResult(NamedTuple):
    """The candidates in decision order, and the nodes the sweep interrogated."""

    candidates: tuple[Candidate, ...]
    interrogated: frozenset[int]

    @property
    def nodes_interrogated(self) -> int:
        return len(self.interrogated)


class PairText(dict):
    """Memo of the `[node,value]` JSON text of a ranked or rejection pair.

    It is keyed by a (node, trust) tuple, and the value is `round(t, 9)` as
    `to_dict` writes it. The trust values are in [0, 1] and never -0.0, so
    equal keys give equal text. It is a pure cache: the mutuality unit
    creates one, passes it to each `to_line` and drops it when it ends, so
    it is never cleared and no run shares another's.
    """

    def __missing__(self, pair: tuple[int, float]) -> str:
        text = self[pair] = f"[{pair[0]},{round(pair[1], 9)!r}]"
        return text


_JSON_BOOL = {True: "true", False: "false"}


class DelegationTrace(NamedTuple):
    """What happened during one delegation, serializable for the trace log.

    `ranked_candidates` holds discovery's `Candidate`s in decision order
    and `rejections` the (node, reverse trust) pairs; the log reads the
    node and trust of each entry as its first two fields.
    """

    trustor: int
    task_id: int
    ranked_candidates: tuple[Candidate, ...]
    rejections: list[tuple[int, float]]
    chosen: Optional[int]
    outcome: Optional[DelegationOutcome]
    nodes_interrogated: int

    def to_dict(self) -> dict:
        """The trace's reference shape: the record that `to_line` writes as JSON."""
        out = {
            "trustor": self.trustor,
            "task": self.task_id,
            "ranked": [[c[0], round(c[1], 9)] for c in self.ranked_candidates],
            "rejections": [[n, round(t, 9)] for n, t in self.rejections],
            "chosen": self.chosen if self.chosen is not None else "unavailable",
            "interrogated": self.nodes_interrogated,
            # the trace format keeps the key; the protocol never self-executes
            "self_executed": False,
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
        return out

    def to_line(self, text: PairText) -> str:
        """The trace log's NDJSON line: `to_dict` as canonical JSON, written in one pass.

        Keys are sorted and there are no spaces. The floats are finite, since
        records and outcomes are validated to [0, 1], and for a finite float
        `repr` is what `json` writes. Each ranked candidate and rejection
        takes its text from the `text` memo, keyed by its (node, trust)
        pair; the outcome floats are not rounded and are written with a plain
        `repr`, never memoized, so that `-0.0` keeps its sign.
        """
        ranked = ",".join(map(text.__getitem__, map(_NODE_TRUST, self.ranked_candidates)))
        rejections = ",".join(map(text.__getitem__, self.rejections))
        chosen = '"unavailable"' if self.chosen is None else self.chosen
        outcome = ""
        if self.outcome is not None:
            success, gain, damage, cost, abusive, env = self.outcome
            outcome = (f'"outcome":{{"abusive":{_JSON_BOOL[abusive]},"cost":{cost!r},'
                       f'"damage":{damage!r},"env":[{",".join(map(repr, env))}],'
                       f'"gain":{gain!r},"success":{_JSON_BOOL[success]}}},')
        return (f'{{"chosen":{chosen},"interrogated":{self.nodes_interrogated},{outcome}'
                f'"ranked":[{ranked}],"rejections":[{rejections}],"self_executed":false,'
                f'"task":{self.task_id},"trustor":{self.trustor}}}')


class PathEvaluator:
    """The world one unit's discovery reads, with its memoized evidence and hops.

    The evaluator holds the graph, the agent profiles, the trust store and
    the task vocabulary; discovery and the protocol read them only through
    it.

    Pair info: `pair_info` reads a pair's records once and keeps, per
    (observer, subject, kind), the post-evaluated trust of each exact task
    id, the covered-characteristic mask and the (task, tw) history. Every
    record's task id is in the task map: each unit builds its store and its
    task map together.

    Neighbour index: per (node, record kind), built from `pair_info` at
    most once and only when a walk first asks, the node's neighbours in
    `graph.neighbors` order as (neighbour, `pair_info`'s exact-task dict,
    covered-characteristic mask). Neighbours without records are left out,
    since an empty mask passes no method's test; the service list skips
    non-trustees before calling `pair_info`. The index reads only the exact
    dict's keys, which a value-only write cannot change, and shares the
    dict itself, so a patched value shows in the index too.

    Row cache: `evidence_rows(method, task, kind)` maps a node to its
    evidenced neighbours; `evidence_row` builds a missing entry by
    filtering the index with one test per neighbour. A walk fetches the map
    once and reads it in place. A one-hop walk never builds a
    recommendation row.

    Hops: `hop_tw` maps (observer, subject, kind, task) to
    (covered-characteristic mask, trust or None). The memo holds one row
    per (observer, kind, task id), a dict from subject to that pair, in
    `_hops[(observer, kind)][task id]`. A walk reads the row of each node
    it pops in place; on a miss it computes the hop through `_new_hop`, as
    `hop_tw` does. The exact-task trust comes from `pair_info`, so a hop
    never reads the store itself. A partly covered hop infers over the
    task's covered parts, which `_covered_parts` keeps per (task id,
    covered mask), built once per unit. A hop's trust does not depend on
    the method; the method picks only which neighbours count as evidence
    (`evidence_row`) and how a chain folds (`_best_paths`).

    Invalidation contract: hops, index entries and evidence rows are all
    built through `pair_info`, so a pair the evaluator has not read has
    nothing cached, and a write to it, such as the inference unit's, needs
    no call. Every record written to a read pair is passed to `invalidate`
    with its key, as run_delegation does. A task id the cached pair holds
    is a value-only write: `invalidate` patches the value into the pair
    info and its history, sets the written task's hop to subject, and
    drops the hops to subject for the observer's other tasks of that kind,
    which may have been inferred from the old value. A new task id drops
    the pair info, the observer's hops to subject, its neighbour index
    entry and its evidence rows, of the written kind only. Tasks never
    change, so `invalidate` leaves the covered parts alone.
    """

    def __init__(
        self,
        graph: SocialGraph,
        profiles: Mapping[int, AgentProfile],
        store: TrustStore,
        tasks: Mapping[int, Task],
    ):
        self.graph = graph
        self.profiles = profiles
        self.store = store
        self.tasks = tasks
        self._pair: dict = {}
        self._hops: dict = {}
        self._neighbours: dict = {}
        self._evidence: dict = {}
        self._covered_parts: dict = {}

    def invalidate(self, observer: int, subject: int, kind: str, task_id: int,
                   record: TrustRecord) -> None:
        """Bring the memos up to date after `record` was written for the key given."""
        key = (observer, subject, kind)
        info = self._pair.get(key)
        if info is None:
            return
        exact = info[0]
        hops = self._hops.get((observer, kind), {})
        if task_id not in exact:
            del self._pair[key]
            for row in hops.values():
                row.pop(subject, None)
            self._neighbours.pop((observer, kind), None)
            for (_, _, k), rows in self._evidence.items():
                if k == kind:
                    rows.pop(observer, None)
            return
        tasks = self.tasks
        # the index shares `exact`, so it is patched in place; the history
        # follows its task-id order
        tw = exact[task_id] = eng.post_evaluate(record)
        self._pair[key] = (exact, info[1], tuple([(tasks[t], w) for t, w in exact.items()]))
        for t, row in hops.items():
            if t == task_id:
                row[subject] = (tasks[t].mask, tw)
            else:
                row.pop(subject, None)

    def pair_info(self, observer: int, subject: int, kind: str):
        """({exact task id: post-evaluated tw}, covered-characteristic mask, (task, tw) history)."""
        key = (observer, subject, kind)
        hit = self._pair.get(key)
        if hit is None:
            exact = {}
            mask = 0
            history = []
            for task_id, rec in self.store.task_records(observer, subject, kind):
                task = self.tasks[task_id]
                tw = exact[task_id] = eng.post_evaluate(rec)
                mask |= task.mask
                history.append((task, tw))
            hit = (exact, mask, tuple(history))
            self._pair[key] = hit
        return hit

    def hop_row(self, observer: int, kind: str, task_id: int) -> dict:
        """The memo row of `observer`'s hops of one kind for one task: subject -> `hop_tw`."""
        by_task = self._hops.get((observer, kind))
        if by_task is None:
            by_task = self._hops[observer, kind] = {}
        row = by_task.get(task_id)
        if row is None:
            row = by_task[task_id] = {}
        return row

    def hop_tw(self, observer: int, subject: int, kind: str, task: Task) -> tuple[int, Optional[float]]:
        """(covered-characteristic mask, trust or None) of one hop for `task`.

        The exact-task record wins. Otherwise trust is inferred over the
        characteristics the pair's records cover: none gives (0, None), all
        of them `infer_task_tw`, some of them `infer_subset_tw` over those
        parts. A covered hop's trust is therefore always a float, as both
        see every covered characteristic in the history. Memoized until
        `invalidate`. A task id outside the task map raises ValueError,
        since `pair_info` would not see its records.
        """
        row = self.hop_row(observer, kind, task.id)
        hit = row.get(subject)
        return hit if hit is not None else self._new_hop(row, observer, subject, kind, task)

    def _new_hop(self, row: dict, observer: int, subject: int, kind: str,
                 task: Task) -> tuple[int, Optional[float]]:
        """`hop_tw`'s value on a memo miss, stored in the observer's `row`."""
        task_id = task.id
        if task_id not in self.tasks:
            raise ValueError(f"task {task_id} is not in the evaluator's task map")
        exact, pair_mask, history = self.pair_info(observer, subject, kind)
        tw = exact.get(task_id)
        task_mask = task.mask
        if tw is not None:
            hit = (task_mask, tw)
        else:
            covered = pair_mask & task_mask
            if covered == 0:
                hit = (0, None)
            elif covered == task_mask:
                hit = (covered, eng.infer_task_tw(history, task))
            else:
                parts = self._covered_parts.get((task_id, covered))
                if parts is None:
                    parts = self._covered_parts[task_id, covered] = tuple(
                        [(c, w) for c, w in task.parts if (1 << c) & covered])
                hit = (covered, eng.infer_subset_tw(history, parts))
        row[subject] = hit
        return hit

    def _neighbour_index(self, node: int, kind: str):
        """(neighbour, exact-task dict, mask) of `node`'s evidenced neighbours of one kind."""
        hit = self._neighbours.get((node, kind))
        if hit is None:
            nbrs = self.graph.neighbors(node)
            if kind == SERVICE:
                nbrs = [n for n in nbrs if n in self.profiles and self.profiles[n].is_trustee]
            hit = []
            for nbr in nbrs:
                exact, mask, _ = self.pair_info(node, nbr, kind)
                if mask:
                    hit.append((nbr, exact, mask))
            self._neighbours[node, kind] = hit
        return hit

    def evidence_rows(self, method: str, task: Task, kind: str) -> dict:
        """The row cache of one (method, task, kind): node -> `evidence_row`, as built so far."""
        rows = self._evidence.get((method, task.id, kind))
        if rows is None:
            rows = self._evidence[method, task.id, kind] = {}
        return rows

    def evidence_row(self, method: str, task: Task, kind: str, node: int) -> tuple[int, ...]:
        """Evidenced out-edges of `node` of one kind: relay targets or trustees.

        Evidence is the method's ungated relevance test: the exact task id
        (traditional), every task characteristic (conservative) or any of
        them (aggressive). Gates are applied later, during path evaluation.
        """
        rows = self.evidence_rows(method, task, kind)
        hit = rows.get(node)
        if hit is None:
            hit = rows[node] = _evidenced(self._neighbour_index(node, kind), method, task)
        return hit


def _evidenced(entries, method: str, task: Task) -> tuple[int, ...]:
    """The neighbours in `entries` whose evidence passes the method's test."""
    if method == eng.TRADITIONAL:
        task_id = task.id
        return tuple([nbr for nbr, exact, _ in entries if task_id in exact])
    task_mask = task.mask
    if method == eng.CONSERVATIVE:
        return tuple([nbr for nbr, _, mask in entries if mask & task_mask == task_mask])
    return tuple([nbr for nbr, _, mask in entries if mask & task_mask])


def _prefer(new: tuple, cur: tuple) -> bool:
    """Whether walk entry `new` beats `cur`, both `Candidate`-shaped.

    Best path: higher value, then fewer hops, then lexicographically smaller.
    """
    if new[1] != cur[1]:
        return new[1] > cur[1]
    if len(new[2]) != len(cur[2]):
        return len(new[2]) < len(cur[2])
    return new[2] < cur[2]


def _interrogate(evaluator: PathEvaluator, trustor: int, task: Task,
                 params: eng.TransitivityParams, svc_rows: dict, rec_rows: dict) -> frozenset[int]:
    """The ungated sweep: breadth-first through evidenced relays, trustor excluded.

    `svc_rows` and `rec_rows` are the evaluator's `evidence_rows` of the
    method and task, service and recommendation.
    """
    method, max_hops = params.method, params.max_hops
    build_row = evaluator.evidence_row
    interrogated: set[int] = set()
    reached = {trustor}
    current = [trustor]
    depth = 0
    while current:
        nxt = []
        relay = depth + 1 <= max_hops - 1
        for o in current:
            svc = svc_rows.get(o)
            if svc is None:
                svc = build_row(method, task, SERVICE, o)
            interrogated.update(svc)
            if relay:
                rec = rec_rows.get(o)
                if rec is None:
                    rec = build_row(method, task, RECOMMENDATION, o)
                for s in rec:
                    if s not in reached:
                        interrogated.add(s)
                        reached.add(s)
                        nxt.append(s)
        current = nxt
        depth += 1
    interrogated.discard(trustor)
    return frozenset(interrogated)


def _best_paths(evaluator: PathEvaluator, trustor: int, task: Task, params: eng.TransitivityParams,
                svc_rows: dict, rec_rows: dict) -> dict:
    """Depth-first search over gated hops, as an explicit stack.

    Returns the best entry per reached trustee or, for the aggressive
    method, per trustee and carried characteristic. An entry has the shape
    of a `Candidate`: (trustee, the path's value, the path, None). A
    non-aggressive entry is built as a `Candidate` only when it is kept, so
    it is the trustee's candidate as it stands. `_prefer`
    is a total order over distinct paths, so the visiting order does not
    change the result. The rows are `_interrogate`'s.

    Two invariants let the walk read them without a fallback. It pops
    only nodes that `_interrogate` reached at a BFS depth no greater than
    the node's depth here, since every gated walk edge is an evidenced
    sweep edge: so each popped node has its service row, and each node it
    relays from, at most `max_hops - 2` deep, its recommendation row. And
    a row holds only neighbours whose hop has an exact record or covers
    some of the task's characteristics; as `make_task` keeps every weight
    positive, each such hop has a float trust.
    """
    method, omega1, omega2 = params.method, params.omega1, params.omega2
    relay_len = params.max_hops - 1
    task_id = task.id
    hop_row, new_hop = evaluator.hop_row, evaluator._new_hop
    transit = eng.transit_pair
    # traditional chains multiply; the other methods fold through transit_pair
    multiply = method == eng.TRADITIONAL
    aggressive = method == eng.AGGRESSIVE
    char_bits = [(char_id, 1 << char_id) for char_id in task.char_ids] if aggressive else None
    best: dict = {}
    stack = [((trustor,), None, task.mask)]
    while stack:
        path, prefix, carried = stack.pop()
        o = path[-1]
        svc = svc_rows[o]
        if svc:
            hops = hop_row(o, SERVICE, task_id)
            for t in svc:
                if t in path:
                    continue
                hit = hops.get(t)
                covered, tw = hit if hit is not None else new_hop(hops, o, t, SERVICE, task)
                if tw < omega2:
                    continue
                final_carried = carried & covered
                if not final_carried:
                    continue
                if prefix is not None:
                    tw = prefix * tw if multiply else transit(prefix, tw)
                entry = (t, tw, path + (t,), None)
                if aggressive:
                    per_char = best.get(t)
                    if per_char is None:
                        per_char = best[t] = {}
                    for char_id, bit in char_bits:
                        if bit & final_carried:
                            cur = per_char.get(char_id)
                            if cur is None or _prefer(entry, cur):
                                per_char[char_id] = entry
                else:
                    cur = best.get(t)
                    if cur is None or _prefer(entry, cur):
                        best[t] = _new_tuple(Candidate, entry)
        if len(path) > relay_len:
            continue
        rec = rec_rows[o]
        if not rec:
            continue
        hops = hop_row(o, RECOMMENDATION, task_id)
        for s in rec:
            if s in path:
                continue
            hit = hops.get(s)
            covered, tw = hit if hit is not None else new_hop(hops, o, s, RECOMMENDATION, task)
            if tw < omega1:
                continue
            next_carried = carried & covered
            if not next_carried:
                continue
            if prefix is not None:
                tw = prefix * tw if multiply else transit(prefix, tw)
            stack.append((path + (s,), tw, next_carried))
    return best


def find_potential_trustees(evaluator: PathEvaluator, request: DelegationRequest) -> DiscoveryResult:
    """Discover non-blocked potential trustees within max_hops of the trustor.

    The graph, profiles, store and tasks are the evaluator's.

    The method picks only the evidence test and the fold. Evidence:
    traditional requires records on the exact task, conservative records
    covering all target characteristics, aggressive records covering any of
    them. Fold: traditional chains multiply, the others fold through
    `transit_pair`. Every hop reads the evaluator's hop memo (`hop_tw`).
    The two `evidence_rows` maps of the method and task are fetched once
    here, for the sweep and the walk. Candidates are trustee-capable nodes
    whose transitivity value is not blocked, in decision order: highest
    discovered trust first, ties to the lower node id. The node-ordered
    list is sorted by trust alone, and a stable sort keeps tied trusts in
    node order under `reverse` too.
    """
    params = request.transitivity
    method = params.method
    task = request.task
    trustor = request.trustor
    svc_rows = evaluator.evidence_rows(method, task, SERVICE)
    rec_rows = evaluator.evidence_rows(method, task, RECOMMENDATION)
    interrogated = _interrogate(evaluator, trustor, task, params, svc_rows, rec_rows)
    best = _best_paths(evaluator, trustor, task, params, svc_rows, rec_rows)

    # the candidates (here and in `_best_paths`) and the result are built as
    # `_new_tuple` builds validated tuples in `domain`, without the
    # NamedTuple's Python-level `__new__`; neither type validates
    if method != eng.AGGRESSIVE:
        candidates = [best[t] for t in sorted(best)]
    else:
        candidates = []
        for t in sorted(best):
            per_char = best[t]
            if len(per_char) != len(task.parts):
                continue
            char_paths = {c: per_char[c][2] for c in sorted(per_char)}
            value = 0.0
            for char_id, weight in task.parts:
                value += weight * per_char[char_id][1]
            candidates.append(_new_tuple(Candidate, (t, value, None, char_paths)))
    candidates.sort(key=_TRUST, reverse=True)
    return _new_tuple(DiscoveryResult, (tuple(candidates), interrogated))


def sample_outcome(
    trustor: AgentProfile,
    trustee: AgentProfile,
    task: Task,
    intermediates: Sequence[int],
    rng,
) -> DelegationOutcome:
    """Realize one delegation against hidden ground truth.

    Success is Bernoulli in the trustee's task competence. The protocol
    runs in the ideal environment, so the outcome's snapshot is 1.0 for the
    trustor, the trustee and each intermediate. The realization is split in
    two: `draw_delegation` makes the draws and `make_outcome` builds the
    outcome they select.
    """
    snapshot = (1.0,) * (2 + len(intermediates))
    success, abusive = draw_delegation(trustee.task_competence(task), trustor.integrity, rng)
    return make_outcome(trustee, snapshot, success, abusive)


def draw_delegation(p_success: float, integrity: float, rng) -> tuple[bool, bool]:
    """The draws of one delegation, success first: `(success, abusive)`.

    Success is Bernoulli in `p_success`, abuse in (1 - trustor integrity).
    """
    success = rng.random() < p_success
    return success, rng.random() >= integrity


def make_outcome(trustee: AgentProfile, snapshot: tuple, success: bool, abusive: bool) -> DelegationOutcome:
    """The outcome of a delegation to `trustee` whose draws came out as given.

    Success zeroes damage, failure zeroes gain. Dishonest trustees inflate
    the realized cost by their scripted multiplier.
    """
    cost = trustee.cost if trustee.honest else min(1.0, trustee.cost * trustee.cost_multiplier)
    if success:
        return DelegationOutcome(True, trustee.gain, 0.0, cost, abusive, snapshot)
    return DelegationOutcome(False, 0.0, trustee.damage, cost, abusive, snapshot)


def run_delegation(
    evaluator: PathEvaluator,
    usage_log: UsageLog,
    request: DelegationRequest,
    rng,
) -> DelegationTrace:
    """Run the full mutual-evaluation protocol for one request.

    Walks discovery's candidates in decision order, applying the
    trustee-side reverse evaluation at each; the first acceptor executes
    the task. Both sides
    then update: the trustor's service record about the trustee (and
    recommendation records along the used paths), the trustee's usage log
    with the responsive/abusive draw. The records are written to the
    evaluator's store, and every written record is passed to its
    `invalidate`. Only a path with a relay has intermediates and
    recommendation records to update. The trace keeps discovery's
    candidates.
    """
    task = request.task
    task_id = task.id
    trustor = request.trustor
    profiles = evaluator.profiles
    store = evaluator.store
    disc = find_potential_trustees(evaluator, request)
    rejections = []
    chosen: Optional[Candidate] = None
    for candidate in disc.candidates:
        accepted, rev = eng.reverse_evaluate(profiles[candidate.node], trustor, usage_log)
        if accepted:
            chosen = candidate
            break
        rejections.append((candidate.node, rev))
    if chosen is None:
        return _new_tuple(DelegationTrace, (trustor, task_id, disc.candidates, rejections, None,
                                            None, disc.nodes_interrogated))

    paths = (chosen.best_path,) if chosen.char_paths is None else chosen.char_paths.values()
    relayed = [path for path in paths if len(path) > 2]
    intermediates = []
    writes = [(trustor, chosen.node, SERVICE)]
    if relayed:
        intermediates = sorted({node for path in relayed for node in path[1:-1]})
        rec_pairs = {(path[i], path[i + 1]) for path in relayed for i in range(len(path) - 2)}
        writes += [(observer, subject, RECOMMENDATION) for observer, subject in sorted(rec_pairs)]
    outcome = sample_outcome(profiles[trustor], profiles[chosen.node], task, intermediates, rng)
    usage_log.record(chosen.node, trustor, responsive=not outcome.abusive)

    for observer, subject, kind in writes:
        record = store.get(observer, subject, task_id, kind)
        base = record or initial_record(request.initial_estimates)
        updated = eng.update_estimates(base, outcome, request.beta)
        store.put(observer, subject, task_id, kind, updated)
        evaluator.invalidate(observer, subject, kind, task_id, updated)
    return _new_tuple(DelegationTrace, (trustor, task_id, disc.candidates, rejections, chosen.node,
                                        outcome, disc.nodes_interrogated))
