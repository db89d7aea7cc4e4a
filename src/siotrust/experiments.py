"""Desk-scale, seeded reproductions of the five evaluation scenarios.

Each experiment is a pure function of (graph, scenario, runs, master_seed):
per-run seeds derive from the master seed and stable labels, so adding runs
never changes earlier runs' results and runs may execute in parallel. Every
experiment shares its per-run world state (roles, hidden ground truth,
pre-seeded records) across the parameter grid it compares, so that grid
points differ only in the parameter under study.
"""

from __future__ import annotations

import gc
import math
import random
from functools import partial
from itertools import repeat
from operator import mul
from typing import Callable, NamedTuple, Optional, Sequence

from . import trust_engine as eng
from .delegation import (
    DelegationRequest,
    PairText,
    PathEvaluator,
    draw_delegation,
    find_potential_trustees,
    make_outcome,
    rank_candidates,
    run_delegation,
)
from .domain import (
    RECOMMENDATION,
    SERVICE,
    AgentProfile,
    Scenario,
    ScenarioError,
    Task,
    TrustRecord,
    TrustStore,
    UsageLog,
    initial_record,
    make_task,
)
from .graph import SocialGraph, role_count, sample_roles
from .seeds import derive_seed

AGGREGATE = "aggregate"


class MetricsRow(NamedTuple):
    experiment: str
    param: str
    run: object  # run index (int) or "aggregate"
    metric: str
    value: float


def _run_unit(worker: Callable, unit):
    """Run one unit with the cyclic collector paused, then restore its state.

    Units create no reference cycles, so reference counting frees all they build."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return worker(unit)
    finally:
        if enabled:
            gc.enable()


def _map_units(worker: Callable, units: list, jobs: int) -> list:
    """Run unit jobs through `_run_unit`, optionally on a process pool.

    Result order is unit order. The pool gets at most one worker per unit. It
    is imported only here, so a serial run never loads `multiprocessing`.
    """
    run = partial(_run_unit, worker)
    jobs = min(jobs, len(units))
    if jobs <= 1:
        return [run(u) for u in units]
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(units) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run, units, chunksize=chunk))


def _mean(values) -> float:
    """The mean as `statistics.fmean` computes it, without importing `statistics`."""
    return math.fsum(values) / len(values)


def label(**parts) -> str:
    """A row's param label, such as `chars=4,method=aggressive`; floats print as `:g`."""
    return ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in parts.items())


def series_metric(name: str, i: int) -> str:
    """The metric name of step `i` of a series, such as `s_hat[007]`."""
    return f"{name}[{i:03d}]"


def char_grid(scenario: Scenario) -> tuple[int, ...]:
    """The transitivity characteristic counts.

    An explicit task pool is a single grid point, labelled by its alphabet size.
    """
    if scenario.task_pool:
        return (len({c for task in scenario.task_pool for c in task.char_ids}),)
    return scenario.char_counts


# 2 x 53 mantissa bits + 3: an integer root this wide, rounded to odd, rounds
# to the same float as the exact root
_ROOT_BITS = 109


def _sqrt_of_ratio(num: int, den: int) -> float:
    """The square root of num / den (num >= 0, den > 0), correctly rounded."""
    shift = (num.bit_length() - den.bit_length() - _ROOT_BITS) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // den)
    root |= root * root * den != num  # round to odd: an inexact root gets its last bit set
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def _mean_std(experiment: str, param: str, metric: str, values) -> tuple[MetricsRow, MetricsRow]:
    """The mean and the exact population std (what `statistics.pstdev` returns).

    With lo the smallest nonzero magnitude and shift = 53 - frexp(lo)[1],
    each value is an exact integer N = v·2^shift (floats from 2^52 up are
    integers, so shift stops at 0), and the variance is (k·ΣN² − (ΣN)²) /
    (k·2^shift)². Where `ldexp` overflows, the magnitudes lie over ~970
    binades apart; then each ratio n / d is shifted to the largest d instead.
    """
    lo = min(values)
    if lo <= 0.0:
        lo = min(filter(None, map(abs, values)), default=1.0)
    shift = max(0, 53 - math.frexp(lo)[1])
    try:
        nums = list(map(math.trunc, map(math.ldexp, values, repeat(shift))))
    except OverflowError:
        ratios = list(map(float.as_integer_ratio, values))
        shift = max(d for _, d in ratios).bit_length() - 1
        nums = [n << (shift + 1 - d.bit_length()) for n, d in ratios]
    k, total = len(nums), sum(nums)
    std = _sqrt_of_ratio(k * sum(map(mul, nums, nums)) - total * total, (k << shift) ** 2)
    return (MetricsRow(experiment, param, AGGREGATE, metric, _mean(values)),
            MetricsRow(experiment, param, AGGREGATE, metric + "_std", std))


def _drive(
    experiment: str,
    worker: Callable,
    units: list,
    jobs: int,
    trace_sink: Optional[list] = None,
) -> list[MetricsRow]:
    """Run the units and turn their results into metric rows.

    Each unit returns (entries, traces); an entry is (label, run, metrics,
    series). A scalar metric gets one row per run, plus a mean and a `_std`
    (population std) row over the runs of its label. A series, one value per
    step, gets only that aggregate pair at every step, named `name[iii]`.
    Traces, one serialized trace-log line each, extend `trace_sink` in unit
    order.
    """
    rows: list[MetricsRow] = []
    scalars: dict[str, dict[str, list[float]]] = {}
    series: dict[tuple[str, str], list[Sequence[float]]] = {}
    for entries, traces in _map_units(worker, units, jobs):
        for param, run, metrics, curves in entries:
            by_metric = scalars.setdefault(param, {})
            for metric in sorted(metrics):
                rows.append(MetricsRow(experiment, param, run, metric, metrics[metric]))
                by_metric.setdefault(metric, []).append(metrics[metric])
            for name, values in curves.items():
                series.setdefault((param, name), []).append(values)
        if trace_sink is not None:
            trace_sink.extend(traces)
    for param, by_metric in scalars.items():
        for metric, values in by_metric.items():
            rows += _mean_std(experiment, param, metric, values)
    for (param, name), runs in series.items():
        for i, values in enumerate(zip(*runs)):
            rows += _mean_std(experiment, param, series_metric(name, i), values)
    return rows


def _check_roles(graph: SocialGraph, scenario: Scenario) -> None:
    """Raise ScenarioError when the scenario's role sample would be empty or
    its disjoint roles cannot fit in the graph. The graph experiments call it
    before they build their units, so such a sample is refused before compute.
    """
    try:
        count = role_count(graph, scenario.role_fraction, scenario.disjoint_roles)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    if count == 0:
        raise ScenarioError(
            f"role_fraction {scenario.role_fraction:g} samples no trustors "
            f"on a {graph.node_count}-node graph")


# ---------------------------------------------------------------------------
# Mutual evaluation: success / unavailable / abuse rates across theta
# ---------------------------------------------------------------------------

def _mutuality_unit(args):
    graph, sc, theta, run_idx, master, want_traces = args
    rng_state = random.Random(derive_seed(master, "mutuality-state", run_idx))
    roles = sample_roles(graph, sc.role_fraction, rng_state, sc.disjoint_roles)
    trustee_set = set(roles.trustees)
    task = sc.task_pool[0] if sc.task_pool else make_task(0, [(0, 1.0)])
    tasks = {task.id: task}

    integrity = {x: rng_state.random() for x in roles.trustors}
    competence = {t: rng_state.random() for t in roles.trustees}
    usage = UsageLog()
    store = TrustStore()
    seed_record = initial_record(sc.initial_estimates)
    draw = rng_state.random
    seeded_uses = range(sc.preseed_uses)
    for x in roles.trustors:
        p = integrity[x]
        for t in graph.neighbors(x):
            if t not in trustee_set:
                continue
            responsive = 0
            for _ in seeded_uses:
                if draw() < p:
                    responsive += 1
            usage.seed(t, x, responsive, sc.preseed_uses)
            store.put(x, t, task.id, SERVICE, seed_record)

    profiles = {}
    for node in graph.nodes():
        profiles[node] = AgentProfile(
            node=node,
            is_trustee=node in trustee_set,
            competence={c: competence.get(node, 0.0) for c in task.char_ids},
            integrity=integrity.get(node, 1.0),
            default_threshold=theta,
        )

    params = eng.TransitivityParams(omega1=0.0, omega2=0.0, max_hops=1, method=eng.TRADITIONAL)
    rng_play = random.Random(derive_seed(master, "mutuality-play", run_idx, f"{theta:.6g}"))
    evaluator = PathEvaluator(graph, profiles, store, tasks)

    requests = successes = unavailable = uses = abusive = 0
    traces = []
    text = PairText()
    round_requests = [
        DelegationRequest(trustor=x, task=task, transitivity=params, beta=sc.beta,
                          initial_estimates=sc.initial_estimates)
        for x in roles.trustors
    ]
    for _ in range(sc.mutuality_rounds):
        for request in round_requests:
            trace = run_delegation(evaluator, usage, request, rng_play)
            requests += 1
            if trace.chosen is None:
                unavailable += 1
            else:
                uses += 1
                if trace.outcome.success:
                    successes += 1
                if trace.outcome.abusive:
                    abusive += 1
            if want_traces:
                traces.append(trace.to_line(text))

    metrics = {
        "success_rate": successes / requests,
        "unavailable_rate": unavailable / requests,
        "abuse_rate": abusive / uses if uses else 0.0,
        "zero_uses": 0.0 if uses else 1.0,
        "uses": float(uses),
        "requests": float(requests),
    }
    return [(label(theta=theta), run_idx, metrics, {})], traces


def exp_mutuality(
    graph: SocialGraph,
    scenario: Scenario,
    runs: int,
    master_seed: int,
    jobs: int = 1,
    trace_sink: Optional[list] = None,
) -> list[MetricsRow]:
    """Success, unavailable, and abuse rates under reverse-evaluation thresholds.

    Every trustor repeatedly delegates a common task to trustee neighbors;
    trustees gate requests on the smoothed responsive-use history at each
    theta in the grid. World state is shared across theta points per run.
    """
    _check_roles(graph, scenario)
    units = [
        (graph, scenario, theta, run, master_seed, trace_sink is not None)
        for theta in scenario.theta_grid
        for run in range(runs)
    ]
    return _drive("mutuality", _mutuality_unit, units, jobs, trace_sink)


# ---------------------------------------------------------------------------
# Inference over characteristics: honest-trustee selection with and without it
# ---------------------------------------------------------------------------

SELECTION = "selection"
TAINTED_TASK = 1
CLEAN_TASK = 2
TARGET_TASK = 3


def _inference_unit(args):
    graph, sc, rep, master = args
    rng = random.Random(derive_seed(master, "inference-state", rep))
    roles = sample_roles(graph, sc.role_fraction, rng, sc.disjoint_roles)
    trustee_set = set(roles.trustees)

    prev_a = make_task(TAINTED_TASK, [(0, 1.0)])
    prev_b = make_task(CLEAN_TASK, [(1, 1.0)])
    target = make_task(TARGET_TASK, [(0, 0.5), (1, 0.5)])
    tasks = {t.id: t for t in (prev_a, prev_b, target)}

    dishonest_count = round(sc.dishonest_fraction * len(roles.trustees))
    dishonest = set(rng.sample(roles.trustees, dishonest_count))
    competence = {
        t: {0: 0.5 + 0.5 * rng.random(), 1: 0.5 + 0.5 * rng.random()}
        for t in roles.trustees
    }

    # a trustee's two seeded records depend only on the trustee, so every
    # trustor neighbour shares the same frozen pair
    seeded = {
        t: (TrustRecord(competence[t][0] * (sc.taint_penalty if t in dishonest else 1.0),
                        1.0, 1.0, 0.0, 1),
            TrustRecord(competence[t][1], 1.0, 1.0, 0.0, 1))
        for t in roles.trustees
    }
    rng_pick = random.Random(derive_seed(master, "inference-pick", rep))
    # every trustor holds the same frozen pair seeded[t] about trustee t, so
    # its trust in t for the target depends on t alone: infer it once per t,
    # and store the pair only for the trustor that infers it
    store = TrustStore()
    evaluator = PathEvaluator(graph, {}, store, tasks)
    trust_in: dict[int, float] = {}
    with_honest = without_honest = participants = 0
    for x in roles.trustors:
        cands = [t for t in graph.neighbors(x) if t in trustee_set]
        if not cands:
            continue
        participants += 1
        for t in cands:
            if t not in trust_in:
                rec_a, rec_b = seeded[t]
                store.put(x, t, TAINTED_TASK, SERVICE, rec_a)
                store.put(x, t, CLEAN_TASK, SERVICE, rec_b)
                # the two seeded tasks cover the target, so the hop infers a float
                trust_in[t] = evaluator.hop_tw(x, t, SERVICE, target)[1]
        # the highest inferred trust; `max` keeps the first, and cands ascend,
        # so a tie goes to the lowest node
        best = max(cands, key=trust_in.__getitem__)
        if best not in dishonest:
            with_honest += 1
        blind = rng_pick.choice(cands)
        if blind not in dishonest:
            without_honest += 1

    w = with_honest / participants if participants else 0.0
    wo = without_honest / participants if participants else 0.0
    metrics = {"with_inference": w, "without_inference": wo, "improvement_pp": 100.0 * (w - wo)}
    return [(SELECTION, rep, metrics, {})], []


def exp_inference(
    graph: SocialGraph,
    scenario: Scenario,
    runs: int,
    master_seed: int,
    jobs: int = 1,
) -> list[MetricsRow]:
    """Fraction of trustors picking honest trustees, with vs without inference.

    Dishonest trustees performed badly on a previous task sharing one
    characteristic with the requested one; inference propagates the taint,
    the no-inference baseline picks blindly among candidates.
    """
    _check_roles(graph, scenario)
    units = [(graph, scenario, rep, master_seed) for rep in range(runs)]
    rows = _drive("inference", _inference_unit, units, jobs)
    per_rep: dict[int, dict[str, float]] = {}
    for row in rows:
        if row.run != AGGREGATE:
            per_rep.setdefault(row.run, {})[row.metric] = row.value
    wins = sum(m["with_inference"] > m["without_inference"] for m in per_rep.values())
    rows.append(MetricsRow("inference", SELECTION, AGGREGATE, "wins", float(wins)))
    rows.append(MetricsRow("inference", SELECTION, AGGREGATE, "reps", float(runs)))
    return rows


# ---------------------------------------------------------------------------
# Transitivity: traditional vs conservative vs aggressive discovery
# ---------------------------------------------------------------------------

def _char_pool(count: int) -> list[Task]:
    """All single- and two-characteristic tasks over `count` characteristics."""
    tasks = []
    task_id = 0
    for c in range(count):
        tasks.append(make_task(task_id, [(c, 1.0)]))
        task_id += 1
    for a in range(count):
        for b in range(a + 1, count):
            tasks.append(make_task(task_id, [(a, 0.5), (b, 0.5)]))
            task_id += 1
    return tasks


def _experienced_tasks(node: int, pool: Sequence[Task], features, per_node: int, rng) -> list[int]:
    if features is not None:
        bits = features[node]
        compatible = [
            t.id for t in pool
            if all(c < len(bits) and bits[c] == 1 for c in t.char_ids)
        ]
        if len(compatible) >= per_node:
            return sorted(rng.sample(compatible, per_node))
    return sorted(rng.sample([t.id for t in pool], per_node))


def _transitivity_unit(args):
    graph, sc, char_count, run_idx, master = args
    rng = random.Random(derive_seed(master, "transitivity-state", char_count, run_idx))
    pool = list(sc.task_pool) or _char_pool(char_count)
    char_ids = sorted({c for t in pool for c in t.char_ids})
    tasks = {t.id: t for t in pool}
    roles = sample_roles(graph, sc.role_fraction, rng, sc.disjoint_roles)
    trustee_set = set(roles.trustees)
    features = graph.features if sc.use_features else None

    competence = {
        n: {c: rng.random() for c in char_ids}
        for n in graph.nodes()
    }
    per_node = min(sc.tasks_per_node, len(pool))
    experienced = {
        n: _experienced_tasks(n, pool, features, per_node, rng)
        for n in graph.nodes()
    }

    profiles = {
        n: AgentProfile(
            node=n,
            is_trustee=n in trustee_set,
            competence=competence[n],
        )
        for n in graph.nodes()
    }

    store = TrustStore()
    put, draw = store.put, rng.random
    service_density, rec_density = sc.service_density, sc.rec_density
    for n in graph.nodes():
        # a service record depends only on (n, task): its neighbours share it
        competence_of = profiles[n].task_competence
        seeded = [(tid, TrustRecord(competence_of(tasks[tid]), 1.0, 1.0, 0.0, 1))
                  for tid in experienced[n]]
        for m in graph.neighbors(n):
            for tid, record in seeded:
                if draw() < service_density:
                    put(m, n, tid, SERVICE, record)
    for n in graph.nodes():
        known = sorted({tid for k in graph.neighbors(n) for tid in experienced[k]})
        for m in graph.neighbors(n):
            for tid in known:
                if draw() < rec_density:
                    put(m, n, tid, RECOMMENDATION, TrustRecord(draw(), 1.0, 1.0, 0.0, 1))

    requests = [
        (x, pool[rng.randrange(len(pool))], rng.random())
        for x in roles.trustors
    ]

    evaluator = PathEvaluator(graph, profiles, store, tasks)
    entries = []
    for method in sc.methods:
        params = eng.TransitivityParams(sc.omega1, sc.omega2, sc.max_hops, method)
        successes = unavailable = 0
        candidate_total = interrogated_total = 0
        for x, target, u_success in requests:
            request = DelegationRequest(trustor=x, task=target, transitivity=params)
            disc = find_potential_trustees(evaluator, request)
            candidate_total += len(disc.candidates)
            interrogated_total += disc.nodes_interrogated
            if not disc.candidates:
                unavailable += 1
                continue
            chosen = rank_candidates(disc.candidates)[0]
            if u_success < profiles[chosen.node].task_competence(target):
                successes += 1
        n_req = len(requests)
        metrics = {
            "success_rate": successes / n_req,
            "unavailable_rate": unavailable / n_req,
            "mean_candidates": candidate_total / n_req,
            "mean_interrogated": interrogated_total / n_req,
        }
        entries.append((label(chars=char_count, method=method), run_idx, metrics, {}))
    return entries, []


def exp_transitivity(
    graph: SocialGraph,
    scenario: Scenario,
    runs: int,
    master_seed: int,
    jobs: int = 1,
) -> list[MetricsRow]:
    """Delegation reach and success for the three transitivity methods.

    Nodes pre-seed service records for two experienced tasks and
    recommendation records mirroring their neighbors' tasks; each trustor
    then requests one random task per run. The three methods evaluate the
    identical world, including a common success draw per request.
    """
    _check_roles(graph, scenario)
    units = [
        (graph, scenario, char_count, run, master_seed)
        for char_count in char_grid(scenario)
        for run in range(runs)
    ]
    return _drive("transitivity", _transitivity_unit, units, jobs)


# ---------------------------------------------------------------------------
# Net profit: success-only vs full-profit selection, plus cost inflation
# ---------------------------------------------------------------------------

VARIANT_RANDOM = "random"
VARIANT_ATTACK = "attack"


def _profit_unit(args):
    sc, variant, run_idx, master = args
    rng = random.Random(derive_seed(master, "profit-truth", variant, run_idx))
    task = make_task(0, [(0, 1.0)])
    iterations = sc.attack_tasks if variant == VARIANT_ATTACK else sc.profit_iterations

    count = sc.profit_candidates
    dishonest = set()
    if variant == VARIANT_ATTACK:
        dishonest = set(rng.sample(range(count), round(sc.dishonest_fraction * count)))
    profiles = {}
    for i in range(count):
        if i in dishonest:
            s_true = 0.7 + 0.3 * rng.random()
        elif variant == VARIANT_ATTACK:
            s_true = 0.3 + 0.6 * rng.random()
        else:
            s_true = rng.random()
        profiles[i] = AgentProfile(
            node=i,
            is_trustee=True,
            competence={0: s_true},
            gain=rng.random(),
            damage=rng.random(),
            cost=rng.random(),
            honest=i not in dishonest,
            cost_multiplier=sc.cost_multiplier,
        )
    trustor = AgentProfile(node=count, integrity=1.0)
    beta = sc.beta
    # `sample_outcome` split in two: a candidate's success probability never
    # changes, so it and the candidate's four `make_outcome` outcomes,
    # [success][abusive], each with its series value, are built once
    net = variant == VARIANT_RANDOM
    tables = []
    for i in range(count):
        rows = [[make_outcome(profiles[i], (1.0, 1.0), s, a) for a in (False, True)] for s in (False, True)]
        tables.append((profiles[i].task_competence(task),
                       [[(o, o.gain - o.damage - o.cost if net else o.cost) for o in row] for row in rows]))
    integrity = trustor.integrity
    select, update_estimates, score = eng.select_trustee, eng.update_estimates, eng.strategy_score

    entries = []
    for strategy in eng.STRATEGIES:
        records = [initial_record(sc.initial_estimates)] * count
        scores = [score(rec, strategy) for rec in records]
        # common random numbers: both strategies face the identical draw
        # sequence, so their curves differ only through candidate choice;
        # the loop only draws and indexes the candidate's outcome table
        rng_play = random.Random(derive_seed(master, "profit-play", variant, run_idx))
        values = []
        append = values.append
        for _ in range(iterations):
            node = select(scores)
            p_success, outcomes = tables[node]
            success, abusive = draw_delegation(p_success, integrity, rng_play)
            outcome, value = outcomes[success][abusive]
            records[node] = record = update_estimates(records[node], outcome, beta)
            scores[node] = score(record, strategy)
            append(value)
        param = label(variant=variant, strategy=strategy)
        if variant == VARIANT_RANDOM:
            entries.append((param, run_idx, {}, {"net_profit": values}))
            continue
        windows = {}
        if len(values) >= 50:
            # realized cost early (tasks 1-10) vs late (tasks 40-50)
            windows = {"cost_tasks_1_10": _mean(values[0:10]),
                       "cost_tasks_40_50": _mean(values[39:50])}
        entries.append((param, run_idx, windows, {"cost": values}))
    return entries, []


def exp_profit(
    graph: Optional[SocialGraph],
    scenario: Scenario,
    runs: int,
    master_seed: int,
    jobs: int = 1,
) -> list[MetricsRow]:
    """Realized net profit per iteration for the two selection strategies.

    Candidates carry random hidden success/gain/damage/cost; the attack
    variant adds cost-inflating dishonest candidates and tracks realized
    cost per task. The graph is not used: candidate pools are synthetic.
    """
    units = [
        (scenario, variant, run, master_seed)
        for variant in (VARIANT_RANDOM, VARIANT_ATTACK)
        for run in range(runs)
    ]
    return _drive("profit", _profit_unit, units, jobs)


# ---------------------------------------------------------------------------
# Dynamic environment: baseline vs uncorrected vs corrected updates
# ---------------------------------------------------------------------------

REGIMES = ("baseline", "uncorrected", "corrected")


def _environment_unit(args):
    sc, run_idx, master = args
    rng = random.Random(derive_seed(master, "environment", run_idx))
    beta, comp, noise_level = sc.beta, sc.env_competence, sc.env_noise
    blend, clamp, correct, uniform = eng.blend, eng.clamp01, eng.correct_realized, rng.uniform
    baseline = uncorrected = corrected = sc.env_initial_s
    baseline_series, uncorrected_series, corrected_series = [], [], []
    for value in sc.env_values:
        for _ in range(sc.env_epoch_length):
            noise = uniform(-noise_level, noise_level)
            perf_env = clamp(comp * value + noise)
            baseline = blend(baseline, clamp(comp + noise), beta)
            uncorrected = blend(uncorrected, perf_env, beta)
            corrected = blend(corrected, correct(perf_env, value), beta)
            baseline_series.append(baseline)
            uncorrected_series.append(uncorrected)
            corrected_series.append(corrected)
    series = (baseline_series, uncorrected_series, corrected_series)  # in REGIMES order
    return [(label(regime=regime), run_idx, {}, {"s_hat": values})
            for regime, values in zip(REGIMES, series)], []


def exp_environment(
    graph: Optional[SocialGraph],
    scenario: Scenario,
    runs: int,
    master_seed: int,
    jobs: int = 1,
) -> list[MetricsRow]:
    """Expected-success tracking through environment epochs for one pair.

    The trustee performs at its competence scaled by the epoch environment
    (plus small noise); three update regimes run on the same draws: an
    environment-free baseline, uncorrected blending, and the corrected rule
    that divides out the worst environment.
    """
    units = [(scenario, run, master_seed) for run in range(runs)]
    return _drive("environment", _environment_unit, units, jobs)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_RUNNERS = {
    "mutuality": exp_mutuality,
    "inference": exp_inference,
    "transitivity": exp_transitivity,
    "profit": exp_profit,
    "environment": exp_environment,
}


def run_experiment_rows(
    which: str,
    graph: Optional[SocialGraph],
    scenario: Scenario,
    runs: int,
    master_seed: int,
    jobs: int = 1,
    trace_sink: Optional[list] = None,
) -> list[MetricsRow]:
    """Run one experiment and return its metric rows.

    Raises ScenarioError before any compute when the scenario sets
    `use_features` without a graph with features; for the graph
    experiments, also when the scenario's role sample would be empty or its
    disjoint roles cannot fit in the graph (`_check_roles`). Only a runner
    that traces is given a `trace_sink`.
    """
    if scenario.use_features and (graph is None or graph.features is None):
        raise ScenarioError("use_features needs a feature file (--features)")
    extra = {} if trace_sink is None else {"trace_sink": trace_sink}
    return _RUNNERS[which](graph, scenario, runs, master_seed, jobs, **extra)
