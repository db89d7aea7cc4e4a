"""Core vocabulary shared by all modules: tasks, trust records, agents, outcomes.

Types here are plain values. Behavioural rules (evaluation, updates,
transitivity, the delegation protocol) live in `trust_engine` and
`delegation`. The stateful exceptions are `TrustStore` and `UsageLog`,
each owned and mutated by a single simulation run.
"""

from __future__ import annotations

import json
import math
from operator import itemgetter
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence

SERVICE = "service"
RECOMMENDATION = "recommendation"
KINDS = (SERVICE, RECOMMENDATION)

TRADITIONAL = "traditional"
CONSERVATIVE = "conservative"
AGGRESSIVE = "aggressive"
METHODS = (TRADITIONAL, CONSERVATIVE, AGGRESSIVE)

WEIGHT_TOLERANCE = 1e-9


class ScenarioError(ValueError):
    """Malformed scenario file or invalid parameter value."""


class Task(NamedTuple):
    """A weighted bag of characteristics; weights sum to one.

    Use `make_task` to construct: it validates parts and renormalizes
    weights so that any Task observable by other modules satisfies the
    sum-to-one invariant. `char_ids` are the characteristic ids of `parts`
    in order, and `mask` has bit c set for each characteristic c.
    """

    id: int
    parts: tuple[tuple[int, float], ...]
    char_ids: tuple[int, ...]
    mask: int

    def weight_of(self, char_id: int) -> Optional[float]:
        for c, w in self.parts:
            if c == char_id:
                return w
        return None


def make_task(task_id: int, parts: Sequence[tuple[int, float]]) -> Task:
    """Build a task from (characteristic id, weight) pairs.

    Weights must be positive and finite, as must their sum, and are
    renormalized to sum to one, none of them to zero. Rejects empty part
    lists and duplicate characteristics.
    """
    if not parts:
        raise ValueError("task needs at least one characteristic")
    seen = set()
    total = 0.0
    for char_id, weight in parts:
        if char_id < 0:
            raise ValueError(f"characteristic ids must be non-negative, got {char_id}")
        if not 0 < weight < math.inf:
            raise ValueError(f"characteristic {char_id}: weight must be positive and finite, got {weight}")
        if char_id in seen:
            raise ValueError(f"duplicate characteristic {char_id} in task {task_id}")
        seen.add(char_id)
        total += weight
    if total == math.inf:
        raise ValueError(f"task {task_id}: the weights' sum must be finite")
    norm = tuple((c, w / total) for c, w in parts)
    if any(w == 0.0 for _, w in norm):
        raise ValueError(f"task {task_id}: a weight is too small beside the weights' sum")
    char_ids = tuple(c for c, _ in norm)
    mask = 0
    for c in char_ids:
        mask |= 1 << c
    return Task(task_id, norm, char_ids, mask)


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


_new_tuple = tuple.__new__

_RecordFields = NamedTuple("_RecordFields", [("s_hat", float), ("g_hat", float), ("d_hat", float),
                                             ("c_hat", float), ("interaction_count", int)])


class TrustRecord(_RecordFields):
    """One observer's estimates about one subject on one task.

    `s_hat` is the expected success rate; `g_hat`, `d_hat`, `c_hat` the
    expected gain, damage, and cost, all in [0, 1]. A record with
    interaction_count 0 holds the configured initial estimates. The kind
    of trust (service or recommendation) is part of the record's key in
    `TrustStore`, not of the record. An immutable tuple: every way to build
    one, copies and unpickling included, goes through `__new__`.
    """

    __slots__ = ()

    def __new__(cls, s_hat: float, g_hat: float, d_hat: float, c_hat: float,
                interaction_count: int = 0):
        if not (0.0 <= s_hat <= 1.0 and 0.0 <= g_hat <= 1.0 and 0.0 <= d_hat <= 1.0
                and 0.0 <= c_hat <= 1.0 and interaction_count >= 0):
            # not all valid: the checks below name the first bad field
            _check_unit("s_hat", s_hat)
            _check_unit("g_hat", g_hat)
            _check_unit("d_hat", d_hat)
            _check_unit("c_hat", c_hat)
            if interaction_count < 0:
                raise ValueError("interaction_count must be >= 0")
        return _new_tuple(cls, (s_hat, g_hat, d_hat, c_hat, interaction_count))


def initial_record(estimates: Sequence[float] = (0.5, 0.5, 0.5, 0.5)) -> TrustRecord:
    s, g, d, c = estimates
    return TrustRecord(s_hat=s, g_hat=g, d_hat=d, c_hat=c, interaction_count=0)


class TrustStore:
    """Map from (observer, subject, task id, kind) to TrustRecord.

    Records are kept per task only: trust in a characteristic is always
    inferred from them, never stored. Lookups for absent keys return None,
    which is distinct from any stored record: strangers and distrusted
    nodes must stay distinguishable for the unavailable-rate metric.
    """

    def __init__(self):
        self._by_pair: dict[tuple[int, int, str], dict[int, TrustRecord]] = {}

    def put(self, observer: int, subject: int, task_id: int, kind: str, record: TrustRecord) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        self._by_pair.setdefault((observer, subject, kind), {})[task_id] = record

    def get(self, observer: int, subject: int, task_id: int, kind: str) -> Optional[TrustRecord]:
        bucket = self._by_pair.get((observer, subject, kind))
        return None if bucket is None else bucket.get(task_id)

    def task_records(self, observer: int, subject: int, kind: str) -> list[tuple[int, TrustRecord]]:
        """All records the observer holds about the subject, by task id."""
        bucket = self._by_pair.get((observer, subject, kind))
        return sorted(bucket.items(), key=itemgetter(0)) if bucket else []


class _ProfileFields(NamedTuple):
    node: int
    is_trustee: bool = False
    competence: Mapping[int, float] = {}  # shared by the profiles that omit it, never mutated
    integrity: float = 1.0
    default_threshold: float = 0.0
    honest: bool = True
    gain: float = 1.0
    damage: float = 1.0
    cost: float = 0.0
    cost_multiplier: float = 1.0


class AgentProfile(_ProfileFields):
    """A node's roles and hidden ground truth.

    `competence` maps characteristic id to the true success probability,
    hidden from other agents; a task's ground-truth competence is the
    task-weighted mean. `integrity` is the probability that a given use of
    a trustee's resource is responsive rather than abusive. Dishonest
    trustees enact scripted attacks (cost inflation via `cost_multiplier`,
    characteristic tainting handled by the scenario builders). An immutable
    tuple, validated in `__new__` as `TrustRecord` is.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = _ProfileFields.__new__(cls, *args, **kwargs)
        _, _, competence, integrity, threshold, _, gain, damage, cost, multiplier = self
        if not (0.0 <= integrity <= 1.0 and 0.0 <= threshold <= 1.0 and 0.0 <= gain <= 1.0
                and 0.0 <= damage <= 1.0 and 0.0 <= cost <= 1.0 and 0.0 <= multiplier < math.inf
                and all([0.0 <= v <= 1.0 for v in competence.values()])):
            # not all valid: the checks below name the first bad field
            _check_unit("integrity", integrity)
            _check_unit("default_threshold", threshold)
            for c, v in competence.items():
                _check_unit(f"competence[{c}]", v)
            _check_unit("gain", gain)
            _check_unit("damage", damage)
            _check_unit("cost", cost)
            if not 0.0 <= multiplier < math.inf:
                raise ValueError(f"cost_multiplier must be finite and >= 0, got {multiplier}")
        return self

    def task_competence(self, task: Task) -> float:
        total = 0.0
        for char_id, weight in task.parts:
            total += weight * self.competence[char_id]
        return total


class UsageLog:
    """Per (trustee, trustor) counts of responsive versus total resource uses."""

    def __init__(self):
        self._counts: dict[tuple[int, int], list[int]] = {}

    def record(self, trustee: int, trustor: int, responsive: bool) -> None:
        entry = self._counts.setdefault((trustee, trustor), [0, 0])
        entry[0] += 1 if responsive else 0
        entry[1] += 1

    def seed(self, trustee: int, trustor: int, responsive: int, total: int) -> None:
        if responsive > total or responsive < 0:
            raise ValueError("responsive count out of range")
        self._counts[(trustee, trustor)] = [responsive, total]

    def counts(self, trustee: int, trustor: int) -> tuple[int, int]:
        entry = self._counts.get((trustee, trustor))
        if entry is None:
            return (0, 0)
        return (entry[0], entry[1])


_OutcomeFields = NamedTuple("_OutcomeFields", [("success", bool), ("gain", float), ("damage", float),
                                               ("cost", float), ("abusive", bool),
                                               ("env_snapshot", tuple[float, ...])])


class DelegationOutcome(_OutcomeFields):
    """Realized result of one delegation.

    Success zeroes damage, failure zeroes gain, cost applies either way.
    `env_snapshot` holds one environment value in (0, 1] per party:
    trustor, trustee, then each intermediate. The protocol runs in the
    ideal environment and writes 1.0 for each; `update_estimates_env`
    corrects by the snapshot's minimum.
    An immutable tuple, validated in `__new__` as `TrustRecord` is.
    """

    __slots__ = ()

    def __new__(cls, success: bool, gain: float, damage: float, cost: float,
                abusive: bool = False, env_snapshot: tuple[float, ...] = (1.0, 1.0)):
        snap = env_snapshot
        if not (0.0 <= gain <= 1.0 and 0.0 <= damage <= 1.0 and 0.0 <= cost <= 1.0
                and (damage if success else gain) == 0.0
                and len(snap) == 2 and 0.0 < snap[0] <= 1.0 and 0.0 < snap[1] <= 1.0):
            # invalid, or valid with intermediates: the checks below decide
            _check_unit("gain", gain)
            _check_unit("damage", damage)
            _check_unit("cost", cost)
            if success and damage != 0.0:
                raise ValueError("successful delegation must have zero damage")
            if not success and gain != 0.0:
                raise ValueError("failed delegation must have zero gain")
            if len(snap) < 2:
                raise ValueError("env_snapshot needs trustor and trustee entries")
            for v in snap:
                if not 0.0 < v <= 1.0:
                    raise ValueError(f"env snapshot values must be in (0, 1], got {v}")
        return _new_tuple(cls, (success, gain, damage, cost, abusive, env_snapshot))


# the inherited `_make` and `_replace` build the tuple without `__new__`, so
# skip its range test: the validated types do not have them
for _fields in (_RecordFields, _ProfileFields, _OutcomeFields):
    del _fields._make, _fields._replace

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}

_UNIT = ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_OPEN_UNIT = ("in (0, 1]", lambda v: 0.0 < v <= 1.0)
_FORGETTING = ("in [0, 1)", lambda v: 0.0 <= v < 1.0)
_AT_LEAST_0 = (">= 0", lambda v: v >= 0)
_AT_LEAST_1 = (">= 1", lambda v: v >= 1)
_METHOD = (f"{', '.join(METHODS[:-1])} or {METHODS[-1]}", lambda v: v in METHODS)

# One row per Scenario field, in the key order of `to_dict`: (name, default,
# type, minimum entries of a list field or None for a scalar, allowed
# (description, test) or None). List entries are checked one by one; a field
# whose default is None may be None; `tasks` has no type, as `_parse_tasks`
# parses it.
_SCENARIO_FIELDS = (
    # shared
    ("role_fraction", 0.4, float, None, _OPEN_UNIT),
    ("disjoint_roles", False, bool, None, None),
    ("omega1", 0.6, float, None, _UNIT),
    ("omega2", 0.6, float, None, _UNIT),
    ("max_hops", 3, int, None, _AT_LEAST_1),
    ("beta", 0.1, float, None, _FORGETTING),
    ("initial_estimates", (0.5, 0.5, 0.5, 0.5), float, 0, _UNIT),
    ("master_seed", 1, int, None, None),
    ("runs", None, int, None, _AT_LEAST_1),
    # optional explicit vocabulary; when tasks are given they replace the
    # experiments' generated pools
    ("characteristics", (), str, 0, None),
    ("tasks", (), None, None, None),
    # mutual evaluation
    ("theta_grid", (0.0, 0.3, 0.6), float, 1, _UNIT),
    ("mutuality_rounds", 6, int, None, _AT_LEAST_1),
    ("preseed_uses", 5, int, None, _AT_LEAST_0),
    # characteristic inference
    ("inference_reps", 50, int, None, _AT_LEAST_1),
    ("dishonest_fraction", 0.5, float, None, _UNIT),
    ("taint_penalty", 0.5, float, None, _UNIT),
    # transitivity
    # None: the generated grid (4, 5, 6, 7), or no grid beside explicit tasks
    ("char_counts", None, int, 1, _AT_LEAST_1),
    ("methods", METHODS, str, 1, _METHOD),
    ("tasks_per_node", 2, int, None, _AT_LEAST_1),
    ("service_density", 0.25, float, None, _UNIT),
    ("rec_density", 0.08, float, None, _UNIT),
    ("use_features", False, bool, None, None),
    # net profit
    ("profit_candidates", 20, int, None, _AT_LEAST_1),
    ("profit_iterations", 250, int, None, _AT_LEAST_1),
    ("attack_tasks", 50, int, None, _AT_LEAST_1),
    ("cost_multiplier", 3.0, float, None, _AT_LEAST_0),
    # dynamic environment
    ("env_values", (1.0, 0.4, 0.7), float, 1, _OPEN_UNIT),
    ("env_epoch_length", 100, int, None, _AT_LEAST_1),
    ("env_competence", 0.8, float, None, _UNIT),
    ("env_noise", 0.05, float, None, _AT_LEAST_0),
    ("env_initial_s", 1.0, float, None, _UNIT),
)

# Grid fields whose entries each become one result label, so two entries
# with the same key would write their rows twice. `experiments.label`
# prints a theta with `:g`, so thetas that print the same are one label.
_DISTINCT_KEYS = {"theta_grid": "{:g}".format, "char_counts": int, "methods": str}


def _check_field(name: str, value, kind: type, allowed) -> None:
    """Raise ScenarioError naming `name` unless `value` has the type and range."""
    if isinstance(value, bool):
        typed = kind is bool
    elif kind is float:
        typed = isinstance(value, (int, float)) and math.isfinite(value)
    else:
        typed = isinstance(value, kind)
    if not typed:
        raise ScenarioError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    if allowed is not None and not allowed[1](value):
        raise ScenarioError(f"{name} must be {allowed[0]}, got {value!r}")


def _parse_tasks(entries) -> tuple[tuple, tuple[Task, ...]]:
    """The `tasks` echo, each weight a float, and its Tasks sorted by id.

    Each `[id, [[characteristic, weight], ...]]` entry is type-checked before
    its Task is built, and every rejection names the entry as `tasks[i]`.
    """
    if not isinstance(entries, tuple):
        raise ScenarioError(f"tasks must be a list, got {entries!r}")
    echo, pool = [], {}
    for i, entry in enumerate(entries):
        name = f"tasks[{i}]"
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2 and isinstance(entry[1], (list, tuple))
                and all(isinstance(part, (list, tuple)) and len(part) == 2 for part in entry[1])):
            raise ScenarioError(f"{name} must be [id, [[characteristic, weight], ...]], got {entry!r}")
        task_id, parts = entry
        _check_field(f"{name} id", task_id, int, None)
        for c, w in parts:
            _check_field(f"{name} characteristic", c, int, None)
            _check_field(f"{name} weight", w, float, None)
        if task_id in pool:
            raise ScenarioError(f"{name} repeats task id {task_id}")
        parts = tuple((c, float(w)) for c, w in parts)
        try:
            pool[task_id] = make_task(task_id, parts)
        except ValueError as exc:
            raise ScenarioError(f"{name}: {exc}") from exc
        echo.append((task_id, parts))
    return tuple(echo), tuple(pool[task_id] for task_id in sorted(pool))


class Scenario:
    """Tunable parameters for the five experiments, JSON-compatible.

    The fields, their defaults and their rules are the rows of
    `_SCENARIO_FIELDS`. Defaults reproduce the reference setups at desk
    scale; the CLI and scenario files may override any field. `task_pool`
    holds the explicit tasks, parsed once, as Tasks sorted by id.
    """

    def __init__(self, **given):
        unknown = set(given).difference(row[0] for row in _SCENARIO_FIELDS)
        if unknown:
            raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
        for name, default, kind, min_entries, allowed in _SCENARIO_FIELDS:
            value = given.get(name, default)
            if isinstance(value, list):
                value = tuple(value)
            setattr(self, name, value)
            if kind is None or (value is None and default is None):
                continue
            if min_entries is None:
                _check_field(name, value, kind, allowed)
                continue
            if not isinstance(value, tuple):
                raise ScenarioError(f"{name} must be a list, got {value!r}")
            if len(value) < min_entries:
                raise ScenarioError(f"{name} must not be empty")
            for i, entry in enumerate(value):
                _check_field(f"{name}[{i}]", entry, kind, allowed)
        self.tasks, self.task_pool = _parse_tasks(self.tasks)
        if self.char_counts is None and not self.task_pool:
            self.char_counts = (4, 5, 6, 7)
        for name, key in _DISTINCT_KEYS.items():
            keys = [key(v) for v in getattr(self, name) or ()]
            for i, k in enumerate(keys):
                if k in keys[:i]:
                    raise ScenarioError(f"{name}[{i}] repeats {k}")
        if len(self.initial_estimates) != 4:
            raise ScenarioError("initial_estimates needs exactly four values")
        # explicit tasks are one grid point, so a given grid would be ignored
        if self.task_pool and self.char_counts is not None:
            raise ScenarioError("char_counts cannot be combined with explicit tasks")
        # the set fields, which `replace` carries over
        self._given = frozenset(given)

    def to_dict(self) -> dict:
        out = {}
        for name, *_ in _SCENARIO_FIELDS:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out

    def replace(self, **overrides) -> "Scenario":
        """A new scenario from the fields this one was given, plus `overrides`."""
        return Scenario(**{**{name: getattr(self, name) for name in self._given}, **overrides})


def load_scenario(path) -> Scenario:
    """Load a scenario file (JSON object of Scenario fields)."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario file must hold a JSON object")
    return Scenario(**data)
