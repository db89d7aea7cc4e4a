import copy
import json
import math
import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from siotrust.domain import (
    RECOMMENDATION,
    SERVICE,
    AgentProfile,
    DelegationOutcome,
    Scenario,
    ScenarioError,
    TrustRecord,
    TrustStore,
    UsageLog,
    initial_record,
    load_scenario,
    make_task,
)


class TestMakeTask:
    def test_single_characteristic(self):
        task = make_task(1, [(0, 1.0)])
        assert task.parts == ((0, 1.0),)

    def test_weights_renormalized(self):
        task = make_task(4, [(0, 2.0), (1, 2.0)])
        assert task.parts == ((0, 0.5), (1, 0.5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            make_task(0, [])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            make_task(0, [(0, 0.0)])
        with pytest.raises(ValueError, match="positive"):
            make_task(0, [(0, -1.0)])
        for weight in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                make_task(0, [(0, 1.0), (1, weight)])
        # finite weights whose sum overflows would normalize to zeros
        with pytest.raises(ValueError, match="sum must be finite"):
            make_task(0, [(0, 1e308), (1, 1e308)])
        # a positive weight that renormalizes to zero leaves inferred trust undefined
        with pytest.raises(ValueError, match="too small"):
            make_task(0, [(0, 5e-324), (1, 2.0)])

    def test_duplicate_characteristic_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_task(0, [(0, 1.0), (0, 2.0)])

    def test_negative_characteristic_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_task(0, [(-1, 1.0)])

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=8))
    def test_weights_sum_to_one(self, weights):
        task = make_task(0, list(enumerate(weights)))
        assert abs(sum(w for _, w in task.parts) - 1.0) < 1e-9

    def test_weight_lookup(self):
        task = make_task(0, [(3, 1.0), (5, 3.0)])
        assert task.weight_of(3) == 0.25
        assert task.weight_of(9) is None


class TestTrustRecord:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            TrustRecord(1.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            TrustRecord(0.5, 0.5, -0.1, 0.5)
        with pytest.raises(ValueError):
            TrustRecord(0.5, 0.5, 0.5, 0.5, interaction_count=-1)

    def test_initial_record(self):
        rec = initial_record((0.1, 0.2, 0.3, 0.4))
        assert (rec.s_hat, rec.g_hat, rec.d_hat, rec.c_hat) == (0.1, 0.2, 0.3, 0.4)
        assert rec.interaction_count == 0


class TestTrustStore:
    def test_round_trip(self):
        store = TrustStore()
        rec = TrustRecord(0.9, 0.8, 0.1, 0.2, 3)
        store.put(1, 2, 7, SERVICE, rec)
        assert store.get(1, 2, 7, SERVICE) == rec

    def test_absent_key_is_none(self):
        store = TrustStore()
        assert store.get(1, 2, 7, SERVICE) is None
        store.put(1, 2, 7, SERVICE, initial_record())
        assert store.get(1, 2, 8, SERVICE) is None
        assert store.get(2, 1, 7, SERVICE) is None

    def test_kinds_do_not_collide(self):
        store = TrustStore()
        store.put(1, 2, 7, SERVICE, TrustRecord(0.9, 1, 1, 0))
        assert store.get(1, 2, 7, RECOMMENDATION) is None

    def test_task_records_sorted(self):
        store = TrustStore()
        store.put(1, 2, 9, SERVICE, initial_record())
        store.put(1, 2, 3, SERVICE, initial_record())
        assert [tid for tid, _ in store.task_records(1, 2, SERVICE)] == [3, 9]

    def test_put_rejects_unknown_kind(self):
        store = TrustStore()
        with pytest.raises(ValueError, match="unknown kind 'other'"):
            store.put(1, 2, 7, "other", initial_record())
        assert store.task_records(1, 2, "other") == []

    def test_overwrite_single_record_per_key(self):
        store = TrustStore()
        store.put(1, 2, 1, SERVICE, initial_record())
        store.put(1, 2, 1, SERVICE, TrustRecord(0.9, 1, 1, 0))
        assert len(store.task_records(1, 2, SERVICE)) == 1
        assert store.get(1, 2, 1, SERVICE).s_hat == 0.9


class TestAgentProfile:
    def test_task_competence_weighted_mean(self):
        prof = AgentProfile(node=0, competence={0: 0.2, 1: 0.8})
        task = make_task(0, [(0, 1.0), (1, 3.0)])
        assert abs(prof.task_competence(task) - (0.25 * 0.2 + 0.75 * 0.8)) < 1e-12

    def test_missing_competence_raises(self):
        prof = AgentProfile(node=0, competence={0: 0.5})
        with pytest.raises(KeyError):
            prof.task_competence(make_task(0, [(1, 1.0)]))

    def test_threshold_lookup(self):
        assert AgentProfile(node=0, default_threshold=0.3).default_threshold == 0.3
        with pytest.raises(ValueError, match="default_threshold"):
            AgentProfile(node=0, default_threshold=1.2)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            AgentProfile(node=0, integrity=1.2)
        with pytest.raises(ValueError):
            AgentProfile(node=0, competence={0: -0.1})


class TestUsageLog:
    def test_counts(self):
        log = UsageLog()
        log.record(1, 2, True)
        log.record(1, 2, False)
        assert log.counts(1, 2) == (1, 2)
        assert log.counts(2, 1) == (0, 0)

    def test_seed_validation(self):
        log = UsageLog()
        with pytest.raises(ValueError):
            log.seed(1, 2, 5, 3)


class TestDelegationOutcome:
    def test_success_zeroes_damage(self):
        with pytest.raises(ValueError, match="zero damage"):
            DelegationOutcome(success=True, gain=0.5, damage=0.2, cost=0.1)

    def test_failure_zeroes_gain(self):
        with pytest.raises(ValueError, match="zero gain"):
            DelegationOutcome(success=False, gain=0.5, damage=0.2, cost=0.1)

    def test_valid_outcomes(self):
        ok = DelegationOutcome(success=True, gain=0.5, damage=0.0, cost=0.1)
        assert ok.cost == 0.1
        fail = DelegationOutcome(success=False, gain=0.0, damage=0.9, cost=0.1,
                                 env_snapshot=(1.0, 0.4, 0.7))
        assert fail.env_snapshot == (1.0, 0.4, 0.7)

    def test_env_snapshot_validated(self):
        with pytest.raises(ValueError):
            DelegationOutcome(success=True, gain=0.5, damage=0.0, cost=0.1, env_snapshot=(1.0,))
        with pytest.raises(ValueError):
            DelegationOutcome(success=True, gain=0.5, damage=0.0, cost=0.1, env_snapshot=(1.0, 0.0))


# (type, valid field values in order, a field with an out-of-range value and its message)
RECORD_TYPES = [
    (TrustRecord, {"s_hat": 0.9, "g_hat": 0.8, "d_hat": 0.1, "c_hat": 0.2, "interaction_count": 3},
     ("d_hat", 1.5, "d_hat must be in [0, 1], got 1.5")),
    (DelegationOutcome, {"success": False, "gain": 0.0, "damage": 0.9, "cost": 0.1,
                         "abusive": True, "env_snapshot": (1.0, 0.4, 0.7)},
     ("cost", -0.1, "cost must be in [0, 1], got -0.1")),
    (AgentProfile, {"node": 4, "is_trustee": True, "competence": {0: 0.3, 2: 0.9},
                    "integrity": 0.8, "default_threshold": 0.2, "honest": False, "gain": 0.7,
                    "damage": 0.4, "cost": 0.1, "cost_multiplier": 2.5},
     ("integrity", 1.2, "integrity must be in [0, 1], got 1.2")),
]


def _bypassing_new(cls, values):
    """An instance built without the type's `__new__`, so with no range test."""
    return tuple.__new__(cls, tuple(values.values()))


class TestRecordConstruction:
    """Every way of building a validated value runs its range test."""

    @pytest.fixture(params=RECORD_TYPES, ids=lambda case: case[0].__name__)
    def case(self, request):
        return request.param

    def test_positional_and_keyword_agree(self, case):
        cls, values, _ = case
        built = cls(*values.values())
        assert built == cls(**values)
        assert type(built) is cls
        assert {name: getattr(built, name) for name in values} == values

    def test_positional_and_keyword_validate(self, case):
        cls, values, (name, bad, message) = case
        bad_values = {**values, name: bad}
        with pytest.raises(ValueError) as by_keyword:
            cls(**bad_values)
        with pytest.raises(ValueError) as by_position:
            cls(*bad_values.values())
        assert str(by_keyword.value) == str(by_position.value) == message

    @pytest.mark.parametrize("rebuild", [
        copy.copy, copy.deepcopy, lambda rec: pickle.loads(pickle.dumps(rec)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_validate(self, case, rebuild):
        cls, values, (name, bad, message) = case
        good = cls(**values)
        assert rebuild(good) == good
        assert type(rebuild(good)) is cls
        with pytest.raises(ValueError, match=re.escape(message)):
            rebuild(_bypassing_new(cls, {**values, name: bad}))

    def test_no_unvalidated_builders(self, case):
        cls, _, _ = case
        # namedtuple's _make and _replace call tuple.__new__ directly
        assert not hasattr(cls, "_make")
        assert not hasattr(cls, "_replace")

    def test_fields_are_read_only(self, case):
        cls, values, (name, bad, _) = case
        built = cls(**values)
        with pytest.raises(AttributeError):
            setattr(built, name, bad)
        with pytest.raises(AttributeError):
            built.extra = 1
        assert getattr(built, name) == values[name]


NAN = float("nan")
RECORD_FIELDS = ("s_hat", "g_hat", "d_hat", "c_hat")
# (field, success): each unit-range outcome field is set on an outcome that is
# otherwise valid, so damage goes on a failure and gain on a success
OUTCOME_FIELDS = (("gain", True), ("damage", False), ("cost", True), ("cost", False))
PROFILE_FIELDS = ("integrity", "default_threshold", "gain", "damage", "cost")


def _bad_record(name, value):
    values = dict.fromkeys(RECORD_FIELDS, 0.5)
    values[name] = value
    return lambda: TrustRecord(**values, interaction_count=1)


def _bad_outcome(name, value, success):
    values = {"gain": 0.5 if success else 0.0, "damage": 0.0 if success else 0.5, "cost": 0.1}
    values[name] = value
    return lambda: DelegationOutcome(success=success, **values)


def _bad_snapshot(snapshot):
    return lambda: DelegationOutcome(success=True, gain=0.5, damage=0.0, cost=0.1,
                                     env_snapshot=snapshot)


# every message as the per-field checks word it
VALIDATION_CASES = [
    *((f"{name}={value}", _bad_record(name, value), f"{name} must be in [0, 1], got {value}")
      for name in RECORD_FIELDS for value in (-0.1, 1.5, NAN)),
    ("interaction_count=-1", lambda: TrustRecord(0.5, 0.5, 0.5, 0.5, interaction_count=-1),
     "interaction_count must be >= 0"),
    *((f"{name}={value},success={success}", _bad_outcome(name, value, success),
       f"{name} must be in [0, 1], got {value}")
      for name, success in OUTCOME_FIELDS for value in (-0.1, 1.5, NAN)),
    ("damage on success", lambda: DelegationOutcome(success=True, gain=0.5, damage=0.2, cost=0.1),
     "successful delegation must have zero damage"),
    ("gain on failure", lambda: DelegationOutcome(success=False, gain=0.5, damage=0.2, cost=0.1),
     "failed delegation must have zero gain"),
    ("empty snapshot", _bad_snapshot(()), "env_snapshot needs trustor and trustee entries"),
    ("one-entry snapshot", _bad_snapshot((1.0,)), "env_snapshot needs trustor and trustee entries"),
    *((f"snapshot {snapshot}", _bad_snapshot(snapshot),
       f"env snapshot values must be in (0, 1], got {value}")
      for value in (0.0, -0.5, 1.5, NAN)
      for snapshot in ((value, 1.0), (1.0, value), (1.0, 0.7, value))),
    # a NaN or infinite multiplier would otherwise realize a cost of 1.0 through
    # `min(1.0, cost * multiplier)`, and a negative one fail inside the outcome
    *((f"cost_multiplier={value}", lambda value=value: AgentProfile(node=0, cost_multiplier=value),
       f"cost_multiplier must be finite and >= 0, got {value}")
      for value in (-1.0, -1e-300, NAN, math.inf)),
    *((f"profile {name}={value}", lambda name=name, value=value: AgentProfile(node=0, **{name: value}),
       f"{name} must be in [0, 1], got {value}")
      for name in PROFILE_FIELDS for value in (-0.1, 1.5, NAN)),
    *((f"competence={value}",
       lambda value=value: AgentProfile(node=0, competence={0: 0.5, 3: value}),
       f"competence[3] must be in [0, 1], got {value}")
      for value in (-0.1, 1.5, NAN)),
    # several bad fields: the message names the first in field order
    ("profile, first bad field",
     lambda: AgentProfile(node=0, competence={0: 1.5}, cost=2.0, cost_multiplier=NAN),
     "competence[0] must be in [0, 1], got 1.5"),
]


class TestValidationMessages:
    @pytest.mark.parametrize("build, message", [case[1:] for case in VALIDATION_CASES],
                             ids=[case[0] for case in VALIDATION_CASES])
    def test_invalid_value_message(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_boundaries_accepted(self):
        TrustRecord(0.0, 1.0, 0.0, 1.0, interaction_count=0)
        DelegationOutcome(success=True, gain=1.0, damage=0.0, cost=1.0, env_snapshot=(1.0, 1e-300))
        DelegationOutcome(success=False, gain=0.0, damage=1.0, cost=0.0, env_snapshot=(1.0, 0.5, 1.0))
        AgentProfile(node=0, cost_multiplier=0.0)
        AgentProfile(node=0, cost_multiplier=1e300)


class TestScenario:
    def test_defaults_valid(self):
        sc = Scenario()
        assert sc.theta_grid == (0.0, 0.3, 0.6)
        assert sc.char_counts == (4, 5, 6, 7)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ScenarioError, match="unknown scenario keys"):
            Scenario(not_a_field=1)

    def test_from_dict_lists_become_tuples(self):
        sc = Scenario(theta_grid=[0.0, 0.5])
        assert sc.theta_grid == (0.0, 0.5)

    def test_validation(self):
        with pytest.raises(ScenarioError):
            Scenario(role_fraction=0.0)
        with pytest.raises(ScenarioError):
            Scenario(beta=1.0)
        with pytest.raises(ScenarioError):
            Scenario(methods=("bogus",))
        with pytest.raises(ScenarioError):
            Scenario(env_values=(0.0,))

    @pytest.mark.parametrize("overrides", [
        {"profit_candidates": 0}, {"theta_grid": ()}, {"char_counts": ()}, {"methods": ()},
        {"mutuality_rounds": 0}, {"profit_iterations": 0}, {"attack_tasks": 0},
        {"env_epoch_length": 0}, {"env_values": ()},
        {"inference_reps": 0}, {"tasks_per_node": 0}, {"preseed_uses": -1},
        {"service_density": -1.0}, {"rec_density": 1.5},
        {"dishonest_fraction": 1.5}, {"taint_penalty": -0.1},
        pytest.param({"char_counts": (4, 0)}, id="char_counts-entry-below-1"),
        pytest.param({"theta_grid": (0.0, 1.5)}, id="theta_grid-entry-above-1"),
        pytest.param({"theta_grid": (-0.1,)}, id="theta_grid-entry-below-0"),
        pytest.param({"service_density": 1.5}, id="service_density-above-1"),
        pytest.param({"rec_density": -0.5}, id="rec_density-below-0"),
        {"cost_multiplier": -1.0}, {"env_competence": 1.5}, {"env_noise": -0.1},
        {"env_initial_s": 5.0},
    ], ids=lambda overrides: next(iter(overrides)))
    def test_rejected_before_compute(self, overrides):
        with pytest.raises(ScenarioError, match=next(iter(overrides))):
            Scenario(**overrides)

    @pytest.mark.parametrize("overrides", [
        pytest.param({"theta_grid": (0.3, 0.3)}, id="theta_grid"),
        # both print as 0.123457, so they would share one result label
        pytest.param({"theta_grid": (0.1234567, 0.1234568)}, id="theta_grid-same-label"),
        pytest.param({"char_counts": (4, 5, 4)}, id="char_counts"),
        pytest.param({"methods": ("aggressive", "aggressive")}, id="methods"),
    ])
    def test_duplicate_grid_entries_rejected(self, overrides):
        with pytest.raises(ScenarioError, match=rf"{next(iter(overrides))}\[\d\] repeats"):
            Scenario(**overrides)

    @pytest.mark.parametrize("data,message", [
        ({"char_counts": [2.5]}, r"char_counts\[0\] must be an integer"),
        ({"max_hops": "3"}, "max_hops must be an integer"),
        ({"beta": None}, "beta must be a number"),
        ({"role_fraction": "0.4"}, "role_fraction must be a number"),
        ({"theta_grid": [0.0, "0.3"]}, r"theta_grid\[1\] must be a number"),
        ({"use_features": 1}, "use_features must be true or false"),
        ({"preseed_uses": True}, "preseed_uses must be an integer"),
        ({"env_values": 0.5}, "env_values must be a list"),
        ({"env_noise": math.inf}, "env_noise must be a number"),
        ({"cost_multiplier": math.inf}, "cost_multiplier must be a number"),
        ({"theta_grid": [math.nan]}, r"theta_grid\[0\] must be a number"),
        ({"tasks": [[0, [[0, 1.0]]], [0.7, [[1, 1.0]]]]}, r"tasks\[1\] id must be an integer"),
        ({"tasks": [["3", [[0, 1.0]]]]}, r"tasks\[0\] id must be an integer"),
        ({"tasks": [[0, [[1, 1.0], ["0", 1.0]]]]}, r"tasks\[0\] characteristic must be an integer"),
        ({"tasks": [[0, [[0, True]]]]}, r"tasks\[0\] weight must be a number"),
        ({"tasks": [[0, [[0, 1.0]]], [1, [[0, 1.0, 2.0]]]]}, r"tasks\[1\] must be \[id, "),
    ], ids=["char_counts-float-entry", "max_hops-string", "beta-null", "role_fraction-string",
            "theta_grid-string-entry", "use_features-int", "preseed_uses-bool", "env_values-scalar",
            "env_noise-infinite", "cost_multiplier-infinite", "theta_grid-nan-entry",
            "tasks-float-id", "tasks-string-id", "tasks-string-characteristic", "tasks-bool-weight",
            "tasks-three-element-part"])
    def test_wrong_type_names_field(self, data, message):
        with pytest.raises(ScenarioError, match=message):
            Scenario(**data)

    def test_optional_and_integral_values_accepted(self):
        sc = Scenario(runs=None, beta=0, char_counts=[4, 5])
        assert sc.runs is None and sc.beta == 0 and sc.char_counts == (4, 5)

    def test_replace_round_trip(self):
        sc = Scenario().replace(beta=0.2)
        assert sc.beta == 0.2
        assert Scenario(**sc.to_dict()).to_dict() == sc.to_dict()
        # replace keeps the given fields, so explicit tasks survive a new grid
        tasks = ((0, ((0, 1.0),)), (1, ((1, 1.0),)))
        tasked = Scenario(tasks=tasks).replace(theta_grid=(0.5,))
        assert tasked.tasks == tasks and tasked.theta_grid == (0.5,)
        # and a copy sent to a worker still knows its tasks were given
        with pytest.raises(ScenarioError, match="char_counts cannot be combined"):
            pickle.loads(pickle.dumps(tasked)).replace(char_counts=(4, 5))

    def test_load_scenario_file(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text('{"beta": 0.3, "theta_grid": [0.0, 0.1]}')
        sc = load_scenario(p)
        assert sc.beta == 0.3
        assert sc.theta_grid == (0.0, 0.1)

    def test_load_scenario_bad_json(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text("{nope")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(p)

    def test_load_scenario_non_object(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text("[1, 2]")
        with pytest.raises(ScenarioError, match="JSON object"):
            load_scenario(p)

    def test_explicit_task_definitions(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps({
            "characteristics": ["gps", "image"],
            "tasks": [[0, [[0, 1.0]]], [1, [[0, 1.0], [1, 3.0]]]],
        }))
        sc = load_scenario(p)
        assert [task.id for task in sc.task_pool] == [0, 1]
        assert sc.task_pool[1].parts == ((0, 0.25), (1, 0.75))
        assert sc.characteristics == ("gps", "image")
        # the pool is sorted by id; the echo keeps the given order, weights as floats
        sc = Scenario(tasks=[[5, [[1, 2]]], [2, [[0, 1.0]]]])
        assert [task.id for task in sc.task_pool] == [2, 5]
        assert sc.tasks == ((5, ((1, 2.0),)), (2, ((0, 1.0),)))

    def test_bad_task_definitions_rejected(self):
        # explicit tasks are one grid point: a given grid is refused, the default one too
        with pytest.raises(ScenarioError, match="char_counts cannot be combined"):
            Scenario(tasks=((0, ((0, 1.0),)),), char_counts=(4, 5, 6, 7))
        with pytest.raises(ScenarioError, match=r"tasks\[1\] repeats task id 0"):
            Scenario(tasks=((0, ((0, 1.0),)), (0, ((1, 1.0),))))
        with pytest.raises(ScenarioError, match=r"tasks\[0\]: task needs at least one"):
            Scenario(tasks=((0, ()),))
        with pytest.raises(ScenarioError, match=r"tasks\[0\] must be \[id, "):
            Scenario(tasks=(("x", "y", "z"),))
        with pytest.raises(ScenarioError, match="tasks must be a list"):
            Scenario(tasks=5)
