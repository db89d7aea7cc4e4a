"""Tests for the correctness gate: digest, output invariants and run judging."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from outputs import digest, invariant_problems  # noqa: E402
from run import Sample, judge  # noqa: E402
from workloads import Step  # noqa: E402

STEPS = (Step(name="mutuality", argv=("mutuality",), units=1,
              expects=("summary.json", "metrics_mutuality.csv")),)

CSV = (
    "experiment,param,run,metric,value\n"
    "transitivity,chars=4,method=aggressive,0,success_rate,0.5\n"
    "transitivity,chars=4,method=aggressive,aggregate,success_rate_std,0.1\n"
)


@pytest.fixture
def out_dir(tmp_path):
    step = tmp_path / "mutuality"
    step.mkdir()
    (step / "metrics_mutuality.csv").write_text(CSV)
    (step / "summary.json").write_text('{"aggregates": {"p": {"abuse_rate": 0.25, "uses": 3}}}\n')
    (step / "trace_mutuality.ndjson").write_text('{"chosen": 3, "ranked": [[3, 0.7]]}\n')
    return tmp_path


def test_sound_outputs_have_no_problems(out_dir):
    assert invariant_problems(out_dir, STEPS) == []


def test_digest_is_stable_and_sees_one_corrupted_byte(out_dir):
    before = digest(out_dir)
    assert digest(out_dir) == before
    path = out_dir / "mutuality" / "trace_mutuality.ndjson"
    data = bytearray(path.read_bytes())
    data[2] ^= 0x01
    path.write_bytes(bytes(data))
    assert digest(out_dir) != before


def test_digest_sees_renamed_file(out_dir):
    before = digest(out_dir)
    (out_dir / "mutuality" / "summary.json").rename(out_dir / "mutuality" / "summary2.json")
    assert digest(out_dir) != before


@pytest.mark.parametrize("line, fragment", [
    ("mutuality,theta=0,0,success_rate,nan\n", "not finite"),
    ("mutuality,theta=0,0,abuse_rate,1.5\n", "outside [0, 1]"),
    ("mutuality,theta=0,0,uses,-inf\n", "not finite"),
    ("mutuality,theta=0,0,uses,abc\n", "not a number"),
])
def test_bad_csv_values_are_problems(out_dir, line, fragment):
    path = out_dir / "mutuality" / "metrics_mutuality.csv"
    path.write_text(CSV + line)
    problems = invariant_problems(out_dir, STEPS)
    assert len(problems) == 1 and fragment in problems[0]


def test_stats_table_cells_must_be_finite(out_dir):
    (out_dir / "mutuality" / "stats.csv").write_text("nodes,avg_degree\n10,nan\n")
    assert any("avg_degree" in p for p in invariant_problems(out_dir, STEPS))


@pytest.mark.parametrize("text", [
    '{"x": NaN}', '{"x": Infinity}', '{"aggregates": {"success_rate": -0.1}}', "{not json",
])
def test_bad_summary_is_a_problem(out_dir, text):
    (out_dir / "mutuality" / "summary.json").write_text(text)
    assert invariant_problems(out_dir, STEPS)


def test_bad_trace_line_is_a_problem(out_dir):
    (out_dir / "mutuality" / "trace_mutuality.ndjson").write_text('{"a": 1}\n{"a": NaN}\n')
    problems = invariant_problems(out_dir, STEPS)
    assert len(problems) == 1 and "trace_mutuality.ndjson:2" in problems[0]


def test_missing_or_empty_expected_file_is_a_problem(out_dir):
    (out_dir / "mutuality" / "metrics_mutuality.csv").unlink()
    (out_dir / "mutuality" / "summary.json").write_text("")
    problems = invariant_problems(out_dir, STEPS)
    assert any("metrics_mutuality.csv: missing" in p for p in problems)
    assert any("summary.json: missing" in p for p in problems)


def _sample(kind, digest_value, layers=None):
    return Sample(kind=kind, wall_s=1.0, digests={"mutuality": digest_value},
                  step_run_s={"mutuality": 1.0}, layers=layers)


def test_corrupted_run_fails_against_reference(out_dir):
    good = digest(out_dir)
    (out_dir / "mutuality" / "summary.json").write_text('{"aggregates": {}}\n')
    bad = digest(out_dir)
    samples = [_sample("jobs2", good), _sample("timed", bad), _sample("timed", good)]
    assert judge(samples, reference={"mutuality": good}) == {"mutuality": good}
    assert [bool(s.problems) for s in samples] == [False, True, False]


def test_a_step_missing_from_the_reference_is_a_problem():
    samples = [_sample("jobs2", "a"), _sample("timed", "a")]
    judge(samples, reference={"other-step": "a"})
    assert any("no digest for step mutuality" in p for s in samples for p in s.problems)


def test_without_reference_the_majority_digest_is_required():
    samples = [_sample("jobs2", "b"), _sample("timed", "a"), _sample("timed", "a")]
    assert judge(samples, reference={}) == {"mutuality": "a"}
    assert [bool(s.problems) for s in samples] == [True, False, False]


def test_traced_counts_must_repeat_but_gc_counts_need_not():
    base = {"delegation.discover_calls": 10, "delegation.candidates_total": 4,
            "runtime.gc_gen2_collections": 3, "delegation.discover_s": 0.5}
    samples = [
        _sample("traced", "a", dict(base)),
        _sample("traced", "a", dict(base, **{"runtime.gc_gen2_collections": 5,
                                             "delegation.discover_s": 0.7})),
        _sample("traced", "a", dict(base, **{"delegation.candidates_total": 5})),
    ]
    judge(samples, reference={"mutuality": "a"})
    assert [bool(s.problems) for s in samples] == [False, False, True]
