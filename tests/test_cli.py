import ast
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siotrust import cli, experiments
from siotrust.cli import main
from siotrust.domain import METHODS, Scenario


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_bundled_facebook_scale_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--graph", "facebook-like")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("nodes,edges")
        fields = row.split(",")
        assert fields[0] == "347"
        assert fields[1] == "5038"

    def test_default_graph(self, capsys):
        code, out, _ = run_cli(capsys, "stats")
        assert code == 0
        assert out.split("\n")[1].split(",")[0] == "50"

    def test_missing_file_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--graph", "/nonexistent.edges")
        assert code == 1
        assert "error:" in err

    def test_stats_with_features(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--graph", "synthetic-50",
                               "--features", "synthetic-50")
        assert code == 0


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--bogus")
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_no_subcommand_exits_2(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "siotrust" in out

    @pytest.mark.parametrize("command", ["transitivity", "inference", "profit", "environment"])
    def test_trace_outside_mutuality_exits_2(self, capsys, tmp_path, command):
        # only the mutuality experiment traces, so the flag is a usage error
        # elsewhere, refused before any output is written
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, command, "--runs", "1", "--trace", "--out", str(out))
        assert code == 2
        assert "--trace" in err
        assert not out.exists()

    def test_bad_scenario_file(self, capsys, tmp_path):
        bad = tmp_path / "s.json"
        bad.write_text("{broken")
        code, _, err = run_cli(capsys, "environment", "--scenario", str(bad),
                               "--out", str(tmp_path / "out"))
        assert code == 1
        assert "error:" in err

    def test_bad_theta_list(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "mutuality", "--theta", "0,zap",
                               "--out", str(tmp_path / "out"))
        assert code == 1

    def test_invalid_scenario_rejected_before_compute(self, capsys, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text('{"profit_candidates": 0}')
        code, _, err = run_cli(capsys, "profit", "--scenario", str(scenario),
                               "--out", str(tmp_path / "out"))
        assert code == 1
        assert "error:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_zero_runs_rejected_before_compute(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "profit", "--runs", "0", "--out", str(tmp_path / "out"))
        assert code == 1
        assert "--runs must be >= 1" in err
        assert not (tmp_path / "out").exists()

    def test_zero_inference_reps_rejected(self, capsys, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text('{"inference_reps": 0}')
        code, _, err = run_cli(capsys, "inference", "--scenario", str(scenario),
                               "--out", str(tmp_path / "out"))
        assert code == 1
        assert "error:" in err
        assert "inference_reps" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,scenario,runs", [
        ("mutuality", {"role_fraction": 0.1}, "1"),
        ("transitivity", {"role_fraction": 0.1}, "1"),
        ("mutuality", {"mutuality_rounds": 0}, "1"),
        ("mutuality", {}, "0"),
        ("all", {"tasks": [[0, [[0, math.nan]]]]}, "1"),
        ("all", {"tasks": [[0, [[0, 1e308], [1, 1e308]]]]}, "1"),
        ("transitivity", {"tasks": [[0, [[0, 5e-324], [1, 2.0]]], [1, [[0, 1.0]]]]}, "1"),
        ("all", {"use_features": True}, "1"),
        ("profit", {"use_features": True}, "1"),
        ("environment", {"use_features": True}, "1"),
    ], ids=["mutuality-no-trustors", "transitivity-no-trustors", "mutuality-zero-rounds",
            "mutuality-zero-runs", "all-nan-weight", "all-weight-sum-overflows",
            "transitivity-weight-underflows",
            "all-use-features-without-features", "profit-use-features-without-features",
            "environment-use-features-without-features"])
    def test_empty_request_set_rejected(self, capsys, tmp_path, command, scenario, runs):
        graph = tmp_path / "path4.edges"
        graph.write_text("0 1\n1 2\n2 3\n")
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(scenario))
        code, _, err = run_cli(capsys, command, "--graph", str(graph), "--scenario",
                               str(scenario_path), "--runs", runs, "--out", str(tmp_path / "out"))
        assert code == 1
        assert "error:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("scenario,field", [
        ({"char_counts": [2.5]}, "char_counts"),
        ({"max_hops": "3"}, "max_hops"),
        ({"beta": None}, "beta"),
        ({"tasks": [[0.7, [[1.9, 1]]], ["3", [["0", True], [2, "0.5"]]]]}, "tasks[0] id"),
        ({"tasks": [[1, [[0, 1.0]]], ["3", [[0, 1.0]]]]}, "tasks[1] id"),
        ({"tasks": [[1, [["0", 1.0]]]]}, "tasks[0] characteristic"),
        ({"tasks": [[1, [[0, False]]]]}, "tasks[0] weight"),
        ({"tasks": [[1, [[0, 1.0]]], [2, [[0, 1.0, 2.0]]]]}, "tasks[1] must be [id, "),
    ], ids=["char_counts-float-entry", "max_hops-string", "beta-null", "tasks-float-id",
            "tasks-string-id", "tasks-string-characteristic", "tasks-bool-weight",
            "tasks-three-element-part"])
    def test_wrong_type_rejected_naming_field(self, capsys, tmp_path, scenario, field):
        graph = tmp_path / "path4.edges"
        graph.write_text("0 1\n1 2\n2 3\n")
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(scenario))
        code, _, err = run_cli(capsys, "transitivity", "--graph", str(graph), "--scenario",
                               str(scenario_path), "--runs", "1", "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith(f"error: {field}")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_char_counts_with_explicit_tasks_rejected(self, capsys, tmp_path):
        two_tasks = {"tasks": [[0, [[0, 1.0]]], [1, [[1, 1.0]]]]}
        default_grid = list(Scenario().char_counts)
        # a grid equal to the default is rejected too: set is not the same as defaulted
        for scenario, flags in (
            (two_tasks, ["--characteristics", "4,5"]),
            (two_tasks, ["--characteristics", ",".join(map(str, default_grid))]),
            ({"tasks": [[0, [[0, 1.0]]]], "char_counts": default_grid}, []),
        ):
            scenario_path = tmp_path / "s.json"
            scenario_path.write_text(json.dumps(scenario))
            code, _, err = run_cli(capsys, "transitivity", "--scenario", str(scenario_path),
                                   *flags, "--runs", "1", "--out", str(tmp_path / "out"))
            assert code == 1, (scenario, flags)
            assert err.startswith("error: char_counts")
            assert "Traceback" not in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,scenario,flags,field", [
        ("profit", {"cost_multiplier": -1}, [], "cost_multiplier"),
        ("environment", {"env_initial_s": 5}, [], "env_initial_s"),
        ("environment", {}, ["--jobs", "0"], "--jobs"),
        ("environment", {}, ["--jobs", "-4"], "--jobs"),
        ("transitivity", {}, ["--omega1", "1.5"], "omega1"),
        ("transitivity", {}, ["--omega2", "-0.1"], "omega2"),
        ("transitivity", {"max_hops": 0}, [], "max_hops"),
        ("mutuality", {}, ["--beta", "1.0"], "beta"),
    ], ids=["profit-negative-cost-multiplier", "environment-initial-s-above-1",
            "environment-jobs-0", "environment-jobs-negative", "transitivity-omega1-above-1",
            "transitivity-omega2-negative", "transitivity-max-hops-0", "mutuality-beta-1"])
    def test_out_of_range_rejected_naming_field(self, capsys, tmp_path, command, scenario,
                                                flags, field):
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(scenario))
        code, _, err = run_cli(capsys, command, "--scenario", str(scenario_path), "--runs", "1",
                               "--iterations", "2", *flags, "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith(f"error: {field}")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["mutuality", "--theta", "0.3,0.3"],
        ["mutuality", "--theta", "0.1234567,0.1234568"],
        ["transitivity", "--characteristics", "4,4"],
    ], ids=["theta", "theta-same-label", "characteristics"])
    def test_duplicate_grid_entries_rejected(self, capsys, tmp_path, argv):
        code, _, err = run_cli(capsys, *argv, "--runs", "1", "--out", str(tmp_path / "out"))
        assert code == 1
        assert "repeats" in err
        assert not (tmp_path / "out").exists()


class TestExperimentRuns:
    def test_explicit_task_scenario_echo_runs_again(self, capsys, tmp_path):
        # the echoed scenario of an explicit-task run holds no grid, so it
        # can be fed back as a scenario file and gives the same outputs
        first = tmp_path / "s.json"
        first.write_text(json.dumps({"tasks": [[0, [[0, 1.0]]], [1, [[1, 1.0]]]]}))
        args = ["transitivity", "--runs", "1", "--out"]
        code, _, _ = run_cli(capsys, *args, str(tmp_path / "a"), "--scenario", str(first))
        assert code == 0
        echoed = json.loads((tmp_path / "a" / "summary.json").read_text())["scenario"]
        assert echoed["char_counts"] is None
        again = tmp_path / "echo.json"
        again.write_text(json.dumps(echoed))
        code, _, err = run_cli(capsys, *args, str(tmp_path / "b"), "--scenario", str(again))
        assert code == 0, err
        for name in ("metrics_transitivity.csv", "summary.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_environment_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "environment", "--runs", "3",
                               "--iterations", "20", "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "metrics_environment.csv").exists()
        assert (out_dir / "plot_environment.svg").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["experiments"]["environment"]["runs"] == 3
        assert "environment:" in out

    def test_summary_matches_csv_aggregates(self, capsys, tmp_path):
        from siotrust.report import format_value
        out_dir = tmp_path / "out"
        run_cli(capsys, "environment", "--runs", "2", "--iterations", "10",
                "--out", str(out_dir))
        summary = json.loads((out_dir / "summary.json").read_text())
        aggs = summary["experiments"]["environment"]["aggregates"]
        lines = (out_dir / "metrics_environment.csv").read_text().splitlines()[1:]
        aggregate_lines = [line.split(",") for line in lines if ",aggregate," in line]
        assert len(aggregate_lines) == 3 * 30 * 2
        for _, param, _, metric, value in aggregate_lines:
            assert format_value(aggs[param][metric]) == value

    def test_same_argv_identical_outputs(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["environment", "--runs", "2", "--iterations", "15", "--seed", "3"]
        run_cli(capsys, *argv, "--out", str(out_a))
        run_cli(capsys, *argv, "--out", str(out_b))
        for name in ("metrics_environment.csv", "plot_environment.svg", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_jobs_flag_bit_identical(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["profit", "--runs", "4", "--iterations", "20"]
        run_cli(capsys, *argv, "--jobs", "1", "--out", str(out_a))
        run_cli(capsys, *argv, "--jobs", "2", "--out", str(out_b))
        assert (out_a / "metrics_profit.csv").read_bytes() == \
            (out_b / "metrics_profit.csv").read_bytes()

    def test_trace_log_bit_identical_across_jobs(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["mutuality", "--graph", "synthetic-50", "--runs", "2", "--iterations", "2",
                "--trace"]
        run_cli(capsys, *argv, "--jobs", "1", "--out", str(out_a))
        run_cli(capsys, *argv, "--jobs", "2", "--out", str(out_b))
        trace_a = (out_a / "trace_mutuality.ndjson").read_bytes()
        assert trace_a
        assert trace_a == (out_b / "trace_mutuality.ndjson").read_bytes()

    def test_mutuality_trace_log(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "mutuality", "--runs", "1", "--iterations", "2",
                             "--theta", "0", "--trace", "--out", str(out_dir))
        assert code == 0
        trace = (out_dir / "trace_mutuality.ndjson").read_text().splitlines()
        assert trace
        record = json.loads(trace[0])
        assert "chosen" in record and "interrogated" in record

    def test_transitivity_method_override(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "transitivity", "--runs", "1",
                             "--characteristics", "4", "--method", "traditional",
                             "--out", str(out_dir))
        assert code == 0
        text = (out_dir / "metrics_transitivity.csv").read_text()
        assert "method=traditional" in text
        assert "method=aggressive" not in text

    def test_transitivity_headline_names_methods_run(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "transitivity", "--runs", "1", "--characteristics", "4",
                               "--method", "traditional", "--out", str(tmp_path / "out"))
        assert code == 0
        assert "success chars=4: traditional=" in out
        assert "aggressive" not in out

    def test_transitivity_feature_mode(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "transitivity", "--runs", "1",
                             "--characteristics", "4", "--features", "synthetic-50",
                             "--out", str(out_dir))
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["scenario"]["use_features"] is True

    def test_desk_scale_speed_each_experiment(self, capsys, tmp_path):
        for which in ("mutuality", "inference", "transitivity", "profit", "environment"):
            started = time.perf_counter()
            code, _, _ = run_cli(capsys, which, "--runs", "1", "--iterations", "10",
                                 "--out", str(tmp_path / which))
            elapsed = time.perf_counter() - started
            assert code == 0
            assert elapsed < 5.0, which

    def test_all_subcommand(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "all", "--runs", "2", "--iterations", "5",
                               "--characteristics", "4", "--out", str(out_dir))
        assert code == 0
        for which in ("mutuality", "inference", "transitivity", "profit", "environment"):
            assert (out_dir / f"metrics_{which}.csv").exists(), which
            assert f"{which}:" in out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert set(summary["experiments"]) == {
            "mutuality", "inference", "transitivity", "profit", "environment"}

    def test_inference_reps_sets_run_count(self, capsys, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text('{"inference_reps": 3}')
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "inference", "--scenario", str(scenario),
                             "--out", str(out_dir))
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["experiments"]["inference"]["runs"] == 3
        assert summary["experiments"]["inference"]["aggregates"]["selection"]["reps"] == 3

    def test_inference_run(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "inference", "--runs", "3", "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "plot_inference.svg").exists()
        assert "wins=" in out


# A small world, so that an accepted scenario runs in milliseconds.
FUZZ_BASE = {"runs": 1, "mutuality_rounds": 2, "preseed_uses": 2, "inference_reps": 2,
             "tasks_per_node": 1, "profit_candidates": 3, "profit_iterations": 3,
             "attack_tasks": 3, "env_epoch_length": 3}

_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 8), st.floats(-0.5, 1.5),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e9]),
    st.sampled_from(["", "3", "gps", *METHODS]),
)
_task = st.tuples(st.integers(-1, 3),
                  st.lists(st.tuples(st.integers(-1, 4), st.floats(-0.5, 2.0)), max_size=3))
_mutation = st.dictionaries(
    st.sampled_from([*Scenario().to_dict(), "bogus"]),
    st.one_of(_scalar, st.lists(_scalar, max_size=4), st.lists(_task, max_size=3)),
    max_size=4,
)
# every node gets a self-loop, which the loader drops: nodes without an edge stay isolated
_graph = st.integers(2, 6).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10
).map(lambda edges: [(v, v) for v in range(n)] + edges))


class TestScenarioFuzz:
    """A validated scenario runs to in-range metrics; any other is refused before compute."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(which=st.sampled_from(tuple(cli.EXPERIMENTS)), edges=_graph, mutation=_mutation)
    def test_accepted_runs_in_range_rejected_before_compute(self, which, edges, mutation):
        calls = []
        real_map_units = experiments._map_units

        def map_units(*args):
            calls.append(which)
            return real_map_units(*args)

        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(experiments, "_map_units", map_units):
            tmp = Path(tmp)
            (tmp / "g.edges").write_text("".join(f"{u} {v}\n" for u, v in edges))
            (tmp / "s.json").write_text(json.dumps({**FUZZ_BASE, **mutation}))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([which, "--graph", str(tmp / "g.edges"), "--scenario",
                             str(tmp / "s.json"), "--jobs", "1", "--out", str(tmp / "out")])
            err = err.getvalue()
            assert "Traceback" not in err
            if code == 1:
                assert err.startswith("error:")
                assert not calls, err
                return
            assert code == 0, err
            lines = (tmp / "out" / f"metrics_{which}.csv").read_text().splitlines()[1:]
        assert lines
        for line in lines:
            metric, value = line.rsplit(",", 2)[1:]
            assert math.isfinite(float(value)), line
            if metric.endswith("_rate"):
                assert 0.0 <= float(value) <= 1.0, line


# Runs in a fresh interpreter: notes the modules loaded at start, then what each
# CLI run adds. argv[1] is the output root, argv[2] where the module lists go.
STARTUP_SCRIPT = """
import sys
before = set(sys.modules)
from siotrust.cli import main
run = ["mutuality", "--graph", "synthetic-50", "--runs", "1", "--iterations", "2"]
new = {}
for jobs in ("1", "2"):
    assert main([*run, "--jobs", jobs, "--out", f"{sys.argv[1]}/jobs{jobs}"]) == 0
    new[jobs] = sorted(set(sys.modules) - before)
with open(sys.argv[2], "w") as f:
    f.write(repr(new))
"""


class TestStartup:
    """A serial run imports none of the process pool, `statistics`, `dataclasses` and `inspect`."""

    SERIAL_SKIPS = ("concurrent.futures", "multiprocessing", "statistics", "dataclasses",
                    "inspect")

    def test_serial_run_skips_unused_imports(self, tmp_path):
        src = str(Path(experiments.__file__).parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        modules = tmp_path / "modules.txt"
        subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path), str(modules)],
                       env=env, check=True, capture_output=True, timeout=120)
        new = ast.literal_eval(modules.read_text())
        assert not [m for m in new["1"] if m in self.SERIAL_SKIPS], new["1"]
        assert "concurrent.futures" in new["2"]
        csv = "metrics_mutuality.csv"
        assert (tmp_path / "jobs1" / csv).read_bytes() == (tmp_path / "jobs2" / csv).read_bytes()


class TestExperimentTable:
    """`cli.EXPERIMENTS` holds one row per runner, in the order `all` runs them."""

    def test_rows_match_runners(self):
        assert list(cli.EXPERIMENTS) == list(experiments._RUNNERS)

    def test_default_runs_resolution(self):
        defaults = {name: cli.resolve_runs(name, Scenario()) for name in cli.EXPERIMENTS}
        assert defaults == {"mutuality": 100, "inference": Scenario().inference_reps,
                            "transitivity": 20, "profit": 100, "environment": 100}
        assert cli.resolve_runs("inference", Scenario(inference_reps=9)) == 9
        for name in cli.EXPERIMENTS:
            assert cli.resolve_runs(name, Scenario(runs=7)) == 7
            assert cli.resolve_runs(name, Scenario(runs=7), 3) == 3


class TestPlots:
    def test_series_read_by_index_from_aggregates(self):
        from siotrust.cli import _aggregates
        from siotrust.domain import Scenario
        from siotrust.experiments import AGGREGATE, MetricsRow
        rows = []
        for regime in ("baseline", "uncorrected", "corrected"):
            param = f"regime={regime}"
            rows += [
                MetricsRow("environment", param, AGGREGATE, "s_hat[001]", 0.9),
                MetricsRow("environment", param, AGGREGATE, "s_hat[000]", 1.0),
                MetricsRow("environment", param, AGGREGATE, "s_hat[000]_std", 0.1),
                MetricsRow("environment", param, AGGREGATE, "s_hat[001]_std", 0.2),
            ]
        rows.append(MetricsRow("environment", "regime=corrected", 0, "s_hat[000]", 0.5))
        scenario = Scenario(env_values=(1.0,), env_epoch_length=2)
        report = cli.EXPERIMENTS["environment"].report
        [(stem, _, _, _, series)], headline = report(rows, _aggregates(rows), scenario)
        assert stem == "environment"
        assert [s.name for s in series] == ["baseline", "uncorrected", "corrected"]
        assert series[2].xs == (0.0, 1.0)
        assert series[2].ys == (1.0, 0.9)
        assert headline == "baseline=0.900 uncorrected=0.900 corrected=0.900"


class TestBytePins:
    """Discovery, protocol and aggregation changes must keep these outputs byte for byte."""

    # task ids out of order, an integer weight, and characteristics 0 and 2
    # each shared by two tasks; read as `--scenario tasks.json`
    EXPLICIT_TASKS = {"tasks": [[4, [[2, 1.0]]], [1, [[0, 2], [2, 1.0]]], [3, [[1, 0.5], [0, 1.5]]]]}

    PINS = {
        "mutuality": (
            ["mutuality", "--runs", "1", "--theta", "0.3", "--trace"],
            {
                "metrics_mutuality.csv":
                    "80c23d16b92e4dd55bf72afef4878266d2a26ec268c05ab015b6b81388ce5807",
                "trace_mutuality.ndjson":
                    "4b3f97fbecdf528dc1e50efb8956224858b677472f8dceed50ca486d14ec4306",
                "plot_mutuality.svg":
                    "81efef217de4e224f95ac666a3fde628d8e720d980704c3f3b9bfcead39fa36e",
                "summary.json":
                    "80b4fb810e2843f2a7bdadc1d9f966a2e57ca19a901f3028d4fc32318f6ee215",
            },
        ),
        "transitivity": (
            ["transitivity", "--runs", "1", "--characteristics", "4"],
            {
                "metrics_transitivity.csv":
                    "ec13273b692d149b76f4368e2bf408b89d2bb5926879c17f15458838fe6ec91a",
                "plot_transitivity.svg":
                    "c5058c0599f6b4246f31385338ce6caf5be3ff65fa525c32b3ba03aa877eb512",
                "plot_transitivity_unavailable.svg":
                    "6de53d4b6a18ed81b29c13f732011315adf0a7a3bd5ce4b8ce5e2f3ce6330ffd",
                "plot_transitivity_overhead.svg":
                    "0e656ce98d956b0cb6a766f32128475b40838857d5c0eadc838078b3bf03d813",
                "summary.json":
                    "8617a5b0b18dd318906147730211c8aa751bfef6f1ef0e123171fc18007e1cff",
            },
        ),
        "mutuality-tasks": (
            ["mutuality", "--runs", "1", "--theta", "0.3", "--trace", "--scenario", "tasks.json"],
            {
                "metrics_mutuality.csv":
                    "80c23d16b92e4dd55bf72afef4878266d2a26ec268c05ab015b6b81388ce5807",
                "trace_mutuality.ndjson":
                    "7d7edd075cf940bf1a7a7fc0a22384255f25c6d7f2700c3aa5ce5b739524efd0",
                "plot_mutuality.svg":
                    "81efef217de4e224f95ac666a3fde628d8e720d980704c3f3b9bfcead39fa36e",
                "summary.json":
                    "caa469ae7abbefd21db58afd66181ae471ab2022bea52eb3bd8f7e7de36dec12",
            },
        ),
        "transitivity-tasks": (
            ["transitivity", "--runs", "1", "--scenario", "tasks.json"],
            {
                "metrics_transitivity.csv":
                    "73628acaafa6fd1e5a6e8af451b0ac3fe0e9ffe5b485ed90261da69b8a25cca5",
                "plot_transitivity.svg":
                    "e9484a3657da129de3952ec2aefd6dcc8bb84c604899006c9080a5cf54e26c6f",
                "plot_transitivity_unavailable.svg":
                    "9c4a06e1e0daf79f1b3cab20a5855dde097719707f90306bbd436970b2f3a2f6",
                "plot_transitivity_overhead.svg":
                    "f531d4330c992d7f725af1cc4440e9b0fa96e3e25a9435964d96e3aee5912e70",
                "summary.json":
                    "43fabb67e44be11a990b0ca04a261d2fade93955039f3c5c61b2c7f81a8bb272",
            },
        ),
        "inference": (
            ["inference", "--runs", "3"],
            {
                "metrics_inference.csv":
                    "d57825c5fe3bd5b7bfbc454a6fcbc409b812f1bb640f55fc3c9476871b811ef2",
                "plot_inference.svg":
                    "f1ff967ec2d4c158d35b5797575e69d7a9ee5787dc8640dff8b5ce13333fde7e",
                "summary.json":
                    "293ad4106655245682588f7a1440bf5f31724b5904e1613f596b4d770b6391ca",
            },
        ),
        # 50 attack tasks, so the cost-window rows are written too
        "profit": (
            ["profit", "--runs", "2", "--iterations", "50"],
            {
                "metrics_profit.csv":
                    "a493f563d214231e113874372a84ca7a2f42170d1b3debf75149e6bacc0260b2",
                "plot_profit.svg":
                    "d756aba59d316d06c50f0c3f0dc6c7e90fce673217e9d3b8de7a5513780b6de8",
                "plot_profit_attack.svg":
                    "079751b88136b77e4e9a6b19fc04d9e1c5584ff1f250639442a05ae76b484466",
                "summary.json":
                    "0c273ca23dff52aefb25ed25ecac2bec5f507a8793e9c1f6c8a8684c66345414",
            },
        ),
        "environment": (
            ["environment", "--runs", "2", "--iterations", "5"],
            {
                "metrics_environment.csv":
                    "27dd338fd63df9cd233de58b9381c37430d71a7cd689ee0e1999cdf5a4160453",
                "plot_environment.svg":
                    "ade66c355f53a1caa8f8062d322029d3cc1eb5f77d2507e1ea87e1417a466f08",
                "summary.json":
                    "1986cad59d47bf623def519edee5a1f106491cfee31fb0cbb2350ef268014b96",
            },
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_outputs_match_pinned_sha256(self, capsys, tmp_path, monkeypatch, name):
        argv, pins = self.PINS[name]
        (tmp_path / "tasks.json").write_text(json.dumps(self.EXPLICIT_TASKS))
        monkeypatch.chdir(tmp_path)
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, *argv, "--graph", "facebook-like", "--seed", "1",
                             "--jobs", "1", "--out", str(out_dir))
        assert code == 0
        for file_name, digest in pins.items():
            assert hashlib.sha256((out_dir / file_name).read_bytes()).hexdigest() == digest, file_name
