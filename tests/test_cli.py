import hashlib
import json
import time

import pytest

from siotrust.cli import main


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

    def test_zero_inference_reps_rejected(self, capsys, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text('{"inference_reps": 0}')
        code, _, err = run_cli(capsys, "inference", "--scenario", str(scenario),
                               "--out", str(tmp_path / "out"))
        assert code == 1
        assert "error:" in err
        assert "inference_reps" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,scenario", [
        ("mutuality", {"role_fraction": 0.1}),
        ("transitivity", {"role_fraction": 0.1}),
        ("mutuality", {"mutuality_rounds": 0}),
    ], ids=["mutuality-no-trustors", "transitivity-no-trustors", "mutuality-zero-rounds"])
    def test_empty_request_set_rejected(self, capsys, tmp_path, command, scenario):
        graph = tmp_path / "path4.edges"
        graph.write_text("0 1\n1 2\n2 3\n")
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(scenario))
        code, _, err = run_cli(capsys, command, "--graph", str(graph), "--scenario",
                               str(scenario_path), "--runs", "1", "--out", str(tmp_path / "out"))
        assert code == 1
        assert "error:" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("scenario,field", [
        ({"char_counts": [2.5]}, "char_counts"),
        ({"max_hops": "3"}, "max_hops"),
        ({"beta": None}, "beta"),
    ], ids=["char_counts-float-entry", "max_hops-string", "beta-null"])
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

class TestExperimentRuns:
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
        from siotrust.report import read_metrics
        out_dir = tmp_path / "out"
        run_cli(capsys, "environment", "--runs", "2", "--iterations", "10",
                "--out", str(out_dir))
        summary = json.loads((out_dir / "summary.json").read_text())
        aggs = summary["experiments"]["environment"]["aggregates"]
        rows = read_metrics(out_dir / "metrics_environment.csv")
        from siotrust.report import format_value
        for row in rows:
            if row.run == "aggregate":
                assert float(format_value(aggs[row.param][row.metric])) == row.value

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


class TestBytePins:
    """Discovery and protocol changes must keep these outputs byte for byte."""

    PINS = {
        "mutuality": (
            ["mutuality", "--runs", "1", "--theta", "0.3", "--trace"],
            {
                "metrics_mutuality.csv":
                    "80c23d16b92e4dd55bf72afef4878266d2a26ec268c05ab015b6b81388ce5807",
                "trace_mutuality.ndjson":
                    "4b3f97fbecdf528dc1e50efb8956224858b677472f8dceed50ca486d14ec4306",
            },
        ),
        "transitivity": (
            ["transitivity", "--runs", "1", "--characteristics", "4"],
            {
                "metrics_transitivity.csv":
                    "ec13273b692d149b76f4368e2bf408b89d2bb5926879c17f15458838fe6ec91a",
            },
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_outputs_match_pinned_sha256(self, capsys, tmp_path, name):
        argv, pins = self.PINS[name]
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, *argv, "--graph", "facebook-like", "--seed", "1",
                             "--jobs", "1", "--out", str(out_dir))
        assert code == 0
        for file_name, digest in pins.items():
            assert hashlib.sha256((out_dir / file_name).read_bytes()).hexdigest() == digest, file_name
