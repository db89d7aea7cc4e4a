import pytest

from siotrust.experiments import AGGREGATE, MetricsRow
from siotrust.report import (
    METRICS_HEADER,
    Series,
    format_value,
    write_metrics,
    write_plot,
    write_summary,
    write_trace_log,
)


def rows_sample():
    return [
        MetricsRow("mutuality", "theta=0.3", 1, "abuse_rate", 0.123456789),
        MetricsRow("mutuality", "theta=0.3", 0, "abuse_rate", 0.5),
        MetricsRow("mutuality", "theta=0.3", AGGREGATE, "abuse_rate", 0.31172839),
        MetricsRow("mutuality", "theta=0", 0, "abuse_rate", 1e-07),
        MetricsRow("transitivity", "chars=4,method=traditional", 0, "success_rate", 0.25),
    ]


class TestMetricsCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics([], path)
        assert path.read_text() == METRICS_HEADER + "\n"

    def test_single_row_two_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics(rows_sample()[:1], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "mutuality,theta=0.3,1,abuse_rate,0.123457"

    def test_round_trip_six_significant_digits(self, tmp_path):
        path = tmp_path / "m.csv"
        rows = rows_sample()
        write_metrics(rows, path)
        back = {}
        for line in path.read_text().splitlines()[1:]:
            # params may hold commas ("chars=4,method=traditional"); the other
            # fields never do
            _, rest = line.split(",", 1)
            param, run, metric, value = rest.rsplit(",", 3)
            back[(param, run, metric)] = float(value)
        assert len(back) == len(rows)
        for row in rows:
            original = float(format_value(row.value))
            assert back[(row.param, str(row.run), row.metric)] == original

    def test_deterministic_order(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = rows_sample()
        write_metrics(rows, a)
        write_metrics(list(reversed(rows)), b)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()[1:]
        # params sorted, runs before aggregate
        assert lines[0].startswith("mutuality,theta=0,0")
        assert lines[1].startswith("mutuality,theta=0.3,0")
        assert lines[2].startswith("mutuality,theta=0.3,1")
        assert lines[3].startswith("mutuality,theta=0.3,aggregate")

    def test_io_error_names_path(self, tmp_path):
        target = tmp_path / "no_dir_here"
        target.write_text("occupied")
        with pytest.raises(OSError, match="no_dir_here"):
            write_metrics([], target / "m.csv")

    def test_no_temp_files_left(self, tmp_path):
        write_metrics(rows_sample(), tmp_path / "m.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


class TestWritePlot:
    def test_empty_series_list_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            write_plot([], tmp_path / "p.svg")

    def test_length_mismatch_rejected(self, tmp_path):
        s = Series("bad", (1.0, 2.0), (1.0,))
        with pytest.raises(ValueError, match="bad"):
            write_plot([s], tmp_path / "p.svg")

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_plot([Series("e", (), ())], tmp_path / "p.svg")

    def test_single_point_gets_marker(self, tmp_path):
        path = tmp_path / "p.svg"
        write_plot([Series("dot", (1.0,), (0.5,))], path)
        text = path.read_text()
        assert "<circle" in text
        assert "<polyline" not in text

    def test_three_series_three_polylines(self, tmp_path):
        path = tmp_path / "p.svg"
        series = [Series(f"s{i}", (0.0, 1.0, 2.0), (0.1 * i, 0.2 * i, 0.3 * i)) for i in range(3)]
        write_plot(series, path, title="t", x_label="x", y_label="y")
        text = path.read_text()
        assert text.count("<polyline") == 3
        assert text.count("</svg>") == 1

    def test_byte_identical_output(self, tmp_path):
        series = [Series("a", (0.0, 1.0), (0.3, 0.7))]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_plot(series, p1, title="same")
        write_plot(series, p2, title="same")
        assert p1.read_bytes() == p2.read_bytes()

    def test_escapes_markup(self, tmp_path):
        path = tmp_path / "p.svg"
        write_plot([Series("a<b", (0.0,), (1.0,))], path, title='q"&')
        text = path.read_text()
        assert "a&lt;b" in text
        assert "&quot;&amp;" in text


class TestTraceAndSummary:
    def test_trace_log_lines(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        write_trace_log(['{"a":1}', '{"b":2}'], path)
        lines = path.read_text().splitlines()
        assert lines == ['{"a":1}', '{"b":2}']

    def test_empty_trace_log(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        write_trace_log([], path)
        assert path.read_text() == ""

    def test_unwritable_trace_path_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        path.mkdir()  # a directory where the file should go: the rename fails
        with pytest.raises(OSError):
            write_trace_log(['{"a":1}'], path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.ndjson"]

    def test_summary_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_summary({"z": 1, "a": {"nested": 2}}, a)
        write_summary({"a": {"nested": 2}, "z": 1}, b)
        assert a.read_bytes() == b.read_bytes()


class TestFormatValue:
    def test_six_significant_digits(self):
        assert format_value(0.123456789) == "0.123457"
        assert format_value(1234567.0) == "1.23457e+06"
        assert format_value(1.0) == "1"
        assert format_value(0.0) == "0"
