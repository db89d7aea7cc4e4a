"""Correctness gate for one workload run: artifact digest and output invariants.

The digest is sha256 over one line per file under the run's output
directory, sorted by relative path: `<relative path> <sha256 of file>`.
It covers the metrics CSVs, the SVG plots, every `summary.json`, the
trace log and the saved `stats` table.

Invariants, checked on every run whatever its digest:

* each step left the files its workload lists;
* every metric value in a CSV is a finite number, and a metric named
  `*_rate` lies in [0, 1];
* every number in `summary.json` and in the trace log is finite, and a
  summary key named `*_rate` lies in [0, 1].
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

METRICS_HEADER = "experiment,param,run,metric,value"


def digest(out_dir) -> str:
    out_dir = Path(out_dir)
    lines = []
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        file_hash = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{path.relative_to(out_dir).as_posix()} {file_hash}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _rate_problem(where: str, name: str, value: float):
    if not math.isfinite(value):
        return f"{where}: {name} is not finite ({value})"
    if name.endswith("_rate") and not 0.0 <= value <= 1.0:
        return f"{where}: {name}={value} outside [0, 1]"
    return None


def _csv_problems(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return [f"{path.name}: empty"]
    problems = []
    metrics_table = lines[0] == METRICS_HEADER
    header = lines[0].split(",")
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        # params may hold commas ("chars=4,method=x"), so read from the right
        cells = [(fields[-2], fields[-1])] if metrics_table else list(zip(header, fields))
        for name, text in cells:
            try:
                value = float(text)
            except ValueError:
                problems.append(f"{path.name}:{number}: {name}={text!r} is not a number")
                continue
            problem = _rate_problem(f"{path.name}:{number}", name, value)
            if problem:
                problems.append(problem)
    return problems


def _json_problems(where: str, value, key: str = "") -> list[str]:
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _json_problems(where, v, str(k))]
    if isinstance(value, list):
        return [p for v in value for p in _json_problems(where, v, key)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        problem = _rate_problem(where, key, float(value))
        return [problem] if problem else []
    return []


def _load_json(text: str, where: str):
    def reject(constant):
        raise ValueError(f"{where}: non-finite constant {constant}")
    return json.loads(text, parse_constant=reject)


def invariant_problems(out_dir, steps) -> list[str]:
    """Every broken invariant in a run's output directory; empty when sound."""
    out_dir = Path(out_dir)
    problems = []
    for step in steps:
        for name in step.expects:
            path = out_dir / step.name / name
            if not path.is_file() or path.stat().st_size == 0:
                problems.append(f"{step.name}/{name}: missing or empty")
    for path in sorted(out_dir.rglob("*")):
        if not path.is_file():
            continue
        where = path.relative_to(out_dir).as_posix()
        try:
            if path.suffix == ".csv":
                problems.extend(_csv_problems(path))
            elif path.suffix == ".json":
                problems.extend(_json_problems(where, _load_json(path.read_text("utf-8"), where)))
            elif path.suffix == ".ndjson":
                for number, line in enumerate(path.read_text("utf-8").splitlines(), start=1):
                    record = _load_json(line, f"{where}:{number}")
                    problems.extend(_json_problems(f"{where}:{number}", record))
        except (ValueError, UnicodeDecodeError) as exc:
            problems.append(f"{where}: {exc}")
    return problems
