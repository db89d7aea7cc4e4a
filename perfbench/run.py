"""The siotrust benchmark: four CLI workloads, timed end to end, traced per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program under test is `src/siotrust` of the
checkout this file sits in. The load is closed-loop: one CLI call at a
time, with `--jobs 1`. A round runs each step of the workload once, each in
a fresh interpreter (`child.py`), so set-up time and peak memory are per
process. Rounds repeat while the next is predicted to end within
`--seconds` (at least three). The calibration kernel (`calibrate.py`) runs
here before and after every timed process, and the process's times are
scaled by `REFERENCE_S / mean(those two kernel times)`, which takes out the
drift in machine speed that a shared machine shows. `run_s` is the sum over
steps of the median scaled step time; `setup_s` is the median scaled set-up
time over all timed processes.

Before timing, the whole workload runs once at `--jobs 2`, untimed, and must
give the same digests: this checks that results are bit-identical across
`--jobs` and covers the process-pool path. It also fills the file and
bytecode caches.

With `--trace 1`, each round also runs the whole workload once in one traced
process (probes installed, see `probes.py`; at least two rounds). The result
holds the per-layer metrics, medians over the traced runs, and the tracing
overhead. Counts must repeat exactly between traced runs.

Every run is checked (`outputs.py`): the digest of each step's outputs
must equal the one in `digests.json` for the seed, or, for a seed with no
recorded digests, the one most runs of this invocation gave; and the output
invariants must hold. A run that exits non-zero or fails a check counts as failed.

Output: a metadata line `{"meta": {...}}`, then, as the last line,
`{"correct", "attempted", "failed", "metrics"}`. The metric names, units
and workloads are documented in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from outputs import digest, invariant_problems  # noqa: E402
from workloads import GRAPH, WORKLOADS, step_argv  # noqa: E402

REFERENCE = HERE / "digests.json"
WORK_DIR = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
# No round starts unless it is predicted to end this many seconds into the
# invocation, and a child still running then is killed: the whole
# invocation must end within 180 s.
HARD_LIMIT_S = 165.0


@dataclass
class Sample:
    """One child run: how it ended, what it wrote, and its timings."""

    kind: str  # "timed" (one step, untraced), "traced" or "jobs2" (all steps)
    wall_s: float
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # step name -> digest
    setup_s: Optional[float] = None
    step_run_s: dict = field(default_factory=dict)  # step name -> seconds
    rss_mb: Optional[float] = None
    layers: Optional[dict] = None
    absent: tuple = ()
    kernel_s: Optional[float] = None  # calibration kernel time around a timed run

    @property
    def scale(self) -> float:
        """Factor that turns this run's times into reference-speed seconds."""
        return calibrate.REFERENCE_S / self.kernel_s

    @property
    def run_s(self) -> Optional[float]:
        return sum(self.step_run_s.values()) if self.step_run_s else None


def run_child(workload: str, seed: int, kind: str, out_dir: Path, timeout: float,
              step: Optional[str] = None) -> Sample:
    """Run the workload (or one step of it) once in a fresh interpreter; check its outputs."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--jobs", "2" if kind == "jobs2" else "1", "--out", str(out_dir)]
    if step is not None:
        cmd += ["--step", step]
    if kind == "traced":
        cmd.append("--traced")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers it started
        proc.communicate()
        shutil.rmtree(out_dir, ignore_errors=True)
        return Sample(kind, time.monotonic() - spawned,
                      [f"{kind} run timed out after {timeout:.0f}s"])
    sample = Sample(kind, time.monotonic() - spawned)
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        report = None
    if proc.returncode != 0 or not isinstance(report, dict):
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        sample.problems.append(f"{kind} run exited {proc.returncode}: {tail[0]}")
    if isinstance(report, dict):
        timings = report.get("steps", {})
        starts = [t["first_work"] for t in timings.values() if t["first_work"] is not None]
        if starts and len(starts) == len(timings):
            sample.setup_s = min(starts) - spawned
            sample.step_run_s = {name: t["end"] - t["first_work"] for name, t in timings.items()}
            sample.rss_mb = report["rss_kb"] / 1024.0
            sample.layers = report.get("layers")
            sample.absent = tuple(report.get("absent", ()))
    steps = [s for s in WORKLOADS[workload].steps if step in (None, s.name)]
    if out_dir.is_dir():
        sample.digests = {s.name: digest(out_dir / s.name) for s in steps
                          if (out_dir / s.name).is_dir()}
    sample.problems.extend(invariant_problems(out_dir, steps))
    shutil.rmtree(out_dir, ignore_errors=True)
    return sample


def _counts(layers: dict) -> dict:
    """The metrics that must repeat exactly between traced runs (GC counts need not)."""
    return {k: v for k, v in layers.items()
            if k.endswith(("_calls", "_total"))
            or k in ("experiments.units", "delegation.delegations", "report.bytes_written")}


def judge(samples: list, reference: dict) -> dict:
    """Mark digest and count mismatches as problems; return the digest required per step."""
    expected = {}
    for name in sorted({name for s in samples for name in s.digests}):
        seen = Counter(s.digests[name] for s in samples if name in s.digests)
        expected[name] = reference.get(name) or seen.most_common(1)[0][0]
        if reference and name not in reference:
            samples[0].problems.append(f"digests.json has no digest for step {name}")
    for s in samples:
        for name, value in sorted(s.digests.items()):
            if value != expected[name]:
                s.problems.append(f"{s.kind} run: {name} digest {value[:12]} "
                                  f"!= expected {expected[name][:12]}")
    traced = [s for s in samples if s.layers is not None]
    if traced:
        signatures = Counter(json.dumps(_counts(s.layers), sort_keys=True) for s in traced)
        usual = signatures.most_common(1)[0][0]
        for s in traced:
            if json.dumps(_counts(s.layers), sort_keys=True) != usual:
                s.problems.append("traced run counts differ from the other traced runs")
    return expected


def _load_reference(workload: str, seed: int) -> dict:
    try:
        data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    if data.get("seed") != seed:
        return {}
    return data.get("workloads", {}).get(workload, {})


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_facts() -> tuple[int, str]:
    """Line count and sha256 of the Python sources under src/."""
    lines = 0
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        hasher.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
    return lines, hasher.hexdigest()


def op_counts(layers: dict) -> dict:
    return {
        "delegations": layers.get("delegation.delegations"),
        "discoveries": layers.get("delegation.discover_calls"),
        "records_written": layers.get("domain.store_put_calls"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "siotrust" / "cli.py").is_file():
        print(f"error: no siotrust sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    begin = time.monotonic()
    workload = WORKLOADS[args.workload]
    reference = _load_reference(workload.name, args.seed)
    work = WORK_DIR / f"{workload.name}-{os.getpid()}"
    samples: list[Sample] = []
    last_kernel: Optional[float] = None  # kernel time measured right after the last run

    def run(kind: str, step: Optional[str] = None) -> None:
        nonlocal last_kernel
        timeout = HARD_LIMIT_S - (time.monotonic() - begin)
        out_dir = work / f"{len(samples):03d}-{kind}"
        if kind != "timed":
            samples.append(run_child(workload.name, args.seed, kind, out_dir, timeout, step))
            last_kernel = None
            return
        before = last_kernel if last_kernel is not None else calibrate.kernel()
        sample = run_child(workload.name, args.seed, kind, out_dir, timeout, step)
        last_kernel = calibrate.kernel()
        sample.kernel_s = (before + last_kernel) / 2
        samples.append(sample)

    # A round times every step once, each in its own interpreter, then (with
    # --trace 1) runs the whole workload traced. Rounds repeat while the next
    # one is predicted to end before the deadline.
    min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
    round_walls: list[float] = []
    try:
        run("jobs2")
        deadline = time.monotonic() + args.seconds
        while True:
            predicted = max(round_walls, default=0.0)
            now = time.monotonic()
            if len(round_walls) >= min_rounds and now + predicted > deadline:
                break
            if now - begin + predicted > HARD_LIMIT_S:
                break
            for step in workload.steps:
                run("timed", step.name)
            if args.trace:
                run("traced")
            round_walls.append(time.monotonic() - now)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    timed = [s for s in samples if s.kind == "timed" and s.run_s is not None]
    traced = [s for s in samples if s.kind == "traced" and s.layers is not None]
    step_times = {step.name: [s.step_run_s[step.name] for s in timed if step.name in s.step_run_s]
                  for step in workload.steps}
    scaled_times = {step.name: [s.step_run_s[step.name] * s.scale
                                for s in timed if step.name in s.step_run_s]
                    for step in workload.steps}
    if not all(step_times.values()) or (args.trace and not traced):
        problems = [p for s in samples for p in s.problems]
        print("error: no run completed; " + "; ".join(problems[:3]), file=sys.stderr)
        return 1

    expected = judge(samples, reference.get("digests", {}))
    failed = sum(1 for s in samples if s.problems)
    raw_run_s = sum(statistics.median(times) for times in step_times.values())
    raw_setup_s = statistics.median([s.setup_s for s in timed])
    run_s = sum(statistics.median(times) for times in scaled_times.values())
    if args.trace:
        names = set.intersection(*(set(s.layers) for s in traced))
        layers = {name: statistics.median([s.layers[name] for s in traced])
                  for name in sorted(names)}
        layers["trace.overhead_frac"] = (statistics.median([s.run_s for s in traced])
                                         / raw_run_s - 1.0)
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layers.items()}
        counts, counts_source = op_counts(traced[0].layers), "traced run"
    else:
        peak = max(statistics.median([s.rss_mb for s in timed if step.name in s.step_run_s])
                   for step in workload.steps)
        metrics = {
            "setup_s": {"value": statistics.median([s.setup_s * s.scale for s in timed]),
                        "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "units_per_s": {"value": workload.units / run_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
            "ok_frac": {"value": (len(samples) - failed) / len(samples), "unit": "ratio"},
        }
        counts = reference.get("op_counts")
        counts_source = "digests.json" if counts else None

    src_lines, src_sha = _source_facts()
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_lines": src_lines,
        "src_sha256": src_sha,
        "graph": GRAPH,
        "steps": [step_argv(step, args.seed, 1, "<out>") for step in workload.steps],
        "units": workload.units,
        "op_counts": counts,
        "op_counts_source": counts_source,
        "runs": dict(Counter(s.kind for s in samples)),
        "kernel_s": [s.kernel_s for s in timed],
        "raw_setup_s": raw_setup_s,
        "raw_run_s": raw_run_s,
        "setup_s": [s.setup_s for s in timed],
        "step_run_s": step_times,
        "traced_run_s": [s.run_s for s in traced],
        "digests": expected,
        "digest_source": "digests.json" if reference.get("digests") else "majority of runs",
        "absent": sorted({name for s in traced for name in s.absent}),
        "problems": [p for s in samples for p in s.problems][:20],
        "wall_s": time.monotonic() - begin,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


UNITS = {"_s": "s", "_us": "us", "_pct": "%", "_ratio": "ratio", "_frac": "ratio",
         "bytes_written": "B"}


def _unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
