"""Run steps of one workload, in this fresh interpreter, and report their timings.

    python3 perfbench/child.py --workload NAME --seed N --jobs J --out DIR
                               [--step NAME] [--traced]

Without `--step`, every step of the workload runs, in order. The parent
(`run.py`) notes the monotonic clock just before it starts this process.
For each step this process notes the clock when the step's first unit of
work begins (its first `_map_units` or `compute_stats` call) and when its
`main()` has returned, that is, when its artifacts are on disk. Both
processes read CLOCK_MONOTONIC, which all processes of the machine share.

The last line on stdout is one JSON object. Untraced, this process loads
nothing of the benchmark but the workload table. With `--traced` it
installs the probes before the first step and adds their metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, step_argv  # noqa: E402


class FirstWork:
    """Wraps the calls that start a step's work; keeps the time of the first."""

    def __init__(self):
        self.at = None

    def wrap(self, fn):
        def wrapper(*args, **kwargs):
            if self.at is None:
                self.at = time.monotonic()
            return fn(*args, **kwargs)
        return wrapper


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--step", default=None, help="run only this step")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    steps = [s for s in WORKLOADS[args.workload].steps if args.step in (None, s.name)]
    if not steps:
        parser.error(f"workload {args.workload} has no step {args.step!r}")

    from siotrust import cli, experiments

    source = Path(cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: imported siotrust from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    first = FirstWork()
    experiments._map_units = first.wrap(experiments._map_units)
    cli.compute_stats = first.wrap(cli.compute_stats)
    tracer = None
    if args.traced:
        from probes import Tracer
        tracer = Tracer()
        tracer.install()

    timings = {}
    failed = False
    for step in steps:
        step_dir = Path(args.out) / step.name
        step_dir.mkdir(parents=True, exist_ok=True)
        step_args = step_argv(step, args.seed, args.jobs, str(step_dir))
        first.at = None
        if step.takes_jobs:
            code = cli.main(step_args)
        else:
            # stats prints its table; keep it as an artifact so it is checked
            with open(step_dir / "stats.csv", "w", encoding="utf-8") as sink, \
                    contextlib.redirect_stdout(sink):
                code = cli.main(step_args)
        end = time.monotonic()
        failed = failed or code != 0 or first.at is None
        timings[step.name] = {"first_work": first.at, "end": end, "code": code}

    result = {
        "steps": timings,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
