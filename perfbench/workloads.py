"""The benchmark's workloads: which CLI invocations make up one run.

Every workload runs on the bundled `facebook-like` graph with the master
seed taken from the benchmark's `--seed`. A workload is a sequence of steps,
each one call of `siotrust.cli.main`. Each step writes into its own
subdirectory of the run's output directory, so steps that each write a
`summary.json` do not overwrite each other.

Timed runs start one fresh interpreter per step, so each timed sample is
short and a run collects many of them; a workload's `run_s` is the sum over
its steps of the median step time.
"""

from __future__ import annotations

from dataclasses import dataclass

GRAPH = "facebook-like"


@dataclass(frozen=True)
class Step:
    """One CLI invocation: its name, arguments, units and the files it must leave."""

    name: str
    argv: tuple[str, ...]
    units: int  # simulation units: one run at one grid point
    expects: tuple[str, ...]

    @property
    def takes_jobs(self) -> bool:
        return self.argv[0] != "stats"


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    why: str

    @property
    def units(self) -> int:
        return sum(step.units for step in self.steps)


def _experiment(name: str, argv: tuple, units: int, plots=(), trace=False) -> Step:
    command = argv[0]
    expects = ("summary.json", f"metrics_{command}.csv") + tuple(f"plot_{p}.svg" for p in plots)
    if trace:
        expects += (f"trace_{command}.ndjson",)
    return Step(name=name, argv=argv, units=units, expects=expects)


def _mutuality(*extra: str, trace=False) -> tuple[Step, ...]:
    """5 runs at each default reverse threshold, one step per threshold."""
    return tuple(
        _experiment(f"mutuality-theta{theta}",
                    ("mutuality", "--runs", "5", "--theta", theta, *extra), 5,
                    plots=("mutuality",), trace=trace)
        for theta in ("0", "0.3", "0.6")
    )


# Steps split the default grids (theta for mutuality, characteristic count for
# transitivity) so that each timed process is short and a run collects many.
# A unit's world depends on its run index, not on the other grid points, so
# the split does the same simulation work. mutuality: 5 runs x 3 thetas.
# transitivity: 1 run per characteristic count, each evaluating all three
# methods. model: the experiments' default (acceptance) run counts,
# inference 50, profit 100 x 2 variants, environment 100.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mutuality-fb",
            steps=_mutuality(),
            why="1-hop discovery plus the full mutual-evaluation protocol; "
                "store reads and writes interleave because every delegation writes records",
        ),
        Workload(
            name="transitivity-fb",
            steps=tuple(
                _experiment(f"transitivity-{chars}",
                            ("transitivity", "--runs", "1", "--characteristics", str(chars)), 1,
                            plots=("transitivity", "transitivity_unavailable",
                                   "transitivity_overhead"))
                for chars in (4, 5, 6, 7)
            ),
            why="3-hop discovery for three methods over a read-only store; "
                "where a discovery index must show",
        ),
        Workload(
            name="model-fb",
            steps=(
                Step(name="stats", argv=("stats",), units=0, expects=("stats.csv",)),
                _experiment("inference", ("inference",), 50, plots=("inference",)),
                _experiment("profit", ("profit",), 2 * 100, plots=("profit", "profit_attack")),
                _experiment("environment", ("environment",), 100, plots=("environment",)),
            ),
            why="no discovery: graph statistics, trust maths, long-series aggregation "
                "and the largest CSV writes; the bypass workload for discovery changes",
        ),
        Workload(
            name="mutuality-trace-fb",
            steps=_mutuality("--trace", trace=True),
            why="the mutuality-fb world plus the per-delegation trace log, "
                "so trace serialization, its writes and the GC load they cause are measured",
        ),
    )
}


def step_argv(step: Step, seed: int, jobs: int, out_dir: str) -> list[str]:
    """Full CLI argument list for one step."""
    argv = [*step.argv, "--graph", GRAPH]
    if step.takes_jobs:
        argv += ["--seed", str(seed), "--jobs", str(jobs), "--out", out_dir]
    return argv
