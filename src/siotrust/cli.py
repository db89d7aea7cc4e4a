"""Command-line entry point binding graphs and scenarios to experiment reports.

Every subcommand runs with zero downloads: a bundled 50-node synthetic graph
is the default topology and a 347-node fixture ships for Facebook-scale
runs. Outputs land under --out as metrics CSV, SVG plots, an optional
trace log, and a deterministic summary.json; wall-clock timings print to
stdout only so repeated invocations stay byte-identical on disk.
"""

from __future__ import annotations

import argparse
import sys
import time
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .domain import METHODS, Scenario, ScenarioError, load_scenario
from .experiments import (
    AGGREGATE,
    REGIMES,
    SELECTION,
    VARIANT_ATTACK,
    VARIANT_RANDOM,
    MetricsRow,
    char_grid,
    label,
    run_experiment_rows,
    series_metric,
)
from .graph import GraphFormatError, compute_stats, load_edge_list, load_features, stats_csv
from .report import Series, write_metrics, write_plot, write_summary, write_trace_log
from .trust_engine import STRATEGIES

# builtin name -> stem of its `.edges` and `.feat` files in `siotrust.data`
BUILTINS = {
    "synthetic-50": "synthetic_50",
    "facebook-like": "facebook_like",
}
DEFAULT_GRAPH = "synthetic-50"


def _read_input(arg: str, suffix: str) -> str:
    """The text of the builtin `arg`'s data file with this suffix, else of the file at `arg`."""
    if arg in BUILTINS:
        data = resources.files("siotrust.data").joinpath(BUILTINS[arg] + suffix)
        return data.read_text(encoding="utf-8")
    return Path(arg).read_text(encoding="utf-8")


def _load_graph(graph_arg: str, features_arg):
    graph = load_edge_list(_read_input(graph_arg, ".edges"))
    if features_arg:
        graph = load_features(_read_input(features_arg, ".feat"), graph)
    return graph


def _csv(text: str, kind: type) -> tuple:
    """A comma list of `kind` (float or int) values."""
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ScenarioError(f"expected comma-separated {noun}, got {text!r}") from None


def _scenario_from_args(args) -> Scenario:
    scenario = load_scenario(args.scenario) if args.scenario else Scenario()
    overrides = {}
    if args.theta is not None:
        overrides["theta_grid"] = _csv(args.theta, float)
    if args.beta is not None:
        overrides["beta"] = args.beta
    if args.omega1 is not None:
        overrides["omega1"] = args.omega1
    if args.omega2 is not None:
        overrides["omega2"] = args.omega2
    if args.method is not None:
        overrides["methods"] = (args.method,)
    if args.characteristics is not None:
        overrides["char_counts"] = _csv(args.characteristics, int)
    if args.iterations is not None:
        n = args.iterations
        if n < 1:
            raise ScenarioError("--iterations must be >= 1")
        overrides.update(
            mutuality_rounds=n,
            profit_iterations=n,
            attack_tasks=n,
            env_epoch_length=n,
        )
    if getattr(args, "features", None):
        overrides["use_features"] = True
    if overrides:
        scenario = scenario.replace(**overrides)
    return scenario


def _aggregates(rows) -> dict:
    out: dict[str, dict[str, float]] = {}
    for row in rows:
        if row.run == AGGREGATE:
            out.setdefault(row.param, {})[row.metric] = row.value
    return out


def _series(agg: dict, param: str, name: str, length: int, legend: str) -> Series:
    """The aggregate series `name[000]`, `name[001]`, ... of one param."""
    return Series(legend, tuple(float(i) for i in range(length)),
                  tuple(agg[param][series_metric(name, i)] for i in range(length)))


# Each report returns (plots, headline): a plot is (filename stem, title,
# x label, y label, series list), the headline the experiment's stdout line.

def _mutuality_report(rows: list[MetricsRow], agg: dict, scenario: Scenario):
    thetas = scenario.theta_grid
    series = [
        Series(metric, tuple(float(t) for t in thetas),
               tuple(agg[label(theta=t)][metric] for t in thetas))
        for metric in ("success_rate", "unavailable_rate", "abuse_rate")
    ]
    plot = ("mutuality", "Delegation rates vs reverse threshold", "theta", "rate", series)
    return [plot], " ".join(f"abuse[{t:g}]={a:.3f}" for t, a in zip(thetas, series[-1].ys))


def _inference_report(rows: list[MetricsRow], agg: dict, scenario: Scenario):
    reps = sorted({row.run for row in rows if row.run != AGGREGATE})
    series = []
    for metric, name in (("with_inference", "with inference"),
                         ("without_inference", "without inference")):
        values = {row.run: row.value for row in rows
                  if row.run != AGGREGATE and row.metric == metric}
        series.append(Series(name, tuple(float(r) for r in reps),
                             tuple(values[r] for r in reps)))
    m = agg[SELECTION]
    headline = f"wins={m['wins']:.0f}/{m['reps']:.0f} improvement={m['improvement_pp']:.1f}pp"
    return [("inference", "Honest-trustee selection per repetition", "repetition",
             "honest fraction", series)], headline


def _transitivity_report(rows: list[MetricsRow], agg: dict, scenario: Scenario):
    counts = sorted(char_grid(scenario))
    plots = []
    for metric, ylabel, suffix in (
        ("success_rate", "success rate", ""),
        ("unavailable_rate", "unavailable rate", "_unavailable"),
        ("mean_interrogated", "interrogated nodes", "_overhead"),
    ):
        series = [
            Series(method, tuple(float(c) for c in counts),
                   tuple(agg[label(chars=c, method=method)][metric] for c in counts))
            for method in scenario.methods
        ]
        plots.append((f"transitivity{suffix}", f"Transitivity methods: {ylabel}",
                      "characteristic count", ylabel, series))
    count = char_grid(scenario)[0]
    rates = " ".join(f"{method}={agg[label(chars=count, method=method)]['success_rate']:.3f}"
                     for method in scenario.methods)
    return plots, f"success chars={count}: {rates}"


def _profit_report(rows: list[MetricsRow], agg: dict, scenario: Scenario):
    random_series = [
        _series(agg, label(variant=VARIANT_RANDOM, strategy=s), "net_profit",
                scenario.profit_iterations, s)
        for s in STRATEGIES
    ]
    attack_series = [
        _series(agg, label(variant=VARIANT_ATTACK, strategy=s), "cost",
                scenario.attack_tasks, s)
        for s in STRATEGIES
    ]
    finals = " ".join(f"{s.name}={s.ys[-1]:.3f}" for s in random_series)
    return [("profit", "Net profit per iteration", "iteration", "net profit", random_series),
            ("profit_attack", "Realized cost under cost inflation", "task", "cost",
             attack_series)], f"final net profit: {finals}"


def _environment_report(rows: list[MetricsRow], agg: dict, scenario: Scenario):
    length = len(scenario.env_values) * scenario.env_epoch_length
    series = [_series(agg, label(regime=r), "s_hat", length, r) for r in REGIMES]
    headline = " ".join(f"{s.name}={s.ys[-1]:.3f}" for s in series)
    return [("environment", "Expected success rate through environment epochs",
             "iteration", "expected success rate", series)], headline


class Experiment(NamedTuple):
    """One experiment's row in `EXPERIMENTS`."""

    default_runs: Optional[int]  # None: the scenario's `inference_reps`
    traces: bool  # writes a delegation trace log under --trace
    report: Callable  # (rows, aggregates, scenario) -> (plots, headline)


# every experiment, in the order that `all` runs them
EXPERIMENTS = {
    "mutuality": Experiment(100, True, _mutuality_report),
    "inference": Experiment(None, False, _inference_report),
    "transitivity": Experiment(20, False, _transitivity_report),
    "profit": Experiment(100, False, _profit_report),
    "environment": Experiment(100, False, _environment_report),
}


def resolve_runs(name: str, scenario: Scenario, runs: Optional[int] = None) -> int:
    """Explicit runs, else the scenario's, else the row's (`None`: `inference_reps`)."""
    if runs is not None:
        return runs
    if scenario.runs is not None:
        return scenario.runs
    default = EXPERIMENTS[name].default_runs
    return scenario.inference_reps if default is None else default


def _run_experiments(names, args) -> int:
    if args.jobs < 1:
        raise ScenarioError("--jobs must be >= 1")
    if args.runs is not None and args.runs < 1:
        raise ScenarioError("--runs must be >= 1")
    graph = _load_graph(args.graph, args.features)
    scenario = _scenario_from_args(args)
    seed = args.seed if args.seed is not None else scenario.master_seed
    out_dir = Path(args.out)
    summary = {
        "graph": args.graph,
        "seed": seed,
        "scenario": scenario.to_dict(),
        "experiments": {},
    }
    for name in names:
        experiment = EXPERIMENTS[name]
        runs = resolve_runs(name, scenario, args.runs)
        # args.trace exists only where the row traces, and for `all`
        trace_sink = [] if (experiment.traces and args.trace) else None
        started = time.perf_counter()
        rows = run_experiment_rows(name, graph, scenario, runs, seed, jobs=args.jobs,
                                   trace_sink=trace_sink)
        elapsed = time.perf_counter() - started

        agg = _aggregates(rows)
        metrics_path = out_dir / f"metrics_{name}.csv"
        write_metrics(rows, metrics_path)
        plots, headline = experiment.report(rows, agg, scenario)
        plot_files = []
        for stem, title, xlabel, ylabel, series in plots:
            plot_path = out_dir / f"plot_{stem}.svg"
            write_plot(series, plot_path, title=title, x_label=xlabel, y_label=ylabel)
            plot_files.append(plot_path.name)
        if trace_sink is not None:
            write_trace_log(trace_sink, out_dir / f"trace_{name}.ndjson")
        summary["experiments"][name] = {
            "runs": runs,
            "metrics": metrics_path.name,
            "plots": plot_files,
            "aggregates": agg,
        }
        print(f"{name}: runs={runs} {headline} -> {metrics_path} ({elapsed:.1f}s)")
    write_summary(summary, out_dir / "summary.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siotrust",
        description="Trust-aware task delegation simulator for social IoT networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_experiment_flags=True):
        p.add_argument("--graph", default=DEFAULT_GRAPH,
                       help="edge-list path or builtin name (synthetic-50, facebook-like)")
        p.add_argument("--features", default=None,
                       help="feature file path or builtin name; enables feature-driven tasks")
        if with_experiment_flags:
            p.add_argument("--scenario", default=None, help="JSON scenario file")
            p.add_argument("--out", default="out", help="output directory (default: out)")
            p.add_argument("--seed", type=int, default=None, help="master seed (default 1)")
            p.add_argument("--runs", type=int, default=None, help="override run count")
            p.add_argument("--jobs", type=int, default=1, help="parallel run workers")
            p.add_argument("--iterations", type=int, default=None,
                           help="main loop length override (rounds / iterations / epoch length)")
            p.add_argument("--theta", default=None, help="comma list of reverse thresholds")
            p.add_argument("--beta", type=float, default=None, help="forgetting factor")
            p.add_argument("--omega1", type=float, default=None, help="recommendation gate")
            p.add_argument("--omega2", type=float, default=None, help="service gate")
            p.add_argument("--method", default=None,
                           choices=METHODS,
                           help="restrict transitivity to one method")
            p.add_argument("--characteristics", default=None,
                           help="comma list of characteristic counts")

    stats_p = sub.add_parser("stats", help="print connectivity statistics for a graph")
    add_common(stats_p, with_experiment_flags=False)

    runners = {name: sub.add_parser(name, help=f"run the {name} experiment")
               for name in EXPERIMENTS}
    runners["all"] = sub.add_parser("all", help="run all five experiments")
    for p in runners.values():
        add_common(p)
    # argparse refuses --trace on each experiment whose row does not trace
    tracing = [name for name, row in EXPERIMENTS.items() if row.traces]
    for name in (*tracing, "all"):
        runners[name].add_argument(
            "--trace", action="store_true",
            help=f"write the {' and '.join(tracing)} experiment's delegation trace log")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.command == "stats":
            graph = _load_graph(args.graph, args.features)
            sys.stdout.write(stats_csv(compute_stats(graph)))
            return 0
        names = list(EXPERIMENTS) if args.command == "all" else [args.command]
        return _run_experiments(names, args)
    except (GraphFormatError, ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
