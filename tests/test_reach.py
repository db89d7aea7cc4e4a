"""Every statement in a function of `siotrust` is run by some command-line call.

A statement that no CLI call runs is dead code, or code that only tests
reach. This test runs a fixed set of in-process CLI calls under
`sys.settrace` with line events, lists every statement inside a function
body in the package with `ast` (docstrings excluded), and names each one
that no call ran. A statement that runs from no CLI call on purpose is
named in `KEPT`, keyed by its function's dotted name and its stripped first
line, with the reason; an entry that names no unreached statement fails
the test too, so the list cannot go stale.
"""

import ast
import json
import sys
from itertools import count
from pathlib import Path
from typing import NamedTuple

import siotrust
from siotrust.cli import main

PACKAGE = Path(siotrust.__file__).parent

VALIDATED = "the validating slow path of a value type; the program builds every value in range"
INTERNAL = "rejects a value the program builds itself, never outside input"
MULTI_HOP = "the intermediates of a multi-hop delegation, the paper's update along paths"


def kept(function: str, reason: str, *texts: str) -> dict:
    return {(function, text): reason for text in texts}


# (dotted function name, stripped first line) -> why no CLI call runs it
KEPT = {
    **kept("delegation.DelegationTrace.to_dict",
           "the trace's reference shape, which TestTraceEncoder compares every line "
           "against, and a perfbench probe target",
           "out = {", "if self.outcome is not None:", 'out["outcome"] = {', "return out"),
    **kept("delegation.PathEvaluator.invalidate",
           "the drop for a created record, which the multi-hop path updates need; every "
           "mutuality pair is preseeded and read before its write, and "
           "TestEvaluatorCoherence reaches it",
           "del self._pair[key]", "for row in hops.values():",
           "self._neighbours.pop((observer, kind), None)",
           "for (_, _, k), rows in self._evidence.items():", "if k == kind:",
           "rows.pop(observer, None)"),
    **kept("delegation.PathEvaluator.invalidate",
           "the returns for a pair never read and for a created record; every mutuality "
           "write goes to a read pair's existing task, and TestEvaluatorCoherence "
           "reaches both", "return"),
    **kept("delegation.PathEvaluator.invalidate",
           "the drop for a created record, and a value-only write's drop of the hops of "
           "a pair's other tasks; a mutuality unit has one task, and "
           "TestEvaluatorCoherence reaches both", "row.pop(subject, None)"),
    **kept("delegation.PathEvaluator._new_hop", "README documents the rejection",
           'raise ValueError(f"task {task_id} is not in the evaluator\'s task map")'),
    **kept("delegation.PathEvaluator._new_hop",
           "a stranger is not a distrusted node (TrustStore, test_no_records_is_none)",
           "hit = (0, None)"),
    **kept("delegation._prefer", "the tie-breaks run only on exactly equal path values",
           "if len(new[2]) != len(cur[2]):", "return len(new[2]) < len(cur[2])",
           "return new[2] < cur[2]"),
    **kept("delegation.run_delegation", MULTI_HOP,
           "intermediates = sorted({node for path in relayed for node in path[1:-1]})",
           "rec_pairs = {(path[i], path[i + 1]) for path in relayed for i in range(len(path) - 2)}",
           "writes += [(observer, subject, RECOMMENDATION) for observer, subject in "
           "sorted(rec_pairs)]"),
    **kept("domain._check_unit", VALIDATED, "if not 0.0 <= value <= 1.0:",
           'raise ValueError(f"{name} must be in [0, 1], got {value}")'),
    **kept("domain.TrustRecord.__new__", VALIDATED,
           '_check_unit("s_hat", s_hat)', '_check_unit("g_hat", g_hat)',
           '_check_unit("d_hat", d_hat)', '_check_unit("c_hat", c_hat)',
           "if interaction_count < 0:", 'raise ValueError("interaction_count must be >= 0")'),
    **kept("domain.TrustStore.put", "the one check of a record's kind",
           'raise ValueError(f"unknown kind {kind!r}")'),
    **kept("domain.AgentProfile.__new__", VALIDATED,
           '_check_unit("integrity", integrity)', '_check_unit("default_threshold", threshold)',
           "for c, v in competence.items():", '_check_unit(f"competence[{c}]", v)',
           '_check_unit("gain", gain)', '_check_unit("damage", damage)',
           '_check_unit("cost", cost)', "if not 0.0 <= multiplier < math.inf:",
           'raise ValueError(f"cost_multiplier must be finite and >= 0, got {multiplier}")'),
    **kept("domain.Task.weight_of",
           "the frozen transitivity oracle (tests/test_transitivity.py) and test_domain call "
           "it; inference reads task.parts directly",
           "for c, w in self.parts:", "if c == char_id:", "return w", "return None"),
    **kept("domain.UsageLog.seed", INTERNAL, 'raise ValueError("responsive count out of range")'),
    **kept("domain.UsageLog.counts",
           "the zero-history prior; every mutuality pair is preseeded, the delegation "
           "tests' logs are not", "return (0, 0)"),
    **kept("domain.DelegationOutcome.__new__", VALIDATED,
           '_check_unit("gain", gain)', '_check_unit("damage", damage)',
           '_check_unit("cost", cost)', "if success and damage != 0.0:",
           'raise ValueError("successful delegation must have zero damage")',
           "if not success and gain != 0.0:",
           'raise ValueError("failed delegation must have zero gain")', "if len(snap) < 2:",
           'raise ValueError("env_snapshot needs trustor and trustee entries")', "for v in snap:",
           "if not 0.0 < v <= 1.0:",
           'raise ValueError(f"env snapshot values must be in (0, 1], got {v}")'),
    **kept("experiments._sqrt_of_ratio",
           "exact for any magnitudes; TestStd compares it with statistics.pstdev",
           "den <<= 2 * shift"),
    **kept("experiments._mean_std",
           "the overflow fallback; TestStd compares it with statistics.pstdev",
           "ratios = list(map(float.as_integer_ratio, values))",
           "shift = max(d for _, d in ratios).bit_length() - 1",
           "nums = [n << (shift + 1 - d.bit_length()) for n, d in ratios]"),
    **kept("graph.SocialGraph.has_edge", "the frozen transitivity oracle calls it",
           "nbrs = self.adjacency[u]", "i = bisect_left(nbrs, v)",
           "return i < len(nbrs) and nbrs[i] == v"),
    **kept("graph.role_count", "Scenario checks role_fraction first; sample_roles is "
           "exported from siotrust and takes a caller's fraction",
           'raise ValueError(f"fraction must be in (0, 1], got {fraction}")'),
    **kept("report.write_plot", INTERNAL,
           'raise ValueError("write_plot needs at least one series")',
           'raise ValueError(f"series {s.name!r}: {len(s.xs)} x values vs {len(s.ys)} y values")',
           'raise ValueError(f"series {s.name!r} is empty")'),
    **kept("seeds.derive_seed", INTERNAL,
           'raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")'),
    **kept("trust_engine.update_estimates_env", "acceptance criterion 7f names it",
           "min_env = min(outcome.env_snapshot)",
           "realized_s = 1.0 if outcome.success else 0.0", "return update_from_realized("),
    **kept("trust_engine.infer_characteristic_tw",
           "acceptance criterion 7c asserts None for an uncovered target", "return None"),
    **kept("trust_engine.infer_task_tw",
           "acceptance criterion 7c asserts None for an uncovered target", "return None"),
    **kept("trust_engine.strategy_score",
           "an unknown strategy must not score as full_profit; the profit loop passes "
           "only STRATEGIES",
           'raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")'),
}

TWO_TASKS = {"tasks": [[0, [[0, 0.5], [1, 0.5]]], [1, [[1, 1.0]]]]}
# a comment, a blank line, a degree-1 node (3) and a self-loop on a node
# that has no other edge (5)
EDGES = "# original ids\n\n0 1\n1 2\n2 0\n2 3\n5 5\n"
FEATURES = "# node flags\n\n0 1 0\n1 0 1\n"

# scenario files rejected before compute, each with exit 1
BAD_SCENARIOS = [
    "{",  # not JSON
    "[]",  # not an object
    {"zap": 1},
    {"beta": "x"},
    {"beta": 1.0},
    {"theta_grid": 0.5},
    {"theta_grid": []},
    {"theta_grid": [0.5, 0.5]},
    {"initial_estimates": [0.5]},
    {"tasks": 5},  # not a list
    {"tasks": [[0]]},  # an entry of the wrong shape
    {"tasks": [["x", []]]},
    {"tasks": [[0, [[0, "0.5"]]]]},  # a string weight
    {"tasks": [[0, []]]},  # this and the next five: each `make_task` rejection
    {"tasks": [[0, [[-1, 1.0]]]]},
    {"tasks": [[0, [[0, 0.0]]]]},
    {"tasks": [[0, [[0, 0.5], [0, 0.5]]]]},
    {"tasks": [[0, [[0, 1e308], [1, 1e308]]]]},
    {"tasks": [[0, [[0, 5e-324], [1, 2.0]]]]},
    {"tasks": [[0, [[0, 1.0]]], [0, [[1, 1.0]]]]},
    {**TWO_TASKS, "char_counts": [4]},
    {"role_fraction": 0.001},  # samples no trustor
    {"role_fraction": 0.6, "disjoint_roles": True},  # the roles do not fit
    {"use_features": True},  # without --features
]
# edge and feature files rejected with exit 1
BAD_EDGES = ["0 1 2\n", "0 x\n", "0 -1\n", "# no edges\n"]
BAD_FEATURES = ["0 x\n", "9 1\n", "0 2\n", "0 1\n1 1 0\n"]


class Statement(NamedTuple):
    function: str  # dotted name, such as `graph.SocialGraph.has_edge`
    text: str  # the stripped first line
    path: str
    lines: range  # a line event on any of these means the statement ran


def function_statements() -> list:
    """Every statement inside a function body in the package, docstrings excluded.

    A compound statement runs when its header does, so its lines are those
    before its first body statement; a nested def's are its decorators' and
    its `def` line's, and its body belongs to the nested function.
    """
    out = []

    def header(stmt) -> range:
        first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
        body = getattr(stmt, "body", None)
        stop = body[0].lineno if body else stmt.end_lineno + 1
        return range(first, max(stop, first + 1))

    def visit_function(node, path, lines, name):
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        visit_body(body, path, lines, name)

    def visit_body(stmts, path, lines, function):
        for stmt in stmts:
            out.append(Statement(function, lines[stmt.lineno - 1].strip(), str(path), header(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_function(stmt, path, lines, f"{function}.{stmt.name}")
            elif isinstance(stmt, ast.ClassDef):
                visit(stmt, path, lines, f"{function}.{stmt.name}.")
            else:
                for field in ("body", "orelse", "finalbody"):
                    visit_body(getattr(stmt, field, []), path, lines, function)
                for handler in getattr(stmt, "handlers", []):
                    visit_body(handler.body, path, lines, function)

    def visit(node, path, lines, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_function(child, path, lines, f"{prefix}{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, lines, f"{prefix}{child.name}.")
            else:
                visit(child, path, lines, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        visit(ast.parse(source), path, source.splitlines(), f"{path.stem}.")
    return out


def cli_calls(tmp_path: Path) -> list:
    """(expected exit code, argv) of each call."""
    files = count()

    def write(text, suffix: str) -> str:
        path = tmp_path / f"in{next(files)}{suffix}"
        path.write_text(text if isinstance(text, str) else json.dumps(text))
        return str(path)

    def out() -> list:
        return ["--out", str(tmp_path / f"out{next(files)}")]

    tasks, edges, features = write(TWO_TASKS, ".json"), write(EDGES, ".edges"), write(FEATURES, ".feat")
    flat_env = write({"env_values": [1.0], "env_noise": 0, "env_competence": 1}, ".json")
    blocked = tmp_path / "blocked"
    (blocked / "summary.json").mkdir(parents=True)
    run = ["--graph", "synthetic-50", "--runs", "1", "--iterations", "2", "--jobs", "1"]
    return [
        (0, ["stats"]),
        (0, ["stats", "--features", "synthetic-50"]),
        (0, ["stats", "--graph", edges, "--features", features]),
        (0, ["all", *run, "--trace", "--features", "synthetic-50", *out()]),
        (0, ["transitivity", *run, "--scenario", tasks, *out()]),
        (0, ["mutuality", *run, "--scenario", tasks, "--theta", "0,0.5", *out()]),
        # no --runs: the scenario's runs, then the row's default (inference_reps)
        (0, ["transitivity", "--graph", edges, "--iterations", "2", "--beta", "0.2",
             "--omega1", "0.5", "--omega2", "0.5", "--method", "conservative",
             "--scenario", write({"runs": 1, "disjoint_roles": True}, ".json"), *out()]),
        (0, ["inference", "--graph", edges,
             "--scenario", write({"role_fraction": 1.0, "inference_reps": 2}, ".json"), *out()]),
        (0, ["profit", "--runs", "1", *out()]),  # 50 attack tasks: the cost windows
        (0, ["environment", "--runs", "1", "--iterations", "2", "--scenario", flat_env, *out()]),
        (0, ["environment", "--runs", "2", "--iterations", "2", "--jobs", "2", *out()]),
        (2, ["inference", "--trace", *out()]),
        (1, ["transitivity", *run, "--characteristics", "4,zap", *out()]),
        (1, ["environment", *run, "--runs", "0", *out()]),
        (1, ["environment", *run, "--jobs", "0", *out()]),
        (1, ["environment", *run, "--iterations", "0", *out()]),
        (1, ["environment", *run, "--out", str(blocked)]),
        *[(1, ["transitivity", *run, "--scenario", write(bad, ".json"), *out()])
          for bad in BAD_SCENARIOS],
        *[(1, ["stats", "--graph", write(bad, ".edges")]) for bad in BAD_EDGES],
        *[(1, ["stats", "--graph", edges, "--features", write(bad, ".feat")])
          for bad in BAD_FEATURES],
    ]


def run_traced(calls) -> tuple:
    """The exit codes of the CLI calls, and the (file, line) of every line event in the package."""
    ran = set()
    package = str(PACKAGE)

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(package) else None

    codes = []
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for _, argv in calls:
            codes.append(main(argv))
    finally:
        sys.settrace(previous)
    return codes, ran


def test_cli_runs_every_statement(tmp_path, capsys):
    calls = cli_calls(tmp_path)
    codes, ran = run_traced(calls)
    capsys.readouterr()

    assert codes == [expected for expected, _ in calls]
    missed = {(stmt.function, stmt.text) for stmt in function_statements()
              if not any((stmt.path, line) in ran for line in stmt.lines)}
    assert sorted(missed - KEPT.keys()) == [], "unreached, and not kept"
    assert sorted(KEPT.keys() - missed) == [], "kept, but reached or gone"
    assert all(KEPT.values())
