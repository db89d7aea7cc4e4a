"""Every function in `siotrust` is entered by some command-line run.

A function that no CLI call enters is an API that only tests reach. This
test runs a fixed set of in-process CLI calls under `sys.settrace`, which
watches call events only, and names every function defined in the
package (found with `ast`) that none of them entered.
"""

import ast
import json
import sys
from pathlib import Path

import siotrust
from siotrust.cli import main

PACKAGE = Path(siotrust.__file__).parent

# Kept on purpose, though no CLI run enters them.
KEPT = {
    "graph.SocialGraph.has_edge",  # the frozen transitivity oracle calls it
    "trust_engine.update_estimates_env",  # an acceptance criterion names it
}

TWO_TASKS = {"tasks": [[0, [[0, 0.5], [1, 0.5]]], [1, [[1, 1.0]]]]}


def defined_functions() -> dict:
    """(file, first line) -> dotted name of every function defined in the package.

    The first line of a decorated function is its first decorator's line,
    which is what its code object reports as `co_firstlineno`.
    """
    out = {}

    def visit(node, path: Path, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                name = f"{prefix}{child.name}"
                out[(str(path), first)] = name
                visit(child, path, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return out


def cli_calls(tmp_path: Path) -> list:
    scenario = tmp_path / "tasks.json"
    scenario.write_text(json.dumps(TWO_TASKS))
    run = ["--graph", "synthetic-50", "--runs", "1", "--iterations", "2", "--jobs", "1"]
    return [
        (0, ["stats"]),
        (0, ["stats", "--features", "synthetic-50"]),
        (0, ["all", *run, "--trace", "--features", "synthetic-50", "--out", str(tmp_path / "all")]),
        (0, ["transitivity", *run, "--scenario", str(scenario), "--out", str(tmp_path / "t")]),
        (0, ["mutuality", *run, "--scenario", str(scenario), "--theta", "0,0.5",
             "--out", str(tmp_path / "m")]),
        (1, ["transitivity", *run, "--characteristics", "4,zap", "--out", str(tmp_path / "e")]),
    ]


def test_cli_enters_every_function(tmp_path, capsys):
    entered = set()

    def on_call(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for expected, argv in cli_calls(tmp_path):
            codes.append((expected, main(argv), argv))
    finally:
        sys.settrace(previous)
    capsys.readouterr()

    for expected, code, argv in codes:
        assert code == expected, argv
    never = {name for site, name in defined_functions().items() if site not in entered}
    assert never - KEPT == set()
