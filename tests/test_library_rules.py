"""Rules that hold for every library module."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import transferlab

PACKAGE = Path(transferlab.__file__).parent


def _modules():
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(PACKAGE.glob("*.py"))]


def test_library_functions_do_not_assert():
    """Library functions return verdicts or raise typed errors; an ``assert`` would
    vanish under ``python -O``."""
    found = [f"{path.name}:{node.lineno}" for path, tree in _modules()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in transferlab: {found}"


def _imports_outside_functions(node):
    """Import statements under ``node`` that no function body encloses."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _imports_outside_functions(child)


def _names_scipy(node):
    names = [alias.name for alias in node.names] if isinstance(node, ast.Import) \
        else [node.module or ""]
    return any(name.split(".")[0] == "scipy" for name in names)


def test_scipy_is_imported_only_inside_functions():
    """Importing the package, parsing a config and building a population need only
    numpy; scipy serves a few solvers, each importing it where it is used."""
    found = [f"{path.name}:{node.lineno}" for path, tree in _modules()
             for node in _imports_outside_functions(tree) if _names_scipy(node)]
    assert not found, f"scipy imported at module level in transferlab: {found}"


SET_UP = """
import sys
from transferlab.cli import ExperimentConfig, build_population, example_config
config = ExperimentConfig.from_dict(example_config())
for law in ({"kind": "gaussian", "scale_spread": 2.0},
            {"kind": "markov", "states": 6, "stay_prob": 0.8}):
    build_population({**config.population, "law": law}, config.seed)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_set_up_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", SET_UP], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
