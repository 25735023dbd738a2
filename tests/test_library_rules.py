"""Rules that hold for every library module."""
import ast
from pathlib import Path

import transferlab

PACKAGE = Path(transferlab.__file__).parent


def test_library_functions_do_not_assert():
    """Library functions return verdicts or raise typed errors; an ``assert`` would
    vanish under ``python -O``."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in transferlab: {found}"
