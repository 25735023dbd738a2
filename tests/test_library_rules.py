"""Rules that hold for every library module."""
import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

import transferlab
from transferlab.cli import DiagnosticsReport, SweepRow
from transferlab.core import GaussianLaw, LdsLaw, MarkovLaw

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


def test_only_mixing_reads_profile_parameters():
    """A geometric profile's coefficients are phi(k) = gamma * rho^(k-1), and only
    ``mixing`` turns gamma and rho into them; every other module reads a profile
    through ``phi_at``, so the anchor of the convention lives in one module."""
    found = [f"{path.name}:{node.lineno}" for path, tree in _modules()
             if path.name != "mixing.py" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("gamma", "rho")]
    assert not found, f"profile gamma or rho read outside mixing.py: {found}"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _laws():
    """Every covariate law the package defines, in any of its modules."""
    for info in pkgutil.iter_modules(transferlab.__path__):
        if info.name != "__main__":  # importing it runs the command line
            importlib.import_module(f"transferlab.{info.name}")
    return [law for law in _subclasses(transferlab.core.CovariateLaw)
            if law.__module__.startswith("transferlab.")]


def test_covariate_laws_share_the_sampler_signatures():
    """``datagen._draw`` calls ``factor(n, rng)`` on a law's ``sample_path`` or
    ``gram_factor``, and the benchmark tracer wraps ``sample_path``: every law
    that overrides a sampler keeps the base class's signature, so no law grows
    options of its own."""
    base = transferlab.core.CovariateLaw
    laws = _laws()
    assert {law.__name__ for law in laws} >= {"GaussianLaw", "LdsLaw", "MarkovLaw"}
    found = [f"{law.__name__}.{name}{inspect.signature(law.__dict__[name])}"
             for law in laws for name in ("sample_paths", "sample_path", "gram_factor")
             if name in law.__dict__
             and inspect.signature(law.__dict__[name]) != inspect.signature(getattr(base, name))]
    assert not found, f"sampler signatures that differ from CovariateLaw's: {found}"


# One small instance of each covariate law.
LAW_EXAMPLES = {
    "GaussianLaw": GaussianLaw(sigma_x=np.eye(2)),
    "LdsLaw": LdsLaw(a=0.5 * np.eye(2)),
    "MarkovLaw": MarkovLaw(
        transition=np.array([[0.9, 0.05, 0.05], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]), d_x=2),
}


def _mutable_parts(value, where):
    """Where ``value`` holds, at any depth, a writeable array or a mutable container."""
    if isinstance(value, np.ndarray):
        if value.flags.writeable:
            yield where
    elif isinstance(value, (list, dict, set, bytearray)):
        yield where
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _mutable_parts(item, f"{where}[{i}]")
    elif hasattr(value, "__dict__"):
        for name, item in vars(value).items():
            yield from _mutable_parts(item, f"{where}.{name}")


def test_covariate_laws_are_deeply_immutable():
    """``cli.build_population`` gives one law object to every task that has that
    law, so no law may hold state a caller could change in place: no writeable
    array and no list, dict or set, at any depth of its attributes."""
    assert {law.__name__ for law in _laws()} == set(LAW_EXAMPLES), \
        "give every covariate law an example in LAW_EXAMPLES"
    found = [part for name, law in LAW_EXAMPLES.items() for part in _mutable_parts(law, name)]
    assert not found, f"mutable state in covariate laws: {found}"


def test_diagnose_reports_every_sweep_row_metric():
    """A sweep row and ``diagnose`` run the same two stages, so every metric a row
    reports is a ``DiagnosticsReport`` field too; only the row's place in the grid
    and its wall time are the row's own."""
    own = {"axis_value", "replicate", "wall_time_ms"}
    missing = {f.name for f in fields(SweepRow)} - own - {f.name for f in fields(DiagnosticsReport)}
    assert not missing, f"sweep row fields that diagnose does not report: {sorted(missing)}"


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
    numpy; scipy serves the ALS G-step solve alone, so only ``erm`` imports it, and
    only inside the function that uses it."""
    found = [f"{path.name}:{node.lineno}" for path, tree in _modules()
             for node in (_imports_outside_functions(tree) if path.name == "erm.py"
                          else ast.walk(tree))
             if isinstance(node, (ast.Import, ast.ImportFrom)) and _names_scipy(node)]
    assert not found, f"scipy imported outside an erm function in transferlab: {found}"


SET_UP = """
import sys
from transferlab.cli import ExperimentConfig, build_population, example_config
config = ExperimentConfig.from_dict(example_config())
for law in ({"kind": "gaussian", "scale_spread": 2.0},
            {"kind": "lds", "spectral_radius": 0.9},
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


# Public names that only tests reach, each with the reason it stays.
ALLOWED_TEST_ONLY = {
    "log_integral_bound": "criterion 10 checks the bound formula's structure with it",
    "offset_complexity_stat": "criterion 5 checks the offset complexity against its oracle",
    "nrls_excess": "sweep rows and diagnose are to report it (ROADMAP item 3)",
    "infimal_risk": "the decomposition identity's other term (ROADMAP item 3)",
    "hypercontractivity_c42": "the bound's c42, to be fed in or deleted (ROADMAP item 4)",
    "SnmCheckResult.passed": "the library's verdict on an SNM coverage check",
    "TailCheckResult.passed": "the library's verdict on a lower-isometry tail check",
    "MarkovLaw.stationary": "read by the tests' reference Markov samplers",
    "MarkovLaw.embedding": "read by the tests' reference Markov samplers",
}


def _public_surface():
    """Qualified name -> used name of each public module-level function and class,
    and of each public method or property of those classes."""
    surface = {}
    for _, tree in _modules():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            surface[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                surface.update((f"{node.name}.{item.name}", item.name) for item in node.body
                               if isinstance(item, ast.FunctionDef) and item.name[0] != "_")
    return surface


def _used_names(paths):
    """Names that the code in ``paths`` reads: a bare name, an attribute or a keyword
    argument. Definitions, imports and docstrings do not count."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                used.add(node.arg)
    return used


def test_every_public_name_is_reached_by_the_library_or_the_benchmark():
    """A public name that no module and no benchmark script uses is dead surface:
    delete it, or give the reason it stays in ``ALLOWED_TEST_ONLY``. An entry the
    library now reaches, or that no longer exists, is taken off the list."""
    bench = sorted((PACKAGE.parents[1] / "bench").glob("*.py"))
    assert bench, "the benchmark scripts are not beside the package"
    used = _used_names(sorted(PACKAGE.glob("*.py")) + bench)
    unreached = {name for name, short in _public_surface().items() if short not in used}
    assert unreached == set(ALLOWED_TEST_ONLY)
