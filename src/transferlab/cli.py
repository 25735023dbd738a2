"""Batch experiment front end.

Reads a strict JSON configuration (one table per section below gives each key's
kind, default and range), builds synthetic populations, and dispatches to the
samplers, fitters, diagnostics, mixing checks, and bound calculators. The sweep
harness runs a grid over T, N, or N' with replicates, aggregates by median, fits
log-log slopes, and emits CSV rows plus a summary JSON keyed by a config hash.

Every sweep row, ``fit`` and ``diagnose`` run the same two stages of the paper's
decomposition. The source stage (``_source_stage``) draws the sources' statistics,
fits the shared representation and source heads, and gives the metrics that read
the sources alone. The target stage (``_target_stage``) draws the target's
statistics, fits its head on that representation, and gives the metrics that read
the target. ``RowMetrics`` declares the metrics once: a ``SweepRow`` adds the row's
place in the grid and its wall time, and ``diagnose``'s ``DiagnosticsReport`` adds
``nu_true`` and the NRLS quantities. ``fit`` runs the two stages' draws and fits
only (``_fit_sources``, ``_fit_target``). Each task draws from its own stream, so
a stage's draw of its tasks equals those tasks in a draw of the whole request.

Subcommands: gen, fit, diagnose, bounds, sweep, mixcheck.
Exit codes: 0 success, 2 validation error, 3 sweep failure.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import diagnostics as diag
from . import mixing as mixing_mod
from .core import (
    Dims,
    GaussianLaw,
    LdsLaw,
    LinearHead,
    LinearRep,
    MarkovLaw,
    PopulationSpec,
    TaskSpec,
)
from .datagen import SampleRequest, sample_task_stats, sample_tasks, write_datasets_csv
from .erm import (
    FirstStageFit,
    FitOptions,
    SecondStageFit,
    first_stage_to_json,
    fit_first_stage_linear,
    fit_second_stage,
    second_stage_to_json,
)
from .errors import ConfigError, InvalidPoints, SweepFailed, TransferLabError

SCHEMA_VERSION = 1

# N = N' for gen, fit and diagnose when the config has no sweep section.
COMMAND_SAMPLES = 256

# Failures a sweep row records instead of aborting the sweep.
ROW_ERRORS = (TransferLabError, np.linalg.LinAlgError, ValueError)


# ---------------------------------------------------------------------------
# Config tables: each key maps to (kind, default or REQUIRED[, lower bound])
# ---------------------------------------------------------------------------

REQUIRED = object()


def _value(kind, value, lo=None):
    """``value`` checked as ``kind``: int (a count, so >= 1 unless ``lo`` is given),
    float (finite), str, a tuple of allowed values, list[int] (strictly increasing
    counts) or list[list[float]]. A bad value raises ValueError naming the kind."""
    if isinstance(kind, tuple):
        ok, want = type(value) is type(kind[0]) and value in kind, f"one of {list(kind)}"
    elif kind is int:
        lo = 1 if lo is None else lo
        ok, want = type(value) is int and value >= lo, f"an integer >= {lo}"
    elif kind is float:
        ok = (type(value) in (int, float) and abs(value) <= sys.float_info.max
              and (lo is None or value >= lo))
        want = "a finite number" + ("" if lo is None else f" >= {lo}")
    elif kind is str:
        ok, want = isinstance(value, str), "a string"
    elif kind == list[int]:
        ok = (isinstance(value, list) and all(type(v) is int and v >= 1 for v in value)
              and all(b > a for a, b in zip(value, value[1:])))
        want = "a strictly increasing list of integers >= 1"
    else:
        ok = isinstance(value, list) and all(isinstance(row, list) and all(
            type(x) in (int, float) and abs(x) <= sys.float_info.max for x in row) for row in value)
        want = "a list of rows of finite numbers"
    if not ok:
        raise ValueError(want)
    return float(value) if kind is float else value


@dataclass(frozen=True)
class _Kinds:
    """A section whose ``kind`` key picks its table."""
    tables: dict
    default: object = REQUIRED


# Library types check the other ranges themselves (noise_sigma >= 0 in PopulationSpec,
# sigma_w > 0 in BoundConfig). A callable default reads the parsed section one level
# up: the population for law keys, the whole config for bounds keys.
_LAW = _Kinds({
    "gaussian": {"scale_spread": (float, 1.0, 1.0)},
    "lds": {"spectral_radius": (float, 0.9)},
    "markov": {"states": (int, lambda pop: max(2, pop["d_x"]), 2), "stay_prob": (float, 0.8)},
})
_POPULATION = {
    "d_x": (int, REQUIRED), "d_y": (int, REQUIRED), "r": (int, REQUIRED),
    "num_sources": (int, 4), "noise_sigma": (float, 0.0), "head_scale": (float, 1.0),
    "law": (_LAW, REQUIRED),
}
_FIT = {
    "kind": (("linear",), "linear"),  # LinearRep is the only representation
    "max_iters": (int, FitOptions.max_iters), "tol": (float, FitOptions.tol),
    "restarts": (int, FitOptions.restarts),
}
_SWEEP = {
    "axis": (("T", "N", "N_prime"), REQUIRED), "grid": (list[int], REQUIRED),
    "replicates": (int, 5), "n": (int, 64), "n_prime": (int, 128),
}
_BOUNDS = {
    "t_tasks": (int, lambda cfg: cfg["population"]["num_sources"]),
    "n": (int, 256), "n_prime": (int, 256),
    "sigma_w": (float, lambda cfg: cfg["population"]["noise_sigma"]),
    "b_f": (float, 1.0), "b_g": (float, 1.0), "delta": (float, 0.05),
    "mu_x": (float, REQUIRED), "mu_f": (float, REQUIRED), "c_z": (float, REQUIRED),
    "class": (_Kinds({"finite": {"log_card": (float, REQUIRED)},
                      "parametric": {"d_theta": (int, REQUIRED), "b_theta": (float, REQUIRED),
                                     "l_theta": (float, REQUIRED)}}, default="finite"),
              REQUIRED),
    "mixing": ({"gamma": (float, REQUIRED), "rho": (float, REQUIRED), "k": (int, REQUIRED)},
               None),
}
_MIXCHECK = _Kinds({
    "markov": {"transition": (list[list[float]], REQUIRED), "max_lag": (int, 32),
               "n": (int, 64)},
    "lds": {"d_x": (int, 2), "spectral_radius": (float, 0.9), "n": (int, 64),
            "delta": (float, 0.1), "mc_samples": (int, 50_000)},
}, default="markov")
_CONFIG = {
    "schema_version": ((SCHEMA_VERSION,), REQUIRED), "seed": (int, 0, 0),
    "output_dir": (str, None), "population": (_POPULATION, None), "fit": (_FIT, {}),
    "sweep": (_SWEEP, None), "diagnostics": ({"mc_samples": (int, 100_000)}, {}),
    "bounds": (_BOUNDS, None), "mixcheck": (_MIXCHECK, None),
}


def _parse(raw, table, where: str, problems: tuple, parent: dict | None = None):
    """The section ``raw`` checked against ``table``, every default filled in; null
    counts as absent. ``problems`` collects (unknown, bad, missing) messages; once
    it holds any, callable defaults are not evaluated."""
    unknown, bad, missing = problems
    if not isinstance(raw, dict):
        bad.append(f"{where} must be an object, got {raw!r}")
        return None
    if isinstance(table, _Kinds):
        chosen = table.default if raw.get("kind") is None else raw["kind"]
        if chosen not in list(table.tables):
            (missing if chosen is REQUIRED else unknown).append(
                f"{where}.kind must be one of {sorted(table.tables)}, got {raw.get('kind')!r}")
            return None
        table = {"kind": ((chosen,), chosen), **table.tables[chosen]}
        where = f"{where}({chosen})"
    extra = set(raw) - set(table)
    if extra:
        unknown.append(f"unknown key(s) {sorted(extra)} in {where}")
    out: dict = {}
    for key, (kind, default, *lo) in table.items():
        path = f"{where}.{key}"
        value = raw.get(key)
        if value is None and default is REQUIRED:
            missing.append(f"missing required key '{key}' in {where}")
        elif value is None and callable(default):
            out[key] = None if any(problems) else default(parent)
        elif value is None and not isinstance(default, dict):
            out[key] = default
        elif isinstance(kind, (dict, _Kinds)):
            out[key] = _parse(default if value is None else value, kind, path, problems, out)
        else:
            try:
                out[key] = _value(kind, value, *lo)
            except ValueError as exc:
                bad.append(f"{path} must be {exc}, got {value!r}")
    return out


def _checked(raw, table, problems: tuple, where: str = "config") -> dict:
    """``_parse``, raising one ConfigError for the first kind of problem found:
    unknown keys and kinds, then bad values, then missing keys."""
    parsed = _parse(raw, table, where, problems)
    for found in problems:
        if found:
            raise ConfigError("; ".join(found))
    return parsed


def _options(section: dict) -> dict:
    """A parsed section's keys other than ``kind``, as keyword arguments."""
    return {key: value for key, value in section.items() if key != "kind"}


@dataclass(frozen=True)
class RowMetrics:
    """The metrics of one run of the two stages (``_source_stage``, ``_target_stage``)
    and of the population (``mu_f``), which a sweep row and ``diagnose`` both report.
    ``nu_hat`` is None at the round-off floor, and NaN there in a sweep row."""

    excess_risk_target: float
    est_error_avg: float
    nu_hat: float | None
    mu_x: float
    mu_f: float
    fit_objective: float
    iterations: int
    converged: bool


# The metrics that a sweep aggregates by median and fits slopes to: the real-valued ones.
SWEEP_METRICS = tuple(f.name for f in fields(RowMetrics) if f.type.startswith("float"))


@dataclass(frozen=True)
class SweepRow(RowMetrics):
    """The metrics of one (axis value, replicate) cell of a sweep; ``run_sweep``
    gives the seeds of its two stages and what ``wall_time_ms`` covers."""

    axis_value: int
    replicate: int
    wall_time_ms: float


@dataclass(frozen=True)
class DiagnosticsReport(RowMetrics):
    """The metrics of a sweep row at ``config.seed``, plus the population's
    ``nu_true`` and NRLS quantities for the fitted representation."""

    nu_true: float | None
    nrls: diag.NrlsQuantities

    def to_json(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(RowMetrics)},
                "nu_true": self.nu_true, **self.nrls.as_dict()}


@dataclass(frozen=True)
class ExperimentConfig:
    """The config's sections parsed by their tables above; ``raw`` is the dict as given."""

    raw: dict
    seed: int
    output_dir: str | None
    population: dict | None
    fit: FitOptions
    sweep: dict | None
    mc_samples: int
    bounds: dict | None
    mixcheck: dict | None

    @staticmethod
    def from_dict(cfg: dict) -> "ExperimentConfig":
        problems = ([], [], [])
        if isinstance(cfg, dict) and cfg.get("bounds") is not None \
                and cfg.get("population") is None:
            problems[2].append("missing section 'population', which bounds reads")
        c = _checked(cfg, _CONFIG, problems)
        del c["schema_version"]
        return ExperimentConfig(raw=cfg, fit=FitOptions(**_options(c.pop("fit"))),
                                mc_samples=c.pop("diagnostics")["mc_samples"], **c)

    @staticmethod
    def from_file(path: str | Path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return ExperimentConfig.from_dict(cfg)

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def example_config() -> dict:
    """A runnable config writing out every population, fit, sweep and diagnostics key."""
    return {
        "schema_version": 1,
        "seed": 42,
        "output_dir": None,
        "population": {
            "d_x": 8, "d_y": 1, "r": 2, "num_sources": 4, "noise_sigma": 0.5,
            "law": {"kind": "gaussian", "scale_spread": 1.0},
            "head_scale": 1.0,
        },
        "fit": {"kind": "linear", "max_iters": 300, "tol": 1e-10, "restarts": 3},
        "sweep": {"axis": "T", "grid": [4, 8, 16], "replicates": 5, "n": 64,
                  "n_prime": 128},
        "diagnostics": {"mc_samples": 100000},
        "bounds": None,
        "mixcheck": None,
    }


# ---------------------------------------------------------------------------
# Population construction
# ---------------------------------------------------------------------------

def build_population(pop_cfg: dict | None, seed: int, num_sources: int | None = None,
                     ) -> PopulationSpec:
    """Deterministic synthetic population from the config section and a seed;
    ``num_sources`` overrides the section's source count.

    Each distinct covariate law is built once, and every task with that law holds
    the same immutable object: Gaussian laws are keyed by their scale, so all
    tasks share one when ``scale_spread`` is 1, and a Markov population has one
    chain. Each LDS task draws its own rotation, so has its own law. The seed's
    stream is read in the same order either way: g_star, then per task its scale
    (when the spread is not 1) or rotation, then its head. A population's memory
    then grows with T * d_x^2 only when its tasks' laws differ.
    """
    if pop_cfg is None:
        raise ConfigError("config has no population section")
    if num_sources is not None:
        pop_cfg = {**pop_cfg, "num_sources": num_sources}
    pop = _checked(pop_cfg, _POPULATION, ([], [], []), "population")
    d_x, d_y, r, t, law_cfg = pop["d_x"], pop["d_y"], pop["r"], pop["num_sources"], pop["law"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, t, d_x, d_y, r]))

    q, _ = np.linalg.qr(rng.standard_normal((d_x, r)))
    rep_star = LinearRep(q.T)

    kind = law_cfg["kind"]
    gaussian_by_scale: dict[float, GaussianLaw] = {}
    if kind == "markov":
        states, stay = law_cfg["states"], law_cfg["stay_prob"]
        p = np.full((states, states), (1.0 - stay) / (states - 1))
        np.fill_diagonal(p, stay)
        markov = MarkovLaw(transition=p, d_x=d_x)

    def make_law():
        if kind == "gaussian":
            spread = law_cfg["scale_spread"]
            scale = 1.0 if spread == 1.0 else float(
                np.exp(rng.uniform(-np.log(spread), np.log(spread))))
            if scale not in gaussian_by_scale:
                gaussian_by_scale[scale] = GaussianLaw(sigma_x=scale * np.eye(d_x))
            return gaussian_by_scale[scale]
        if kind == "lds":
            qq, _ = np.linalg.qr(rng.standard_normal((d_x, d_x)))
            return LdsLaw(a=law_cfg["spectral_radius"] * qq)
        return markov

    tasks = []
    for _ in range(t + 1):
        law = make_law()
        head = LinearHead(pop["head_scale"] * rng.standard_normal((d_y, r)))
        tasks.append(TaskSpec(law=law, head=head))
    return PopulationSpec(dims=Dims(d_x=d_x, d_y=d_y, r=r), tasks=tuple(tasks),
                          rep_star=rep_star, noise_sigma=pop["noise_sigma"])


def _request(spec: PopulationSpec, n: int, n_prime: int, seed: int) -> SampleRequest:
    """N' target rows and N rows for each source."""
    return SampleRequest(spec=spec, per_task_n=(n_prime,) + (n,) * spec.num_sources,
                         seed=seed)


def _command_request(config: ExperimentConfig) -> SampleRequest:
    """The request that ``gen``, ``fit`` and ``diagnose`` share: the sweep section's
    N and N', or ``COMMAND_SAMPLES`` for both without one."""
    spec = build_population(config.population, config.seed)
    sweep = config.sweep or {"n": COMMAND_SAMPLES, "n_prime": COMMAND_SAMPLES}
    return _request(spec, sweep["n"], sweep["n_prime"], config.seed)


# ---------------------------------------------------------------------------
# The two stages of a row: sources, then target
# ---------------------------------------------------------------------------

def _fit_sources(config: ExperimentConfig, req: SampleRequest) -> FirstStageFit:
    """Draw the request's source statistics and fit the shared representation and
    source heads with the config's options and the request's seed."""
    spec = req.spec
    sources = sample_task_stats(req, tasks=range(1, spec.num_sources + 1))
    return fit_first_stage_linear(sources, r=spec.dims.r, opts=replace(config.fit, seed=req.seed))


def _fit_target(req: SampleRequest, fit: FirstStageFit) -> SecondStageFit:
    """Draw the request's target statistics and fit its head on ``fit.rep``."""
    return fit_second_stage(sample_task_stats(req, tasks=(0,))[0], fit.rep)


def _source_stage(config: ExperimentConfig, req: SampleRequest) -> tuple[FirstStageFit, dict]:
    """The first stage and the ``RowMetrics`` fields that read the sources alone."""
    spec, fit = req.spec, _fit_sources(config, req)
    return fit, {"est_error_avg": diag.estimation_error_avg(spec, fit.heads, fit.rep),
                 "mu_x": diag.mu_x(spec, fit.rep), "fit_objective": fit.objective,
                 "iterations": fit.iterations, "converged": fit.converged}


def _target_stage(req: SampleRequest, fit: FirstStageFit) -> dict:
    """The ``RowMetrics`` fields that read the target's head, fitted on the first stage."""
    second = _fit_target(req, fit)
    return {"excess_risk_target": diag.excess_risk_population(req.spec, second.head, fit.rep),
            "nu_hat": diag.nu_hat(second.residual, fit.per_task_residual)}


def _population_mu_f(spec: PopulationSpec) -> float:
    return diag.mu_f([task.head for task in spec.tasks])


# ---------------------------------------------------------------------------
# Sweep harness
# ---------------------------------------------------------------------------

def slope_fit(points) -> float:
    """OLS slope of log y on log x.

    Raises
    ------
    InvalidPoints
        For fewer than 3 points or any non-positive coordinate.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise InvalidPoints("slope fit needs at least 3 points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise InvalidPoints("slope fit needs positive coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


def _row_seed(seed: int, axis_value: int, replicate: int) -> int:
    ss = np.random.SeedSequence([seed, axis_value, replicate])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _row_error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    medians: dict
    slopes: dict
    errors: tuple[tuple[int, int, str], ...]

    def summary_json(self, config: ExperimentConfig) -> dict:
        return {
            "config_hash": config.config_hash(),
            "run_id": hashlib.sha256(
                (config.config_hash() + str(config.seed)).encode()).hexdigest()[:12],
            "slopes": self.slopes,
            "medians": {m: {str(k): v if math.isfinite(v) else None for k, v in vals.items()}
                        for m, vals in self.medians.items()},
            "failed_rows": [list(e) for e in self.errors],
        }


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run the configured sweep grid; median-aggregate and fit log-log slopes.

    Seeds. Row (v, rep) draws its target from the row seed
    ``_row_seed(seed, v, rep)``, and its sources from a source seed, which
    also seeds the first stage's random ALS starts. On the T and N axes the
    source seed is the row seed. On the N' axis it is ``_row_seed(seed, 0,
    rep)``, which no grid value (a count, so >= 1) collides with: every N'
    row of a replicate then fits the same sources, and only its target sample
    changes.

    Stages. A row is the source stage (``_source_stage``) at the source seed
    and the target stage (``_target_stage``) at the row seed, the two stages
    that ``diagnose`` runs at ``config.seed``.

    Sharing. Each quantity is computed once for the inputs it reads. The
    population, and with it ``mu_f``, is built once per T value on the T axis
    and once per sweep otherwise. The source stage (the source draw, the
    first-stage fit and the source row fields) runs once per (population, N,
    source seed), which repeats only on the N' axis: there a replicate's rows
    share it, and the N' slope is a common-random-numbers contrast that holds
    the fitted representation fixed. It measures the target's NRLS term
    alone, and the shared metrics' medians are equal at every N', so their
    slopes read 0. On the T and N axes no key repeats, and each row is the
    same computation as a fresh draw of every task at the row seed.

    A row's ``wall_time_ms`` is the wall time of its own call. The row that
    first needs a shared source stage computes it and carries its time; the
    population and ``mu_f`` are outside every row's time.

    Rows run on the calling thread in grid order, so they come out sorted by
    (axis_value, replicate) with no sort. Row failures (``ROW_ERRORS``) are
    recorded with their exception type and skipped; a failed source stage is
    recorded on every row that shares it, its whole replicate on the N' axis,
    and a failed ``mu_f`` on every row of its population.
    More than 50% failures (or a grid too short for a slope) raises
    SweepFailed. Slopes skip medians at the round-off floor
    (``diag.NU_UNDEFINED_THRESHOLD``), which carry no rate.
    """
    if config.sweep is None:
        raise SweepFailed("no sweep section in config")
    axis, grid, replicates = (config.sweep[key] for key in ("axis", "grid", "replicates"))
    if len(grid) < 3:
        raise SweepFailed("sweep grid needs at least 3 points for slope fits")

    rows: list[SweepRow] = []
    errors: list[tuple[int, int, str]] = []
    spec = None
    for v in grid:
        if spec is None or axis == "T":
            spec = build_population(config.population, config.seed,
                                    num_sources=v if axis == "T" else None)
            try:
                mu_f, population_error = _population_mu_f(spec), None
            except ROW_ERRORS as exc:
                population_error = _row_error(exc)
            # (N, source seed) -> the source stage, or the row error that stopped it
            stages: dict[tuple[int, int], tuple[FirstStageFit, dict] | str] = {}
        n = v if axis == "N" else config.sweep["n"]
        n_prime = v if axis == "N_prime" else config.sweep["n_prime"]
        for rep in range(replicates):
            if population_error is not None:
                errors.append((v, rep, population_error))
                continue
            start = time.perf_counter()
            row_seed = _row_seed(config.seed, v, rep)
            source_seed = _row_seed(config.seed, 0, rep) if axis == "N_prime" else row_seed
            key = (n, source_seed)
            if key not in stages:
                try:
                    stages[key] = _source_stage(config, _request(spec, n, n_prime, source_seed))
                except ROW_ERRORS as exc:
                    stages[key] = _row_error(exc)
            stage = stages[key]
            if isinstance(stage, str):
                errors.append((v, rep, stage))
                continue
            fit, source_fields = stage
            try:
                row = _target_stage(_request(spec, n, n_prime, row_seed), fit)
            except ROW_ERRORS as exc:
                errors.append((v, rep, _row_error(exc)))
                continue
            if row["nu_hat"] is None:
                row["nu_hat"] = float("nan")
            rows.append(SweepRow(axis_value=v, replicate=rep, **row, **source_fields, mu_f=mu_f,
                                 wall_time_ms=(time.perf_counter() - start) * 1000.0))

    jobs = len(grid) * replicates
    if len(errors) > jobs / 2:
        raise SweepFailed(f"{len(errors)} of {jobs} sweep rows failed")

    medians: dict = {}
    for metric in SWEEP_METRICS:
        per_value = {}
        for v in grid:
            vals = [getattr(r, metric) for r in rows if r.axis_value == v
                    and math.isfinite(getattr(r, metric))]
            per_value[v] = float(np.median(vals)) if vals else float("nan")
        medians[metric] = per_value

    slopes = {}
    for metric, per_value in medians.items():
        pts = [(v, val) for v, val in per_value.items()
               if math.isfinite(val) and val > diag.NU_UNDEFINED_THRESHOLD]
        if len(pts) >= 3:
            slopes[metric] = slope_fit(pts)
    return SweepResult(rows=tuple(rows), medians=medians, slopes=slopes,
                       errors=tuple(errors))


def write_sweep_outputs(result: SweepResult, config: ExperimentConfig,
                        out_dir: str | Path) -> dict[str, str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep.csv"
    names = ["axis_value", "replicate", *(f.name for f in fields(RowMetrics)), "wall_time_ms"]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in result.rows:
            writer.writerow([repr(getattr(row, f)) if isinstance(getattr(row, f), float)
                             else getattr(row, f) for f in names])
    summary_path = out / "summary.json"
    with open(summary_path, "w") as fh:
        json.dump(result.summary_json(config), fh, indent=2)
    return {"csv": str(csv_path), "summary": str(summary_path)}


# ---------------------------------------------------------------------------
# Thin orchestration for the other subcommands
# ---------------------------------------------------------------------------

def run_diagnose(config: ExperimentConfig) -> DiagnosticsReport:
    """The ``DiagnosticsReport`` of the two stages at ``config.seed``."""
    req = _command_request(config)
    spec = req.spec
    fit, source_fields = _source_stage(config, req)
    return DiagnosticsReport(
        **_target_stage(req, fit), **source_fields, mu_f=_population_mu_f(spec),
        nu_true=diag.nu_true(spec, fit.rep),
        nrls=diag.nrls_quantities(spec.target.law, fit.rep, spec.target.head,
                                  spec.rep_star, spec.noise_sigma, config.mc_samples,
                                  config.seed),
    )


def run_bounds(config: ExperimentConfig) -> bounds_mod.BoundReport:
    """Evaluate the transfer-risk bound from the config's bounds section.

    ``bounds.mixing`` gives a geometric profile phi(k) = gamma * rho^(k-1), so
    its ``gamma`` is phi(1), and the block length ``k``."""
    if config.bounds is None:
        raise ConfigError("config has no bounds section")
    b, pop = config.bounds, config.population
    classes = {"finite": bounds_mod.FiniteClass, "parametric": bounds_mod.ParametricClass}
    m = b["mixing"]
    cfg = bounds_mod.BoundConfig(
        dims=Dims(d_x=pop["d_x"], d_y=pop["d_y"], r=pop["r"]),
        class_complexity=classes[b["class"]["kind"]](**_options(b["class"])),
        mixing=None if m is None else bounds_mod.MixingSetup(
            profile=mixing_mod.GeometricProfile(gamma=m["gamma"], rho=m["rho"]), k=m["k"]),
        t_tasks=b["t_tasks"], n=b["n"], n_prime=b["n_prime"], sigma_w=b["sigma_w"],
        b_f=b["b_f"], b_g=b["b_g"], delta=b["delta"])
    return bounds_mod.transfer_risk_bound(cfg, mu_x=b["mu_x"], mu_f=b["mu_f"], c_z=b["c_z"])


def run_mixcheck(config: ExperimentConfig) -> dict:
    """Mixing-profile report: coefficients, inflation factor, dependency norm,
    and (geometric profiles) a block-length selection. A Markov profile stops at
    ``max_lag``, so its dependency norm over n > max_lag + 1 counts phi = 0 at
    the later lags (see ``mixing.dependency_matrix_bound``)."""
    if config.mixcheck is None:
        raise ConfigError("config has no mixcheck section")
    m = config.mixcheck
    out: dict = {}
    if m["kind"] == "markov":
        profile = mixing_mod.phi_markov(np.asarray(m["transition"], dtype=float),
                                        max_lag=m["max_lag"])
    else:
        profile = mixing_mod.geometric_profile_from_lds(
            m["spectral_radius"] * np.eye(m["d_x"]), mc_samples=m["mc_samples"],
            seed=config.seed)
        try:
            out["block_length"] = mixing_mod.select_block_length(profile, m["n"], m["delta"])
        except TransferLabError as exc:
            out["block_length_error"] = str(exc)
    out["profile"] = mixing_mod.profile_to_json(profile)
    out["dependency_norm"] = mixing_mod.dependency_matrix_bound(profile, m["n"]).spectral_norm
    return out


def run_gen(config: ExperimentConfig, out_dir: str | Path) -> dict[str, str]:
    """Write the raw rows of the request whose statistics ``fit`` and ``diagnose``
    draw directly; at equal seeds the two are different draws."""
    req = _command_request(config)
    return write_datasets_csv(sample_tasks(req), req, out_dir)


def run_fit(config: ExperimentConfig) -> dict:
    """The two stages' fits as ``diagnose`` draws them, without its diagnostics."""
    req = _command_request(config)
    fit = _fit_sources(config, req)
    return {"first_stage": first_stage_to_json(fit),
            "second_stage": second_stage_to_json(_fit_target(req, fit))}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _emit(payload: dict, out_dir: str | None, name: str) -> None:
    text = json.dumps(payload, indent=2)
    if out_dir:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text + "\n")
    print(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="transferlab",
                                     description="multi-task transfer learning laboratory")
    parser.add_argument("command",
                        choices=["gen", "fit", "diagnose", "bounds", "sweep", "mixcheck"])
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the config output_dir")
    parser.add_argument("--log-level", default="WARNING",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        help="lowest level of log records written to stderr")
    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")

    try:
        config = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            config = ExperimentConfig.from_dict({**config.raw, "seed": args.seed})
        out_dir = args.out if args.out is not None else config.output_dir

        if args.command == "gen":
            if out_dir is None:
                raise ConfigError("gen needs an output directory (--out or output_dir)")
            paths = run_gen(config, out_dir)
            print(json.dumps(paths, indent=2))
        elif args.command == "fit":
            _emit(run_fit(config), out_dir, "fit.json")
        elif args.command == "diagnose":
            _emit(run_diagnose(config).to_json(), out_dir, "diagnostics.json")
        elif args.command == "bounds":
            report = run_bounds(config)
            _emit(report.to_json(), out_dir, "bounds.json")
            if out_dir:
                (Path(out_dir) / "burn_ins.csv").write_text(
                    bounds_mod.burn_ins_to_csv(report))
        elif args.command == "mixcheck":
            _emit(run_mixcheck(config), out_dir, "mixcheck.json")
        else:  # sweep
            result = run_sweep(config)
            if out_dir is None:
                print(json.dumps(result.summary_json(config), indent=2))
            else:
                paths = write_sweep_outputs(result, config, out_dir)
                print(json.dumps({**result.summary_json(config), **paths}, indent=2))
    except SweepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, TransferLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
