"""Batch experiment front end.

Reads a strict JSON configuration (unknown keys rejected), builds synthetic
populations, and dispatches to the samplers, fitters, diagnostics, mixing
checks, and bound calculators. The sweep harness runs a grid over T, N, or
N' with replicates, aggregates by median, fits log-log slopes, and emits CSV
rows plus a summary JSON keyed by a config hash.

Subcommands: gen, fit, diagnose, bounds, sweep, mixcheck.
Exit codes: 0 success, 2 validation error, 3 sweep failure.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, fields
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
    FitOptions,
    first_stage_to_json,
    fit_first_stage_linear,
    fit_second_stage,
    second_stage_to_json,
)
from .errors import ConfigError, InvalidPoints, SweepFailed, TransferLabError

SCHEMA_VERSION = 1

SWEEP_METRICS = ("excess_risk_target", "est_error_avg", "nu_hat", "mu_x", "mu_f",
                 "fit_objective")

# Failures a sweep row records instead of aborting the sweep.
ROW_ERRORS = (TransferLabError, np.linalg.LinAlgError, ValueError)


def _check_keys(section: dict, allowed: set[str], context: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")


def _require(section: dict, key: str, context: str):
    if key not in section:
        raise ConfigError(f"missing required key '{key}' in {context}")
    return section[key]


@dataclass(frozen=True)
class SweepRow:
    axis_value: int
    replicate: int
    excess_risk_target: float
    est_error_avg: float
    nu_hat: float
    mu_x: float
    mu_f: float
    fit_objective: float
    iterations: int
    converged: bool
    wall_time_ms: float


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment configuration; see ``example_config`` for the shape."""

    raw: dict
    seed: int
    output_dir: str | None
    population: dict | None
    fit: dict
    sweep: dict | None
    mc_samples: int
    bounds: dict | None
    mixcheck: dict | None

    @staticmethod
    def from_dict(cfg: dict) -> "ExperimentConfig":
        _check_keys(cfg, {"schema_version", "seed", "output_dir", "population", "fit",
                          "sweep", "diagnostics", "bounds", "mixcheck"}, "config")
        version = _require(cfg, "schema_version", "config")
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        population = cfg.get("population")
        if population is not None:
            _check_keys(population, {"d_x", "d_y", "r", "num_sources", "noise_sigma",
                                     "law", "head_scale"}, "population")
            law = _require(population, "law", "population")
            kind = _require(law, "kind", "population.law")
            allowed_law = {
                "gaussian": {"kind", "scale_spread"},
                "lds": {"kind", "spectral_radius"},
                "markov": {"kind", "states", "stay_prob"},
            }
            if kind not in allowed_law:
                raise ConfigError(f"unknown covariate law kind '{kind}'")
            _check_keys(law, allowed_law[kind], f"population.law({kind})")
        fit = cfg.get("fit", {"kind": "linear"})
        _check_keys(fit, {"kind", "max_iters", "tol", "restarts"}, "fit")
        if fit.get("kind", "linear") != "linear":
            # every command fits with fit_first_stage_linear
            raise ConfigError(f"unsupported fit kind '{fit['kind']}'; "
                              "only 'linear' is implemented")
        sweep = cfg.get("sweep")
        if sweep is not None:
            _check_keys(sweep, {"axis", "grid", "replicates", "n", "n_prime"}, "sweep")
            axis = _require(sweep, "axis", "sweep")
            if axis not in ("T", "N", "N_prime"):
                raise ConfigError(f"sweep axis must be T, N or N_prime, got '{axis}'")
            grid = [int(v) for v in _require(sweep, "grid", "sweep")]
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError("sweep grid must be strictly increasing")
            if grid and grid[0] < 1:
                raise ConfigError("sweep grid values must be >= 1")
        diagnostics = cfg.get("diagnostics", {})
        _check_keys(diagnostics, {"mc_samples"}, "diagnostics")
        bounds_cfg = cfg.get("bounds")
        if bounds_cfg is not None:
            _check_keys(bounds_cfg, {"t_tasks", "n", "n_prime", "sigma_w", "b_f", "b_g",
                                     "class", "delta", "c_z", "mu_x", "mu_f",
                                     "mixing"}, "bounds")
            cls = bounds_cfg.get("class", {})
            cls_kind = cls.get("kind", "finite")
            allowed_class = {"finite": {"kind", "log_card"},
                             "parametric": {"kind", "d_theta", "b_theta", "l_theta"}}
            if cls_kind not in allowed_class:
                raise ConfigError(f"bounds.class.kind must be finite or parametric, "
                                  f"got '{cls_kind}'")
            _check_keys(cls, allowed_class[cls_kind], f"bounds.class({cls_kind})")
            _check_keys(bounds_cfg.get("mixing") or {}, {"gamma", "rho", "k"},
                        "bounds.mixing")
        mixcheck = cfg.get("mixcheck")
        if mixcheck is not None:
            mix_kind = mixcheck.get("kind", "markov")
            allowed_mix = {"markov": {"kind", "transition", "max_lag", "n"},
                           "lds": {"kind", "d_x", "spectral_radius", "n", "delta",
                                   "mc_samples"}}
            if mix_kind not in allowed_mix:
                raise ConfigError(f"mixcheck.kind must be markov or lds, got '{mix_kind}'")
            _check_keys(mixcheck, allowed_mix[mix_kind], f"mixcheck({mix_kind})")
        return ExperimentConfig(
            raw=cfg,
            seed=int(cfg.get("seed", 0)),
            output_dir=cfg.get("output_dir"),
            population=population,
            fit=fit,
            sweep=sweep,
            mc_samples=int(diagnostics.get("mc_samples", 100_000)),
            bounds=bounds_cfg,
            mixcheck=mixcheck,
        )

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
    """A complete configuration with every recognized key."""
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
    """Deterministic synthetic population from the config section and a seed."""
    if pop_cfg is None:
        raise ConfigError("config has no population section")
    d_x = int(_require(pop_cfg, "d_x", "population"))
    d_y = int(_require(pop_cfg, "d_y", "population"))
    r = int(_require(pop_cfg, "r", "population"))
    t = int(pop_cfg.get("num_sources", 4)) if num_sources is None else int(num_sources)
    if t < 1:
        raise ConfigError("num_sources must be >= 1")
    noise = float(pop_cfg.get("noise_sigma", 0.0))
    head_scale = float(pop_cfg.get("head_scale", 1.0))
    law_cfg = pop_cfg["law"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, t, d_x, d_y, r]))

    q, _ = np.linalg.qr(rng.standard_normal((d_x, r)))
    rep_star = LinearRep(q.T)

    def make_law(i: int):
        kind = law_cfg["kind"]
        if kind == "gaussian":
            spread = float(law_cfg.get("scale_spread", 1.0))
            if spread < 1.0:
                raise ConfigError("scale_spread must be >= 1")
            scale = 1.0 if spread == 1.0 else float(
                np.exp(rng.uniform(-np.log(spread), np.log(spread))))
            return GaussianLaw(sigma_x=scale * np.eye(d_x))
        if kind == "lds":
            rho = float(law_cfg.get("spectral_radius", 0.9))
            qq, _ = np.linalg.qr(rng.standard_normal((d_x, d_x)))
            return LdsLaw(a=rho * qq)
        if kind == "markov":
            states = int(law_cfg.get("states", max(2, d_x)))
            stay = float(law_cfg.get("stay_prob", 0.8))
            p = np.full((states, states), (1.0 - stay) / (states - 1))
            np.fill_diagonal(p, stay)
            return MarkovLaw(transition=p, d_x=d_x)
        raise ConfigError(f"unknown covariate law kind '{kind}'")

    tasks = []
    for i in range(t + 1):
        law = make_law(i)
        head = LinearHead(head_scale * rng.standard_normal((d_y, r)))
        tasks.append(TaskSpec(law=law, head=head))
    return PopulationSpec(dims=Dims(d_x=d_x, d_y=d_y, r=r), tasks=tuple(tasks),
                          rep_star=rep_star, noise_sigma=noise)


def _fit_options(fit_cfg: dict, seed: int) -> FitOptions:
    """Solver options for the keys the config sets; ``FitOptions`` holds the defaults."""
    casts = {"max_iters": int, "tol": float, "restarts": int}
    return FitOptions(seed=seed, **{key: cast(fit_cfg[key]) for key, cast in casts.items()
                                    if key in fit_cfg})


def _request(spec: PopulationSpec, n: int, n_prime: int, seed: int) -> SampleRequest:
    """N' target rows and N rows for each source."""
    return SampleRequest(spec=spec, per_task_n=(n_prime,) + (n,) * spec.num_sources,
                         seed=seed)


def _two_stage(config: ExperimentConfig, spec: PopulationSpec, data: list, seed: int):
    """Fit the shared representation on the sources, then the target head on it."""
    fit = fit_first_stage_linear(data[1:], r=spec.dims.r,
                                 opts=_fit_options(config.fit, seed))
    return fit, fit_second_stage(data[0], fit.rep)


def _shared_diagnostics(config: ExperimentConfig, spec: PopulationSpec, fit, second,
                        seed: int) -> dict:
    """The diagnostics that sweep rows and ``diagnose`` both report, by name."""
    mc = config.mc_samples
    return {
        "excess_risk_target": diag.excess_risk_population(spec, second.head, fit.rep,
                                                          mc, seed),
        "est_error_avg": diag.estimation_error_avg(spec, fit.heads, fit.rep, mc, seed),
        "nu_hat": diag.nu_hat(second.residual, fit.per_task_residual),
        "mu_x": diag.mu_x(spec, fit.rep, mc, seed),
        "mu_f": diag.mu_f([task.head for task in spec.tasks]),
    }


def _command_request(config: ExperimentConfig) -> SampleRequest:
    """The request that ``gen``, ``fit`` and ``diagnose`` share: N = N' = 256 by default."""
    spec = build_population(config.population, config.seed)
    sweep = config.sweep or {}
    return _request(spec, int(sweep.get("n", 256)), int(sweep.get("n_prime", 256)),
                    config.seed)


def _command_sample(config: ExperimentConfig) -> tuple[SampleRequest, list]:
    """The request and its tasks' statistics, which ``fit`` and ``diagnose`` fit on;
    like sweep rows, they read ``sample_task_stats``, and only ``gen`` reads raw rows."""
    req = _command_request(config)
    return req, sample_task_stats(req)


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


def _sweep_one_row(config: ExperimentConfig, spec: PopulationSpec, axis: str,
                   axis_value: int, replicate: int) -> SweepRow:
    start = time.perf_counter()
    sweep = config.sweep
    n = axis_value if axis == "N" else int(sweep.get("n", 64))
    n_prime = axis_value if axis == "N_prime" else int(sweep.get("n_prime", 128))
    row_seed = _row_seed(config.seed, axis_value, replicate)
    data = sample_task_stats(_request(spec, n, n_prime, row_seed))
    fit, second = _two_stage(config, spec, data, row_seed)

    shared = _shared_diagnostics(config, spec, fit, second, row_seed)
    if shared["nu_hat"] is None:
        shared["nu_hat"] = float("nan")
    return SweepRow(axis_value=axis_value, replicate=replicate, **shared,
                    fit_objective=fit.objective, iterations=fit.iterations,
                    converged=fit.converged,
                    wall_time_ms=(time.perf_counter() - start) * 1000.0)


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
            "medians": {m: {str(k): v for k, v in vals.items()}
                        for m, vals in self.medians.items()},
            "failed_rows": [list(e) for e in self.errors],
        }


def run_sweep(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Run the configured sweep grid; median-aggregate and fit log-log slopes.

    The population is built once per axis value and released before the next
    one. Individual row failures (``ROW_ERRORS``) are recorded with their
    exception type and skipped; more than 50% failures (or a grid too short for
    a slope) raises SweepFailed. Output is sorted by (axis_value, replicate) so
    execution order never changes the result. Slopes skip medians at the
    round-off floor (``diag.NU_UNDEFINED_THRESHOLD``), which carry no rate.
    """
    if config.sweep is None:
        raise SweepFailed("no sweep section in config")
    axis = config.sweep["axis"]
    grid = [int(v) for v in config.sweep["grid"]]
    replicates = int(config.sweep.get("replicates", 5))
    if len(grid) < 3:
        raise SweepFailed("sweep grid needs at least 3 points for slope fits")

    rows: list[SweepRow] = []
    errors: list[tuple[int, int, str]] = []

    def attempt(spec: PopulationSpec, v: int, rep: int):
        try:
            return _sweep_one_row(config, spec, axis, v, rep)
        except ROW_ERRORS as exc:
            return (v, rep, f"{type(exc).__name__}: {exc}")

    # The serial path stays on the calling thread: rows sampled on a worker
    # thread allocate from another glibc arena, which changes their timing.
    with (concurrent.futures.ThreadPoolExecutor(max_workers=threads) if threads > 1
          else contextlib.nullcontext()) as pool:
        run = map if pool is None else pool.map
        for v in grid:
            spec = build_population(config.population, config.seed,
                                    num_sources=v if axis == "T" else None)
            for out in run(functools.partial(attempt, spec, v), range(replicates)):
                (errors if isinstance(out, tuple) else rows).append(out)
            del spec

    jobs = len(grid) * replicates
    if len(errors) > jobs / 2:
        raise SweepFailed(f"{len(errors)} of {jobs} sweep rows failed")
    rows.sort(key=lambda r: (r.axis_value, r.replicate))

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
            try:
                slopes[metric] = slope_fit(pts)
            except InvalidPoints:
                pass
    return SweepResult(rows=tuple(rows), medians=medians, slopes=slopes,
                       errors=tuple(errors))


def write_sweep_outputs(result: SweepResult, config: ExperimentConfig,
                        out_dir: str | Path) -> dict[str, str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep.csv"
    names = [f.name for f in fields(SweepRow)]
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

def run_diagnose(config: ExperimentConfig) -> diag.DiagnosticsReport:
    """Sample, fit the two-stage model, and assemble the full diagnostics report."""
    req, data = _command_sample(config)
    spec = req.spec
    fit, second = _two_stage(config, spec, data, config.seed)
    return diag.DiagnosticsReport(
        **_shared_diagnostics(config, spec, fit, second, config.seed),
        nu_true=diag.nu_true(spec, fit.rep, config.mc_samples, config.seed),
        nrls=diag.nrls_quantities(spec.target.law, fit.rep, spec.target.head,
                                  spec.rep_star, spec.noise_sigma, config.mc_samples,
                                  config.seed),
    )


def run_bounds(config: ExperimentConfig) -> bounds_mod.BoundReport:
    """Evaluate the transfer-risk bound from the config's bounds section."""
    if config.bounds is None:
        raise ConfigError("config has no bounds section")
    b = config.bounds
    pop = config.population
    if pop is None:
        raise ConfigError("config has no population section")
    dims = Dims(d_x=int(_require(pop, "d_x", "population")),
                d_y=int(_require(pop, "d_y", "population")),
                r=int(_require(pop, "r", "population")))
    cls_cfg = _require(b, "class", "bounds")
    if cls_cfg.get("kind") == "parametric":
        cls = bounds_mod.ParametricClass(
            d_theta=int(_require(cls_cfg, "d_theta", "bounds.class")),
            b_theta=float(_require(cls_cfg, "b_theta", "bounds.class")),
            l_theta=float(_require(cls_cfg, "l_theta", "bounds.class")))
    else:
        cls = bounds_mod.FiniteClass(
            log_card=float(_require(cls_cfg, "log_card", "bounds.class")))
    mix = None
    if b.get("mixing"):
        m = b["mixing"]
        profile = mixing_mod.GeometricProfile(
            gamma=float(_require(m, "gamma", "bounds.mixing")),
            rho=float(_require(m, "rho", "bounds.mixing")))
        mix = bounds_mod.MixingSetup(profile=profile,
                                     k=int(_require(m, "k", "bounds.mixing")))
    coverage = {key: float(_require(b, key, "bounds")) for key in ("mu_x", "mu_f", "c_z")}
    cfg = bounds_mod.BoundConfig(
        dims=dims,
        t_tasks=int(b.get("t_tasks", pop.get("num_sources", 4))),
        n=int(b.get("n", 256)),
        n_prime=int(b.get("n_prime", 256)),
        # the population's noise level, with build_population's default
        sigma_w=float(b.get("sigma_w", pop.get("noise_sigma", 0.0))),
        b_f=float(b.get("b_f", 1.0)),
        b_g=float(b.get("b_g", 1.0)),
        class_complexity=cls,
        delta=float(b.get("delta", 0.05)),
        mixing=mix,
    )
    return bounds_mod.transfer_risk_bound(cfg, **coverage)


def run_mixcheck(config: ExperimentConfig) -> dict:
    """Mixing-profile report: coefficients, inflation factor, dependency norm,
    and (geometric profiles) a block-length selection."""
    if config.mixcheck is None:
        raise ConfigError("config has no mixcheck section")
    m = config.mixcheck
    max_lag = int(m.get("max_lag", 32))
    n = int(m.get("n", 64))
    delta = float(m.get("delta", 0.1))
    out: dict = {}
    if m.get("kind", "markov") == "markov":
        p = np.asarray(_require(m, "transition", "mixcheck"), dtype=float)
        profile = mixing_mod.phi_markov(p, max_lag=max_lag)
    else:
        d_x = int(m.get("d_x", 2))
        rho = float(m.get("spectral_radius", 0.9))
        profile = mixing_mod.geometric_profile_from_lds(
            rho * np.eye(d_x), mc_samples=int(m.get("mc_samples", 50_000)),
            seed=config.seed)
        try:
            out["block_length"] = mixing_mod.select_block_length(profile, n, delta)
        except TransferLabError as exc:
            out["block_length_error"] = str(exc)
    out["profile"] = mixing_mod.profile_to_json(profile)
    out["dependency_norm"] = mixing_mod.dependency_matrix_bound(profile, n).spectral_norm
    return out


def run_gen(config: ExperimentConfig, out_dir: str | Path) -> dict[str, str]:
    """Write the raw rows of the request that ``fit`` and ``diagnose`` read as
    statistics; at equal seeds the two are different draws."""
    req = _command_request(config)
    return write_datasets_csv(sample_tasks(req), req, out_dir)


def run_fit(config: ExperimentConfig) -> dict:
    req, data = _command_sample(config)
    fit, second = _two_stage(config, req.spec, data, config.seed)
    return {"first_stage": first_stage_to_json(fit),
            "second_stage": second_stage_to_json(second)}


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
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        config = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            raw = dict(config.raw)
            raw["seed"] = int(args.seed)
            config = ExperimentConfig.from_dict(raw)
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
            result = run_sweep(config, threads=max(1, args.threads))
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
