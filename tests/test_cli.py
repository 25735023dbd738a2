import csv
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import transferlab
from transferlab import cli, diagnostics, erm
from transferlab.cli import (
    ExperimentConfig,
    build_population,
    example_config,
    main,
    run_bounds,
    run_diagnose,
    run_mixcheck,
    run_sweep,
    slope_fit,
    write_sweep_outputs,
)
from transferlab.core import MarkovLaw
from transferlab.datagen import SampleRequest, sample_task_stats
from transferlab.erm import fit_first_stage_linear, fit_second_stage
from transferlab.errors import (
    ConfigError,
    DegenerateData,
    InvalidMatrix,
    InvalidPoints,
    SweepFailed,
)
from transferlab.mixing import phi_markov


def small_sweep_config(**sweep_overrides):
    cfg = example_config()
    cfg["population"].update({"d_x": 6, "num_sources": 3, "noise_sigma": 0.4})
    cfg["fit"].update({"restarts": 1, "max_iters": 60})
    cfg["sweep"] = {"axis": "N", "grid": [16, 32, 64], "replicates": 2,
                    "n": 32, "n_prime": 32}
    cfg["sweep"].update(sweep_overrides)
    cfg["diagnostics"] = {"mc_samples": 2000}
    return cfg


# ---------------------------------------------------------------------------
# slope fit
# ---------------------------------------------------------------------------

def test_slope_fit_exact_inverse_law():
    pts = [(x, 7.0 / x) for x in (1.0, 2.0, 5.0, 11.0)]
    assert slope_fit(pts) == pytest.approx(-1.0, abs=1e-12)


def test_slope_fit_constant():
    assert slope_fit([(1.0, 3.0), (2.0, 3.0), (4.0, 3.0)]) == pytest.approx(0.0, abs=1e-12)


def test_slope_fit_power_law():
    pts = [(x, 3.0 * x ** -0.8) for x in (2.0, 4.0, 8.0, 16.0)]
    assert slope_fit(pts) == pytest.approx(-0.8, abs=1e-12)


def test_slope_fit_rejects_bad_points():
    with pytest.raises(InvalidPoints):
        slope_fit([(1.0, 1.0), (2.0, 0.5)])
    with pytest.raises(InvalidPoints):
        slope_fit([(1.0, 1.0), (2.0, -0.5), (3.0, 1.0)])


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_keys():
    cfg = example_config()
    cfg["extra"] = 1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg)
    cfg = example_config()
    cfg["population"]["typo_key"] = 1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg)
    cfg = example_config()
    cfg["fit"]["lr"] = 0.1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg)
    cfg = example_config()
    cfg["mixcheck"] = {"kind": "markvo", "transition": [[0.9, 0.1], [0.1, 0.9]]}
    with pytest.raises(ConfigError, match="mixcheck.kind"):
        ExperimentConfig.from_dict(cfg)
    cfg = example_config()
    cfg["bounds"] = {"class": {"kind": "parametrc", "d_theta": 4, "b_theta": 1.0,
                               "l_theta": 1.0}}
    with pytest.raises(ConfigError, match="bounds.class.kind"):
        ExperimentConfig.from_dict(cfg)
    cfg = example_config()
    cfg["bounds"] = {"class": {"kind": "finite", "log_cardd": 50.0}}
    with pytest.raises(ConfigError, match="log_cardd"):
        ExperimentConfig.from_dict(cfg)
    cfg = example_config()
    cfg["bounds"] = {"mixing": {"gama": 1.0, "rho": 0.5, "k": 4}}
    with pytest.raises(ConfigError, match="bounds.mixing"):
        ExperimentConfig.from_dict(cfg)
    cfg = example_config()
    cfg["mixcheck"] = {"kind": "markov", "transition": [[0.9, 0.1], [0.1, 0.9]],
                       "mc_samples": 1000}
    with pytest.raises(ConfigError, match="mc_samples"):
        ExperimentConfig.from_dict(cfg)
    cfg = example_config()
    cfg["mixcheck"] = {"kind": "lds", "transition": [[0.9, 0.1], [0.1, 0.9]]}
    with pytest.raises(ConfigError, match="transition"):
        ExperimentConfig.from_dict(cfg)
    cfg = example_config()
    cfg["diagnostics"]["nrls"] = True
    with pytest.raises(ConfigError, match="nrls"):
        ExperimentConfig.from_dict(cfg)


def test_config_rejects_bad_axis_and_grid():
    cfg = example_config()
    cfg["sweep"]["axis"] = "M"
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg)
    cfg = example_config()
    cfg["sweep"]["grid"] = [8, 4, 16]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg)
    cfg["sweep"]["grid"] = [0, 4, 16]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg)


def test_config_rejects_unknown_fit_kind(tmp_path):
    cfg = example_config()
    cfg["fit"]["kind"] = "no-such-fitter"
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg)
    assert main(["fit", "--config", write_config(tmp_path, cfg)]) == 2


def test_config_rejects_wrong_schema_version():
    cfg = example_config()
    cfg["schema_version"] = 99
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg)


def _with(path, value):
    """``example_config()`` with the key at ``path`` (dotted) set to ``value``."""
    cfg = example_config()
    *parents, key = path.split(".")
    section = cfg
    for name in parents:
        section = section[name]
    section[key] = value
    return cfg


MARKOV_2 = [[0.9, 0.1], [0.1, 0.9]]
MALFORMED = {
    "zero fit iterations": _with("fit.max_iters", 0),
    "zero restarts": _with("fit.restarts", 0),
    "zero diagnostics samples": _with("diagnostics.mc_samples", 0),
    "zero mixcheck samples": _with("mixcheck", {"kind": "lds", "mc_samples": 0}),
    "zero mixcheck n": _with("mixcheck", {"transition": MARKOV_2, "n": 0}),
    "string d_x": _with("population.d_x", "8"),
    "fractional n": _with("sweep.n", 64.7),
    "zero replicates": _with("sweep.replicates", 0),
    "negative replicates": _with("sweep.replicates", -1),
    "zero n": _with("sweep.n", 0),
    "fit not an object": _with("fit", 5),
    "one markov state": _with("population.law", {"kind": "markov", "states": 1}),
    "noise beyond float range": _with("population.noise_sigma", 10 ** 400),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_config_is_a_config_error(name, tmp_path, capsys):
    cfg = MALFORMED[name]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg)
    assert main(["fit", "--config", write_config(tmp_path, cfg)]) == 2
    capsys.readouterr()


def _sections(config):
    return {name: getattr(config, name) for name in
            ("seed", "output_dir", "population", "fit", "sweep", "mc_samples", "bounds",
             "mixcheck")}


@pytest.mark.parametrize("written, left_out", [
    ({"law": {"kind": "markov", "states": 8, "stay_prob": 0.8},
      "mixcheck": {"kind": "markov", "transition": MARKOV_2, "max_lag": 32, "n": 64},
      "class": {"kind": "finite", "log_card": 3.0}},
     {"law": {"kind": "markov"}, "mixcheck": {"transition": MARKOV_2},
      "class": {"log_card": 3.0}}),
    ({"law": {"kind": "lds", "spectral_radius": 0.9},
      "mixcheck": {"kind": "lds", "d_x": 2, "spectral_radius": 0.9, "n": 64, "delta": 0.1,
                   "mc_samples": 50_000},
      "class": {"kind": "parametric", "d_theta": 4, "b_theta": 1.0, "l_theta": 2.0}},
     {"law": {"kind": "lds"}, "mixcheck": {"kind": "lds"},
      "class": {"kind": "parametric", "d_theta": 4, "b_theta": 1.0, "l_theta": 2.0}}),
])
def test_defaults_written_out_parse_the_same(written, left_out):
    dims = {"d_x": 8, "d_y": 1, "r": 2}
    coverage = {"mu_x": 1.0, "mu_f": 2.0, "c_z": 1.5}
    full = ExperimentConfig.from_dict({
        "schema_version": 1, "seed": 0, "output_dir": None,
        "population": {**dims, "num_sources": 4, "noise_sigma": 0.0, "head_scale": 1.0,
                       "law": written["law"]},
        "fit": {"kind": "linear", "max_iters": 500, "tol": 1e-10, "restarts": 5},
        "sweep": {"axis": "T", "grid": [2, 4, 8], "replicates": 5, "n": 64, "n_prime": 128},
        "diagnostics": {"mc_samples": 100_000},
        "bounds": {**coverage, "t_tasks": 4, "n": 256, "n_prime": 256, "sigma_w": 0.0,
                   "b_f": 1.0, "b_g": 1.0, "delta": 0.05, "class": written["class"],
                   "mixing": None},
        "mixcheck": written["mixcheck"],
    })
    minimal = {
        "schema_version": 1,
        "population": {**dims, "law": left_out["law"]},
        "sweep": {"axis": "T", "grid": [2, 4, 8]},
        "bounds": {**coverage, "class": left_out["class"]},
        "mixcheck": left_out["mixcheck"],
    }
    assert _sections(ExperimentConfig.from_dict(minimal)) == _sections(full)
    nulls = {**minimal, "fit": None, "diagnostics": None, "seed": None, "output_dir": None}
    assert _sections(ExperimentConfig.from_dict(nulls)) == _sections(full)


def test_build_population_deterministic():
    cfg = example_config()
    a = build_population(cfg["population"], seed=5)
    b = build_population(cfg["population"], seed=5)
    assert np.array_equal(a.rep_star.g, b.rep_star.g)
    for ta, tb in zip(a.tasks, b.tasks):
        assert np.array_equal(ta.head.f, tb.head.f)


POPULATION_LAWS = {
    "gaussian_spread_1": {"kind": "gaussian", "scale_spread": 1.0},
    "gaussian_spread_2": {"kind": "gaussian", "scale_spread": 2.0},
    "lds": {"kind": "lds", "spectral_radius": 0.9},
    "markov": {"kind": "markov", "states": 6, "stay_prob": 0.8},
}


def law_config(name):
    cfg = small_sweep_config()
    cfg["population"]["law"] = POPULATION_LAWS[name]
    return ExperimentConfig.from_dict(cfg)


@pytest.mark.parametrize("name,shared", [("gaussian_spread_1", True), ("markov", True),
                                         ("gaussian_spread_2", False), ("lds", False)])
def test_build_population_builds_each_distinct_law_once(name, shared):
    config = law_config(name)
    spec = build_population(config.population, config.seed)
    objects = {id(task.law) for task in spec.tasks}
    assert len(objects) == (1 if shared else len(spec.tasks))


def _separate_laws(spec):
    """``spec`` with a separate but equal law object per task."""
    return replace(spec, tasks=tuple(replace(task, law=replace(task.law))
                                     for task in spec.tasks))


@pytest.mark.parametrize("name", ["gaussian_spread_1", "markov"])
def test_shared_law_gives_the_results_of_separate_laws(name, monkeypatch):
    config = law_config(name)
    shared = build_population(config.population, config.seed)
    separate = _separate_laws(shared)
    assert len({id(task.law) for task in separate.tasks}) == len(separate.tasks)
    requests = [cli._request(spec, 40, 24, 7) for spec in (shared, separate)]

    stats = [sample_task_stats(req) for req in requests]
    for a, b in zip(*stats):
        assert a.n == b.n
        assert np.array_equal(a.covariates, b.covariates)
        assert np.array_equal(a.labels, b.labels)

    (fit_a, source_a), (fit_b, source_b) = (cli._source_stage(config, req) for req in requests)
    assert source_a == source_b
    assert np.array_equal(fit_a.rep.g, fit_b.rep.g)
    assert cli._target_stage(requests[0], fit_a) == cli._target_stage(requests[1], fit_b)

    report = run_diagnose(config).to_json()
    monkeypatch.setattr(cli, "build_population", lambda *args, **kwargs: separate)
    assert run_diagnose(config).to_json() == report


# ---------------------------------------------------------------------------
# sweep harness
# ---------------------------------------------------------------------------

def test_sweep_single_point_grid_fails():
    cfg = ExperimentConfig.from_dict(small_sweep_config(grid=[16]))
    with pytest.raises(SweepFailed):
        run_sweep(cfg)


def test_sweep_rows_and_outputs(tmp_path):
    cfg = ExperimentConfig.from_dict(small_sweep_config())
    result = run_sweep(cfg)
    assert len(result.rows) == 6
    assert [(r.axis_value, r.replicate) for r in result.rows] == \
        [(16, 0), (16, 1), (32, 0), (32, 1), (64, 0), (64, 1)]
    assert "est_error_avg" in result.slopes
    paths = write_sweep_outputs(result, cfg, tmp_path)
    with open(paths["csv"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["axis_value", "replicate", "excess_risk_target",
                       "est_error_avg", "nu_hat", "mu_x", "mu_f", "fit_objective",
                       "iterations", "converged", "wall_time_ms"]
    assert len(rows) == 7
    with open(paths["summary"]) as fh:
        summary = json.load(fh)
    assert summary["config_hash"] == cfg.config_hash()
    assert "slopes" in summary and "medians" in summary


def test_sweep_reproducible_up_to_wall_time(tmp_path):
    cfg = ExperimentConfig.from_dict(small_sweep_config())
    r1, r2 = run_sweep(cfg), run_sweep(cfg)
    for a, b in zip(r1.rows, r2.rows):
        for field in ("axis_value", "replicate", "excess_risk_target",
                      "est_error_avg", "nu_hat", "mu_x", "mu_f", "fit_objective"):
            va, vb = getattr(a, field), getattr(b, field)
            assert va == vb or (np.isnan(va) and np.isnan(vb)), field


def test_sweep_builds_each_population_once(monkeypatch):
    calls = []

    def counting_build(*args, **kwargs):
        calls.append(kwargs.get("num_sources"))
        return build_population(*args, **kwargs)

    monkeypatch.setattr(cli, "build_population", counting_build)
    run_sweep(ExperimentConfig.from_dict(small_sweep_config(axis="T", grid=[2, 3, 4])))
    assert calls == [2, 3, 4]


@pytest.mark.parametrize("axis,builds,fits", [("T", [2, 3, 4], 6), ("N", [None], 6),
                                              ("N_prime", [None], 2)],
                         ids=["T", "N", "N_prime"])
def test_sweep_shares_population_and_first_stages(monkeypatch, axis, builds, fits):
    # One population per T value, else one per sweep; one first stage per row,
    # except on the N' axis, where a replicate's rows share theirs.
    calls, fit_seeds = [], []
    real_fit = cli.fit_first_stage_linear

    def counting_build(*args, **kwargs):
        calls.append(kwargs.get("num_sources"))
        return build_population(*args, **kwargs)

    def counting_fit(*args, opts, **kwargs):
        fit_seeds.append(opts.seed)
        return real_fit(*args, opts=opts, **kwargs)

    monkeypatch.setattr(cli, "build_population", counting_build)
    monkeypatch.setattr(cli, "fit_first_stage_linear", counting_fit)
    grid = [2, 3, 4] if axis == "T" else [16, 32, 64]
    run_sweep(ExperimentConfig.from_dict(small_sweep_config(axis=axis, grid=grid)))
    assert calls == builds
    assert len(fit_seeds) == len(set(fit_seeds)) == fits


def _oracle_row(config, axis, v, rep):
    """Row (v, rep) recomputed from whole requests with the library's public
    sampler, fitters and diagnostics: the target from a full draw at the row
    seed, the sources and the fit seed from a full draw at the source seed,
    which is the row seed except on the N' axis, where it is the seed of grid
    value 0."""
    spec = build_population(config.population, config.seed,
                            num_sources=v if axis == "T" else None)
    n = v if axis == "N" else config.sweep["n"]
    n_prime = v if axis == "N_prime" else config.sweep["n_prime"]

    def seed_of(value):
        state = np.random.SeedSequence([config.seed, value, rep]).generate_state(1, np.uint64)
        return int(state[0])

    def draw(seed):
        return sample_task_stats(SampleRequest(
            spec=spec, per_task_n=(n_prime,) + (n,) * spec.num_sources, seed=seed))

    row_seed = seed_of(v)
    source_seed = seed_of(0) if axis == "N_prime" else row_seed
    target, sources = draw(row_seed)[0], draw(source_seed)[1:]
    fit = fit_first_stage_linear(sources, r=spec.dims.r,
                                 opts=replace(config.fit, seed=source_seed))
    second = fit_second_stage(target, fit.rep)
    return {"excess_risk_target": diagnostics.excess_risk_population(spec, second.head, fit.rep),
            "nu_hat": diagnostics.nu_hat(second.residual, fit.per_task_residual),
            "est_error_avg": diagnostics.estimation_error_avg(spec, fit.heads, fit.rep),
            "mu_x": diagnostics.mu_x(spec, fit.rep),
            "mu_f": diagnostics.mu_f([task.head for task in spec.tasks]),
            "fit_objective": fit.objective, "iterations": fit.iterations,
            "converged": fit.converged}


def _same(a, b):
    return a == b or (isinstance(a, float) and np.isnan(a) and np.isnan(b))


@pytest.mark.parametrize("axis,grid", [("T", [2, 3, 4]), ("N", [16, 32, 64]),
                                       ("N_prime", [16, 32, 64])])
def test_sweep_rows_equal_per_row_recomputation(axis, grid):
    config = ExperimentConfig.from_dict(small_sweep_config(axis=axis, grid=grid, replicates=3))
    result = run_sweep(config)
    assert not result.errors and len(result.rows) == 9
    for row in result.rows:
        want = _oracle_row(config, axis, row.axis_value, row.replicate)
        got = {key: getattr(row, key) for key in want}
        assert all(_same(got[key], want[key]) for key in want), (row, want)
    if axis != "N_prime":
        return
    shared = ("est_error_avg", "mu_x", "fit_objective", "iterations", "converged")
    for rep in range(3):
        rows = [row for row in result.rows if row.replicate == rep]
        assert len({tuple(getattr(row, key) for key in shared) for row in rows}) == 1
        assert len({row.excess_risk_target for row in rows}) == len(grid)


def test_sweep_failed_first_stage_fails_its_replicate(monkeypatch):
    config = ExperimentConfig.from_dict(small_sweep_config(axis="N_prime", replicates=3))
    clean = run_sweep(config)
    bad_seed = cli._row_seed(config.seed, 0, 1)
    real_fit = cli.fit_first_stage_linear
    attempts = []

    def failing_fit(*args, opts, **kwargs):
        if opts.seed == bad_seed:
            attempts.append(opts.seed)
            raise DegenerateData("all covariates are zero")
        return real_fit(*args, opts=opts, **kwargs)

    monkeypatch.setattr(cli, "fit_first_stage_linear", failing_fit)
    result = run_sweep(config)
    assert len(attempts) == 1
    assert result.errors == tuple((v, 1, "DegenerateData: all covariates are zero")
                                  for v in (16, 32, 64))
    kept = [row for row in clean.rows if row.replicate != 1]
    assert [(r.axis_value, r.replicate) for r in result.rows] == \
        [(r.axis_value, r.replicate) for r in kept]
    for got, want in zip(result.rows, kept):
        for f in fields(got):
            if f.name != "wall_time_ms":
                assert _same(getattr(got, f.name), getattr(want, f.name)), f.name


def test_sweep_fits_no_slope_through_round_off_floor():
    # noiseless rows recover the target exactly: these metrics sit at the
    # round-off floor and carry no rate
    floor_metrics = {"excess_risk_target", "est_error_avg", "fit_objective"}
    cfg = small_sweep_config(axis="T", grid=[2, 3, 5], n=32, n_prime=32)
    cfg["population"]["noise_sigma"] = 0.0
    result = run_sweep(ExperimentConfig.from_dict(cfg))
    assert all(result.medians[m][v] < 1e-12 for m in floor_metrics for v in (2, 3, 5))
    assert not floor_metrics & set(result.slopes)
    cfg["population"]["noise_sigma"] = 0.4
    assert floor_metrics <= set(run_sweep(ExperimentConfig.from_dict(cfg)).slopes)


def test_sweep_risks_are_nonnegative_at_round_off_floor():
    # noiseless Markov rows recover the truth up to round-off; a risk computed
    # as a sum of squares cannot read below zero there
    cfg = small_sweep_config()
    cfg["population"].update({"noise_sigma": 0.0,
                              "law": {"kind": "markov", "states": 6, "stay_prob": 0.7}})
    result = run_sweep(ExperimentConfig.from_dict(cfg))
    assert not result.errors
    assert min(r.excess_risk_target for r in result.rows) < 1e-15
    for row in result.rows:
        assert row.excess_risk_target >= 0.0 and row.est_error_avg >= 0.0, row


def test_sweep_records_linalg_error_row(monkeypatch):
    cfg = ExperimentConfig.from_dict(small_sweep_config())
    bad_seed = cli._row_seed(cfg.seed, 32, 0)
    real_fit = cli.fit_first_stage_linear

    def flaky_fit(*args, opts, **kwargs):
        if opts.seed == bad_seed:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_fit(*args, opts=opts, **kwargs)

    monkeypatch.setattr(cli, "fit_first_stage_linear", flaky_fit)
    result = run_sweep(cfg)
    assert result.errors == ((32, 0, "LinAlgError: SVD did not converge"),)
    assert [(r.axis_value, r.replicate) for r in result.rows] == \
        [(16, 0), (16, 1), (32, 1), (64, 0), (64, 1)]


def test_sweep_records_non_finite_normal_matrix_row(monkeypatch):
    # A NaN in the ALS normal matrix raises ValueError from the pivoted-QR
    # solve; the row is recorded and the sweep goes on.
    cfg = ExperimentConfig.from_dict(small_sweep_config())
    bad_seed = cli._row_seed(cfg.seed, 32, 0)
    real_fit, real_normal = cli.fit_first_stage_linear, erm._normal_matrix
    poisoned = [False]

    def fit(*args, opts, **kwargs):
        poisoned[0] = opts.seed == bad_seed
        return real_fit(*args, opts=opts, **kwargs)

    def normal(xtx, ftf):
        m = real_normal(xtx, ftf)
        if poisoned[0]:
            m[0, 1] = np.nan
        return m

    monkeypatch.setattr(cli, "fit_first_stage_linear", fit)
    monkeypatch.setattr(erm, "_normal_matrix", normal)
    result = run_sweep(cfg)
    assert result.errors == ((32, 0, "ValueError: array must not contain infs or NaNs"),)
    assert len(result.rows) == 5


def test_sweep_records_failed_mu_f_on_its_population():
    # With one source and d_y = 1 < r = 2, the source head Gram misses a
    # direction of the target's, so mu_f raises on the T = 1 population only.
    cfg = small_sweep_config(axis="T", grid=[1, 2, 3])
    cfg["population"]["d_y"] = 1
    result = run_sweep(ExperimentConfig.from_dict(cfg))
    message = "RangeViolation: the target matrix leaves the range of a source matrix"
    assert result.errors == ((1, 0, message), (1, 1, message))
    assert [(r.axis_value, r.replicate) for r in result.rows] == [(2, 0), (2, 1), (3, 0), (3, 1)]


# ---------------------------------------------------------------------------
# orchestration commands
# ---------------------------------------------------------------------------

def test_run_diagnose_identical_covariates_mu_x_one():
    cfg = example_config()
    cfg["population"].update({"d_x": 6, "num_sources": 3, "noise_sigma": 0.4,
                              "law": {"kind": "gaussian", "scale_spread": 1.0}})
    cfg["fit"].update({"restarts": 1, "max_iters": 60})
    cfg["sweep"] = {"axis": "N", "grid": [16, 32, 64], "replicates": 1,
                    "n": 48, "n_prime": 48}
    cfg["diagnostics"] = {"mc_samples": 5000}
    report = run_diagnose(ExperimentConfig.from_dict(cfg))
    assert report.mu_x == pytest.approx(1.0, abs=1e-9)
    payload = report.to_json()
    for key in ("mu_x", "mu_f", "nu_true", "nu_hat", "excess_risk_target",
                "est_error_avg", "fit_objective", "iterations", "converged",
                "sigma_u_sq", "sigma_v_sq", "c_z", "h_v"):
        assert key in payload
    assert payload["converged"] is True and payload["iterations"] >= 1


def test_commands_sample_the_same_request(tmp_path, monkeypatch):
    # gen writes raw rows; fit and diagnose fit on the same request's statistics
    seen = []

    def spy(name):
        real = getattr(cli, name)

        def call(req, **kwargs):
            tasks = kwargs.get("tasks")
            seen.append((name, req.per_task_n, req.seed, None if tasks is None else tuple(tasks)))
            return real(req, **kwargs)
        return call

    for name in ("sample_tasks", "sample_task_stats"):
        monkeypatch.setattr(cli, name, spy(name))
    cfg = ExperimentConfig.from_dict(small_sweep_config(n=40, n_prime=24))
    cli.run_gen(cfg, tmp_path / "data")
    cli.run_fit(cfg)
    run_diagnose(cfg)
    request = ((24, 40, 40, 40), cfg.seed)
    # each command draws the sources, then the target, of that one request
    stages = [("sample_task_stats", *request, (1, 2, 3)), ("sample_task_stats", *request, (0,))]
    assert seen == [("sample_tasks", *request, None)] + stages * 2


def test_mixcheck_needs_no_population(tmp_path, capsys):
    mix_only = {"schema_version": 1,
                "mixcheck": {"kind": "markov", "transition": [[0.9, 0.1], [0.2, 0.8]],
                             "max_lag": 6, "n": 8}}
    path = write_config(tmp_path, mix_only)
    assert main(["mixcheck", "--config", path]) == 0
    assert main(["diagnose", "--config", path]) == 2
    bounds_only = {"schema_version": 1, "bounds": {"n": 64}}
    with pytest.raises(ConfigError, match="population"):
        run_bounds(ExperimentConfig.from_dict(bounds_only))
    capsys.readouterr()


@pytest.mark.parametrize("transition", [[[1.2, -0.2], [0.3, 0.7]],
                                        [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]],
                         ids=["negative_entry", "not_square"])
def test_transition_matrix_checked_once(tmp_path, capsys, transition):
    p = np.array(transition)
    with pytest.raises(InvalidMatrix):
        phi_markov(p, max_lag=4)
    with pytest.raises(InvalidMatrix):
        MarkovLaw(transition=p, d_x=2)
    path = write_config(tmp_path, {"schema_version": 1,
                                   "mixcheck": {"kind": "markov", "transition": transition}})
    assert main(["mixcheck", "--config", path]) == 2
    assert "transition matrix must be" in capsys.readouterr().err


def test_fit_json_rep_is_the_linear_representation(tmp_path, capsys):
    cfg = small_sweep_config()
    assert main(["fit", "--config", write_config(tmp_path, cfg), "--out",
                 str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rep = json.loads((tmp_path / "out" / "fit.json").read_text())["first_stage"]["rep"]
    assert rep.keys() == {"kind", "g"} and rep["kind"] == "linear"
    r, d_x = cfg["population"]["r"], cfg["population"]["d_x"]
    assert (rep["g"]["rows"], rep["g"]["cols"]) == (r, d_x)
    g = np.array(rep["g"]["data"]).reshape(r, d_x)
    assert np.allclose(g @ g.T, np.eye(r), rtol=0, atol=1e-12)


def test_run_mixcheck_two_cycle():
    cfg = example_config()
    cfg["mixcheck"] = {"kind": "markov", "transition": [[0.0, 1.0], [1.0, 0.0]],
                       "max_lag": 6, "n": 8}
    out = run_mixcheck(ExperimentConfig.from_dict(cfg))
    assert out["profile"]["phi"] == [0.5] * 6
    assert out["dependency_norm"] > 1.0


def test_run_bounds_missing_keys_exit_2(tmp_path, capsys):
    cfg = example_config()
    cfg["bounds"] = {"class": {"kind": "parametric", "d_theta": 4, "l_theta": 1.0}}
    with pytest.raises(ConfigError, match="b_theta"):
        run_bounds(ExperimentConfig.from_dict(cfg))
    assert main(["bounds", "--config", write_config(tmp_path, cfg)]) == 2
    cfg = example_config()
    cfg["bounds"] = {}
    del cfg["population"]["d_x"]
    with pytest.raises(ConfigError, match="d_x"):
        run_bounds(ExperimentConfig.from_dict(cfg))
    assert main(["bounds", "--config", write_config(tmp_path, cfg)]) == 2
    complete = {"sigma_w": 0.5, "c_z": 1.0, "mu_x": 1.0, "mu_f": 1.0,
                "class": {"kind": "finite", "log_card": 1.0}}
    cfg = example_config()
    cfg["bounds"] = {**complete, "mixing": {"rho": 0.5, "k": 4}}
    with pytest.raises(ConfigError, match="gamma"):
        run_bounds(ExperimentConfig.from_dict(cfg))
    assert main(["bounds", "--config", write_config(tmp_path, cfg)]) == 2
    cfg["bounds"] = {**complete, "class": {"kind": "finite", "log_cardd": 50.0}}
    assert main(["bounds", "--config", write_config(tmp_path, cfg)]) == 2
    for key in ("mu_x", "mu_f", "c_z"):
        cfg["bounds"] = {k: v for k, v in complete.items() if k != key}
        with pytest.raises(ConfigError, match=key):
            run_bounds(ExperimentConfig.from_dict(cfg))
        assert main(["bounds", "--config", write_config(tmp_path, cfg)]) == 2
    # sigma_w defaults to the population's noise level, here 0: not priceable
    cfg["bounds"] = {k: v for k, v in complete.items() if k != "sigma_w"}
    cfg["population"]["noise_sigma"] = 0.0
    with pytest.raises(ValueError, match="sigma_w"):
        run_bounds(ExperimentConfig.from_dict(cfg))
    assert main(["bounds", "--config", write_config(tmp_path, cfg)]) == 2
    capsys.readouterr()


def test_run_bounds_sigma_w_defaults_to_population_noise():
    cfg = example_config()
    cfg["bounds"] = {"c_z": 1.0, "mu_x": 1.0, "mu_f": 1.0,
                     "class": {"kind": "finite", "log_card": 1.0}}
    implicit = run_bounds(ExperimentConfig.from_dict(cfg))
    cfg["bounds"]["sigma_w"] = cfg["population"]["noise_sigma"]
    assert implicit == run_bounds(ExperimentConfig.from_dict(cfg))


@pytest.mark.parametrize("cls", [None, {"kind": "finite"}])
def test_run_bounds_requires_class(tmp_path, capsys, cls):
    cfg = example_config()
    cfg["bounds"] = {"sigma_w": 0.5, "c_z": 1.0, "mu_x": 1.0, "mu_f": 1.0}
    if cls is not None:
        cfg["bounds"]["class"] = cls
    with pytest.raises(ConfigError, match="log_card" if cls else "class"):
        run_bounds(ExperimentConfig.from_dict(cfg))
    assert main(["bounds", "--config", write_config(tmp_path, cfg)]) == 2
    capsys.readouterr()


def test_run_bounds_dispatch():
    cfg = example_config()
    cfg["bounds"] = {"t_tasks": 4, "n": 256, "n_prime": 128, "sigma_w": 0.5,
                     "b_f": 1.0, "b_g": 1.0,
                     "class": {"kind": "finite", "log_card": 5.0}, "delta": 0.05,
                     "c_z": 1.0, "mu_x": 1.0, "mu_f": 1.0}
    report = run_bounds(ExperimentConfig.from_dict(cfg))
    assert report.transfer_bound == pytest.approx(
        report.nrls_bound + report.martingale_bound, rel=1e-12)


# ---------------------------------------------------------------------------
# command-line entry
# ---------------------------------------------------------------------------

def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_main_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, {"schema_version": 1, "population": {"law": {"kind": "nope"}}})
    assert main(["diagnose", "--config", bad]) == 2

    degenerate = write_config(tmp_path, small_sweep_config(grid=[16]))
    assert main(["sweep", "--config", degenerate]) == 3

    ok = write_config(tmp_path, small_sweep_config())
    assert main(["sweep", "--config", ok, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "sweep.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()
    capsys.readouterr()


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON value")


def test_noiseless_sweep_summary_is_strict_json(tmp_path, capsys):
    # a noiseless target's residual sits at the round-off floor, so no row has a
    # finite nu_hat: its median is NaN in memory and null in summary.json
    cfg = small_sweep_config(axis="T", grid=[2, 3, 5])
    cfg["population"]["noise_sigma"] = 0.0
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    assert summary["medians"]["nu_hat"] == {"2": None, "3": None, "5": None}
    assert printed["medians"] == summary["medians"]
    medians = run_sweep(ExperimentConfig.from_dict(cfg)).medians
    assert all(np.isnan(v) for v in medians["nu_hat"].values())
    assert all(np.isfinite(v) for v in medians["mu_f"].values())


def test_main_gen_writes_datasets(tmp_path, capsys):
    cfg = small_sweep_config()
    cfg["population"]["law"] = {"kind": "lds", "spectral_radius": 0.7}
    path = write_config(tmp_path, cfg)
    assert main(["gen", "--config", path, "--out", str(tmp_path / "data")]) == 0
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
    assert (tmp_path / "data" / "task_0.csv").exists()
    assert [task["kind"] for task in manifest["tasks"]] == ["trajectory"] * len(manifest["tasks"])
    assert all("burn_in" not in task for task in manifest["tasks"])
    assert "burn_in_steps" not in manifest
    capsys.readouterr()


def test_main_fit_writes_fit_json(tmp_path, capsys):
    cfg = small_sweep_config()
    path = write_config(tmp_path, cfg)
    assert main(["fit", "--config", path, "--out", str(tmp_path / "fit")]) == 0
    written = json.loads((tmp_path / "fit" / "fit.json").read_text())
    expected = json.loads(json.dumps(cli.run_fit(ExperimentConfig.from_dict(cfg))))
    assert written == expected
    capsys.readouterr()


def test_log_level_shows_min_norm_solve(tmp_path):
    # T = 1 and d_y = 1 < r = 2: every ALS normal matrix is singular.
    cfg = small_sweep_config()
    cfg["population"].update({"num_sources": 1, "d_y": 1, "r": 2})
    path = write_config(tmp_path, cfg)
    env = {**os.environ, "PYTHONPATH": str(Path(transferlab.__file__).parents[1])}
    stderr = {}
    for level in ("DEBUG", "WARNING"):
        proc = subprocess.run([sys.executable, "-m", "transferlab", "fit", "--config", path,
                               "--log-level", level],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        stderr[level] = proc.stderr
    assert "DEBUG transferlab.erm: normal matrix of size n = 12 is singular" in stderr["DEBUG"]
    assert "minimum-norm solve by pivoted QR" in stderr["DEBUG"]
    assert stderr["WARNING"] == ""


def test_bad_log_level_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, small_sweep_config())
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--config", path, "--log-level", "VERBOSE"])
    assert exc.value.code == 2
    assert "--log-level" in capsys.readouterr().err


def test_main_missing_config_file(tmp_path):
    assert main(["diagnose", "--config", str(tmp_path / "nope.json")]) == 2


COMMANDS_IN_ONE_PROCESS = """
import json, sys
from transferlab.cli import main
out, runs = sys.argv[1], sys.argv[2:]
loaded = {}
for name, command, config in zip(runs[::3], runs[1::3], runs[2::3]):
    code = main([command, "--config", config, "--out", f"{out}/{name}"])
    loaded[name] = [code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]
print(json.dumps(loaded))
"""


def test_only_fit_loads_scipy(tmp_path):
    # gen, bounds (finite class) and mixcheck run on numpy alone, on Gaussian, LDS and
    # Markov laws, in a fresh interpreter; fit loads scipy.linalg for its G-step solve
    cfg = small_sweep_config()
    cfg["population"]["law"] = {"kind": "gaussian", "scale_spread": 2.0}
    cfg["bounds"] = {"mu_x": 1.0, "mu_f": 2.0, "c_z": 1.5,
                     "class": {"kind": "finite", "log_card": 3.0}}
    cfg["mixcheck"] = {"kind": "markov", "transition": MARKOV_2, "max_lag": 6, "n": 8}
    lds = {**cfg, "population": {**cfg["population"],
                                 "law": {"kind": "lds", "spectral_radius": 0.9}},
           "mixcheck": {"kind": "lds", "d_x": 3, "n": 8, "mc_samples": 500}}
    (tmp_path / "lds").mkdir()
    gaussian_path, lds_path = write_config(tmp_path, cfg), write_config(tmp_path / "lds", lds)
    runs = [("gen", "gen", gaussian_path), ("bounds", "bounds", gaussian_path),
            ("mixcheck", "mixcheck", gaussian_path), ("lds_gen", "gen", lds_path),
            ("lds_mixcheck", "mixcheck", lds_path), ("fit", "fit", gaussian_path)]
    env = {**os.environ, "PYTHONPATH": str(Path(transferlab.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", COMMANDS_IN_ONE_PROCESS, str(tmp_path),
                           *(arg for run in runs for arg in run)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    numpy_only = ("gen", "bounds", "mixcheck", "lds_gen", "lds_mixcheck")
    assert [loaded[name] for name in numpy_only] == [[0, []]] * len(numpy_only)
    assert loaded["fit"][0] == 0 and "scipy.linalg" in loaded["fit"][1]
    assert list((tmp_path / "gen").glob("*.csv")) and list((tmp_path / "lds_gen").glob("*.csv"))
