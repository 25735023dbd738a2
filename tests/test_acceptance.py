"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

from conftest import (log_integral_quadrature, make_gaussian_population, nu_hat_given_g,
                      pinv_sqrt, random_orthonormal_rows)
from transferlab.bounds import (
    BoundConfig,
    FiniteClass,
    covering_parametric,
    covering_star_hull,
    log_integral_bound,
    martingale_complexity_terms,
    snm_bound_check,
    transfer_risk_bound,
)
from transferlab.cli import ExperimentConfig, run_sweep
from transferlab.core import (
    Dims,
    GaussianLaw,
    LdsLaw,
    LinearHead,
    LinearRep,
    MarkovLaw,
    PopulationSpec,
    TaskSpec,
    lds_stationary_covariance,
)
from transferlab.datagen import SampleRequest, sample_tasks
from transferlab.diagnostics import (
    estimation_error_avg,
    infimal_risk,
    mu_f,
    mu_x,
    nu_true,
)
from transferlab.erm import (
    OFFSET_SUP_CONSTANT,
    FitOptions,
    fit_first_stage_linear,
)
from transferlab.mixing import (
    GeometricProfile,
    decouple_trajectory,
    geometric_profile_from_lds,
    make_blocks,
    phi_capital,
    phi_markov,
    select_block_length,
)
from transferlab.smallball import BlockedMode, lower_isometry_tail_check


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:>2} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {num:>2} PASS: {description}")


# ---------------------------------------------------------------------------
# 1. Subspace recovery
# ---------------------------------------------------------------------------

def test_criterion_01_subspace_recovery():
    with criterion(1, "noiseless subspace recovery, angle <= 1e-6 in < 5 s"):
        spec = make_gaussian_population(d_x=10, d_y=1, r=2, t=8, noise_sigma=0.0,
                                        seed=101, identical=True)
        data = sample_tasks(SampleRequest(spec=spec, per_task_n=(100,) * 9, seed=102))
        start = time.perf_counter()
        fit = fit_first_stage_linear(data[1:], r=2,
                                     opts=FitOptions(restarts=5, seed=103))
        elapsed = time.perf_counter() - start
        angle = scipy.linalg.subspace_angles(fit.rep.g.T, spec.rep_star.g.T).max()
        assert angle <= 1e-6, f"principal angle {angle:g}"
        assert elapsed < 5.0, f"runtime {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# 2. Rate slopes
# ---------------------------------------------------------------------------

def _sweep_config(axis, grid, replicates, population, n, n_prime, seed):
    return ExperimentConfig.from_dict({
        "schema_version": 1,
        "seed": seed,
        "output_dir": None,
        "population": population,
        "fit": {"kind": "linear", "max_iters": 200, "tol": 1e-10, "restarts": 2},
        "sweep": {"axis": axis, "grid": grid, "replicates": replicates,
                  "n": n, "n_prime": n_prime},
        "diagnostics": {"mc_samples": 20000},
    })


def test_criterion_02_rate_slopes():
    with criterion(2, "T-sweep est-error slope in [-1.2, -0.7]; "
                      "N'-sweep excess slope in [-1.2, -0.8]; each < 60 s"):
        pop_t = {"d_x": 64, "d_y": 1, "r": 2, "num_sources": 8, "noise_sigma": 0.5,
                 "law": {"kind": "gaussian", "scale_spread": 1.0}, "head_scale": 1.0}
        cfg = _sweep_config("T", [4, 8, 16, 32, 64], 20, pop_t, n=128, n_prime=64,
                            seed=21)
        start = time.perf_counter()
        res_t = run_sweep(cfg)
        t_elapsed = time.perf_counter() - start
        slope_t = res_t.slopes["est_error_avg"]
        assert -1.2 <= slope_t <= -0.7, f"T-sweep slope {slope_t:.3f}"
        assert t_elapsed < 60.0, f"T-sweep took {t_elapsed:.1f} s"

        pop_n = {"d_x": 10, "d_y": 4, "r": 2, "num_sources": 8, "noise_sigma": 0.5,
                 "law": {"kind": "gaussian", "scale_spread": 1.0}, "head_scale": 1.0}
        cfg = _sweep_config("N_prime", [64, 128, 256, 512, 1024], 32, pop_n,
                            n=20000, n_prime=128, seed=11)
        start = time.perf_counter()
        res_n = run_sweep(cfg)
        n_elapsed = time.perf_counter() - start
        slope_n = res_n.slopes["excess_risk_target"]
        assert -1.2 <= slope_n <= -0.8, f"N'-sweep slope {slope_n:.3f}"
        assert n_elapsed < 60.0, f"N'-sweep took {n_elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 3. Task-diversity estimator consistency
# ---------------------------------------------------------------------------

def test_criterion_03_nu_hat_consistency():
    with criterion(3, "|nu_hat - nu| <= 0.05 at N = 1e5 and error non-increasing "
                      "across N in {1e3, 1e4, 1e5}"):
        spec = make_gaussian_population(d_x=6, d_y=2, r=2, t=3, noise_sigma=0.0,
                                        seed=332)
        g = LinearRep(random_orthonormal_rows(2, 6, np.random.default_rng(1332)))
        nu = nu_true(spec, g)
        errs = []
        for k, n in enumerate((1_000, 10_000, 100_000)):
            data = sample_tasks(SampleRequest(spec=spec, per_task_n=(n,) * 4,
                                              seed=3320 + k))
            errs.append(abs(nu_hat_given_g(data, g) - nu))
        assert errs[2] <= 0.05, f"final error {errs[2]:.4f}"
        assert errs[1] <= 2.0 * errs[0] and errs[2] <= 2.0 * errs[1], \
            f"errors not non-increasing within 2x band: {errs}"


# ---------------------------------------------------------------------------
# 4. Task-diversity certificate
# ---------------------------------------------------------------------------

def test_criterion_04_task_diversity_certificate():
    with criterion(4, "inf ER_target <= mu_x mu_f avg inf ER_source + 1e-9 on 100 "
                      "random instances; mu_x = 1 on identical covariates"):
        for seed in range(100):
            spec = make_gaussian_population(d_x=5, d_y=2, r=2, t=3,
                                            seed=4000 + seed)
            g = LinearRep(random_orthonormal_rows(2, 5,
                                                  np.random.default_rng(4500 + seed)))
            target = infimal_risk(spec.target.law, spec.target.head.f, g,
                                  spec.rep_star)
            source_avg = np.mean([
                infimal_risk(task.law, task.head.f, g, spec.rep_star)
                for task in spec.sources])
            cert = mu_x(spec, g) * mu_f([t.head for t in spec.tasks])
            assert target <= cert * source_avg + 1e-9
        ident = make_gaussian_population(identical=True, seed=4999)
        g = LinearRep(random_orthonormal_rows(2, 6, np.random.default_rng(5000)))
        assert abs(mu_x(ident, g) - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# 5. Offset-complexity oracle
# ---------------------------------------------------------------------------

def _offset_sup_bruteforce(z, w, iters=4000, starts=3, seed=0):
    rng = np.random.default_rng(seed)
    gram = z.T @ z
    lip = max(np.linalg.eigvalsh(2.0 * gram).max(), 1e-12)
    best = -np.inf
    for s in range(starts):
        f = np.zeros((w.shape[1], z.shape[1])) if s == 0 \
            else rng.standard_normal((w.shape[1], z.shape[1]))
        for _ in range(iters):
            grad = 4.0 * w.T @ z - 2.0 * f @ gram
            f = f + grad / lip
            if np.linalg.norm(grad) < 1e-13:
                break
        best = max(best, 4.0 * np.sum(w * (z @ f.T)) - np.sum((z @ f.T) ** 2))
    return best


def test_criterion_05_offset_complexity_oracle():
    with criterion(5, "offset closed form matches brute-force sup within 1e-6 "
                      f"on 50 instances (calibration constant c = {OFFSET_SUP_CONSTANT})"):
        rng = np.random.default_rng(55)
        for case in range(50):
            n = int(rng.integers(3, 10))
            r = int(rng.integers(1, 4))
            d_y = int(rng.integers(1, 3))
            z = rng.standard_normal((n, r))
            if case % 5 == 0:
                z[:, 0] = 0.0
            w = rng.standard_normal((n, d_y))
            half = pinv_sqrt(z.T @ z)
            closed = OFFSET_SUP_CONSTANT * np.sum((half @ z.T @ w) ** 2)
            brute = _offset_sup_bruteforce(z, w, seed=case)
            assert brute == pytest.approx(closed, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# 6. Self-normalized martingale coverage
# ---------------------------------------------------------------------------

def test_criterion_06_snm_coverage():
    with criterion(6, "SNM violation rate <= delta + 3 stderr at "
                      "delta in {0.01, 0.05, 0.1}, 2000 replicates, < 30 s each"):
        for i, delta in enumerate((0.01, 0.05, 0.1)):
            cfg = BoundConfig(dims=Dims(d_x=3, d_y=1, r=1), t_tasks=5, n=50,
                              n_prime=1, sigma_w=1.0, b_f=1.0, b_g=1.0,
                              class_complexity=FiniteClass(log_card=1.0),
                              delta=delta)
            start = time.perf_counter()
            res = snm_bound_check(cfg, replicates=2000, seed=60 + i)
            elapsed = time.perf_counter() - start
            assert res.passed
            assert elapsed < 30.0, f"delta={delta} took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 7. Lower-isometry tails
# ---------------------------------------------------------------------------

def test_criterion_07_lower_isometry_tails():
    with criterion(7, "lower-isometry bad-event frequency <= exp(-m/(8C)) + 3 "
                      "stderr on the Gaussian-square fixture, iid and blocked"):
        res = lower_isometry_tail_check(
            lambda n, rng: rng.standard_normal((n, 1)),
            lambda x: x[:, 0] ** 2, c=3.0, m=64, replicates=5000, seed=70)
        assert res.bound == pytest.approx(math.exp(-64.0 / 24.0), rel=1e-12)
        assert res.passed

        a = 0.5 * np.eye(1)
        profile = geometric_profile_from_lds(a, mc_samples=50_000, seed=71)
        blocked = lower_isometry_tail_check(
            LdsLaw(a=a), lambda x: x[:, 0] ** 2, c=3.0, m=64, replicates=5000,
            seed=72, blocked=BlockedMode(profile=profile, k=4))
        assert blocked.dep_norm > 1.0
        assert blocked.passed


# ---------------------------------------------------------------------------
# 8. Mixing machinery
# ---------------------------------------------------------------------------

def test_criterion_08_mixing_machinery():
    with criterion(8, "two-cycle phi = 1/2; capital-Phi series equals closed form "
                      "to 1e-8; decoupling inequality holds; block-length "
                      "post-condition on 100 random configs"):
        two_cycle = phi_markov(np.array([[0.0, 1.0], [1.0, 0.0]]), max_lag=16)
        assert np.all(two_cycle.phi == 0.5)

        geo = GeometricProfile(gamma=1.0, rho=0.25)
        series = np.sqrt(geo.phi_at(np.arange(1, 10_001))).sum() ** 2
        closed = phi_capital(geo)
        assert closed == pytest.approx(1.0 / (1.0 - 0.5) ** 2, rel=1e-12)
        assert series == pytest.approx(closed, rel=1e-8)

        p = np.array([[0.9, 0.1], [0.1, 0.9]])
        law = MarkovLaw(transition=p, d_x=1)
        k, n = 6, 24
        part = make_blocks(n, k)
        phi = phi_markov(p, max_lag=k)
        bound = (part.num_blocks // 2 - 1) * phi.phi_at(k)

        def f(x):
            odd = np.concatenate([x[s:e] for s, e in part.odd_blocks])
            return float(np.clip(np.mean(odd[:, 0] + 0.5), 0.0, 1.0))

        reps = 4000
        rng = np.random.default_rng(80)
        coupled = np.array([f(x) for x in law.sample_paths(reps, n, rng)])
        decoupled = np.array([f(decouple_trajectory(law, part, seed=81_000 + i))
                              for i in range(reps)])
        diff = abs(coupled.mean() - decoupled.mean())
        stderr = np.sqrt(coupled.var(ddof=1) / reps + decoupled.var(ddof=1) / reps)
        assert diff <= bound + 3.0 * stderr

        rng = np.random.default_rng(82)
        checked = 0
        while checked < 100:
            gamma = float(rng.uniform(0.2, 5.0))
            rho = float(rng.uniform(0.05, 0.9))
            m = int(rng.choice([240, 480, 960, 2520]) * rng.integers(1, 4))
            delta = float(rng.uniform(0.01, 0.2))
            profile = GeometricProfile(gamma=gamma, rho=rho)
            try:
                k_sel = select_block_length(profile, m, delta)
            except Exception:
                continue
            assert (m / k_sel) * profile.phi_at(k_sel) <= delta + 1e-12
            checked += 1


# ---------------------------------------------------------------------------
# 9. Mixing-vs-iid risk parity
# ---------------------------------------------------------------------------

def test_criterion_09_mixing_vs_iid_parity():
    with criterion(9, "LDS (rho = 0.9) vs iid with matched stationary covariance: "
                      "median estimation errors within 2x; bound values identical"):
        rng = np.random.default_rng(900)
        d_x, d_y, r, t, n = 4, 1, 2, 4, 2000
        q, _ = np.linalg.qr(rng.standard_normal((d_x, d_x)))
        a = 0.9 * q
        sigma, _ = lds_stationary_covariance(a)
        rep_star = LinearRep(random_orthonormal_rows(r, d_x, rng))
        heads = [LinearHead(rng.standard_normal((d_y, r))) for _ in range(t + 1)]
        spec_lds = PopulationSpec(
            dims=Dims(d_x, d_y, r),
            tasks=tuple(TaskSpec(law=LdsLaw(a), head=h) for h in heads),
            rep_star=rep_star, noise_sigma=0.5)
        spec_iid = PopulationSpec(
            dims=Dims(d_x, d_y, r),
            tasks=tuple(TaskSpec(law=GaussianLaw(sigma), head=h) for h in heads),
            rep_star=rep_star, noise_sigma=0.5)
        errs = {"lds": [], "iid": []}
        for rep in range(20):
            for name, spec in (("lds", spec_lds), ("iid", spec_iid)):
                data = sample_tasks(SampleRequest(
                    spec=spec, per_task_n=(100,) + (n,) * t, seed=9000 + rep))
                fit = fit_first_stage_linear(
                    data[1:], r=r, opts=FitOptions(restarts=2, max_iters=200,
                                                   seed=rep))
                errs[name].append(estimation_error_avg(spec, fit.heads, fit.rep))
        ratio = np.median(errs["lds"]) / np.median(errs["iid"])
        assert 0.5 <= ratio <= 2.0, f"median estimation-error ratio {ratio:.3f}"

        cfg_iid = BoundConfig(dims=Dims(d_x, d_y, r), t_tasks=t, n=n, n_prime=100,
                              sigma_w=0.5, b_f=2.0, b_g=1.0,
                              class_complexity=FiniteClass(log_card=8.0), delta=0.05)
        profile = geometric_profile_from_lds(a, mc_samples=20_000, seed=901)
        k_sel = select_block_length(profile, 100, 0.05)
        cfg_mix = BoundConfig(dims=Dims(d_x, d_y, r), t_tasks=t, n=n, n_prime=100,
                              sigma_w=0.5, b_f=2.0, b_g=1.0,
                              class_complexity=FiniteClass(log_card=8.0), delta=0.05,
                              mixing=BlockedMode(profile=profile, k=k_sel))
        r_iid = transfer_risk_bound(cfg_iid, 1.0, 1.0, 1.0)
        r_mix = transfer_risk_bound(cfg_mix, 1.0, 1.0, 1.0)
        assert r_mix.transfer_bound == pytest.approx(r_iid.transfer_bound, rel=1e-12)
        assert {b.name for b in r_mix.burn_ins} != {b.name for b in r_iid.burn_ins}
        req_iid = {b.name: b.required for b in r_iid.burn_ins}
        req_mix = {b.name: b.required for b in r_mix.burn_ins}
        assert req_mix["source_samples"] > req_iid["source_samples"]


# ---------------------------------------------------------------------------
# 10. Bound-formula structure
# ---------------------------------------------------------------------------

def test_criterion_10_bound_formula_structure():
    with criterion(10, "bounds monotone in N, N', T; covering/log-integral/"
                       "martingale spot values; quadrature <= bound on 50-point grid"):
        def bound_value(n=256, n_prime=128, t=4):
            cfg = BoundConfig(dims=Dims(8, 2, 3), t_tasks=t, n=n, n_prime=n_prime,
                              sigma_w=0.5, b_f=2.0, b_g=1.5,
                              class_complexity=FiniteClass(log_card=500.0),
                              delta=0.05)
            return transfer_risk_bound(cfg, 1.0, 1.0, 1.0).transfer_bound

        for grid, kw in (((64, 128, 256, 512, 1024), "n"),
                         ((64, 128, 256, 512, 1024), "n_prime"),
                         ((2, 4, 8, 16), "t")):
            vals = [bound_value(**{kw: v}) for v in grid]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:])), (kw, vals)

        assert covering_parametric(2, 1.0, 1.0, 2.0) == pytest.approx(2 * math.log(2))
        spot_cfg = BoundConfig(dims=Dims(2, 1, 1), t_tasks=1, n=16, n_prime=16,
                               sigma_w=1.0, b_f=1.0, b_g=1.0,
                               class_complexity=FiniteClass(log_card=0.0))
        assert covering_star_hull(spot_cfg, 4.0) == pytest.approx(
            math.log(2.0) + math.log(1.5), rel=1e-12)

        assert log_integral_bound(math.e - 1.0) == pytest.approx(math.sqrt(2.0))
        for c in np.geomspace(1e-3, 1e6, 50):
            assert log_integral_quadrature(float(c)) <= log_integral_bound(float(c)) + 1e-9

        head, cls, dev = martingale_complexity_terms(
            BoundConfig(dims=Dims(4, 1, 2), t_tasks=2, n=64, n_prime=16,
                        sigma_w=0.5, b_f=1.0, b_g=1.0,
                        class_complexity=FiniteClass(log_card=3.0), delta=1.0))
        assert dev == 0.0
        expected_head = 0.25 * (2 / 64) * math.log(math.e + 1.0 * 64 * 2 / 0.5)
        assert head == pytest.approx(expected_head, rel=1e-12)
        assert cls == pytest.approx(0.25 * 3.0 / 128, rel=1e-12)
