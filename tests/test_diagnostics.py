import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_gaussian_population, nu_hat_given_g, random_orthonormal_rows
from transferlab.core import (
    CovariateLaw,
    Dims,
    GaussianLaw,
    LdsLaw,
    LinearHead,
    LinearRep,
    MarkovLaw,
    PopulationSpec,
    TaskSpec,
    inv_sqrt_psd,
    pinv,
    sqrt_psd,
)
from transferlab import cli, core
from transferlab.datagen import SampleRequest, sample_task_stats, sample_tasks
from transferlab.diagnostics import (
    SPHERE_DIRECTIONS,
    estimation_error_avg,
    excess_risk_population,
    hypercontractivity_c42,
    infimal_risk,
    mu_f,
    mu_x,
    nrls_excess,
    nrls_quantities,
    nu_true,
    stacked_covariance,
)
from transferlab.erm import FitOptions, fit_first_stage_linear, fit_second_stage, ls_head
from transferlab.errors import RangeViolation


def scaled_population(scale_target=2.0, d_x=5, d_y=2, r=2, t=3, seed=0):
    """Sources share Sigma_x = I; the target uses scale_target * I."""
    rng = np.random.default_rng(seed)
    rep_star = LinearRep(random_orthonormal_rows(r, d_x, rng))
    tasks = [TaskSpec(law=GaussianLaw(scale_target * np.eye(d_x)),
                      head=LinearHead(rng.standard_normal((d_y, r))))]
    for _ in range(t):
        tasks.append(TaskSpec(law=GaussianLaw(np.eye(d_x)),
                              head=LinearHead(rng.standard_normal((d_y, r)))))
    return PopulationSpec(dims=Dims(d_x, d_y, r), tasks=tuple(tasks),
                          rep_star=rep_star)


def misaligned_rep(spec, seed=0):
    rng = np.random.default_rng(seed)
    return LinearRep(random_orthonormal_rows(spec.dims.r, spec.dims.d_x, rng))


def sampled_sigma(law, g, g_star, mc_samples, seed):
    """E[phi phi^T], phi(x) = [g(x); g_star(x)], as the mean over one seeded
    draw of the law's marginal: the sampled side of the moment oracles."""
    x = law.sample_marginal(mc_samples, np.random.default_rng(seed))
    phi = np.hstack([g.features(x), g_star.features(x)])
    return phi.T @ phi / mc_samples


# ---------------------------------------------------------------------------
# Stacked covariance and Schur complements
# ---------------------------------------------------------------------------

def test_schur_zero_for_true_rep():
    spec = make_gaussian_population(seed=1)
    sc = stacked_covariance(spec.target.law, spec.rep_star, spec.rep_star)
    assert np.allclose(sc.schur, 0.0, atol=1e-10)


def test_schur_hand_example():
    # G, G_star chosen so the stacked covariance is [[1, 0.5], [0.5, 1]]
    law = GaussianLaw(np.eye(2))
    g = LinearRep(np.array([[1.0, 0.0]]))
    g_star = LinearRep(np.array([[0.5, np.sqrt(0.75)]]))
    sc = stacked_covariance(law, g, g_star)
    assert np.allclose(sc.sigma, np.array([[1.0, 0.5], [0.5, 1.0]]), atol=1e-12)
    assert sc.schur[0, 0] == pytest.approx(0.75, abs=1e-12)


def test_stacked_covariance_monte_carlo_matches_analytic():
    spec = make_gaussian_population(seed=2)
    g = misaligned_rep(spec, seed=3)
    analytic = stacked_covariance(spec.target.law, g, spec.rep_star)
    mc = sampled_sigma(spec.target.law, g, spec.rep_star, 200_000, seed=4)
    denom = np.linalg.norm(analytic.sigma)
    assert np.linalg.norm(mc - analytic.sigma) <= 0.02 * denom


# ---------------------------------------------------------------------------
# Coverage coefficients
# ---------------------------------------------------------------------------

def test_mu_x_identical_laws_is_one():
    spec = make_gaussian_population(identical=True, seed=5)
    g = misaligned_rep(spec, seed=6)
    assert mu_x(spec, g) == pytest.approx(1.0, abs=1e-10)


def test_mu_x_global_scaling():
    spec = scaled_population(scale_target=2.0, seed=7)
    g = misaligned_rep(spec, seed=8)
    assert mu_x(spec, g) == pytest.approx(2.0, rel=1e-10)


def test_mu_x_true_rep_is_zero():
    spec = make_gaussian_population(seed=9)
    assert mu_x(spec, spec.rep_star) == 0.0


@pytest.mark.parametrize("eps", [3e-8, 1e-7, 3e-7, 1e-6, 1e-5, 1e-4])
def test_mu_x_identical_laws_near_the_true_rep(eps):
    """Identical laws share one Schur complement S, so mu_x is 0 (S below the
    zero cutoff RANK_TOL * tr E[g_* g_*^T]) or 1 (the whitened S is a projector),
    never a RangeViolation, however close g = orth(g_star + eps * noise) is."""
    spec = make_gaussian_population(identical=True, seed=41)
    noise = np.random.default_rng(42).standard_normal(spec.rep_star.g.shape)
    q, _ = np.linalg.qr((spec.rep_star.g + eps * noise).T)
    got = mu_x(spec, LinearRep(q.T))
    assert min(abs(got), abs(got - 1.0)) <= 1e-8


def test_mu_f_equal_heads():
    rng = np.random.default_rng(10)
    f = rng.standard_normal((3, 2))
    heads = [LinearHead(f)] * 4
    assert mu_f(heads) == pytest.approx(1.0, abs=1e-10)


def test_mu_f_scaling():
    rng = np.random.default_rng(11)
    f = rng.standard_normal((2, 2))
    c = 1.7
    assert mu_f([LinearHead(c * f), LinearHead(f)]) == pytest.approx(c * c, rel=1e-10)


def test_mu_f_range_violation():
    target = LinearHead(np.array([[0.0, 1.0]]))
    source = LinearHead(np.array([[1.0, 0.0]]))
    with pytest.raises(RangeViolation):
        mu_f([target, source])


# ---------------------------------------------------------------------------
# Risks
# ---------------------------------------------------------------------------

def test_excess_risk_optimal_predictor_is_zero():
    spec = make_gaussian_population(seed=12)
    assert excess_risk_population(spec, spec.target.head, spec.rep_star) \
        == pytest.approx(0.0, abs=1e-12)


def test_excess_risk_head_scaling():
    spec = make_gaussian_population(seed=13)
    f_star = spec.target.head
    doubled = LinearHead(2.0 * f_star.f)
    er = excess_risk_population(spec, doubled, spec.rep_star)
    sc = stacked_covariance(spec.target.law, spec.rep_star, spec.rep_star)
    r = spec.dims.r
    expected = np.trace(f_star.f @ sc.sigma[:r, :r] @ f_star.f.T)
    assert er == pytest.approx(expected, rel=1e-10)


def risk_reference(law, f, f_star, g, g_star, mc_samples, seed):
    """E ||F g(X) - F_star g_star(X)||^2 as the mean over one seeded draw of the
    law's marginal of per-sample squared norms."""
    x = law.sample_marginal(mc_samples, np.random.default_rng(seed))
    diff = g.features(x) @ f.T - g_star.features(x) @ f_star.T
    return float(np.mean(np.sum(diff * diff, axis=1)))


def test_excess_risk_monte_carlo_matches_analytic():
    spec = make_gaussian_population(seed=14)
    g = misaligned_rep(spec, seed=15)
    head = LinearHead(np.random.default_rng(16).standard_normal(
        (spec.dims.d_y, spec.dims.r)))
    # the same fitted pair on a Gaussian, a non-normal LDS and a Markov target
    rng = np.random.default_rng(140)
    a = rng.standard_normal((spec.dims.d_x, spec.dims.d_x))
    p = rng.uniform(0.1, 1.0, (8, 8))
    targets = {
        "gaussian": spec.target.law,
        "lds": LdsLaw(0.8 * a / np.abs(np.linalg.eigvals(a)).max()),
        "markov": MarkovLaw(transition=p / p.sum(axis=1, keepdims=True), d_x=spec.dims.d_x),
    }
    for name, law in targets.items():
        target = PopulationSpec(dims=spec.dims, rep_star=spec.rep_star,
                                tasks=(TaskSpec(law=law, head=spec.target.head),)
                                + spec.sources)
        analytic = excess_risk_population(target, head, g)
        mc = risk_reference(law, head.f, spec.target.head.f, g, spec.rep_star,
                            200_000, seed=17)
        assert mc == pytest.approx(analytic, rel=0.02), name


def test_estimation_error_true_model_is_zero():
    spec = make_gaussian_population(seed=18)
    heads = [task.head for task in spec.sources]
    assert estimation_error_avg(spec, heads, spec.rep_star) \
        == pytest.approx(0.0, abs=1e-12)


def test_estimation_error_single_task_reduces_to_excess_risk():
    spec = make_gaussian_population(t=1, identical=True, seed=19)
    g = misaligned_rep(spec, seed=20)
    head = LinearHead(np.random.default_rng(21).standard_normal(
        (spec.dims.d_y, spec.dims.r)))
    # source task 1 has the same law as the target; move its head to the target
    swapped = PopulationSpec(
        dims=spec.dims,
        tasks=(TaskSpec(law=spec.tasks[1].law, head=spec.tasks[1].head),
               spec.tasks[1]),
        rep_star=spec.rep_star)
    assert estimation_error_avg(swapped, [head], g) \
        == pytest.approx(excess_risk_population(swapped, head, g), rel=1e-12)


def test_scale_equivariance_of_risks():
    spec = make_gaussian_population(seed=22)
    g = misaligned_rep(spec, seed=23)
    c = 3.0
    scaled = PopulationSpec(
        dims=spec.dims,
        tasks=tuple(TaskSpec(law=t.law, head=LinearHead(c * t.head.f))
                    for t in spec.tasks),
        rep_star=spec.rep_star)
    rng = np.random.default_rng(24)
    head = LinearHead(rng.standard_normal((spec.dims.d_y, spec.dims.r)))
    heads = [LinearHead(rng.standard_normal((spec.dims.d_y, spec.dims.r)))
             for _ in spec.sources]
    er = excess_risk_population(spec, head, g)
    er_scaled = excess_risk_population(scaled, LinearHead(c * head.f), g)
    assert er_scaled == pytest.approx(c * c * er, rel=1e-10)
    ee = estimation_error_avg(spec, heads, g)
    ee_scaled = estimation_error_avg(scaled, [LinearHead(c * h.f) for h in heads], g)
    assert ee_scaled == pytest.approx(c * c * ee, rel=1e-10)
    assert nu_true(scaled, g) == pytest.approx(nu_true(spec, g), rel=1e-10)


# ---------------------------------------------------------------------------
# Task diversity
# ---------------------------------------------------------------------------

def test_nu_true_undefined_at_true_rep():
    spec = make_gaussian_population(seed=25)
    assert nu_true(spec, spec.rep_star) is None


def test_nu_true_symmetric_instance_is_one():
    spec = make_gaussian_population(t=1, identical=True, seed=26)
    symmetric = PopulationSpec(
        dims=spec.dims,
        tasks=(spec.tasks[1], spec.tasks[1]),
        rep_star=spec.rep_star)
    g = misaligned_rep(spec, seed=27)
    assert nu_true(symmetric, g) == pytest.approx(1.0, rel=1e-10)


def test_nu_inverse_bounded_by_mu_product():
    for seed in range(25):
        spec = make_gaussian_population(d_x=5, d_y=2, r=2, t=3, seed=100 + seed)
        g = misaligned_rep(spec, seed=200 + seed)
        nu = nu_true(spec, g)
        bound = mu_x(spec, g) * mu_f([t.head for t in spec.tasks])
        assert 1.0 / nu <= bound + 1e-9


def test_psd_ordering_certificate():
    for seed in range(20):
        spec = make_gaussian_population(d_x=5, d_y=2, r=2, t=3, seed=300 + seed)
        g = misaligned_rep(spec, seed=400 + seed)
        m = mu_x(spec, g)
        s0 = stacked_covariance(spec.target.law, g, spec.rep_star).schur
        for task in spec.sources:
            st = stacked_covariance(task.law, g, spec.rep_star).schur
            gap = m * st + 1e-8 * np.eye(st.shape[0]) - s0
            assert np.linalg.eigvalsh(gap).min() >= -1e-9


def mixed_width_population(seed=0, d_x=5, d_y=2, r=2):
    """A Markov target with more states than d_x, then Gaussian, LDS and
    six-state Markov sources: second-moment factors of widths 8, 5, 5 and 6.
    Every source's Schur complement has full rank, so each covers the target."""
    rng = np.random.default_rng(seed)

    def markov(states, stay):
        p = np.full((states, states), (1.0 - stay) / (states - 1))
        np.fill_diagonal(p, stay)
        return MarkovLaw(transition=p, d_x=d_x)

    a = rng.standard_normal((d_x, d_x))
    laws = [markov(8, 0.6), GaussianLaw(a @ a.T / d_x + 0.5 * np.eye(d_x)),
            LdsLaw(0.7 * np.linalg.qr(rng.standard_normal((d_x, d_x)))[0]), markov(6, 0.8)]
    tasks = tuple(TaskSpec(law=law, head=LinearHead(rng.standard_normal((d_y, r))))
                  for law in laws)
    return PopulationSpec(dims=Dims(d_x, d_y, r), tasks=tasks,
                          rep_star=LinearRep(random_orthonormal_rows(r, d_x, rng)))


@pytest.mark.parametrize("seed", range(3))
def test_stacked_diagnostics_match_per_task_reference_on_mixed_widths(seed):
    """mu_x, nu_true and both risks, stacked over zero-padded factors of different
    widths, equal the per-task formulas on each law's own ``stacked_covariance``:
    the Schur complements for mu_x and nu_true, and
    E||F g - F_* g_*||^2 = tr([F, -F_*] sigma [F, -F_*]^T) for the risks."""
    spec = mixed_width_population(seed)
    assert len({task.law.second_moment_factor().shape[1] for task in spec.tasks}) == 3
    rng = np.random.default_rng(100 + seed)
    g = misaligned_rep(spec, seed=200 + seed)
    heads = [LinearHead(rng.standard_normal((spec.dims.d_y, spec.dims.r)))
             for _ in spec.tasks]
    covs = [stacked_covariance(task.law, g, spec.rep_star) for task in spec.tasks]

    def risk(cov, head, task):
        c = np.hstack([head.f, -task.head.f])
        return float(np.trace(c @ cov.sigma @ c.T))

    risks = [risk(cov, head, task) for cov, head, task in zip(covs, heads, spec.tasks)]
    infimal = [float(np.trace(task.head.f @ cov.schur @ task.head.f.T))
               for cov, task in zip(covs, spec.tasks)]
    s0 = covs[0].schur
    halves = [inv_sqrt_psd(cov.schur) for cov in covs[1:]]
    mu_x_ref = max(np.linalg.norm(h @ s0 @ h, 2) for h in halves)

    assert mu_x(spec, g) == pytest.approx(mu_x_ref, rel=1e-12)
    assert nu_true(spec, g) == pytest.approx(np.mean(infimal[1:]) / infimal[0], rel=1e-12)
    assert excess_risk_population(spec, heads[0], g) == pytest.approx(risks[0], rel=1e-12)
    assert estimation_error_avg(spec, heads[1:], g) == pytest.approx(np.mean(risks[1:]),
                                                                     rel=1e-12)


def uncovered_population(seed, states, d_x=5, d_y=2, r=2):
    """A Gaussian target and one Markov source with few states: its centered
    embedding spans states - 1 dimensions, so for a generic g of rank r the
    source's Schur complement has rank at most states - 1 - r (zero for three
    states), while the target's has full rank r."""
    rng = np.random.default_rng(seed)
    p = np.full((states, states), 0.2 / (states - 1))
    np.fill_diagonal(p, 0.8)
    a = rng.standard_normal((d_x, d_x))
    laws = [GaussianLaw(a @ a.T / d_x + 0.5 * np.eye(d_x)), MarkovLaw(transition=p, d_x=d_x)]
    tasks = tuple(TaskSpec(law=law, head=LinearHead(rng.standard_normal((d_y, r))))
                  for law in laws)
    return PopulationSpec(dims=Dims(d_x, d_y, r), tasks=tasks,
                          rep_star=LinearRep(random_orthonormal_rows(r, d_x, rng)))


@pytest.mark.parametrize("states", [3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2, 16])
def test_mu_x_raises_when_a_source_does_not_cover_the_target(seed, states):
    """A source whose Schur complement misses a direction of the target's (all of
    them, when g explains g_star on a three-state support) covers it with no
    finite coefficient, so mu_x raises instead of whitening by round-off. At
    seed 16 with three states both round-off eigenvalues are positive, so a
    cutoff relative to the Schur complement alone would keep them both."""
    spec = uncovered_population(seed, states)
    g = misaligned_rep(spec, seed=100 + seed)
    schur = [stacked_covariance(task.law, g, spec.rep_star).schur for task in spec.tasks]
    assert np.linalg.eigvalsh(schur[0]).min() > 1e-3
    assert np.linalg.matrix_rank(schur[1], tol=1e-12) == states - 1 - spec.dims.r
    with pytest.raises(RangeViolation):
        mu_x(spec, g)


def test_nu_hat_undefined_for_equivalent_rep(rng):
    spec = make_gaussian_population(noise_sigma=0.0, seed=28)
    m = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    g_equiv = LinearRep(m @ spec.rep_star.g)
    data = sample_tasks(SampleRequest(spec=spec, per_task_n=(50,) * 4, seed=29))
    assert nu_hat_given_g(data, g_equiv) is None


def nu_hat_reference(datasets, g):
    """nu_hat as it was computed before it read the fitted residuals: per task,
    mean ||Y||^2 minus the energy tr(F_hat Sigma_hat_Z F_hat^T) that the
    least-squares head through g captures, target first."""
    def term(ds):
        z = g.features(ds.covariates)
        f_hat = ls_head(z, ds.labels)
        mean_y2 = float(np.sum(ds.labels * ds.labels)) / ds.n
        return mean_y2 - float(np.trace(f_hat @ (z.T @ z / ds.n) @ f_hat.T))

    denom = term(datasets[0])
    if denom < 1e-12:
        return None
    return sum(term(ds) for ds in datasets[1:]) / (len(datasets) - 1) / denom


@pytest.mark.parametrize("law", [{"kind": "gaussian", "scale_spread": 2.0},
                                 {"kind": "lds", "spectral_radius": 0.8},
                                 {"kind": "markov", "states": 6, "stay_prob": 0.7}])
def test_cli_nu_hat_matches_reference(law):
    cfg = cli.example_config()
    cfg["population"].update({"d_x": 6, "num_sources": 3, "law": law})
    cfg["sweep"].update({"n": 60, "n_prime": 40})
    cfg["diagnostics"] = {"mc_samples": 2000}
    config = cli.ExperimentConfig.from_dict(cfg)
    spec = cli.build_population(config.population, config.seed)
    data = sample_task_stats(SampleRequest(spec=spec, per_task_n=(40,) + (60,) * 3,
                                           seed=config.seed))
    fit = fit_first_stage_linear(data[1:], r=spec.dims.r,
                                 opts=replace(config.fit, seed=config.seed))
    expected = nu_hat_reference(data, fit.rep)
    assert cli.run_diagnose(config).nu_hat == pytest.approx(expected, rel=1e-12)


def test_nu_hat_matches_reference_undefined_for_equivalent_rep(rng):
    spec = make_gaussian_population(noise_sigma=0.0, seed=28)
    g_equiv = LinearRep((rng.standard_normal((2, 2)) + 2 * np.eye(2)) @ spec.rep_star.g)
    data = sample_tasks(SampleRequest(spec=spec, per_task_n=(50,) * 4, seed=29))
    assert nu_hat_reference(data, g_equiv) is None
    assert nu_hat_given_g(data, g_equiv) is None


def test_nu_hat_symmetric_instance_near_one():
    spec = make_gaussian_population(t=1, identical=True, noise_sigma=0.0, seed=30)
    symmetric = PopulationSpec(
        dims=spec.dims,
        tasks=(spec.tasks[1], spec.tasks[1]),
        rep_star=spec.rep_star)
    g = misaligned_rep(spec, seed=31)
    data = sample_tasks(SampleRequest(spec=symmetric, per_task_n=(100_000,) * 2,
                                      seed=32))
    assert abs(nu_hat_given_g(data, g) - 1.0) <= 0.05


def test_nu_hat_consistent_with_nu_true():
    spec = make_gaussian_population(d_x=6, d_y=2, r=2, t=3, noise_sigma=0.0, seed=33)
    g = misaligned_rep(spec, seed=34)
    data = sample_tasks(SampleRequest(spec=spec, per_task_n=(100_000,) * 4, seed=35))
    assert abs(nu_hat_given_g(data, g) - nu_true(spec, g)) <= 0.05


def test_nu_hat_error_shrinks_with_n():
    spec = make_gaussian_population(d_x=6, d_y=2, r=2, t=3, noise_sigma=0.0, seed=36)
    g = misaligned_rep(spec, seed=37)
    nu = nu_true(spec, g)
    errs = []
    for n in (1_000, 10_000, 100_000):
        data = sample_tasks(SampleRequest(spec=spec, per_task_n=(n,) * 4, seed=38))
        errs.append(abs(nu_hat_given_g(data, g) - nu))
    assert errs[1] <= 2.0 * errs[0] and errs[2] <= 2.0 * errs[1]
    assert errs[2] <= errs[0]


# ---------------------------------------------------------------------------
# NRLS quantities
# ---------------------------------------------------------------------------

def nrls_target(kind, d_x, seed):
    """(law, rep_star, head): a Gaussian, LDS or Markov target of a random
    population with r = 2 and d_y = 2."""
    spec = make_gaussian_population(d_x=d_x, seed=seed)
    rng = np.random.default_rng(seed + 1)
    a = rng.standard_normal((d_x, d_x))
    p = rng.uniform(0.1, 1.0, (8, 8))
    law = {"gaussian": spec.target.law,
           "lds": LdsLaw(0.8 * a / np.abs(np.linalg.eigvals(a)).max()),
           "markov": MarkovLaw(transition=p / p.sum(axis=1, keepdims=True), d_x=d_x)}[kind]
    return law, spec.rep_star, spec.target.head


NRLS_TARGETS = [("gaussian", 6), ("gaussian", 64), ("lds", 6), ("markov", 6)]


@pytest.mark.parametrize("kind, d_x", NRLS_TARGETS)
def test_nrls_well_specified_noiseless(kind, d_x):
    # sigma_v^2 is round-off here, and h_v, a ratio with it, is floored to 0
    law, rep_star, head = nrls_target(kind, d_x, seed=39)
    q = nrls_quantities(law, rep_star, head, rep_star, 0.0, mc_samples=20_000, seed=40)
    assert q.sigma_u_sq == pytest.approx(0.0, abs=1e-16)
    assert q.sigma_v_sq == pytest.approx(0.0, abs=1e-16)
    assert q.h_v == 0.0


@pytest.mark.parametrize("kind", ["gaussian", "lds", "markov"])
def test_nrls_quantities_and_excess_share_one_head(kind):
    law, rep_star, head = nrls_target(kind, 6, seed=41)
    g = LinearRep(random_orthonormal_rows(2, 6, np.random.default_rng(42)))
    q = nrls_quantities(law, g, head, rep_star, 0.4, mc_samples=2_000, seed=43)
    assert nrls_excess(law, LinearHead(q.misspecified_head), g, head, rep_star) == 0.0
    assert q.exact is (kind != "markov")  # a Gaussian marginal has closed forms


@pytest.mark.parametrize("mc_samples", [0, -3])
def test_nrls_rejects_empty_sample_before_any_draw(mc_samples, monkeypatch):
    spec = make_gaussian_population(seed=39)
    draws = []
    monkeypatch.setattr(GaussianLaw, "sample_marginal",
                        lambda self, n, rng: draws.append(n))
    with pytest.raises(ValueError, match="mc_samples"):
        nrls_quantities(spec.target.law, spec.rep_star, spec.target.head,
                        spec.rep_star, 0.5, mc_samples=mc_samples, seed=40)
    assert draws == []


def test_nrls_chunks_move_quantities_only_by_summation_order(monkeypatch):
    # a budget of 7 rows of d_x = 6 values: 20 001 samples in 2858 chunks,
    # the last one short; the sample is that of one draw. A Markov target, since
    # a Gaussian one draws nothing
    law, rep_star, head = nrls_target("markov", 6, seed=44)
    g = LinearRep(random_orthonormal_rows(2, 6, np.random.default_rng(45)))
    args = (law, g, head, rep_star, 0.5)
    whole = nrls_quantities(*args, mc_samples=20_001, seed=46)
    assert not whole.exact
    monkeypatch.setattr(core, "MC_DRAW_BUDGET", 7 * 6)
    chunked = nrls_quantities(*args, mc_samples=20_001, seed=46)
    for key, value in whole.as_dict().items():
        assert chunked.as_dict()[key] == pytest.approx(value, rel=1e-12)
    np.testing.assert_allclose(chunked.misspecified_head, whole.misspecified_head,
                               rtol=1e-12)


@pytest.fixture
def monte_carlo_only(monkeypatch):
    """Take the Gaussian marginal's closed form away, so that ``nrls_quantities``
    runs its Monte Carlo path on a Gaussian or LDS target, where the closed forms
    are an oracle for it."""
    monkeypatch.setattr(core._GaussianMarginal, "nrls_moments",
                        CovariateLaw.nrls_moments)


def test_nrls_gaussian_kurtosis(monte_carlo_only):
    spec = make_gaussian_population(d_y=1, seed=41)
    g = misaligned_rep(spec, seed=42)
    q = nrls_quantities(spec.target.law, g, spec.target.head, spec.rep_star,
                        0.3, mc_samples=400_000, seed=43)
    # standardized Gaussian features: every direction has fourth moment 3, and the
    # Monte Carlo maximum over the directions lands near it
    assert not q.exact
    assert q.c_z == pytest.approx(np.sqrt(3.0), rel=0.05)


def polar_norm_moment(c, p):
    """E ||u||^p for u ~ N(0, C), C 2 x 2: with u = R (sqrt(l1) cos t, sqrt(l2) sin t),
    R ~ chi_2 independent of a uniform angle t, it is
    E R^p * mean_t (l1 cos^2 t + l2 sin^2 t)^(p/2), E R^p = 2^(p/2) Gamma(1 + p/2);
    the angle mean is a periodic trapezoid rule, which converges geometrically:
    at 512 points it is exact to round-off at the eigenvalue ratios used here
    (up to 32)."""
    l1, l2 = np.linalg.eigvalsh(c)
    t = np.arange(512) * 2.0 * np.pi / 512
    angular = np.mean((l1 * np.cos(t) ** 2 + l2 * np.sin(t) ** 2) ** (p / 2))
    return 2.0 ** (p / 2) * math.gamma(1.0 + p / 2) * angular


@pytest.mark.parametrize("kind", ["gaussian", "lds"])
def test_nrls_gaussian_closed_forms(kind, monkeypatch):
    """For a Gaussian marginal N(0, Sigma), u = Y - F_mis Z = W x + w with
    W = F_* G_* - F_mis G is N(0, C), C = W Sigma W^T + sigma^2 I. The normal
    equations make u uncorrelated with z, so, jointly Gaussian, independent of
    it. Hence E||u||^4 = (tr C)^2 + 2 tr C^2, E ||u||^2 ||z||^2 = r tr C,
    every unit direction of the standard normal z has E (v^T z)^4 = 3, and
    E ||u z^T||_F^p = E ||u||^p E chi_r^p gives h_v. The exact path meets them
    to 1e-12; the Monte Carlo path, made to run on the same law, within its
    sampling error at 200 000 draws."""
    law, rep_star, head = nrls_target(kind, 6, seed=47)
    g = LinearRep(random_orthonormal_rows(2, 6, np.random.default_rng(48)))
    sigma, noise = law.second_moment(), 0.5
    w_star = head.f @ rep_star.g
    f_mis = w_star @ sigma @ g.g.T @ np.linalg.pinv(g.g @ sigma @ g.g.T)
    w = w_star - f_mis @ g.g
    c = w @ sigma @ w.T + noise ** 2 * np.eye(head.d_y)
    q = nrls_quantities(law, g, head, rep_star, noise, mc_samples=200_000, seed=49)
    r = g.out_dim
    sigma_v_sq = r * np.trace(c)
    psi1 = max((polar_norm_moment(c, p) * 2.0 ** (p / 2) * math.gamma((r + p) / 2)
                / math.gamma(r / 2)) ** (1.0 / p) / p for p in range(1, 9))
    assert q.exact
    assert q.sigma_u_sq == pytest.approx(np.sqrt(np.trace(c) ** 2 + 2 * np.trace(c @ c)),
                                         rel=1e-12)
    assert q.sigma_v_sq == pytest.approx(sigma_v_sq, rel=1e-12)
    assert q.c_z == pytest.approx(np.sqrt(3.0), rel=1e-12)
    assert q.h_v == pytest.approx(psi1 ** 2 / sigma_v_sq, rel=1e-12)
    monkeypatch.setattr(core._GaussianMarginal, "nrls_moments", CovariateLaw.nrls_moments)
    mc = nrls_quantities(law, g, head, rep_star, noise, mc_samples=200_000, seed=49)
    assert not mc.exact
    assert mc.sigma_u_sq == pytest.approx(q.sigma_u_sq, rel=0.01)
    assert mc.sigma_v_sq == pytest.approx(q.sigma_v_sq, rel=0.02)
    assert mc.c_z == pytest.approx(q.c_z, abs=0.03)
    assert mc.h_v == pytest.approx(q.h_v, rel=0.01)  # 0.2% off at these seeds


def test_nrls_sigma_v_cauchy_schwarz_chain():
    # sigma_v^2 = E ||u||^2 ||z||^2 <= sigma_u^2 sqrt(E ||z||^4) by Cauchy-Schwarz,
    # and E ||z||^4 = sum_ij E z_i^2 z_j^2 <= r^2 max_i E z_i^4 <= r^2 c_z^2. On a
    # Markov target the quantities are sample means, and the chain holds for them
    # exactly, since the coordinate axes are among c_z's directions
    law, rep_star, head = nrls_target("markov", 6, seed=44)
    g = LinearRep(random_orthonormal_rows(2, 6, np.random.default_rng(45)))
    q = nrls_quantities(law, g, head, rep_star, 0.5, mc_samples=20_000, seed=46)
    assert not q.exact
    assert q.sigma_v_sq <= q.c_z * q.sigma_u_sq * g.out_dim * (1.0 + 1e-12)


def test_nrls_lets_a_type_error_of_the_law_through():
    # only NoClosedForm selects the Monte Carlo path; a TypeError raised inside a
    # law's formula is a fault, not a missing closed form
    class FaultyLaw(GaussianLaw):
        def nrls_moments(self, u_map, z_map, noise_sigma):
            raise TypeError("faulty formula")

    spec = make_gaussian_population(seed=47)
    law = FaultyLaw(spec.target.law.second_moment())
    with pytest.raises(TypeError, match="faulty formula"):
        nrls_quantities(law, spec.rep_star, spec.target.head, spec.rep_star, 0.5,
                        mc_samples=2_000, seed=48)


def c_z_reference(law, rep, head, rep_star, noise_sigma, mc_samples, seed):
    """c_z as it was computed before the fourth-moment matrix: every standardized
    sample projected on each direction, 64 directions at a time. x comes from
    the first of the three spawned streams and the directions from the third;
    z is whitened by the exact E[z z^T] = G L L^T G^T."""
    x_rng, _, dir_rng = (np.random.default_rng(s)
                         for s in np.random.SeedSequence(seed).spawn(3))
    z = rep.features(law.sample_marginal(mc_samples, x_rng))
    gl = rep.g @ law.second_moment_factor()
    z_std = z @ inv_sqrt_psd(gl @ gl.T).T
    dirs = dir_rng.standard_normal((SPHERE_DIRECTIONS, z.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([dirs, np.eye(z.shape[1])])
    fourth_max = 0.0
    for lo in range(0, dirs.shape[0], 64):
        proj = z_std @ dirs[lo:lo + 64].T
        proj *= proj
        proj *= proj
        fourth_max = max(fourth_max, float(proj.mean(axis=0).max(initial=0.0)))
    return float(np.sqrt(fourth_max))


def nrls_case(kind, r, seed):
    """(law, rep, head, rep_star, noise) for one c_z reference case."""
    rng = np.random.default_rng(seed)
    d_x = 6
    rep_star = LinearRep(random_orthonormal_rows(r, d_x, rng))
    rep, law, noise = LinearRep(random_orthonormal_rows(r, d_x, rng)), None, 0.3
    if kind == "gaussian_well_specified":
        rep, noise = rep_star, 0.0
    elif kind == "markov":
        p = rng.uniform(0.1, 1.0, (8, 8))
        law = MarkovLaw(transition=p / p.sum(axis=1, keepdims=True), d_x=d_x)
    if law is None:
        a = rng.standard_normal((d_x, d_x))
        law = GaussianLaw(a @ a.T / d_x + np.eye(d_x))
    return law, rep, LinearHead(rng.standard_normal((2, r))), rep_star, noise


@pytest.mark.parametrize("r", [1, 2, 4])
@pytest.mark.parametrize("kind", ["gaussian_well_specified", "gaussian_misspecified",
                                  "markov"])
def test_nrls_c_z_matches_per_direction_reference(kind, r):
    # a Gaussian target's c_z is the supremum sqrt(3) itself, drawn from no sample;
    # a Markov target's is the Monte Carlo maximum over the fixed directions
    case = nrls_case(kind, r, seed=170 + r)
    q = nrls_quantities(*case, mc_samples=10_000, seed=r)
    if kind == "markov":
        assert q.c_z == pytest.approx(c_z_reference(*case, 10_000, r), rel=1e-12)
    else:
        assert q.c_z == math.sqrt(3.0)


@pytest.mark.parametrize("law", [{"kind": "gaussian", "scale_spread": 2.0},
                                 {"kind": "lds", "spectral_radius": 0.8},
                                 {"kind": "markov", "states": 6, "stay_prob": 0.7}],
                         ids=lambda law: law["kind"])
def test_nrls_excess_decomposition(law):
    # ER(F_hat, g) = ||(F_hat - F_mis) sqrt(Sigma_Z)||_F^2 + inf_F ER(F, g), exactly;
    # noisy fits only: a noiseless fit sits at the round-off floor
    pop = {**cli.example_config()["population"],
           "d_x": 6, "d_y": 2, "num_sources": 3, "noise_sigma": 0.4, "law": law}
    spec = cli.build_population(pop, seed=47)
    g = misaligned_rep(spec, seed=48)
    data = sample_tasks(SampleRequest(spec=spec, per_task_n=(60,) * 4, seed=49))
    second = fit_second_stage(data[0], g)
    er = excess_risk_population(spec, second.head, g)
    excess = nrls_excess(spec.target.law, second.head, g, spec.target.head,
                         spec.rep_star)
    floor = infimal_risk(spec.target.law, spec.target.head.f, g, spec.rep_star)
    assert er == pytest.approx(excess + floor, rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_nrls_excess_monte_carlo_matches_analytic(seed):
    spec = make_gaussian_population(d_y=2, seed=70 + seed)
    g = misaligned_rep(spec, seed=80 + seed)
    # A head O(1) away from F_mis: the Monte Carlo error of the excess is about
    # ||dF_mis|| / ||F_hat - F_mis||, so a head fitted on N' rows would test
    # sqrt(N' / mc_samples) instead of the moments' own accuracy.
    head = LinearHead(np.random.default_rng(90 + seed).standard_normal((2, 2)))
    analytic = nrls_excess(spec.target.law, head, g, spec.target.head, spec.rep_star)
    # the same formula on the sampled joint feature moments
    sigma = sampled_sigma(spec.target.law, g, spec.rep_star, 400_000, seed=seed)
    r = spec.dims.r
    f_mis = spec.target.head.f @ sigma[:r, r:].T @ pinv(sigma[:r, :r])
    d = (head.f - f_mis) @ sqrt_psd(sigma[:r, :r])
    assert float(np.sum(d * d)) == pytest.approx(analytic, rel=0.02)


def decomposition_population(law, seed):
    """The populations of the decomposition-lemma test: the conftest Gaussian
    population, or a CLI-built one for the other laws."""
    if law == "gaussian":
        return make_gaussian_population(d_x=6, d_y=2, r=2, t=4, noise_sigma=0.5,
                                        seed=500 + seed)
    pop = {**cli.example_config()["population"], "d_x": 6, "d_y": 2, "num_sources": 4,
           "noise_sigma": 0.5, "law": law}
    return cli.build_population(pop, seed=500 + seed)


@pytest.mark.parametrize("law", ["gaussian", {"kind": "lds", "spectral_radius": 0.8},
                                 {"kind": "markov", "states": 6, "stay_prob": 0.8}],
                         ids=["gaussian", "lds", "markov"])
def test_decomposition_inequality_on_fitted_model(law):
    # ER(F0_hat, g_hat) <= NRLS excess + nu(g_hat)^{-1} * est_error_avg + 1e-9, from
    # ER = NRLS excess + infimal risk and nu * infimal risk <= est_error_avg
    for seed in range(5):
        spec = decomposition_population(law, seed)
        data = sample_tasks(SampleRequest(spec=spec, per_task_n=(40,) * 5,
                                          seed=600 + seed))
        fit = fit_first_stage_linear(data[1:], r=2,
                                     opts=FitOptions(restarts=2, seed=seed))
        second = fit_second_stage(data[0], fit.rep)
        nu = nu_true(spec, fit.rep)
        if nu is None:
            continue
        er = excess_risk_population(spec, second.head, fit.rep)
        excess = nrls_excess(spec.target.law, second.head, fit.rep,
                             spec.target.head, spec.rep_star)
        floor = infimal_risk(spec.target.law, spec.target.head.f, fit.rep, spec.rep_star)
        est = estimation_error_avg(spec, fit.heads, fit.rep)
        assert er == pytest.approx(excess + floor, rel=1e-10)
        assert nu * floor <= est
        assert er <= excess + est / nu + 1e-9


# ---------------------------------------------------------------------------
# Hypercontractivity
# ---------------------------------------------------------------------------

def test_hypercontractivity_gaussian_ratio_three():
    # one direction of a Gaussian, under any covariance: E z^4 / (E z^2)^2 = 3
    law = GaussianLaw(np.diag([2.0, 0.5, 1.0]))
    g = LinearRep(np.array([[1.0, 0.0, 0.0]]))
    res = hypercontractivity_c42([law], [(np.array([[1.5]]), g)], np.zeros((1, 1)), g)
    assert res.c42 == pytest.approx(3.0, rel=1e-12, abs=0.0)
    assert res.argmax_index == 0


@pytest.mark.parametrize("law", [
    GaussianLaw(2.0 * np.eye(4)),
    LdsLaw(a=0.6 * random_orthonormal_rows(4, 4, np.random.default_rng(58))),
], ids=["gaussian", "lds"])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_hypercontractivity_rank_k_isotropic_ratio(law, k):
    # both laws are isotropic (the LDS has Sigma = I / (1 - 0.36)), so ||h||^2
    # is a scaled chi-square with k degrees of freedom: (k^2 + 2 k) / k^2
    g = LinearRep(random_orthonormal_rows(k, 4, np.random.default_rng(59)))
    res = hypercontractivity_c42([law], [(0.7 * np.eye(k), g)], np.zeros((k, k)), g)
    assert res.c42 == pytest.approx(1.0 + 2.0 / k, rel=1e-12, abs=0.0)


def test_hypercontractivity_constant_norm_ratio_one():
    # two-state symmetric chain embeds to +-0.5: |h(x)| is constant
    law = MarkovLaw(transition=np.array([[0.5, 0.5], [0.5, 0.5]]), d_x=1)
    g = LinearRep(np.array([[1.0]]))
    res = hypercontractivity_c42([law], [(np.array([[2.0]]), g)], np.zeros((1, 1)), g)
    assert res.c42 == pytest.approx(1.0, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [
    [[0.9, 0.1], [0.3, 0.7]],
    [[0.5, 0.5], [0.05, 0.95]],
    # state 2 is transient, pi_2 = 0: no moment divides by pi
    [[0.9, 0.1, 0.0], [0.3, 0.7, 0.0], [0.2, 0.2, 0.6]],
], ids=["asymmetric", "skewed", "transient"])
def test_hypercontractivity_two_state_chain_closed_form(p):
    # h = c x reads the centered indicator of state 0, pi_1 at state 0 and
    # -pi_0 at state 1, plus 7 on the transient state's own coordinate, so
    # E h^4 / (E h^2)^2 = (pi_0 pi_1^4 + pi_1 pi_0^4) / (pi_0 pi_1)^2
    #                   = 1 / (pi_0 pi_1) - 3
    law = MarkovLaw(transition=np.array(p), d_x=len(p))
    c = np.zeros((1, len(p)))
    c[0, 0], c[0, 2:] = 1.0, 7.0
    g = LinearRep(c)
    pi = law.stationary
    res = hypercontractivity_c42([law], [(np.eye(1), g)], np.zeros((1, 1)), g)
    assert math.isfinite(res.c42)
    assert res.c42 == pytest.approx(1.0 / (pi[0] * pi[1]) - 3.0, rel=1e-12, abs=0.0)


def test_hypercontractivity_rejects_a_law_without_a_formula():
    class UniformLaw(CovariateLaw):
        """Uniform on [-1, 1]^2: sampled, but no fourth-moment formula."""

        d_x = 2

        def second_moment_factor(self):
            return np.eye(2) / math.sqrt(3.0)

        def sample_marginal(self, n, rng):
            return rng.uniform(-1.0, 1.0, (n, 2))

    g = LinearRep(np.eye(2))
    with pytest.raises(TypeError, match="UniformLaw"):
        hypercontractivity_c42([GaussianLaw(np.eye(2)), UniformLaw()], [(np.eye(2), g)],
                               np.zeros((2, 2)), g)


def test_hypercontractivity_grid_max_matches_enumeration():
    law = GaussianLaw(np.eye(2))
    g = LinearRep(np.eye(2))
    rng = np.random.default_rng(52)
    grid = [(rng.standard_normal((1, 2)), g) for _ in range(5)]
    res = hypercontractivity_c42([law], grid, np.zeros((1, 2)), g)
    singles = [hypercontractivity_c42([law], [member], np.zeros((1, 2)), g).c42
               for member in grid]
    assert res.c42 == max(singles)
    assert res.argmax_index == int(np.argmax(singles))


def c42_reference(laws, hypothesis_grid, f_star, g_star, mc_samples, seed):
    """The Monte Carlo ratio on a uniform mixture: each law draws
    mc_samples // len(laws) marginal rows, redrawn for every grid member.

    Returns the largest ratio, its member's index and the ratio's delta-method
    standard error: with n = ||h||^2, the ratio R = m4 / m2^2 moves with the
    laws' sample means as the mean of n^2 / m2^2 - 2 m4 n / m2^3 does.
    """
    per_law = max(1, mc_samples // len(laws))
    best, best_idx, best_se = 0.0, -1, 0.0
    for idx, (f, g) in enumerate(hypothesis_grid):
        norms2 = []
        for j, law in enumerate(laws):
            x = law.sample_marginal(per_law, np.random.default_rng(seed + 7919 * j))
            h = g.features(x) @ f.T - g_star.features(x) @ f_star.T
            norms2.append(np.sum(h * h, axis=1))
        m2 = float(np.mean([np.mean(n) for n in norms2]))
        m4 = float(np.mean([np.mean(n ** 2) for n in norms2]))
        if m2 < 1e-14 or m4 / m2 ** 2 <= best:
            continue
        influence = [n ** 2 / m2 ** 2 - 2.0 * m4 * n / m2 ** 3 for n in norms2]
        se = math.sqrt(sum(float(np.var(v)) for v in influence) / per_law) / len(laws)
        best, best_idx, best_se = m4 / m2 ** 2, idx, se
    return best, best_idx, best_se


def test_hypercontractivity_matches_per_member_reference():
    # a Gaussian, LDS and Markov mixture against 10^6 Monte Carlo draws
    spec = make_gaussian_population(d_x=5, d_y=2, r=2, t=2, seed=54)
    rng = np.random.default_rng(55)
    laws = [task.law for task in spec.tasks]
    laws.append(LdsLaw(a=0.8 * random_orthonormal_rows(5, 5, rng) @ np.diag(
        [1.0, 0.9, 0.7, 0.5, 0.2])))
    laws.append(MarkovLaw(transition=rng.dirichlet(np.full(6, 0.5), size=6), d_x=5))
    f_star = spec.target.head.f
    grid = [(rng.standard_normal((2, 2)), misaligned_rep(spec, seed=56 + i))
            for i in range(4)]
    grid.append((f_star, spec.rep_star))  # zero hypothesis: skipped
    grid.append((rng.standard_normal((2, 2)), LinearRep(rng.standard_normal((2, 5)))))
    res = hypercontractivity_c42(laws, grid, f_star, spec.rep_star)
    ref, ref_idx, se = c42_reference(laws, grid, f_star, spec.rep_star, 1_000_000, 57)
    assert res.argmax_index == ref_idx
    assert abs(res.c42 - ref) <= 4.0 * se
