"""Task statistics: fits on a Gram factor equal fits on the raw rows, each law's
Gram factor factors its path's Gram, and the exact draw of a task's statistic
has the law of the raw rows' Gram."""
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qr_factor, random_orthonormal_rows
from transferlab import cli, diagnostics
from transferlab.core import (
    Dims,
    GaussianLaw,
    LdsLaw,
    LinearHead,
    LinearRep,
    MarkovLaw,
    PopulationSpec,
    TaskDataset,
    TaskSpec,
    pinv,
)
from transferlab.datagen import SampleRequest, sample_task_stats, sample_tasks
from transferlab.erm import (
    FitOptions,
    fit_first_stage_linear,
    fit_second_stage,
    offset_complexity_stat,
)
from transferlab.errors import NeedsRawRows

FAST = settings(deadline=None, max_examples=30, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# Fits on the factor equal fits on the rows
# ---------------------------------------------------------------------------

@st.composite
def task_rows(draw):
    """T raw datasets with shared (d_x, d_y); N may be below d_x + d_y, X may be
    rank deficient (rank 1 at least), and the labels may be zero."""
    d_x, d_y = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    t, n = draw(st.integers(1, 3)), draw(st.integers(1, 20))
    rank = draw(st.integers(1, min(n, d_x)))
    zero_labels = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    datasets = []
    for task_id in range(t):
        x = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d_x))
        y = np.zeros((n, d_y)) if zero_labels else rng.standard_normal((n, d_y))
        datasets.append(TaskDataset(task_id=task_id, covariates=x, labels=y))
    r = draw(st.integers(1, d_x))
    return datasets, r, rng


def _close(a, b, scale, rel=1e-10):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) <= rel * scale


@FAST
@given(task_rows())
def test_second_stage_on_factor_equals_raw_rows(case):
    datasets, r, rng = case
    rep = LinearRep(random_orthonormal_rows(r, datasets[0].covariates.shape[1], rng))
    for ds in datasets:
        stats = qr_factor(ds)
        assert stats.n == ds.n and stats.covariates.shape[0] <= ds.n
        raw, comp = fit_second_stage(ds, rep), fit_second_stage(stats, rep)
        energy = float(np.sum(ds.labels ** 2)) / ds.n
        assert _close(raw.head.f, comp.head.f, np.linalg.norm(raw.head.f))
        assert abs(raw.residual - comp.residual) <= 1e-10 * energy


@FAST
@given(task_rows())
def test_linear_first_stage_on_factors_equals_raw_rows(case):
    # The fitted map F_t G is compared, since G is unique only up to rotation.
    datasets, r, _ = case
    opts = FitOptions(max_iters=60, restarts=1, seed=7)
    raw = fit_first_stage_linear(datasets, r=r, opts=opts)
    comp = fit_first_stage_linear([qr_factor(ds) for ds in datasets], r=r,
                                  opts=opts)
    energy = sum(float(np.sum(ds.labels ** 2)) for ds in datasets) / sum(
        ds.n for ds in datasets)
    for h_raw, h_comp in zip(raw.heads, comp.heads):
        m_raw = h_raw.f @ raw.rep.g
        assert _close(m_raw, h_comp.f @ comp.rep.g, np.linalg.norm(m_raw))
    assert _close(raw.per_task_residual, comp.per_task_residual, energy)
    assert abs(raw.objective - comp.objective) <= 1e-10 * energy


def test_nonlinear_features_of_a_factor_raise():
    """The offset statistic's noise is given per row, which a factor does not keep."""
    rng = np.random.default_rng(3)
    ds = TaskDataset(task_id=0, covariates=rng.standard_normal((30, 4)),
                     labels=rng.standard_normal((30, 1)))
    stats = qr_factor(ds)
    with pytest.raises(NeedsRawRows, match="raw rows"):
        offset_complexity_stat([stats], LinearRep(np.eye(4)[:2]),
                               [np.zeros((30, 1))])


# ---------------------------------------------------------------------------
# Gram factors of the covariate laws
# ---------------------------------------------------------------------------

def _chain(states, seed=0):
    return np.random.default_rng(seed).dirichlet(np.full(states, 0.5), size=states)


SIGMA = np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.5]])
LDS_A = np.array([[0.5, 0.3, 0.0], [-0.2, 0.4, 0.2], [0.1, 0.0, 0.6]])


GRAM_FACTOR_LAWS = {
    "lds": LdsLaw(a=LDS_A),
    "markov-S<d_x": MarkovLaw(transition=_chain(2), d_x=3),
    "markov-S>d_x": MarkovLaw(transition=_chain(5), d_x=3),
    "gaussian": GaussianLaw(sigma_x=SIGMA),  # rows below d_x only; above, Bartlett
}


@pytest.mark.parametrize("case,n", [(case, n) for case in GRAM_FACTOR_LAWS
                                    for n in (1, 2, 40) if case != "gaussian" or n < 3])
def test_gram_factor_factors_the_path_gram(case, n):
    """R^T R is the Gram of ``sample_path`` (for an iid law, of ``sample_marginal``)
    drawn from the same seed."""
    law = GRAM_FACTOR_LAWS[case]
    for seed in range(5):
        r = law.gram_factor(n, np.random.default_rng(seed))
        x = law.sample_path(n, np.random.default_rng(seed))
        want = x.T @ x
        assert r.shape[0] <= n and r.shape[1] == 3
        assert np.abs(r.T @ r - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("states,n", [(2, 40), (3, 2), (4, 3), (4, 40)])
def test_markov_gram_factor_has_one_row_per_visited_state(states, n):
    # With S <= d_x + 1 states the embedding rows are distinct, so a path's
    # rows name its states.
    law = MarkovLaw(transition=_chain(states, seed=states), d_x=3)
    for seed in range(5):
        r = law.gram_factor(n, np.random.default_rng(seed))
        x = law.sample_path(n, np.random.default_rng(seed))
        visited = np.all(x[:, None, :] == law.embedding[None], axis=2).any(axis=0)
        assert r.shape[0] == np.count_nonzero(visited)


# ---------------------------------------------------------------------------
# The sampler: the law of the exact draw
# ---------------------------------------------------------------------------

def _population(law, d_x=3, d_y=2, r=2, noise=0.7, seed=0, tasks=1):
    rng = np.random.default_rng(seed)
    rep_star = LinearRep(random_orthonormal_rows(r, d_x, rng))
    specs = tuple(TaskSpec(law=law, head=LinearHead(rng.standard_normal((d_y, r))))
                  for _ in range(tasks))
    return PopulationSpec(dims=Dims(d_x=d_x, d_y=d_y, r=r), tasks=specs,
                          rep_star=rep_star, noise_sigma=noise)


def _gram(x, y):
    m = np.hstack([x, y])
    return m.T @ m


def test_exact_draw_is_deterministic_per_task_stream():
    spec = _population(GaussianLaw(sigma_x=np.eye(3)), tasks=3)
    req = SampleRequest(spec=spec, per_task_n=(5, 9, 40), seed=11)
    first, again = sample_task_stats(req), sample_task_stats(req)
    bumped = sample_task_stats(SampleRequest(spec=spec, per_task_n=(5, 12, 40), seed=11))
    for a, b in zip(first, again):
        assert np.array_equal(a.covariates, b.covariates)
        assert np.array_equal(a.labels, b.labels)
    assert [s.covariates.shape[0] for s in first] == [5, 5, 5]
    # tasks 0 and 2 read their own streams, unaffected by task 1's count
    for t in (0, 2):
        assert np.array_equal(first[t].labels, bumped[t].labels)
    assert not np.array_equal(first[1].labels, bumped[1].labels)


@pytest.mark.parametrize("law", [GaussianLaw(sigma_x=SIGMA), LdsLaw(a=LDS_A),
                                 MarkovLaw(transition=_chain(5), d_x=3)],
                         ids=["gaussian", "lds", "markov"])
def test_subset_draw_equals_those_entries_of_the_full_draw(law):
    """Each task reads its own stream, so the draw of any subset of a request's
    tasks, in any order, is those entries of the full draw: a sweep's shared
    sources and per-row targets rest on this."""
    spec = _population(law, tasks=4)
    req = SampleRequest(spec=spec, per_task_n=(7, 40, 2, 40), seed=5)
    full = sample_task_stats(req)
    subsets = [c for k in range(5) for c in itertools.combinations(range(4), k)]
    for subset in subsets + [(3, 0, 2), (1, 1)]:
        part = sample_task_stats(req, tasks=subset)
        assert [ds.task_id for ds in part] == list(subset)
        for ds in part:
            want = full[ds.task_id]
            assert ds.n == want.n
            assert np.array_equal(ds.covariates, want.covariates)
            assert np.array_equal(ds.labels, want.labels)


DRAWS = 6000
# Each moment below is checked entry by entry against its closed form, within
# this many standard errors of the Monte Carlo mean (35 checks per case, 44 for
# a Gaussian law).
SE_BAND = 4.5
# A statistic that is exactly zero, such as the residual sum of squares of
# n <= d_x rows, is zero only to round-off; its standard error is at least this
# fraction of the largest entry of Y^T Y.
ROUND_OFF = 1e-9

GAUSSIAN_CASES = {
    "n=d_x+d_y": 5,
    "n=40": 40,
    "gaussian-n<d_x": 2,
    "gaussian-d_x<=n<d_x+d_y": 4,
}
EXACT_CASES = {
    **{case: (GaussianLaw(sigma_x=SIGMA), n) for case, n in GAUSSIAN_CASES.items()},
    "lds": (LdsLaw(a=LDS_A), 40),
    "markov-S<=d_x": (MarkovLaw(transition=_chain(3), d_x=3), 40),
    "markov-S>d_x": (MarkovLaw(transition=_chain(5), d_x=3), 40),
}


@pytest.fixture(scope="module", params=list(EXACT_CASES))
def exact_draws(request):
    """DRAWS exact statistics of one task at N = n, with the truth and rank X."""
    law, n = EXACT_CASES[request.param]
    spec = _population(law, seed=4)
    stats = [sample_task_stats(SampleRequest(spec=spec, per_task_n=(n,), seed=seed))[0]
             for seed in range(DRAWS)]
    grams = np.stack([_gram(s.covariates, s.labels) for s in stats])
    ranks = np.array([np.linalg.matrix_rank(s.covariates) for s in stats])
    w = spec.target.head.f @ spec.rep_star.g
    return n, spec, w, grams, ranks


def _within_band(samples, expected, scale=0.0):
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])
    z = np.abs(mean - expected) / np.maximum(se, ROUND_OFF * scale)
    assert z.max() <= SE_BAND, f"largest deviation {z.max():.2f} standard errors"


def test_exact_draw_first_moments(exact_draws):
    n, spec, w, grams, _ = exact_draws
    sigma2 = spec.noise_sigma ** 2
    m = spec.target.law.second_moment()  # every law starts stationary
    _within_band(grams[:, :3, :3], n * m)                          # E X^T X
    _within_band(grams[:, :3, 3:], n * m @ w.T)                    # E X^T Y
    _within_band(grams[:, 3:, 3:], n * (w @ m @ w.T + sigma2 * np.eye(2)))  # E Y^T Y


def test_exact_draw_conditional_label_moments(exact_draws):
    """Given X the labels are X W^T + sigma E: D = X^T Y - X^T X W^T = sigma X^T E
    has E D = 0 and E D_ij^2 = sigma^2 (X^T X)_ii, and the residual sum of
    squares Y^T Y - Y^T X (X^T X)^+ X^T Y is sigma^2 times a
    Wishart_{d_y}(n - rank X, I), of mean sigma^2 (n - rank X) I."""
    n, spec, w, grams, ranks = exact_draws
    sigma2 = spec.noise_sigma ** 2
    xtx, xty, yty = grams[:, :3, :3], grams[:, :3, 3:], grams[:, 3:, 3:]
    d = xty - xtx @ w.T
    _within_band(d, 0.0)
    _within_band(d ** 2 - sigma2 * np.diagonal(xtx, axis1=1, axis2=2)[:, :, None], 0.0)
    rss = yty - np.swapaxes(xty, 1, 2) @ pinv(xtx) @ xty
    _within_band(rss - sigma2 * (n - ranks)[:, None, None] * np.eye(2), 0.0,
                 scale=np.abs(yty).max())


@pytest.mark.parametrize("exact_draws", list(GAUSSIAN_CASES), indirect=True)
def test_exact_draw_covariate_gram_variance(exact_draws):
    # Var (X^T X)_ij = n (Sigma_ij^2 + Sigma_ii Sigma_jj) for the Gram of n iid
    # N(0, Sigma) rows; the sample variance's standard error is
    # sqrt((m4 - s^4) / M).
    n, _, _, grams, _ = exact_draws
    xtx = grams[:, :3, :3]
    centered = xtx - xtx.mean(axis=0)
    var = np.mean(centered ** 2, axis=0) * DRAWS / (DRAWS - 1)
    se = np.sqrt((np.mean(centered ** 4, axis=0) - var ** 2) / DRAWS)
    d = np.diag(SIGMA)
    expected = n * (SIGMA ** 2 + np.outer(d, d))
    z = np.abs(var - expected) / se
    assert z.max() <= SE_BAND, f"largest deviation {z.max():.2f} standard errors"


# ---------------------------------------------------------------------------
# Sweep-row metrics: raw rows and statistics are the same experiment
# ---------------------------------------------------------------------------

def _row_metrics(config, spec, sampler, n_prime, seed):
    data = sampler(SampleRequest(spec=spec, per_task_n=(n_prime,) + (24,) * spec.num_sources,
                                 seed=seed))
    fit = fit_first_stage_linear(data[1:], r=spec.dims.r, opts=replace(config.fit, seed=seed))
    second = fit_second_stage(data[0], fit.rep)
    return (diagnostics.excess_risk_population(spec, second.head, fit.rep),
            diagnostics.estimation_error_avg(spec, fit.heads, fit.rep), fit.objective,
            diagnostics.nu_hat(second.residual, fit.per_task_residual))


def test_sweep_row_metrics_raw_rows_vs_statistics():
    """Two-sample KS test over 200 seeds per side (disjoint seeds), per law: the
    row metrics fitted on raw rows and on exactly drawn statistics share a law.
    The laws are Gaussian, LDS (rho 0.9), Markov (6 states) and Gaussian with
    N' = 3 < d_x."""
    cases = [("gaussian", {"kind": "gaussian", "scale_spread": 1.0}, 12),
             ("lds", {"kind": "lds", "spectral_radius": 0.9}, 12),
             ("markov", {"kind": "markov", "states": 6, "stay_prob": 0.8}, 12),
             ("gaussian-short", {"kind": "gaussian", "scale_spread": 1.0}, 3)]
    seeds = 200
    for case, law, n_prime in cases:
        cfg = cli.example_config()
        cfg["population"].update({"d_x": 4, "d_y": 2, "r": 1, "num_sources": 3,
                                  "noise_sigma": 0.5, "law": law})
        cfg["fit"].update({"restarts": 1, "max_iters": 50})
        config = cli.ExperimentConfig.from_dict(cfg)
        spec = cli.build_population(config.population, config.seed)
        raw = np.array([_row_metrics(config, spec, sample_tasks, n_prime, s)
                        for s in range(seeds)])
        stats = np.array([_row_metrics(config, spec, sample_task_stats, n_prime, 10_000 + s)
                          for s in range(seeds)])
        for j, name in enumerate(("excess_risk_target", "est_error_avg", "fit_objective",
                                  "nu_hat")):
            p = scipy.stats.ks_2samp(raw[:, j], stats[:, j]).pvalue
            assert p >= 1e-3, f"{case}: {name}: KS p = {p:.2g}"
