import logging
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from conftest import (make_gaussian_population, pinv_sqrt, random_normal_matrix,
                      random_orthonormal_rows)
from transferlab import erm
from transferlab.cli import build_population
from transferlab.core import LinearRep, MarkovLaw, TaskDataset, inv_sqrt_psd, pinv
from transferlab.datagen import SampleRequest, sample_task_stats, sample_tasks
from transferlab.erm import (
    OFFSET_SUP_CONSTANT,
    FitOptions,
    _heads_from_stats,
    _min_norm_lstsq,
    _normal_matrix,
    _spectral_start,
    fit_first_stage_linear,
    fit_second_stage,
    ls_head,
    offset_complexity_stat,
)
from transferlab.errors import DegenerateData


def make_dataset(x, y, task_id=0):
    return TaskDataset(task_id=task_id, covariates=x, labels=y)


@pytest.fixture
def lstsq_calls(monkeypatch):
    """The LAPACK driver of every ``scipy.linalg.lstsq`` call, the pivoted-QR
    path of ``_min_norm_lstsq``."""
    calls = []
    real = scipy.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(kwargs.get("lapack_driver"))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lstsq", counted)
    return calls


# ---------------------------------------------------------------------------
# ls_head
# ---------------------------------------------------------------------------

def test_ls_head_identity_regression():
    z = np.eye(3)
    assert np.allclose(ls_head(z, z), np.eye(3), atol=1e-12)


def test_ls_head_noiseless_recovery(rng):
    f_true = rng.standard_normal((2, 4))
    z = rng.standard_normal((50, 4))
    assert np.linalg.norm(ls_head(z, z @ f_true.T) - f_true) <= 1e-9


def test_ls_head_zero_column_gets_zero_weight(rng):
    z = rng.standard_normal((20, 3))
    z[:, 1] = 0.0
    y = rng.standard_normal((20, 2))
    assert np.all(ls_head(z, y)[:, 1] == 0.0)


def test_ls_head_optimality_under_perturbation(rng):
    z = rng.standard_normal((25, 3))
    y = rng.standard_normal((25, 2))
    f = ls_head(z, y)
    base = np.sum((y - z @ f.T) ** 2)
    for _ in range(20):
        d = rng.standard_normal(f.shape)
        d /= np.linalg.norm(d)
        perturbed = np.sum((y - z @ (f + 1e-3 * d).T) ** 2)
        assert perturbed >= base - 1e-12


# ---------------------------------------------------------------------------
# First stage: linear class
# ---------------------------------------------------------------------------

def noiseless_linear_instance(d_x=10, r=2, t=8, n=100, d_y=1, seed=0):
    spec = make_gaussian_population(d_x=d_x, d_y=d_y, r=r, t=t, noise_sigma=0.0,
                                    seed=seed, identical=True)
    data = sample_tasks(SampleRequest(spec=spec, per_task_n=(n,) * (t + 1), seed=seed))
    return spec, data


def test_linear_fit_recovers_subspace():
    spec, data = noiseless_linear_instance()
    fit = fit_first_stage_linear(data[1:], r=2, opts=FitOptions(restarts=5, seed=1))
    angles = scipy.linalg.subspace_angles(fit.rep.g.T, spec.rep_star.g.T)
    assert angles.max() <= 1e-6
    assert np.allclose(fit.rep.g @ fit.rep.g.T, np.eye(2), atol=1e-8)


def test_linear_fit_zero_labels():
    rng = np.random.default_rng(2)
    data = [make_dataset(rng.standard_normal((30, 5)), np.zeros((30, 2)), t)
            for t in range(3)]
    fit = fit_first_stage_linear(data, r=2, opts=FitOptions(restarts=2, seed=3))
    assert fit.objective <= 1e-20
    for head in fit.heads:
        assert np.allclose(head.f, 0.0, atol=1e-12)


def test_linear_fit_full_dimension_matches_unconstrained_ls():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 3))
    y = rng.standard_normal((40, 2))
    fit = fit_first_stage_linear([make_dataset(x, y)], r=3,
                                 opts=FitOptions(restarts=2, seed=5))
    fitted_map = fit.heads[0].f @ fit.rep.g
    ls_map = y.T @ x @ pinv(x.T @ x)
    assert np.linalg.norm(fitted_map - ls_map) <= 1e-8


def test_linear_fit_monotone_descent():
    spec = make_gaussian_population(d_x=8, d_y=2, r=2, t=4, noise_sigma=0.5, seed=6)
    data = sample_tasks(SampleRequest(spec=spec, per_task_n=(50,) * 5, seed=7))
    fit = fit_first_stage_linear(data[1:], r=2, opts=FitOptions(restarts=1, seed=8))
    hist = np.array(fit.objective_history)
    assert np.all(np.diff(hist) <= 1e-12 * np.maximum(hist[:-1], 1.0))


def test_linear_fit_gauge_invariance(rng):
    spec = make_gaussian_population(d_x=6, d_y=1, r=2, t=3, noise_sigma=0.2, seed=9)
    data = sample_tasks(SampleRequest(spec=spec, per_task_n=(40,) * 4, seed=10))
    fit = fit_first_stage_linear(data[1:], r=2, opts=FitOptions(restarts=1, seed=11))
    q = rng.standard_normal((2, 2)) + 2 * np.eye(2)  # invertible gauge
    g_rot = np.linalg.inv(q) @ fit.rep.g
    for ds, head in zip(data[1:], fit.heads):
        pred = fit.rep.features(ds.covariates) @ head.f.T
        pred_rot = ds.covariates @ g_rot.T @ (head.f @ q).T
        assert np.allclose(pred, pred_rot, atol=1e-10)


def test_linear_fit_degenerate_data():
    data = [make_dataset(np.zeros((10, 4)), np.ones((10, 1)))]
    with pytest.raises(DegenerateData):
        fit_first_stage_linear(data, r=2)


@pytest.mark.parametrize("r", [0, -1, 4])
def test_linear_fit_rejects_rank_outside_one_to_d_x(r, rng):
    # r = 0 once reached LAPACK (an illegal dpocon argument) and r = 4 > d_x a
    # failed reshape; both now fail up front, naming r and d_x
    data = [make_dataset(rng.standard_normal((10, 3)), rng.standard_normal((10, 2)))]
    with pytest.raises(ValueError, match=rf"1 <= r <= d_x = 3, got r = {r}$"):
        fit_first_stage_linear(data, r=r)


@pytest.mark.parametrize("widths, odd", [
    pytest.param([(4, 2), (4, 2), (3, 2)], 2, id="d_x_differs"),
    pytest.param([(4, 2), (4, 1), (4, 2)], 1, id="d_y_differs"),
    pytest.param([(3, 1), (4, 2), (4, 2)], 1, id="first_task_odd"),
])
def test_linear_fit_rejects_mixed_task_widths(widths, odd, rng):
    # once numpy's "could not broadcast input array" from inside the fit; now a
    # ValueError naming the first task that differs and both widths
    data = [make_dataset(rng.standard_normal((6, d_x)), rng.standard_normal((6, d_y)), t)
            for t, (d_x, d_y) in enumerate(widths)]
    (d_x, d_y), (odd_x, odd_y) = widths[0], widths[odd]
    with pytest.raises(ValueError, match=rf"^source task {odd} \(task_id {odd}\) has "
                                         rf"d_x = {odd_x} and d_y = {odd_y}, but source task 0 "
                                         rf"has d_x = {d_x} and d_y = {d_y}$"):
        fit_first_stage_linear(data, r=1)


def test_linear_fit_warns_when_not_converged(caplog):
    spec = make_gaussian_population(d_x=8, d_y=2, r=2, t=4, noise_sigma=0.5, seed=6)
    data = sample_tasks(SampleRequest(spec=spec, per_task_n=(50,) * 5, seed=7))
    with caplog.at_level(logging.WARNING, logger="transferlab.erm"):
        fit = fit_first_stage_linear(data[1:], r=2,
                                     opts=FitOptions(restarts=1, seed=8, max_iters=2))
    assert not fit.converged
    assert [rec.getMessage().startswith("ALS from the spectral start stopped at max_iters=2 "
                                        "without converging") for rec in caplog.records] == [True]


# ---------------------------------------------------------------------------
# First stage: sufficient statistics against the raw-data oracle
# ---------------------------------------------------------------------------

def spectral_start_reference(datasets, r):
    """The spectral start from the raw rows: the top-r eigenvectors, by
    ``np.linalg.eigh``, of W W^T with W = (sum_t X_t^T X_t)^+ [X_1^T Y_1 ...
    X_T^T Y_T], the pseudo-inverse by the SVD-based ``np.linalg.lstsq``."""
    gram = sum(ds.covariates.T @ ds.covariates for ds in datasets)
    cross = np.hstack([ds.covariates.T @ ds.labels for ds in datasets])
    w = np.linalg.lstsq(gram, cross, rcond=None)[0]
    _, vecs = np.linalg.eigh(w @ w.T)
    return vecs[:, ::-1][:, :r].T


def als_single_reference(datasets, r, opts, g):
    """Raw-data alternating LS: one run from the orthonormal rows ``g``, as the
    fit ran before it moved to per-task statistics. Every step re-reads the
    rows, heads come from ``ls_head``, and the normal matrix is a sum of
    ``np.kron`` blocks solved by the SVD-based ``np.linalg.lstsq``. Returns
    (G, heads, objective).
    """
    d_x = g.shape[1]
    xs = [ds.covariates for ds in datasets]
    ys = [ds.labels for ds in datasets]
    gram_x = [x.T @ x for x in xs]
    xy = [x.T @ y for x, y in zip(xs, ys)]

    def pooled(g, heads):
        total = sum(np.sum((y - x @ g.T @ f.T) ** 2) for x, y, f in zip(xs, ys, heads))
        return total / sum(ds.n for ds in datasets)

    history = []
    for _ in range(opts.max_iters):
        heads = [ls_head(x @ g.T, y) for x, y in zip(xs, ys)]
        lhs = np.zeros((r * d_x, r * d_x))
        rhs = np.zeros((r, d_x))
        for f, gx, xyt in zip(heads, gram_x, xy):
            lhs += np.kron(gx, f.T @ f)
            rhs += f.T @ xyt.T
        vec_g = np.linalg.lstsq(lhs, rhs.reshape(-1, order="F"), rcond=None)[0]
        g = vec_g.reshape((r, d_x), order="F")
        u, s, vt = np.linalg.svd(g, full_matrices=False)
        g = vt
        heads = [f @ (u * s) for f in heads]
        history.append(pooled(g, heads))
        if len(history) >= 2 and \
                history[-2] - history[-1] <= opts.tol * max(history[-2], 1e-300):
            break
        if history[-1] <= 1e-28:
            break
    heads = [ls_head(x @ g.T, y) for x, y in zip(xs, ys)]
    return g, heads, pooled(g, heads)


def gaussian_sources(seed, d_x, d_y, t, n):
    spec = make_gaussian_population(d_x=d_x, d_y=d_y, r=2, t=t, noise_sigma=0.5, seed=seed)
    return sample_tasks(SampleRequest(spec=spec, per_task_n=(n,) * (t + 1), seed=seed + 1))[1:]


@pytest.mark.parametrize("sources", [
    *(pytest.param(lambda seed=seed: gaussian_sources(seed, 8, 2, 5, 60), id=str(seed))
      for seed in range(3)),
    pytest.param(lambda: gaussian_sources(3, 64, 1, 16, 128), id="t_sweep_size"),
    pytest.param(lambda: ragged_sources(), id="unequal_row_counts"),
])
def test_linear_fit_matches_raw_data_oracle_noisy(sources):
    data = sources()
    opts = FitOptions(restarts=1)
    fit = fit_first_stage_linear(data, r=2, opts=opts)
    g, _, obj = als_single_reference(data, 2, opts, spectral_start_reference(data, 2))
    assert scipy.linalg.subspace_angles(fit.rep.g.T, g.T).max() <= 1e-8
    assert fit.objective == pytest.approx(obj, rel=1e-10)


@pytest.mark.parametrize("seed", range(3))
def test_linear_fit_matches_raw_data_oracle_rank_deficient(seed, lstsq_calls):
    # T = 1, N < d_x and d_y < r: the normal matrix kron(F^T F, X^T X) is
    # singular, and G itself only has rank d_y, so compare fitted maps F G.
    rng = np.random.default_rng(seed)
    data = [make_dataset(rng.standard_normal((5, 8)), rng.standard_normal((5, 1)))]
    opts = FitOptions(restarts=1, seed=seed)
    fit = fit_first_stage_linear(data, r=3, opts=opts)
    assert lstsq_calls and set(lstsq_calls) == {"gelsy"}  # every G-step took pivoted QR
    g, heads, obj = als_single_reference(data, 3, opts, spectral_start_reference(data, 3))
    assert np.linalg.norm(fit.heads[0].f @ fit.rep.g - heads[0] @ g) <= 1e-10
    assert fit.objective <= 1e-20 and obj <= 1e-20
    assert np.allclose(fit.rep.g @ fit.rep.g.T, np.eye(3), atol=1e-10)


# ---------------------------------------------------------------------------
# First stage: the spectral start and the random fallback starts
# ---------------------------------------------------------------------------

def _stats(datasets):
    xtx = np.stack([ds.covariates.T @ ds.covariates for ds in datasets])
    xty = np.stack([ds.covariates.T @ ds.labels for ds in datasets])
    return xtx, xty


def test_spectral_start_spans_g_star_on_noiseless_tasks_with_one_covariate_matrix(rng):
    d_x, d_y, r, t = 10, 1, 3, 6
    g_star = random_orthonormal_rows(r, d_x, rng)
    x = rng.standard_normal((40, d_x))
    data = [make_dataset(x, x @ g_star.T @ rng.standard_normal((d_y, r)).T, k)
            for k in range(t)]
    g = _spectral_start(*_stats(data), r)
    assert scipy.linalg.subspace_angles(g.T, g_star.T).max() <= 1e-10
    # The first iterate is already at the objective's round-off floor, about
    # eps * ||Y||_F^2 / N (see ``_als_single``); where it stops after that is
    # decided by round-off.
    fit = fit_first_stage_linear(data, r=r, opts=FitOptions(restarts=1))
    energy = sum(float(np.sum(ds.labels ** 2)) for ds in data) / sum(ds.n for ds in data)
    assert fit.converged and abs(fit.objective_history[0]) <= 1e-14 * energy


def test_spectral_start_on_rank_deficient_stats_is_orthonormal_and_deterministic():
    # T = 1, N < d_x and d_y < r: W W^T has rank 1, so two of the three rows
    # come from its null space.
    rng = np.random.default_rng(0)
    data = [make_dataset(rng.standard_normal((5, 8)), rng.standard_normal((5, 1)))]
    g = _spectral_start(*_stats(data), 3)
    assert g.shape == (3, 8)
    assert np.allclose(g @ g.T, np.eye(3), atol=1e-12)
    assert np.array_equal(g, _spectral_start(*_stats(data), 3))


@pytest.mark.parametrize("law", [{"kind": "gaussian"}, {"kind": "lds", "spectral_radius": 0.9},
                                 {"kind": "markov", "states": 6, "stay_prob": 0.8}],
                         ids=lambda law: law["kind"])
def test_spectral_start_is_finite_on_every_law(law):
    pop = {"d_x": 4, "d_y": 2, "r": 1, "num_sources": 3, "noise_sigma": 0.5, "law": law}
    for seed in range(5):
        spec = build_population(pop, seed)
        data = sample_task_stats(SampleRequest(spec=spec, per_task_n=(24,) * 4, seed=seed),
                                 tasks=range(1, 4))
        assert np.all(np.isfinite(_spectral_start(*_stats(data), 1)))


@pytest.fixture
def als_runs(monkeypatch):
    """Every ``_als_single`` run of the fit, in order."""
    runs = []
    real = erm._als_single

    def counted(*args):
        runs.append(real(*args))
        return runs[-1]

    monkeypatch.setattr(erm, "_als_single", counted)
    return runs


def _noisy_sources():
    spec = make_gaussian_population(d_x=8, d_y=2, r=2, t=4, noise_sigma=0.5, seed=6)
    return sample_tasks(SampleRequest(spec=spec, per_task_n=(50,) * 5, seed=7))[1:]


def test_converged_spectral_start_runs_alone(als_runs):
    fit = fit_first_stage_linear(_noisy_sources(), r=2, opts=FitOptions(restarts=3))
    assert fit.converged and len(als_runs) == 1


def test_random_starts_run_until_one_converges_and_the_lowest_objective_is_kept(
        als_runs, caplog, monkeypatch):
    # Start from the directions the spectral estimate ranks last, so that the
    # middle run, neither the first nor the last, is the best.
    monkeypatch.setattr(erm, "_spectral_start",
                        lambda xtx, xty, r: _spectral_start(xtx, xty, xtx.shape[1])[-r:])
    with caplog.at_level(logging.WARNING, logger="transferlab.erm"):
        fit = fit_first_stage_linear(_noisy_sources(), r=2,
                                     opts=FitOptions(restarts=3, max_iters=2, seed=4))
    assert not fit.converged and len(als_runs) == 3
    best = min(als_runs, key=lambda run: run.objective)
    assert best is als_runs[1]
    assert np.array_equal(fit.rep.g, best.g)
    assert fit.objective == pytest.approx(best.objective, rel=1e-10)
    starts = [rec.getMessage().split(" stopped")[0] for rec in caplog.records]
    assert starts == ["ALS from the spectral start", "ALS from the random start 1",
                      "ALS from the random start 2"]


def test_fit_is_a_function_of_the_seed():
    def fit(**opts):
        return fit_first_stage_linear(_noisy_sources(), r=2, opts=FitOptions(max_iters=2, **opts))

    for a, b in [(fit(restarts=3, seed=4), fit(restarts=3, seed=4)),
                 (fit(restarts=1, seed=4), fit(restarts=1, seed=5))]:  # spectral start only
        assert np.array_equal(a.rep.g, b.rep.g) and a.objective == b.objective



@pytest.mark.parametrize("law", [{"kind": "gaussian", "scale_spread": 2.0},
                                 {"kind": "lds", "spectral_radius": 0.9},
                                 {"kind": "markov", "states": 8, "stay_prob": 0.8}],
                         ids=lambda law: law["kind"])
def test_fitted_basis_is_stable_under_round_off(law):
    # Reversed, the sources sum their statistics in another order, which
    # changes the fit by round-off alone. The polar factor keeps the basis of
    # the fitted subspace to round-off as well; taking V^T from the SVD of the
    # G-step's solution rotated it by up to 1e-9.
    pop = {"d_x": 8, "d_y": 1, "r": 2, "num_sources": 4, "noise_sigma": 0.5, "law": law}
    spec = build_population(pop, 42)
    sources = sample_task_stats(SampleRequest(spec=spec, per_task_n=(256,) * 5, seed=42),
                                tasks=range(1, 5))
    a, b = (fit_first_stage_linear(tasks, r=2, opts=FitOptions(seed=1))
            for tasks in (sources, sources[::-1]))
    assert a.iterations == b.iterations
    assert np.linalg.norm(a.rep.g - b.rep.g) <= 1e-13 * np.linalg.norm(a.rep.g)

def _random_g_step_system(rng, t=5, d_x=7, r=3):
    """Per-task Grams S_t, head Grams F_t^T F_t and a right side C (r x d_x) of
    the G-step sum_t (F_t^T F_t) G S_t = C, all nonsingular."""
    a = rng.standard_normal((t, 20, d_x))
    b = rng.standard_normal((t, 4, r))
    return (np.swapaxes(a, 1, 2) @ a, np.swapaxes(b, 1, 2) @ b,
            rng.standard_normal((r, d_x)))


def test_normal_matrix_equals_kron_sum(rng):
    # row-major vec_r(G): vec_r(A G C) = (A kron C^T) vec_r(G), and S_t = S_t^T
    xtx, ftf, _ = _random_g_step_system(rng)
    expected = sum(np.kron(f, s) for f, s in zip(ftf, xtx))
    assert np.abs(_normal_matrix(xtx, ftf) - expected).max() <= 1e-12 * np.abs(expected).max()


def test_row_major_g_step_solves_the_column_major_system(rng):
    # the row-major system is the column-major one, sum_t kron(S_t, F_t^T F_t)
    # on vec(G), with its unknowns and equations permuted alike, so both give one G
    xtx, ftf, rhs = _random_g_step_system(rng)
    r, d_x = rhs.shape
    g = _min_norm_lstsq(_normal_matrix(xtx, ftf), rhs.reshape(-1)).reshape(r, d_x)
    column_major = sum(np.kron(s, f) for f, s in zip(ftf, xtx))
    expected = np.linalg.solve(column_major, rhs.reshape(-1, order="F")).reshape(
        (r, d_x), order="F")
    assert np.linalg.norm(g - expected) <= 1e-12 * np.linalg.norm(expected)


def _below_cutoff_normal_matrix(rng):
    """T = 1, d_x = 8, r = 2: X^T X has one eigenvalue at 0.2 n eps of its
    largest, so the Cholesky factor of the 16 x 16 normal matrix exists but its
    condition estimate is past the n eps cutoff."""
    d_x = 8
    q, _ = np.linalg.qr(rng.standard_normal((d_x, d_x)))
    lam = np.linspace(1.0, 2.0, d_x)
    lam[-1] = 0.2 * np.finfo(float).eps * 2 * d_x
    f = rng.standard_normal((3, 2))
    return _normal_matrix(((q * lam) @ q.T)[None], (f.T @ f)[None])


@pytest.mark.parametrize("build, path", [
    pytest.param(lambda rng: random_normal_matrix(16, 64, 2, 1, 128, rng), "cholesky",
                 id="positive_definite_n128"),
    pytest.param(lambda rng: random_normal_matrix(8, 10, 2, 4, 50, rng), "cholesky",
                 id="positive_definite_n20"),
    pytest.param(lambda rng: random_normal_matrix(2, 8, 2, 2, 3, rng), "pivoted_qr",
                 id="singular_n_below_d_x"),
    pytest.param(lambda rng: random_normal_matrix(1, 8, 3, 1, 20, rng), "pivoted_qr",
                 id="singular_t_d_y_below_r"),
    pytest.param(_below_cutoff_normal_matrix, "pivoted_qr_despite_factor", id="below_cutoff"),
])
def test_min_norm_lstsq_matches_svd_solver(build, path, rng, lstsq_calls):
    a = build(rng)
    if path == "pivoted_qr_despite_factor":
        assert scipy.linalg.lapack.dpotrf(a)[1] == 0  # only the condition estimate rejects it
    rhs = rng.standard_normal(a.shape[0])
    expected = np.linalg.lstsq(a, rhs, rcond=None)[0]
    assert np.linalg.norm(_min_norm_lstsq(a, rhs) - expected) <= 1e-8 * np.linalg.norm(expected)
    assert lstsq_calls == ([] if path == "cholesky" else ["gelsy"])


@pytest.mark.parametrize("entry", [(3, 3), (2, 5), (5, 2)], ids=["diagonal", "upper", "lower"])
def test_min_norm_lstsq_non_finite_raises_through_pivoted_qr(entry, rng, lstsq_calls):
    # OpenBLAS's dpotrf reads one triangle and need not flag a NaN even there;
    # the NaN norm must still send the solve to gelsy, whose check raises.
    a = random_normal_matrix(4, 8, 2, 1, 30, rng)
    a[entry] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _min_norm_lstsq(a, rng.standard_normal(a.shape[0]))
    assert lstsq_calls == ["gelsy"]


def test_heads_from_stats_match_ls_head(rng):
    xs = [rng.standard_normal((30, 6)) for _ in range(3)]
    xs[0][:, 4:] = 0.0
    ys = [rng.standard_normal((30, 2)) for _ in range(3)]
    g = random_orthonormal_rows(3, 6, rng)
    g[2] = np.eye(6)[5]  # feature 2 is identically zero on task 0
    xtx = np.stack([x.T @ x for x in xs])
    xty = np.stack([x.T @ y for x, y in zip(xs, ys)])
    heads = _heads_from_stats(g @ xtx @ g.T, g @ xty)
    for x, y, f in zip(xs, ys, heads):
        assert np.allclose(f, ls_head(x @ g.T, y), atol=1e-12)
    assert np.all(heads[0][:, 2] == 0.0)


# ---------------------------------------------------------------------------
# Second stage
# ---------------------------------------------------------------------------

def test_second_stage_realizable_target():
    spec, data = noiseless_linear_instance(d_x=6, r=2, t=2, n=40, seed=18)
    fit = fit_second_stage(data[0], spec.rep_star)
    assert fit.residual <= 1e-9


def test_second_stage_underdetermined_interpolates(rng):
    rep = LinearRep(random_orthonormal_rows(3, 6, rng))
    x = rng.standard_normal((2, 6))  # N' = 2 < r = 3
    y = rng.standard_normal((2, 2))
    fit = fit_second_stage(make_dataset(x, y), rep)
    assert fit.residual <= 1e-18


def test_second_stage_matches_ls_head(rng):
    rep = LinearRep(random_orthonormal_rows(2, 5, rng))
    x = rng.standard_normal((30, 5))
    y = rng.standard_normal((30, 1))
    fit = fit_second_stage(make_dataset(x, y), rep)
    assert np.allclose(fit.head.f, ls_head(rep.features(x), y), atol=1e-12)


def test_ls_head_stack_matches_per_matrix(rng):
    z = rng.standard_normal((3, 12, 4))
    z[1, :, 2] = 0.0  # a rank-deficient member keeps its own cutoff
    y = rng.standard_normal((3, 12, 2))
    f = ls_head(z, y)
    assert f.shape == (3, 2, 4)
    for ft, zt, yt in zip(f, z, y):
        assert np.allclose(ft, ls_head(zt, yt), rtol=1e-12, atol=1e-12)


def ragged_sources():
    """Markov statistics whose walks visit different numbers of states, mixed with
    raw rows (row count n). The chain is a cycle on 9 states, so a walk of n steps
    visits min(n, 9) of them whatever its start: the statistics of n = 4, 6, 20 and
    12 have 4, 6, 11 and 11 rows (9 visited states and 2 noise rows, below n)."""
    cycle = np.roll(np.eye(9), 1, axis=1)
    spec = make_gaussian_population(d_x=6, d_y=2, r=2, t=6, noise_sigma=0.3, seed=7)
    spec = replace(spec, tasks=tuple(replace(task, law=MarkovLaw(transition=cycle, d_x=6))
                                     for task in spec.tasks))
    req = SampleRequest(spec=spec, per_task_n=(12, 4, 6, 12, 20, 12, 12), seed=3)
    stats, rows = sample_task_stats(req), sample_tasks(req)
    datasets = [stats[t] if t % 3 else rows[t] for t in range(1, 7)]
    assert [ds.covariates.shape[0] for ds in datasets] == [4, 6, 12, 11, 11, 12]
    assert {ds.covariates.shape[0] < ds.n for ds in datasets} == {True, False}
    return datasets


def test_first_stage_refit_on_ragged_tasks_matches_second_stage():
    """One stacked refit over zero-padded features gives every task the head and
    residual of its own ``fit_second_stage``."""
    datasets = ragged_sources()
    fit = fit_first_stage_linear(datasets, r=2, opts=FitOptions(max_iters=50, restarts=1))
    for ds, head, residual in zip(datasets, fit.heads, fit.per_task_residual):
        ref = fit_second_stage(ds, fit.rep)
        assert np.allclose(head.f, ref.head.f, rtol=1e-12, atol=1e-12 * np.abs(ref.head.f).max())
        assert residual == pytest.approx(ref.residual, rel=1e-12)


# ---------------------------------------------------------------------------
# Offset complexity
# ---------------------------------------------------------------------------

def offset_sup_oracle(z, w, iters=4000, starts=3, seed=0):
    """Brute-force sup_F 4<W, ZF^T> - ||ZF^T||_F^2 by multi-start gradient ascent."""
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


def test_offset_zero_noise(rng):
    rep = LinearRep(random_orthonormal_rows(2, 4, rng))
    data = [make_dataset(rng.standard_normal((15, 4)), rng.standard_normal((15, 2)))]
    assert offset_complexity_stat(data, rep, [np.zeros((15, 2))]) == 0.0


def test_offset_quadratic_homogeneity(rng):
    rep = LinearRep(random_orthonormal_rows(2, 4, rng))
    data = [make_dataset(rng.standard_normal((15, 4)), rng.standard_normal((15, 2)))]
    w = rng.standard_normal((15, 2))
    v1 = offset_complexity_stat(data, rep, [w])
    v2 = offset_complexity_stat(data, rep, [2.0 * w])
    assert v2 == pytest.approx(4.0 * v1, rel=1e-12)


def test_offset_closed_form_matches_bruteforce_sup():
    # brute-force check of the closed form behind OFFSET_SUP_CONSTANT, 50 small instances
    rng = np.random.default_rng(19)
    assert OFFSET_SUP_CONSTANT == 4.0
    for case in range(50):
        n = int(rng.integers(3, 10))
        r = int(rng.integers(1, 4))
        d_y = int(rng.integers(1, 3))
        z = rng.standard_normal((n, r))
        if case % 5 == 0:
            z[:, 0] = 0.0  # exercise the rank-deficient branch
        w = rng.standard_normal((n, d_y))
        half = pinv_sqrt(z.T @ z)
        closed = OFFSET_SUP_CONSTANT * np.sum((half @ z.T @ w) ** 2)
        brute = offset_sup_oracle(z, w, seed=case)
        assert brute == pytest.approx(closed, rel=1e-6, abs=1e-9)


def offset_reference(datasets, rep, noise):
    """The offset statistic as computed before it went through ``ls_head``:
    4 ||(Z^T Z)^{+/2} Z^T W||_F^2 per task through the inverse square root."""
    total = 0.0
    for ds, w in zip(datasets, noise):
        z = rep.features(ds.covariates)
        proj = inv_sqrt_psd(z.T @ z) @ (z.T @ w)
        total += 4.0 * float(np.sum(proj * proj))
    return total / sum(ds.n for ds in datasets)


@pytest.mark.parametrize("rank_deficient", [False, True])
def test_offset_matches_inverse_sqrt_reference(rank_deficient):
    rng = np.random.default_rng(20)
    rep = LinearRep(random_orthonormal_rows(3, 6, rng))
    for _ in range(10):
        datasets, noise = [], []
        for t in range(3):
            x = rng.standard_normal((12, 6))
            if rank_deficient:
                x[:, 2:] = 0.0  # features span 2 of the 3 directions
            datasets.append(make_dataset(x, rng.standard_normal((12, 2)), t))
            noise.append(rng.standard_normal((12, 2)))
        assert offset_complexity_stat(datasets, rep, noise) == pytest.approx(
            offset_reference(datasets, rep, noise), rel=1e-12)


def test_offset_stat_normalization(rng):
    rep = LinearRep(random_orthonormal_rows(2, 4, rng))
    datasets, noise = [], []
    for t in range(3):
        x = rng.standard_normal((10 + 5 * t, 4))
        datasets.append(make_dataset(x, rng.standard_normal((x.shape[0], 2)), t))
        noise.append(rng.standard_normal((x.shape[0], 2)))
    total_n = sum(ds.n for ds in datasets)
    per_task = 0.0
    for ds, w in zip(datasets, noise):
        z = rep.features(ds.covariates)
        half = pinv_sqrt(z.T @ z)
        per_task += 4.0 * np.sum((half @ z.T @ w) ** 2)
    assert offset_complexity_stat(datasets, rep, noise) == pytest.approx(
        per_task / total_n, rel=1e-10)


@pytest.mark.parametrize("bad", [{"max_iters": 0}, {"restarts": 0}, {"tol": -1e-3}])
def test_fit_options_reject_bad_values(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        FitOptions(**bad)
