import json

import numpy as np
import pytest

from conftest import make_gaussian_population, qr_factor, random_orthonormal_rows
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
from transferlab.datagen import (
    SampleRequest,
    sample_tasks,
    task_stream_seed,
    write_datasets_csv,
)
from transferlab.errors import NeedsRawRows, UnstableSystem


def stable_matrix(d, radius, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    scales = rng.uniform(0.3, 1.0, size=d)
    a = q @ np.diag(radius * scales / scales.max()) @ q.T
    return a


def test_lyapunov_zero_matrix():
    assert np.allclose(lds_stationary_covariance(np.zeros((3, 3)))[0], np.eye(3), atol=1e-14)


def test_lyapunov_scalar_contraction():
    sigma, _ = lds_stationary_covariance(0.5 * np.eye(2))
    assert np.allclose(sigma, (1.0 / 0.75) * np.eye(2), atol=1e-12)


def test_lyapunov_fixed_point_residual():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = stable_matrix(4, rng.uniform(0.2, 0.95), rng)
        sigma, _ = lds_stationary_covariance(a)
        resid = sigma - a @ sigma @ a.T - np.eye(4)
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(sigma)


def test_lyapunov_unstable():
    with pytest.raises(UnstableSystem):
        lds_stationary_covariance(1.01 * np.eye(2))


@pytest.mark.parametrize("d", [1, 2, 6, 10, 64])
def test_lyapunov_doubling_matches_scipy(d):
    # scipy's Bartels-Stewart solve is the oracle, on orthogonal A (the CLI's laws)
    # and on non-normal A, up to rho(A) = 0.99
    import scipy.linalg

    rng = np.random.default_rng(d)
    for rho in (0.1, 0.5, 0.9, 0.97, 0.99):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        m = rng.standard_normal((d, d))
        for a in (rho * q, rho * m / np.abs(np.linalg.eigvals(m)).max()):
            sigma, radius = lds_stationary_covariance(a)
            ref = scipy.linalg.solve_discrete_lyapunov(a, np.eye(d))
            scale = np.abs(ref).max()
            assert radius == pytest.approx(rho, rel=1e-12)
            assert np.abs(sigma - ref).max() <= 1e-12 * scale
            assert np.array_equal(sigma, sigma.T)
            resid = sigma - a @ sigma @ a.T - np.eye(d)
            assert np.abs(resid).max() <= 1e-14 * scale


def test_noiseless_realizability():
    spec = make_gaussian_population(noise_sigma=0.0, seed=1)
    data = sample_tasks(SampleRequest(spec=spec, per_task_n=(20,) * 4, seed=3))
    for t, ds in enumerate(data):
        f = spec.tasks[t].head.f
        g = spec.rep_star.g
        assert np.allclose(ds.labels, ds.covariates @ g.T @ f.T, atol=1e-12)


def test_gaussian_empirical_covariance():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    sigma = a @ a.T / 4 + np.eye(4)
    spec = PopulationSpec(
        dims=Dims(4, 1, 2),
        tasks=(TaskSpec(law=GaussianLaw(sigma), head=LinearHead(np.ones((1, 2)))),),
        rep_star=LinearRep(random_orthonormal_rows(2, 4, rng)),
    )
    data = sample_tasks(SampleRequest(spec=spec, per_task_n=(200_000,), seed=4))
    x = data[0].covariates
    emp = x.T @ x / x.shape[0]
    assert np.linalg.norm(emp - sigma) <= 0.02 * np.linalg.norm(sigma)


def test_lds_empirical_covariance_matches_lyapunov():
    rng = np.random.default_rng(3)
    a = stable_matrix(3, 0.8, rng)
    spec = PopulationSpec(
        dims=Dims(3, 1, 2),
        tasks=(TaskSpec(law=LdsLaw(a), head=LinearHead(np.ones((1, 2)))),),
        rep_star=LinearRep(random_orthonormal_rows(2, 3, rng)),
    )
    data = sample_tasks(SampleRequest(spec=spec, per_task_n=(150_000,), seed=5))
    assert spec.tasks[0].law.is_trajectory
    x = data[0].covariates
    emp = x.T @ x / x.shape[0]
    sigma, _ = lds_stationary_covariance(a)
    assert np.linalg.norm(emp - sigma) <= 0.05 * np.linalg.norm(sigma)


def test_determinism_bit_identical():
    spec = make_gaussian_population(noise_sigma=0.3, seed=6)
    req = SampleRequest(spec=spec, per_task_n=(30, 40, 50, 60), seed=7)
    a = sample_tasks(req)
    b = sample_tasks(req)
    for da, db in zip(a, b):
        assert np.array_equal(da.covariates, db.covariates)
        assert np.array_equal(da.labels, db.labels)


def test_stream_independence_across_tasks():
    # changing what task 1 consumes from its own stream leaves every other
    # task's sample bit-identical
    spec = make_gaussian_population(noise_sigma=0.3, seed=8)
    base = sample_tasks(SampleRequest(spec=spec, per_task_n=(30, 40, 50, 60), seed=9))
    bumped = sample_tasks(SampleRequest(spec=spec, per_task_n=(30, 80, 50, 60), seed=9))
    for t in (0, 2, 3):
        assert np.array_equal(base[t].covariates, bumped[t].covariates)
        assert np.array_equal(base[t].labels, bumped[t].labels)
    assert bumped[1].n == 80


@pytest.mark.parametrize("kind", ["gaussian", "lds", "markov"])
def test_sample_tasks_stream_order(kind):
    """Each task's stream, from ``task_stream_seed``, gives the path first and then
    the n x d_y noise, so w_i is drawn after x_i is fixed."""
    rng = np.random.default_rng(20)
    law = {"gaussian": GaussianLaw(np.diag([1.0, 2.0, 0.5])),
           "lds": LdsLaw(stable_matrix(3, 0.8, rng)),
           "markov": MarkovLaw(transition=np.full((4, 4), 0.25), d_x=3)}[kind]
    rep_star = LinearRep(random_orthonormal_rows(2, 3, rng))
    tasks = (TaskSpec(law=GaussianLaw(np.eye(3)), head=LinearHead(np.eye(2))),
             TaskSpec(law=law, head=LinearHead(rng.standard_normal((2, 2)))))
    spec = PopulationSpec(dims=Dims(3, 2, 2), rep_star=rep_star, tasks=tasks, noise_sigma=0.3)
    n = 25
    ds = sample_tasks(SampleRequest(spec=spec, per_task_n=(5, n), seed=21))[1]
    stream = np.random.default_rng(task_stream_seed(21, 1))
    x = law.sample_path(n, stream)
    noise = stream.standard_normal((n, 2))
    clean = spec.rep_star.features(x) @ spec.tasks[1].head.f.T
    assert ds.n == n and np.array_equal(ds.covariates, x)
    assert np.allclose(ds.labels, clean + 0.3 * noise, rtol=0, atol=1e-14)


def test_task_stream_seed_distinct():
    seeds = {task_stream_seed(123, t) for t in range(100)}
    assert len(seeds) == 100


def test_trajectory_noise_whiteness():
    # w_i is drawn after x_i is fixed: empirical correlation stays below 3/sqrt(N)
    rng = np.random.default_rng(10)
    a = stable_matrix(3, 0.85, rng)
    n = 40_000
    spec = PopulationSpec(
        dims=Dims(3, 2, 2),
        tasks=(TaskSpec(law=LdsLaw(a), head=LinearHead(rng.standard_normal((2, 2)))),),
        rep_star=LinearRep(random_orthonormal_rows(2, 3, rng)),
        noise_sigma=0.7,
    )
    data = sample_tasks(SampleRequest(spec=spec, per_task_n=(n,), seed=11))
    ds = data[0]
    w = ds.labels - spec.rep_star.features(ds.covariates) @ spec.tasks[0].head.f.T
    for i in range(w.shape[1]):
        for j in range(ds.covariates.shape[1]):
            corr = np.corrcoef(w[:, i], ds.covariates[:, j])[0, 1]
            assert abs(corr) <= 3.0 / np.sqrt(n)


def test_lds_paths_start_stationary():
    """Paths are recorded from their first step on, so x_1 must already have the
    stationary law: Sigma solves Sigma = A Sigma A^T + I, and over B one-step paths
    each entry of the second moment of x_1 lies within 5 standard errors,
    sqrt((Sigma_ii Sigma_jj + Sigma_ij^2) / B), of Sigma. A start at x_0 = 0 would
    give x_1 ~ N(0, I), 35 to 130 standard errors off here."""
    law = LdsLaw(stable_matrix(3, 0.95, np.random.default_rng(30)))
    sigma = law.second_moment()
    residual = sigma - law.a @ sigma @ law.a.T - np.eye(3)
    assert np.abs(residual).max() <= 1e-12 * np.abs(sigma).max()
    b = 40_000
    x1 = law.sample_paths(b, 1, np.random.default_rng(31))[:, 0]
    se = np.sqrt((np.outer(np.diag(sigma), np.diag(sigma)) + sigma ** 2) / b)
    assert np.all(np.abs(x1.T @ x1 / b - sigma) <= 5.0 * se)


def test_markov_paths_start_stationary():
    """The first recorded state of a walk has law pi: over B one-step paths each
    state's frequency lies within 4 binomial standard errors of pi_s. The chain
    is sticky: one step from any fixed start state is over 150 of them off."""
    p = np.array([[0.9, 0.05, 0.03, 0.02],
                  [0.1, 0.8, 0.05, 0.05],
                  [0.02, 0.08, 0.85, 0.05],
                  [0.3, 0.1, 0.1, 0.5]])
    law = MarkovLaw(transition=p, d_x=3)  # S = d_x + 1 states: distinct embedding rows
    b = 40_000
    x1 = law.sample_paths(b, 1, np.random.default_rng(32))[:, 0]
    states = np.argmax(np.all(x1[:, None, :] == law.embedding[None], axis=2), axis=1)
    freq = np.bincount(states, minlength=4) / b
    pi = law.stationary
    assert np.all(np.abs(freq - pi) <= 4.0 * np.sqrt(pi * (1.0 - pi) / b))


def test_markov_sampling_stationary():
    p = np.array([[0.7, 0.3], [0.4, 0.6]])
    law = MarkovLaw(transition=p, d_x=2)
    rng = np.random.default_rng(13)
    x = law.sample_path(100_000, rng)
    emp = x.T @ x / x.shape[0]
    assert np.linalg.norm(emp - law.second_moment()) <= 0.05 * np.linalg.norm(law.second_moment())


def test_write_datasets_csv(tmp_path):
    spec = make_gaussian_population(noise_sigma=0.1, seed=14)
    req = SampleRequest(spec=spec, per_task_n=(5, 6, 7, 8), seed=15)
    data = sample_tasks(req)
    paths = write_datasets_csv(data, req, tmp_path)
    assert set(paths) == {"task_0", "task_1", "task_2", "task_3", "manifest"}
    with open(paths["task_0"]) as fh:
        header = fh.readline().strip().split(",")
    assert header == [f"x_{j}" for j in range(1, 7)] + [f"y_{j}" for j in range(1, 3)]
    loaded = np.loadtxt(paths["task_2"], delimiter=",", skiprows=1)
    assert np.allclose(loaded[:, :6], data[2].covariates)
    with open(paths["manifest"]) as fh:
        manifest = json.load(fh)
    assert manifest["dims"] == {"d_x": 6, "d_y": 2, "r": 2}
    assert manifest["tasks"][1]["stream_seed"] == task_stream_seed(15, 1)
    assert all("burn_in" not in task for task in manifest["tasks"])


def test_write_datasets_csv_rejects_a_compressed_sample(tmp_path):
    spec = make_gaussian_population(noise_sigma=0.1, seed=14)
    req = SampleRequest(spec=spec, per_task_n=(20,) * 4, seed=15)
    data = sample_tasks(req)
    data[2] = qr_factor(data[2])
    with pytest.raises(NeedsRawRows):
        write_datasets_csv(data, req, tmp_path)
    assert not list(tmp_path.iterdir())


def test_manifest_kind_follows_the_law(tmp_path):
    rng = np.random.default_rng(16)
    rep = LinearRep(random_orthonormal_rows(2, 3, rng))
    head = LinearHead(np.ones((1, 2)))
    spec = PopulationSpec(dims=Dims(3, 1, 2), rep_star=rep,
                          tasks=(TaskSpec(law=LdsLaw(stable_matrix(3, 0.5, rng)), head=head),
                                 TaskSpec(law=GaussianLaw(np.eye(3)), head=head)))
    req = SampleRequest(spec=spec, per_task_n=(4, 4), seed=17)
    paths = write_datasets_csv(sample_tasks(req), req, tmp_path)
    with open(paths["manifest"]) as fh:
        manifest = json.load(fh)
    assert [task["kind"] for task in manifest["tasks"]] == ["trajectory", "iid_draw"]


# A manifest law entry's kind -> the law class whose parameters it lists.
LAW_KINDS = {"gaussian": GaussianLaw, "lds": LdsLaw, "markov": MarkovLaw}


def test_manifest_law_entries_rebuild_the_laws(tmp_path):
    rng = np.random.default_rng(18)
    rep = LinearRep(random_orthonormal_rows(2, 3, rng))
    head = LinearHead(np.ones((1, 2)))
    laws = (GaussianLaw(np.diag([0.5, 1.0, 2.0])), LdsLaw(stable_matrix(3, 0.8, rng)),
            MarkovLaw(transition=np.array([[0.8, 0.1, 0.1], [0.3, 0.6, 0.1], [0.2, 0.2, 0.6]]),
                      d_x=3))
    spec = PopulationSpec(dims=Dims(3, 1, 2), rep_star=rep,
                          tasks=tuple(TaskSpec(law=law, head=head) for law in laws))
    req = SampleRequest(spec=spec, per_task_n=(4, 4, 4), seed=19)
    paths = write_datasets_csv(sample_tasks(req), req, tmp_path)
    with open(paths["manifest"]) as fh:
        entries = [task["law"] for task in json.load(fh)["tasks"]]
    assert [entry["kind"] for entry in entries] == ["gaussian", "lds", "markov"]
    for law, entry in zip(laws, entries):
        rebuilt = LAW_KINDS[entry.pop("kind")](**entry)
        np.testing.assert_array_equal(rebuilt.second_moment(), law.second_moment())
        np.testing.assert_array_equal(rebuilt.sample_path(50, np.random.default_rng(20)),
                                      law.sample_path(50, np.random.default_rng(20)))
