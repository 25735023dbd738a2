import math

import numpy as np
import pytest

from transferlab import core
from transferlab.core import (
    Dims,
    GaussianLaw,
    LdsLaw,
    LinearRep,
    MarkovLaw,
    TaskDataset,
    bartlett,
    inv_sqrt_psd,
    pinv,
    spectral_norm,
    sqrt_psd,
    stationary_distribution,
    weighted_chi_moments,
)
from transferlab.errors import InvalidMatrix, NotErgodic, NotPSD


def test_pinv_identity():
    assert np.allclose(pinv(np.eye(3)), np.eye(3), atol=1e-12)


def test_pinv_diagonal():
    assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_left_inverse_full_rank():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 3))
    assert np.allclose(pinv(m) @ m, np.eye(3), atol=1e-10)


def test_pinv_penrose_identities_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        rows, cols = rng.integers(1, 8, size=2)
        m = rng.standard_normal((rows, cols))
        if rng.random() < 0.3:  # force some rank deficiency
            m[:, rng.integers(cols)] = 0.0
        p = pinv(m)
        scale = max(1.0, np.abs(m).max())
        assert np.allclose(m @ p @ m, m, atol=1e-10 * scale)
        assert np.allclose(p @ m @ p, p, atol=1e-10 * max(1.0, np.abs(p).max()))
        assert np.allclose((m @ p).T, m @ p, atol=1e-10)
        assert np.allclose((p @ m).T, p @ m, atol=1e-10)


def test_pinv_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        pinv(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_sqrt_psd_diagonal():
    assert np.allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


def test_sqrt_psd_zero():
    assert np.allclose(sqrt_psd(np.zeros((3, 3))), np.zeros((3, 3)))


def test_sqrt_psd_reconstruction_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(1, 8))
        a = rng.standard_normal((d, d))
        m = a.T @ a
        s = sqrt_psd(m)
        assert np.allclose(s, s.T, atol=1e-12)
        assert np.allclose(s @ s, m, atol=1e-9 * max(1.0, np.abs(m).max()))


def test_sqrt_psd_rejects_negative_eigenvalue():
    with pytest.raises(NotPSD):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_sqrt_psd_rejects_asymmetric():
    with pytest.raises(InvalidMatrix):
        sqrt_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_inv_sqrt_psd_rank_deficient():
    m = np.diag([4.0, 0.0])
    h = inv_sqrt_psd(m)
    assert np.allclose(h, np.diag([0.5, 0.0]), atol=1e-12)


def test_inv_sqrt_psd_stack_matches_per_matrix():
    """Each matrix of a stack gets its own cutoff: a member of rank 1, scaled below
    the others' cutoff, keeps its nonzero eigenvalue, and the zero matrix maps to 0."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3))
    u = rng.standard_normal(3)
    stack = np.stack([a @ a.T, 1e-12 * np.outer(u, u), np.zeros((3, 3)), np.diag([4.0, 1.0, 0.0])])
    h = inv_sqrt_psd(stack)
    assert h.shape == stack.shape
    for hm, m in zip(h, stack):
        assert np.allclose(hm, inv_sqrt_psd(m), rtol=1e-12, atol=1e-12)
    rank_one = h[1] @ stack[1] @ h[1]
    assert np.allclose(rank_one, np.outer(u, u) / (u @ u), atol=1e-8)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 6))
    assert np.isclose(spectral_norm(m), np.linalg.svd(m, compute_uv=False)[0])


ORDERS = np.arange(1, core.NRLS_MAX_ORDER + 1)


def chi_closed_form(q, p):
    """E chi_q^p = 2^(p/2) Gamma((q + p)/2) / Gamma(q/2)."""
    return 2.0 ** (p / 2) * math.gamma((q + p) / 2) / math.gamma(q / 2)


@pytest.mark.parametrize("weight", [1e-20, 0.3, 1.0, 5.0])
def test_weighted_chi_moments_of_one_weight(weight):
    # Q = w xi^2, so E Q^(p/2) = w^(p/2) E |xi|^p = w^(p/2) E chi_1^p
    want = [weight ** (p / 2) * chi_closed_form(1, p) for p in ORDERS]
    np.testing.assert_allclose(weighted_chi_moments([weight]), want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(weighted_chi_moments([0.0, weight, 0.0]), want,
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("q", [2, 3, 7, 64])
@pytest.mark.parametrize("weight", [0.01, 2.5])
def test_weighted_chi_moments_of_equal_weights(q, weight):
    # Q = w chi_q^2: the odd orders are the quadrature, the even ones the cumulants
    want = [weight ** (p / 2) * chi_closed_form(q, p) for p in ORDERS]
    np.testing.assert_allclose(weighted_chi_moments(np.full(q, weight)), want,
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(core._chi_moments(q), [chi_closed_form(q, p) for p in ORDERS],
                               rtol=1e-12, atol=0)


def test_weighted_chi_moments_of_zero_weights():
    assert weighted_chi_moments(np.zeros(3)).tolist() == [0.0] * ORDERS.size


def test_weighted_chi_moments_match_draws():
    # 10^6 draws of an anisotropic Q, in chunks: each order within 3 standard errors
    weights = np.array([4.0, 1.0, 0.25, 0.01])
    rng = np.random.default_rng(5)
    sums = np.zeros((2, ORDERS.size))
    for _ in range(10):
        q = (rng.standard_normal((100_000, weights.size)) ** 2) @ weights
        powers = q[:, None] ** (ORDERS / 2)
        sums += [powers.sum(axis=0), (powers * powers).sum(axis=0)]
    mean = sums[0] / 1e6
    se = np.sqrt((sums[1] / 1e6 - mean ** 2) / 1e6)
    assert np.all(np.abs(weighted_chi_moments(weights) - mean) <= 3.0 * se)


def bartlett_reference(d, dof, rng):
    """One factor as drawn before stacks: the chi-squares, then the normals."""
    u = np.zeros((d, d))
    u[np.diag_indices(d)] = np.sqrt(rng.chisquare(dof - np.arange(d)))
    u[np.triu_indices(d, 1)] = rng.standard_normal(d * (d - 1) // 2)
    return u


@pytest.mark.parametrize("d", [1, 3, 10, 64])
def test_bartlett_single_factor_is_unchanged(d):
    for seed in range(5):
        assert np.array_equal(bartlett(d, d + 7, np.random.default_rng(seed)),
                              bartlett_reference(d, d + 7, np.random.default_rng(seed)))


def test_bartlett_stack_equals_factors_drawn_one_by_one():
    chi, normals = np.random.default_rng(0), np.random.default_rng(1)
    stack = bartlett(3, 7, chi, (4, 2), normal_rng=normals)
    chi, normals = np.random.default_rng(0), np.random.default_rng(1)
    for i in range(4):
        for j in range(2):
            assert np.array_equal(stack[i, j], bartlett(3, 7, chi, normal_rng=normals))


def test_bartlett_stack_moments():
    d, dof, draws = 4, 6, 20_000
    u = bartlett(d, dof, np.random.default_rng(3), (draws,))
    assert u.shape == (draws, d, d)
    assert not np.tril(u, -1).any()
    diag_sq = np.diagonal(u, axis1=1, axis2=2) ** 2
    chi_dof = dof - np.arange(d)
    assert np.all(np.abs(diag_sq.mean(axis=0) - chi_dof) <= 4.0 * np.sqrt(2.0 * chi_dof / draws))
    rows, cols = np.triu_indices(d, 1)
    off = u[:, rows, cols]
    assert np.all(np.abs(off.mean(axis=0)) <= 4.0 / np.sqrt(draws))
    assert np.all(np.abs(off.var(axis=0) - 1.0) <= 4.0 * np.sqrt(2.0 / draws))


def test_dims_invariants():
    with pytest.raises(ValueError):
        Dims(d_x=2, d_y=1, r=3)
    with pytest.raises(ValueError):
        Dims(d_x=0, d_y=1, r=0)


def test_task_dataset_invariants():
    with pytest.raises(ValueError):
        TaskDataset(task_id=0, covariates=np.ones((3, 2)), labels=np.ones((2, 1)))
    with pytest.raises(InvalidMatrix):
        TaskDataset(task_id=0, covariates=np.array([[np.inf, 0.0]]),
                    labels=np.ones((1, 1)))
    # a Gram factor: at most n rows, equal row counts, finite, n >= 1
    with pytest.raises(ValueError):
        TaskDataset(task_id=0, covariates=np.ones((5, 2)), labels=np.ones((5, 1)), n=4)
    with pytest.raises(ValueError):
        TaskDataset(task_id=0, covariates=np.ones((2, 2)), labels=np.ones((3, 1)), n=9)
    with pytest.raises(ValueError):
        TaskDataset(task_id=0, covariates=np.ones((0, 2)), labels=np.ones((0, 1)), n=0)
    with pytest.raises(InvalidMatrix):
        TaskDataset(task_id=0, covariates=np.ones((2, 2)),
                    labels=np.array([[1.0], [np.nan]]), n=9)


def test_task_dataset_n_defaults_to_the_row_count():
    ds = TaskDataset(task_id=0, covariates=np.ones((4, 2)), labels=np.ones((4, 1)))
    assert ds.n == 4
    assert TaskDataset(task_id=0, covariates=np.ones((2, 2)), labels=np.ones((2, 1)), n=9).n == 9


def test_linear_rep_rejects_rank_deficient():
    g = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(InvalidMatrix):
        LinearRep(g)
    # singular-value ratio just above the cutoff is accepted
    LinearRep(np.array([[1.0, 0.0], [0.0, 1e-6]]))


def test_markov_law_validation_and_moments():
    with pytest.raises(InvalidMatrix):
        MarkovLaw(transition=np.array([[0.5, 0.4], [0.0, 1.0]]), d_x=2)
    p = np.array([[0.9, 0.1], [0.2, 0.8]])
    law = MarkovLaw(transition=p, d_x=3)
    pi = law.stationary
    assert np.allclose(pi @ p, pi, atol=1e-12)
    # embedding is centered under the stationary law
    assert np.allclose(pi @ law.embedding, 0.0, atol=1e-12)
    rng = np.random.default_rng(5)
    x = law.sample_marginal(200_000, rng)
    emp = x.T @ x / x.shape[0]
    assert np.allclose(emp, law.second_moment(), atol=0.01)


def test_stationary_distribution_not_ergodic():
    p = np.eye(2)  # two absorbing states, stationary law not unique
    with pytest.raises(NotErgodic):
        stationary_distribution(p)


def test_gaussian_law_requires_psd():
    with pytest.raises(NotPSD):
        GaussianLaw(sigma_x=np.diag([1.0, -1.0]))


@pytest.mark.parametrize("law", [
    GaussianLaw(sigma_x=np.array([[2.0, 0.5], [0.5, 1.0]])),
    LdsLaw(a=np.array([[0.5, 0.3], [0.0, 0.7]])),
    MarkovLaw(transition=np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.3, 0.3, 0.4]]),
              d_x=2),
], ids=["gaussian", "lds", "markov"])
def test_second_moment_factor_reproduces_second_moment(law):
    factor = law.second_moment_factor()
    assert factor.shape[0] == law.d_x
    assert np.allclose(factor @ factor.T, law.second_moment(), rtol=0, atol=1e-13)
