import math
import os

# One BLAS/OpenMP thread, pinned before numpy loads, as the benchmark does: these
# products are small, and more threads only slow them and make the timed
# acceptance gates sensitive to other load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.integrate  # noqa: E402

from transferlab.core import (  # noqa: E402
    Dims,
    GaussianLaw,
    LinearHead,
    LinearRep,
    PopulationSpec,
    TaskDataset,
    TaskSpec,
)
from transferlab.diagnostics import nu_hat  # noqa: E402
from transferlab.erm import _normal_matrix, fit_second_stage  # noqa: E402


def random_orthonormal_rows(r, d_x, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d_x, r)))
    return q.T


def qr_factor(ds):
    """The R factor of the QR decomposition [X~ Y~] = Q R: a reference Gram factor
    with R^T R = [X Y]^T [X Y], min(k, d_x + d_y) rows and the same ``n``."""
    r = np.linalg.qr(np.hstack([ds.covariates, ds.labels]), mode="r")
    d_x = ds.covariates.shape[1]
    return TaskDataset(task_id=ds.task_id, covariates=r[:, :d_x], labels=r[:, d_x:], n=ds.n)


def random_normal_matrix(t, d_x, r, d_y, n, rng):
    """The ALS G-step normal matrix sum_t kron(F_t^T F_t, X_t^T X_t) for T tasks
    of n standard normal rows and standard normal (d_y, r) heads; singular when
    T n < d_x or T d_y < r."""
    x = rng.standard_normal((t, n, d_x))
    f = rng.standard_normal((t, d_y, r))
    return _normal_matrix(np.swapaxes(x, 1, 2) @ x, np.swapaxes(f, 1, 2) @ f)


def pinv_sqrt(m):
    """(M^+)^{1/2} of a symmetric PSD M by eigh, with eigenvalues at or below
    1e-12 times the largest taken as zero; an oracle that uses nothing of core."""
    w, v = np.linalg.eigh(m)
    keep = w > 1e-12 * max(w.max(), 0.0)
    inv_root = np.zeros_like(w)
    inv_root[keep] = 1.0 / np.sqrt(w[keep])
    return (v * inv_root) @ v.T


def log_integral_quadrature(c):
    """int_0^1 sqrt(log(1 + C/x)) dx by adaptive quadrature, the oracle that
    ``bounds.log_integral_bound`` bounds."""
    return scipy.integrate.quad(lambda x: math.sqrt(math.log1p(c / x)), 0.0, 1.0,
                                limit=200)[0]


def make_gaussian_population(d_x=6, d_y=2, r=2, t=3, noise_sigma=0.0, seed=0,
                             identical=False, scale_lo=0.5, scale_hi=2.0):
    """Random linear-Gaussian population; per-task SPD covariances unless identical."""
    rng = np.random.default_rng(seed)
    rep_star = LinearRep(random_orthonormal_rows(r, d_x, rng))
    tasks = []
    for _ in range(t + 1):
        if identical:
            sigma = np.eye(d_x)
        else:
            a = rng.standard_normal((d_x, d_x))
            sigma = a @ a.T / d_x + rng.uniform(scale_lo, scale_hi) * np.eye(d_x)
        head = LinearHead(rng.standard_normal((d_y, r)))
        tasks.append(TaskSpec(law=GaussianLaw(sigma_x=sigma), head=head))
    return PopulationSpec(dims=Dims(d_x=d_x, d_y=d_y, r=r), tasks=tuple(tasks),
                          rep_star=rep_star, noise_sigma=noise_sigma)


def nu_hat_given_g(data, g):
    """nu_hat for a fixed representation g, from one batch with the target first."""
    target, *sources = (fit_second_stage(ds, g).residual for ds in data)
    return nu_hat(target, sources)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
