"""Shared domain types and matrix primitives.

Every other module consumes the types defined here: problem dimensions,
per-task samples, linear heads, linear representations, covariate laws,
and the full generative description of a task population. All types are
immutable after construction (arrays are marked read-only), and all
operations are pure functions of their inputs.
"""
from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidMatrix, NeedsRawRows, NoClosedForm, NotPSD, NotErgodic,
                     UnstableSystem)

# Relative singular-value / eigenvalue cutoff used by every pseudo-inverse
# in the package. Matches double-precision conditioning at the dimensions
# this laboratory runs at (a few hundred at most).
RANK_TOL = 1e-10

# Values a Monte Carlo loop draws per chunk (512 KB of doubles). The SNM
# check, the lower-isometry tail check and ``diagnostics.nrls_quantities``
# draw their samples in consecutive chunks of at most this many values, so
# their memory stays bounded at any sample or replicate count.
# Modules read it as ``core.MC_DRAW_BUDGET`` at call time.
MC_DRAW_BUDGET = 1 << 16


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _require_finite(m: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(m)):
        raise InvalidMatrix(f"{name} contains non-finite entries")


# ---------------------------------------------------------------------------
# Matrix primitives
# ---------------------------------------------------------------------------

def pinv(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with a relative singular-value cutoff.

    Singular values below ``RANK_TOL * sigma_max`` are treated as zero. Satisfies
    the four Penrose identities to high relative accuracy. A stack of shape
    (..., m, n) is inverted matrix by matrix, each with its own cutoff.

    Raises
    ------
    InvalidMatrix
        If the input has non-finite entries or fewer than two dimensions.
    """
    m = np.asarray(m, dtype=float)
    _require_finite(m, "pinv input")
    if m.ndim < 2:
        raise InvalidMatrix("pinv expects a matrix or a stack of matrices")
    return np.linalg.pinv(m, rcond=RANK_TOL)


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric PSD matrix.

    Eigenvalues in ``[-tol_eff, 0)`` are clipped to zero, where
    ``tol_eff = RANK_TOL * max(1, |lambda|_max)``; anything further below zero
    raises. The result S is symmetric with ``S @ S == m`` up to roundoff.

    Raises
    ------
    InvalidMatrix
        If the input is non-finite or not symmetric within 1e-10.
    NotPSD
        If an eigenvalue lies below ``-tol_eff``.
    """
    m = np.asarray(m, dtype=float)
    _require_finite(m, "sqrt_psd input")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidMatrix("sqrt_psd expects a square matrix")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if np.abs(m - m.T).max(initial=0.0) > 1e-10 * scale:
        raise InvalidMatrix("sqrt_psd expects a symmetric matrix")
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    tol_eff = RANK_TOL * max(1.0, float(np.abs(w).max(initial=0.0)))
    if w.min(initial=0.0) < -tol_eff:
        raise NotPSD(f"eigenvalue {w.min():g} below -{tol_eff:g}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def inv_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root M^{+/2} of a symmetric PSD matrix.

    Eigenvalues below ``RANK_TOL * lambda_max`` are treated as zero (their inverse
    square root is set to zero), so rank-deficient inputs are handled. A stack
    of shape (..., d, d) is handled matrix by matrix, each with its own cutoff.
    """
    m = np.asarray(m, dtype=float)
    _require_finite(m, "inv_sqrt_psd input")
    w, v = np.linalg.eigh(0.5 * (m + np.swapaxes(m, -1, -2)))
    cutoff = RANK_TOL * w.max(axis=-1, initial=0.0, keepdims=True)
    inv_root = np.where(w > cutoff, 1.0 / np.sqrt(np.clip(w, 1e-300, None)), 0.0)
    return (v * inv_root[..., None, :]) @ np.swapaxes(v, -1, -2)


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _power_moments(w: np.ndarray, m_max: int) -> list:
    """[E Q^m for m = 0..m_max], Q = sum_i w_i xi_i^2, for each row of weights
    (..., d). The cumulants of w_i xi_i^2 add, kappa_j = 2^(j-1) (j-1)! sum_i w_i^j,
    and the moments follow from mu_m = sum_{k<m} C(m-1, k) kappa_{k+1} mu_{m-1-k},
    a sum of nonnegative terms."""
    kappa, power = [None], np.ones_like(w)
    for j in range(1, m_max + 1):
        power = power * w
        kappa.append(2.0 ** (j - 1) * math.factorial(j - 1) * power.sum(axis=-1))
    mu = [np.ones(w.shape[:-1])]
    for m in range(1, m_max + 1):
        mu.append(sum(math.comb(m - 1, k) * kappa[k + 1] * mu[m - 1 - k] for k in range(m)))
    return mu


# The highest order p of the NRLS moments E ||u||^p and E ||u z^T||_F^p: psi_1
# of Ziemann et al. (2023) is a maximum over p = 1..8.
NRLS_MAX_ORDER = 8

# Trapezoid nodes s = log t of ``weighted_chi_moments``'s odd orders, for weights
# scaled to sum 1: the integrand falls like e^(s/2) below the grid and at least
# like e^(-s) above it, so the cut ends cost e^-40 relative, and a step of 1/4
# agrees with the chi closed forms to 3e-14 relative at 1 to 64 equal weights
# (1e-15 at up to 4, 4e-13 at 1000).
_CHI_NODES = _readonly(np.arange(-80.0, 40.0 + 0.125, 0.25))


def weighted_chi_moments(weights) -> np.ndarray:
    """E Q^(p/2) for p = 1..NRLS_MAX_ORDER, Q = sum_i w_i xi_i^2 with xi_i iid
    N(0, 1) and w_i >= 0: the norm moments E ||y||^p of y ~ N(0, C) for w = eig(C).

    The weights are scaled to sum 1 and the moments scaled back by (sum w)^(p/2).
    An even order p = 2m is the exact ``_power_moments`` mu_m. An odd order
    p = 2m + 1 is one integral: Q^(-1/2) = pi^(-1/2) int_0^inf e^(-tQ) t^(-1/2) dt,
    and the tilt e^(-tQ) turns each w_i xi_i^2 into w_i' xi_i^2 with
    w_i' = w_i / (1 + 2 w_i t) at the price of its Laplace transform
    (1 + 2 w_i t)^(-1/2), so with t = e^s

        E Q^(m+1/2) = E Q^(m+1) Q^(-1/2)
                    = pi^(-1/2) int prod_i (1 + 2 w_i e^s)^(-1/2) mu_{m+1}(w') e^(s/2) ds.

    The integrand is positive, so nothing cancels, and analytic in the strip
    |Im s| < pi, where a trapezoid rule converges geometrically in its step; it
    runs over the fixed nodes ``_CHI_NODES``. Zero weights add nothing; all
    zero gives zeros.
    """
    w = np.asarray(weights, dtype=float)
    total = float(w.sum())
    if total <= 0.0:
        return np.zeros(NRLS_MAX_ORDER)
    w = w / total
    out = np.empty(NRLS_MAX_ORDER)
    mu = _power_moments(w, NRLS_MAX_ORDER // 2)
    out[1::2] = mu[1:]
    odd = (NRLS_MAX_ORDER + 1) // 2
    tw = 2.0 * w * np.exp(_CHI_NODES)[:, None]
    tilted = _power_moments(w / (1.0 + tw), odd)
    weight = np.exp(0.5 * _CHI_NODES - 0.5 * np.log1p(tw).sum(axis=1))
    step = (_CHI_NODES[1] - _CHI_NODES[0]) / math.sqrt(math.pi)
    out[0::2] = [step * float(weight @ tilted[m + 1]) for m in range(odd)]
    return out * total ** (np.arange(1, NRLS_MAX_ORDER + 1) / 2)


def _chi_moments(q: int) -> np.ndarray:
    """E chi_q^p for p = 1..NRLS_MAX_ORDER: E chi_q = sqrt(2) Gamma((q+1)/2) /
    Gamma(q/2) and E chi_q^p = (q + p - 2) E chi_q^(p-2), from E chi_q^0 = 1."""
    moments = [1.0, math.sqrt(2.0) * math.exp(math.lgamma((q + 1) / 2) - math.lgamma(q / 2))]
    for p in range(2, NRLS_MAX_ORDER + 1):
        moments.append((q + p - 2) * moments[p - 2])
    return np.array(moments[1:])


def logdet_psd(m: np.ndarray) -> float | np.ndarray:
    """Log-determinant of a symmetric positive definite matrix.

    A stack of shape (..., d, d) gives an array of shape (...), one
    log-determinant per matrix; a single matrix gives a float.

    Raises
    ------
    NotPSD
        If any determinant has sign <= 0.
    """
    sign, val = np.linalg.slogdet(np.asarray(m, dtype=float))
    if np.any(sign <= 0):
        raise NotPSD("logdet_psd expects a positive definite matrix")
    return float(val) if np.ndim(val) == 0 else val


@functools.lru_cache(maxsize=None)
def _strict_upper(d: int) -> np.ndarray:
    """Flat indices of the strict upper triangle of a d x d matrix, row by row."""
    idx = np.flatnonzero(np.tri(d, k=-1).T)
    idx.setflags(write=False)
    return idx


def bartlett(d: int, dof: int, rng: np.random.Generator, shape: tuple[int, ...] = (),
             normal_rng: np.random.Generator | None = None) -> np.ndarray:
    """Upper-triangular U with U^T U ~ Wishart_d(dof, I), dof >= d (Bartlett
    decomposition): U_ii = sqrt(chi^2_{dof - i}) for i = 0..d-1, U_ij standard
    normal for i < j, all independent.

    ``shape`` stacks independent factors, giving shape (*shape, d, d). The
    chi-squares come from ``rng`` and the normals from ``normal_rng`` (default
    ``rng``), each in C order of the stack. With two streams, a stack equals
    its factors drawn one by one in that order.
    """
    u = np.zeros((*shape, d * d))
    size = (*shape, d) if shape else None  # a size costs ~2 us per call; one factor needs none
    u[..., ::d + 1] = np.sqrt(rng.chisquare(dof - np.arange(d), size=size))
    normals = rng if normal_rng is None else normal_rng
    u[..., _strict_upper(d)] = normals.standard_normal((*shape, d * (d - 1) // 2))
    return u.reshape(*shape, d, d)


# ---------------------------------------------------------------------------
# Dimensions and datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dims:
    """Problem dimensions: covariates in R^{d_x}, labels in R^{d_y}, features in R^r."""

    d_x: int
    d_y: int
    r: int

    def __post_init__(self):
        if min(self.d_x, self.d_y, self.r) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.r > self.d_x:
            raise ValueError(f"r={self.r} must not exceed d_x={self.d_x}")


@dataclass(frozen=True)
class TaskDataset:
    """One task's sample: k <= n rows [X~ Y~] whose Gram equals that of its n rows.

    ``covariates`` (k x d_x) and ``labels`` (k x d_y) are the column blocks of a
    matrix whose Gram equals that of the task's rows [X Y] (n x (d_x + d_y)), and
    ``n`` (default k) is their count. So X~^T X~ = X^T X, X~^T Y~ = X^T Y and
    Y~^T Y~ = Y^T Y; the rows themselves are the case k = n, and
    ``datagen.sample_task_stats`` draws a factor of few rows. For a linear
    representation G the features Z~ = X~ G^T keep Z~^T Z~ = Z^T Z and
    Z~^T Y~ = Z^T Y, and the residual sum of squares of any head F,
        ||Y - Z F^T||_F^2 = tr Y^T Y - 2 tr(F Z^T Y) + tr(F Z^T Z F^T),
    reads only these Grams: a least-squares fit on the k rows gives the n rows'
    heads and residual sum. A mean residual divides by ``n``, not by k.
    Per-row quantities, such as a noise matrix given row by row, need k = n
    (``require_rows``).
    """

    task_id: int
    covariates: np.ndarray  # k x d_x
    labels: np.ndarray      # k x d_y
    n: int | None = None

    def __post_init__(self):
        x = _readonly(np.atleast_2d(self.covariates))
        y = _readonly(np.atleast_2d(self.labels))
        k = x.shape[0]
        n = k if self.n is None else int(self.n)
        if y.shape[0] != k or n < max(k, 1):
            raise ValueError(f"need equal row counts k <= n, n >= 1: {k}, {y.shape[0]}, n={n}")
        _require_finite(x, "covariates")
        _require_finite(y, "labels")
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "n", n)

    def require_rows(self) -> None:
        """Raise ``NeedsRawRows`` unless the sample holds all n rows (k = n)."""
        if self.covariates.shape[0] != self.n:
            raise NeedsRawRows(f"task {self.task_id}: per-row data needs raw rows, not a factor")


@dataclass(frozen=True)
class LinearHead:
    """Task-specific linear map F: R^r -> R^{d_y}."""

    f: np.ndarray  # d_y x r

    def __post_init__(self):
        f = _readonly(np.atleast_2d(self.f))
        _require_finite(f, "head matrix")
        object.__setattr__(self, "f", f)

    @property
    def d_y(self) -> int:
        return self.f.shape[0]

    @property
    def r(self) -> int:
        return self.f.shape[1]


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearRep:
    """The representation g(x) = G x, for a full-row-rank G in R^{r x d_x}."""

    g: np.ndarray

    def __post_init__(self):
        g = _readonly(np.atleast_2d(self.g))
        _require_finite(g, "representation matrix")
        s = np.linalg.svd(g, compute_uv=False)
        if s.size == 0 or s[-1] < RANK_TOL * s[0]:
            raise InvalidMatrix("linear representation must have full row rank")
        object.__setattr__(self, "g", g)

    @property
    def out_dim(self) -> int:
        return self.g.shape[0]

    @property
    def in_dim(self) -> int:
        return self.g.shape[1]

    def features(self, x: np.ndarray) -> np.ndarray:
        """Apply g to each row of an (n, d_x) array, returning (n, r)."""
        return np.asarray(x, dtype=float) @ self.g.T


# ---------------------------------------------------------------------------
# Covariate laws
# ---------------------------------------------------------------------------

class CovariateLaw:
    """Marginal/stationary covariate distribution on R^{d_x}.

    A law's methods are its exact moments, ``second_moment``,
    ``second_moment_factor``, ``norm_moments`` and ``nrls_moments`` (the noise
    moments of a regression on linear features of x); its seeded samplers,
    ``sample_marginal``, ``sample_paths``, ``sample_path`` and ``gram_factor``
    (a factor of a path's Gram); and ``describe``, its parameters for a
    manifest. For an iid law a path is an iid draw; trajectory laws override
    ``sample_paths`` and start each path stationary, so keep every step. Here
    ``norm_moments`` and ``nrls_moments`` raise ``NoClosedForm``: a law without
    a closed form for them keeps that.
    """

    d_x: int
    is_trajectory: bool = False

    def second_moment(self) -> np.ndarray:
        raise NotImplementedError

    def second_moment_factor(self) -> np.ndarray:
        """A (d_x, m) factor L of the second moment, E[x x^T] = L L^T."""
        raise NotImplementedError

    def sample_marginal(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def sample_paths(self, batch: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """``batch`` independent paths of length n, shape (batch, n, d_x).

        Consumes ``rng`` exactly as ``batch`` consecutive
        ``sample_path(n, rng)`` calls do.
        """
        return self.sample_marginal(batch * n, rng).reshape(batch, n, self.d_x)

    def sample_path(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.sample_paths(1, n, rng)[0]

    def gram_factor(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """A (k, d_x) factor R, k <= n, of a path X = ``sample_path(n, rng)``:
        X = Q_1 R, Q_1 with orthonormal columns that depend on the draw alone, so
        R^T R = X^T X. A law may draw R in law, without rows; here it is X's R factor."""
        return np.linalg.qr(self.sample_path(n, rng), mode="r")

    def norm_moments(self, c: np.ndarray) -> tuple[float, float]:
        """(E ||c x||^2, E ||c x||^4) under the marginal, exactly, for a (m, d_x) c.
        Here it raises ``NoClosedForm``: no formula is known for the law's fourth moment."""
        raise NoClosedForm(f"no exact fourth moment for a {type(self).__name__}")

    def nrls_moments(self, u_map: np.ndarray, z_map: np.ndarray,
                     noise_sigma: float) -> tuple[np.ndarray, np.ndarray, float]:
        """(E ||u||^p and E ||u z^T||_F^p for p = 1..NRLS_MAX_ORDER, and
        c_z = sup_{|v|=1} sqrt(E (v^T z)^4)) under the marginal, exactly, for
        u = u_map x + noise_sigma w and z = z_map x, where w ~ N(0, I) is independent
        of x, E[u z^T] = 0 and E[z z^T] is a projector. Here it raises
        ``NoClosedForm``: no closed form is known for the law."""
        raise NoClosedForm(f"no exact NRLS moments for a {type(self).__name__}")

    def describe(self) -> dict:
        """The law's kind and parameters, as JSON values."""
        return {"kind": type(self).__name__}


class _GaussianMarginal(CovariateLaw):
    """A law whose marginal is N(0, L L^T), with ``_root`` the symmetric root L
    of its second moment."""

    _root: np.ndarray

    def second_moment_factor(self) -> np.ndarray:
        return self._root

    def sample_marginal(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal((n, self.d_x)) @ self._root.T

    def norm_moments(self, c: np.ndarray) -> tuple[float, float]:
        """x = L z with z standard normal, so with b = c L, ||c x||^2 = z^T A z for
        A = b^T b: its mean is tr A = ||b||_F^2 and, by Isserlis, its second moment
        is (tr A)^2 + 2 tr A^2 = ||b||_F^4 + 2 ||b b^T||_F^2."""
        b = c @ self._root
        bbt = b @ b.T
        m2 = float(np.sum(b * b))
        return m2, m2 ** 2 + 2.0 * float(np.sum(bbt * bbt))

    def nrls_moments(self, u_map: np.ndarray, z_map: np.ndarray,
                     noise_sigma: float) -> tuple[np.ndarray, np.ndarray, float]:
        """x = L e with e standard normal, so u and z are jointly Gaussian. Being
        uncorrelated, they are independent, and E ||u z^T||_F^p = E ||u||^p E ||z||^p.
        u ~ N(0, C) with C = (u_map L)(u_map L)^T + noise_sigma^2 I, formed from the
        product u_map L so that a u of round-off size keeps a C of round-off size,
        and E ||u||^p = ``weighted_chi_moments(eig(C))``. z ~ N(0, P), P a projector
        of rank q = tr P, so ||z|| is chi with q degrees of freedom
        (``_chi_moments``), and E (v^T z)^4 = 3 (v^T P v)^2 gives c_z = sqrt(3),
        or 0 when q = 0 (then z = 0)."""
        b = u_map @ self._root
        c = b @ b.T + noise_sigma ** 2 * np.eye(b.shape[0])
        u_moments = weighted_chi_moments(np.clip(np.linalg.eigvalsh(c), 0.0, None))
        zl = z_map @ self._root
        q = round(float(np.sum(zl * zl)))
        if q == 0:
            return u_moments, np.zeros_like(u_moments), 0.0
        return u_moments, u_moments * _chi_moments(q), math.sqrt(3.0)


@dataclass(frozen=True)
class GaussianLaw(_GaussianMarginal):
    """Zero-mean Gaussian covariates with covariance sigma_x (symmetric PSD)."""

    sigma_x: np.ndarray

    def __post_init__(self):
        s = _readonly(np.atleast_2d(self.sigma_x))
        _require_finite(s, "sigma_x")
        if s.shape[0] != s.shape[1]:
            raise InvalidMatrix("sigma_x must be square")
        root = sqrt_psd(s)  # raises NotPSD / InvalidMatrix on bad input
        object.__setattr__(self, "sigma_x", s)
        object.__setattr__(self, "_root", _readonly(root))

    @property
    def d_x(self) -> int:
        return self.sigma_x.shape[0]

    def second_moment(self) -> np.ndarray:
        return np.array(self.sigma_x)

    def gram_factor(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """From n = d_x on, R = U L^T with Sigma = L L^T and U the Bartlett factor: rows
        X = E L^T with E = Q_1 U standard normal, and U has the law of E's R factor."""
        if n < self.d_x:
            return super().gram_factor(n, rng)
        return bartlett(self.d_x, n, rng) @ self._root.T

    def describe(self) -> dict:
        return {"kind": "gaussian", "sigma_x": self.sigma_x.tolist()}


# Doublings after which the Lyapunov sum counts as divergent. Doubling j adds the
# terms k in [2^j, 2^(j+1)) of sum_k A^k (A^k)^T, so 64 doublings sum 2^64 terms.
_LYAPUNOV_DOUBLINGS = 64


def lds_stationary_covariance(a: np.ndarray) -> tuple[np.ndarray, float]:
    """(Sigma, rho(A)): the stationary covariance of x_{i+1} = A x_i + w_i with
    identity process noise, and the spectral radius of A.

    Sigma = A Sigma A^T + I, equivalently Sigma = sum_k A^k (A^k)^T, summed by
    doubling: with Sigma_0 = I and A_0 = A,

        Sigma_{j+1} = Sigma_j + A_j Sigma_j A_j^T,    A_{j+1} = A_j^2,

    so Sigma_j sums the first 2^j terms and A_j = A^(2^j). The loop stops once
    the added term's largest entry is at most machine epsilon times Sigma's, the
    round-off of the sum. The remainder past 2^j terms decays like rho(A)^(2^(j+1)),
    so rho(A) = 0.99 takes about 12 doublings.

    Raises
    ------
    UnstableSystem
        If the spectral radius of A is >= 1, or the sum has not converged after
        ``_LYAPUNOV_DOUBLINGS`` doublings.
    """
    a = np.asarray(a, dtype=float)
    _require_finite(a, "system matrix")
    rho = float(np.abs(np.linalg.eigvals(a)).max()) if a.size else 0.0
    if rho >= 1.0:
        raise UnstableSystem(f"spectral radius {rho:g} >= 1")
    sigma, power, eps = np.eye(a.shape[0]), a, np.finfo(float).eps
    for _ in range(_LYAPUNOV_DOUBLINGS):
        term = power @ sigma @ power.T
        sigma = sigma + term
        if np.abs(term).max(initial=0.0) <= eps * np.abs(sigma).max(initial=0.0):
            return 0.5 * (sigma + sigma.T), rho
        power = power @ power
    raise UnstableSystem(f"stationary covariance did not converge in {_LYAPUNOV_DOUBLINGS} "
                         f"doublings at spectral radius {rho:g}")


# Widest stacked block (chunk steps times d_x) the LDS path sampler advances
# in one product, and the shortest chunk worth taking: a chunk costs about
# three steps' worth of per-iteration overhead, so below four steps the plain
# step loop is faster.
_LDS_CHUNK_WIDTH = 64
_LDS_MIN_CHUNK = 4


def _lds_chunk_ops(a: np.ndarray) -> tuple[int, np.ndarray | None, np.ndarray | None]:
    """Chunk length L and the products that advance an LDS path L steps at once.

    Returns (L, lift, toeplitz): lift = [(A^1)^T ... (A^L)^T] is (d, L d) and
    toeplitz is the (L d, L d) block upper-triangular matrix whose block
    (i, j) is (A^{j-i})^T for j >= i. L = 1 needs neither.
    """
    d = a.shape[0]
    steps = _LDS_CHUNK_WIDTH // d
    if steps < _LDS_MIN_CHUNK:
        return 1, None, None
    powers = [np.eye(d)]
    for _ in range(steps):
        powers.append(a @ powers[-1])
    powers_t = np.stack([pw.T for pw in powers])           # (L+1, d, d)
    lift = np.concatenate(powers_t[1:], axis=1)             # (d, L d)
    lag = np.arange(steps)[None, :] - np.arange(steps)[:, None]
    blocks = np.where((lag >= 0)[:, :, None, None], powers_t[np.clip(lag, 0, None)], 0.0)
    toeplitz = blocks.transpose(0, 2, 1, 3).reshape(steps * d, steps * d)
    return steps, _readonly(lift), _readonly(toeplitz)


@dataclass(frozen=True)
class LdsLaw(_GaussianMarginal):
    """Stationary linear dynamical system x_{i+1} = A x_i + w_i, w_i ~ N(0, I)."""

    a: np.ndarray

    is_trajectory = True

    def __post_init__(self):
        a = _readonly(np.atleast_2d(self.a))
        sigma, rho = lds_stationary_covariance(a)  # validates stability
        chunk, lift, toeplitz = _lds_chunk_ops(a)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_sigma", _readonly(sigma))
        object.__setattr__(self, "_rho", rho)
        object.__setattr__(self, "_root", _readonly(sqrt_psd(sigma)))
        object.__setattr__(self, "_chunk", chunk)
        object.__setattr__(self, "_lift", lift)
        object.__setattr__(self, "_toeplitz", toeplitz)

    @property
    def d_x(self) -> int:
        return self.a.shape[0]

    @property
    def spectral_radius(self) -> float:
        return self._rho

    def second_moment(self) -> np.ndarray:
        return np.array(self._sigma)

    def sample_paths(self, batch: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """``batch`` stationary paths x_1..x_n: each starts from x_0 = Sigma^{1/2} z,
        already stationary, and runs the recursion on fresh noise; one (batch,
        1 + n, d) normal draw holds, per path in turn, z and then the noise rows.

        The recursion advances L steps per product. Unrolling
        x_{s+i+1} = A x_{s+i} + w_{s+i} from x = x_s gives, for j = 0..L-1,

            X_j := x_{s+j+1} = A^{j+1} x + sum_{i<=j} A^{j-i} w_{s+i}.

        With paths as rows this is [X_0^T ... X_{L-1}^T]
        = x^T [(A^1)^T ... (A^L)^T] + [w_s^T ... w_{s+L-1}^T] M, where M is
        block upper-triangular Toeplitz with block (i, j) = (A^{j-i})^T for
        j >= i; a shorter last chunk uses the leading blocks of both factors.
        L = 1 is the plain step x A^T + w. The chunked sum differs from the
        step-by-step recursion only by round-off, a few ulps of the
        stationary scale.
        """
        d = self.d_x
        z = rng.standard_normal((batch, 1 + n, d))
        x = z[:, 0] @ self._root.T
        w = z[:, 1:]  # noise rows w_0.., overwritten in place by x_1..
        if self._chunk == 1:
            a_t = self.a.T
            for w_i in w.transpose(1, 0, 2):
                w_i += np.dot(x, a_t)  # np.dot: less call overhead than @ per step
                x = w_i
        else:
            width = self._chunk * d
            full = n // self._chunk * self._chunk
            chunks = w[:, :full].reshape(batch, -1, width).transpose(1, 0, 2)
            for block in chunks:
                y = np.dot(x, self._lift)
                y += np.dot(block, self._toeplitz)
                block[...] = y
                x = y[:, -d:]
            rest = (n - full) * d
            if rest:
                y = x @ self._lift[:, :rest]
                y += w[:, full:].reshape(batch, rest) @ self._toeplitz[:rest, :rest]
                w[:, full:] = y.reshape(batch, -1, d)
        return w

    # Defined on the class, not inherited, so bench/tracing.py can wrap it.
    def sample_path(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.sample_paths(1, n, rng)[0]

    def describe(self) -> dict:
        return {"kind": "lds", "a": self.a.tolist()}


@dataclass(frozen=True)
class MarkovLaw(CovariateLaw):
    """Finite stationary Markov chain embedded into R^{d_x}.

    State s maps to the indicator e_s padded or truncated to d_x, then
    centered to zero mean under the stationary distribution. This gives a
    bounded covariate source whose mixing coefficients are exactly
    computable.
    """

    transition: np.ndarray  # S x S row-stochastic
    d_x: int

    is_trajectory = True

    def __post_init__(self):
        p = _readonly(np.atleast_2d(self.transition))
        pi = stationary_distribution(p)
        base = np.zeros((p.shape[0], self.d_x))
        for s in range(min(p.shape[0], self.d_x)):
            base[s, s] = 1.0
        emb = base - pi @ base
        # A stationary state is one uniform against the normalized cumsum of
        # pi (searchsorted "right", the rule of rng.choice(S, p=pi)): each
        # marginal row and each walk's first state. A walk step is
        # min(searchsorted(cumsum(P[s]), u, "right"), S - 1), which equals a
        # bisection over the first S - 1 cumulative entries of row s.
        stationary_cdf = np.cumsum(pi)
        stationary_cdf /= stationary_cdf[-1]
        walk_table = tuple(tuple(row[:-1]) for row in np.cumsum(p, axis=1).tolist())
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "_pi", _readonly(pi))
        object.__setattr__(self, "_embedding", _readonly(emb))
        object.__setattr__(self, "_stationary_cdf", _readonly(stationary_cdf))
        object.__setattr__(self, "_walk_table", walk_table)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def stationary(self) -> np.ndarray:
        return np.array(self._pi)

    @property
    def embedding(self) -> np.ndarray:
        """(S, d_x) matrix whose row s is the centered embedding of state s."""
        return np.array(self._embedding)

    def second_moment(self) -> np.ndarray:
        return self._embedding.T @ (self._pi[:, None] * self._embedding)

    def second_moment_factor(self) -> np.ndarray:
        """E^T diag(sqrt(pi)), E the (S, d_x) embedding: a sum over states of
        pi_s e_s e_s^T."""
        return self._embedding.T * np.sqrt(self._pi)

    def norm_moments(self, c: np.ndarray) -> tuple[float, float]:
        """The marginal puts mass pi_s on the embedded state e_s, so the moments
        are the sums of pi_s ||c e_s||^2 and pi_s ||c e_s||^4 over the states."""
        h = self.embedding @ c.T
        norms2 = np.sum(h * h, axis=1)
        pi = self.stationary
        return float(pi @ norms2), float(pi @ norms2 ** 2)

    def describe(self) -> dict:
        return {"kind": "markov", "transition": self.transition.tolist(), "d_x": self.d_x}

    def sample_marginal(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._embedding[np.searchsorted(self._stationary_cdf, rng.random(n), side="right")]

    def _walk(self, batch: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """(batch, n) states of stationary walks. One (batch, 1 + n) uniform draw:
        per path, column 0 picks the start state from pi (a bisection of the
        stationary CDF, the rule of ``sample_marginal``'s searchsorted) and each
        later column one transition. The states go to one flat list."""
        cdf, table = self._stationary_cdf, self._walk_table
        states = []
        step = states.append
        for row in map(iter, rng.random((batch, 1 + n)).tolist()):
            s = bisect_right(cdf, next(row))
            for v in row:
                s = bisect_right(table[s], v)
                step(s)
        return np.array(states, dtype=np.intp).reshape(batch, n)

    def sample_paths(self, batch: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._embedding[self._walk(batch, n, rng)]

    # Defined on the class, not inherited, so bench/tracing.py can wrap it.
    def sample_path(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.sample_paths(1, n, rng)[0]

    def gram_factor(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Row sqrt(c_s) e_s per state s visited c_s > 0 times by ``sample_path``'s walk,
        e_s its embedding; Q_1's column s is the indicator of s's steps over sqrt(c_s)."""
        counts = np.bincount(self._walk(1, n, rng)[0], minlength=self.n_states)
        visited = np.flatnonzero(counts)
        return np.sqrt(counts[visited])[:, None] * self._embedding[visited]


def stationary_distribution(p: np.ndarray) -> np.ndarray:
    """Unique stationary distribution of a row-stochastic matrix.

    This is the one check of a transition matrix: every chain, a ``MarkovLaw``
    or the argument of ``mixing.phi_markov``, goes through it.

    Raises
    ------
    InvalidMatrix
        If P is non-finite, not square, has a negative entry, or has a row
        that does not sum to 1 within 1e-12.
    NotErgodic
        If the eigenvalue-1 eigenspace of P^T has dimension != 1 (no unique
        stationary distribution). Periodic but irreducible chains are fine.
    """
    p = np.asarray(p, dtype=float)
    _require_finite(p, "transition matrix")
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise InvalidMatrix("transition matrix must be square")
    if np.any(p < -1e-15):
        raise InvalidMatrix("transition matrix must be nonnegative")
    if np.abs(p.sum(axis=1) - 1.0).max() > 1e-12:
        raise InvalidMatrix("transition rows must sum to 1 within 1e-12")
    w, v = np.linalg.eig(p.T)
    idx = np.where(np.abs(w - 1.0) < 1e-9)[0]
    if len(idx) != 1:
        raise NotErgodic(f"{len(idx)} unit eigenvalues; stationary distribution not unique")
    pi = np.real(v[:, idx[0]])
    pi = np.abs(pi)
    return pi / pi.sum()


# ---------------------------------------------------------------------------
# Task populations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaskSpec:
    """One task's covariate law and true head.

    Laws are immutable values, so tasks of one population may hold the same law
    object; ``cli.build_population`` builds each distinct law once.
    """

    law: CovariateLaw
    head: LinearHead


@dataclass(frozen=True)
class PopulationSpec:
    """Full generative description of T+1 tasks; index 0 is the target task.

    Labels follow the realizable model y = F_star^{(t)} g_star(x) + w with
    w ~ N(0, noise_sigma^2 I). Tasks may share one immutable law object; every
    consumer reads a task's law as a value, never by its identity.
    """

    dims: Dims
    tasks: tuple[TaskSpec, ...]
    rep_star: LinearRep
    noise_sigma: float = 0.0

    def __post_init__(self):
        if len(self.tasks) < 1:
            raise ValueError("need at least the target task")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.rep_star.out_dim != self.dims.r or self.rep_star.in_dim != self.dims.d_x:
            raise ValueError("rep_star shape does not match dims")
        for t, task in enumerate(self.tasks):
            if task.law.d_x != self.dims.d_x:
                raise ValueError(f"task {t}: law dimension != d_x")
            if task.head.f.shape != (self.dims.d_y, self.dims.r):
                raise ValueError(f"task {t}: head shape != (d_y, r)")
        object.__setattr__(self, "tasks", tuple(self.tasks))

    @property
    def num_sources(self) -> int:
        return len(self.tasks) - 1

    @property
    def target(self) -> TaskSpec:
        return self.tasks[0]

    @property
    def sources(self) -> tuple[TaskSpec, ...]:
        return self.tasks[1:]
