"""Shared domain types and matrix primitives.

Every other module consumes the types defined here: problem dimensions,
per-task samples, linear heads, linear representations, covariate laws,
and the full generative description of a task population. All types are
immutable after construction (arrays are marked read-only), and all
operations are pure functions of their inputs.
"""
from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, NeedsRawRows, NotPSD, NotErgodic, UnstableSystem

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

    Every law exposes an exact second-moment matrix, seeded marginal
    sampling, seeded path sampling and a seeded factor of a path's Gram
    (``gram_factor``). For an iid law a path is an iid draw; trajectory laws
    override ``sample_paths`` and start each path stationary, so keep every step.
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


@dataclass(frozen=True)
class GaussianLaw(CovariateLaw):
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

    def second_moment_factor(self) -> np.ndarray:
        return self._root

    def sample_marginal(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal((n, self.d_x)) @ self._root.T

    def gram_factor(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """From n = d_x on, R = U L^T with Sigma = L L^T and U the Bartlett factor: rows
        X = E L^T with E = Q_1 U standard normal, and U has the law of E's R factor."""
        if n < self.d_x:
            return super().gram_factor(n, rng)
        return bartlett(self.d_x, n, rng) @ self._root.T


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
class LdsLaw(CovariateLaw):
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
        object.__setattr__(self, "_sigma_root", _readonly(sqrt_psd(sigma)))
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

    def second_moment_factor(self) -> np.ndarray:
        return self._sigma_root

    def sample_marginal(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal((n, self.d_x)) @ self._sigma_root.T

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
        x = z[:, 0] @ self._sigma_root.T
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
        # The walk reproduces rng.choice(S, p=pi) for the first state (one
        # uniform against the normalized cumsum of pi), then per step
        # min(searchsorted(cumsum(P[s]), u, "right"), S - 1), which equals a
        # bisection over the first S - 1 cumulative entries of row s.
        initial_cdf = np.cumsum(pi)
        initial_cdf /= initial_cdf[-1]
        walk_table = tuple(tuple(row[:-1]) for row in np.cumsum(p, axis=1).tolist())
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "_pi", _readonly(pi))
        object.__setattr__(self, "_embedding", _readonly(emb))
        object.__setattr__(self, "_initial_cdf", _readonly(initial_cdf))
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

    def sample_marginal(self, n: int, rng: np.random.Generator) -> np.ndarray:
        states = rng.choice(self.n_states, size=n, p=self._pi)
        return self._embedding[states]

    def _walk(self, batch: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """(batch, n) states of stationary walks. One (batch, 1 + n) uniform draw:
        per path, column 0 picks the start state from pi and each later column
        one transition."""
        u = rng.random((batch, 1 + n))
        first = np.searchsorted(self._initial_cdf, u[:, 0], side="right").tolist()
        table = self._walk_table
        states = []
        for s, row in zip(first, u[:, 1:].tolist()):
            walk = []
            for v in row:
                s = bisect_right(table[s], v)
                walk.append(s)
            states.append(walk)
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
