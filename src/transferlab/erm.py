"""Two-stage empirical risk minimization solvers.

Stage one fits task heads and a shared linear representation jointly on the
source tasks by alternating least squares. Stage two regresses the target
labels on the frozen fitted representation. Also provides the
offset-complexity statistic of the fitted noise process.

A task is a ``TaskDataset``: its n raw rows, or a factor of their Gram matrix
in fewer rows. Every fit reads only the Grams, so both give the same heads
and residuals; only the offset statistic, whose noise is given per row, needs
the raw rows. The first stage forms each task's Grams from that task's own
rows, so tasks may differ in their row counts at no cost.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import LinearHead, LinearRep, pinv
from .errors import DegenerateData

logger = logging.getLogger(__name__)

# Multiplier on the projected-noise norm in the supremum of
# 4<W, Z F^T> - ||Z F^T||_F^2 over heads F. It is exact, by completing the
# square (Liang, Rakhlin, Sridharan 2015, offset Rademacher complexity):
# M = Z F^T ranges over the matrices with columns in range(Z), where
# <W, M> = <P_Z W, M>, so 4<P_Z W, M> - ||M||^2 = 4||P_Z W||^2 - ||M - 2 P_Z W||^2
# peaks at M = 2 P_Z W with value 4||P_Z W||_F^2.
OFFSET_SUP_CONSTANT = 4.0


@dataclass(frozen=True)
class FitOptions:
    """Options of the alternating-least-squares first-stage fit.

    ``restarts`` caps the number of ALS runs: the first starts from the
    deterministic spectral estimate (``_spectral_start``), and each further
    run starts from a random orthonormal G only while no run so far has
    converged. ``seed`` seeds those random starts and nothing else, so with
    ``restarts = 1`` the fit does not depend on it.
    """

    max_iters: int = 500
    tol: float = 1e-10
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if min(self.max_iters, self.restarts) < 1 or not self.tol >= 0.0:
            raise ValueError(f"FitOptions needs max_iters >= 1, restarts >= 1 and tol >= 0, "
                             f"got {self}")


@dataclass(frozen=True)
class FirstStageFit:
    heads: tuple[LinearHead, ...]
    rep: LinearRep
    per_task_residual: tuple[float, ...]
    iterations: int
    converged: bool
    objective: float
    objective_history: tuple[float, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class SecondStageFit:
    head: LinearHead
    residual: float


def ls_head(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-Frobenius-norm least-squares head F = Y^T Z (Z^T Z)^+, a (d_y, r) array.

    Minimizes sum_i ||y_i - F z_i||^2; rank deficiency is handled by the
    pseudo-inverse, so unexcited feature directions get exactly zero weight.
    Stacks Z (..., k, r) and Y (..., k, d_y) give a (..., d_y, r) stack of
    heads, each with its own pseudo-inverse cutoff (``pinv``).
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return np.swapaxes(y, -1, -2) @ z @ pinv(np.swapaxes(z, -1, -2) @ z)


def fit_second_stage(target, rep: LinearRep) -> SecondStageFit:
    """Least-squares head on the frozen representation's features and its mean
    squared residual (1 / N) sum_i ||y_i - F z_i||^2; the target's head comes
    from here, and the first stage refits the source heads through the same
    ``ls_head``.

    ``target`` is a ``TaskDataset``, raw rows or a Gram factor; both give the
    same head and residual sum (see ``TaskDataset``).
    """
    z = rep.features(target.covariates)
    f = ls_head(z, target.labels)
    resid = target.labels - z @ f.T
    return SecondStageFit(head=LinearHead(f=f),
                          residual=float(np.sum(resid * resid)) / target.n)


def _random_row_orthonormal(r: int, d_x: int, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d_x, r)))
    return q.T


def _spectral_start(xtx: np.ndarray, xty: np.ndarray, r: int) -> np.ndarray:
    """Method-of-moments estimate of the representation: r orthonormal rows.

    With the pooled Gram S = sum_t S_t, S_t = X_t^T X_t (``xtx``, (T, d_x,
    d_x)), and the stacked cross moments B = [B_1 ... B_T], B_t = X_t^T Y_t
    (``xty``, (T, d_x, d_y)), W = S^+ B is d_x x T d_y, and the rows returned
    are the top-r eigenvectors of M = W W^T (Tripuraneni, Jin and Jordan 2021;
    Thekumparampil et al. 2021).

    Why it spans row(G*) in the noiseless case with equal task Grams
    S_t = S_0, S_0 invertible: then Y_t = X_t G*^T F_t^T, so
    B_t = S_0 G*^T F_t^T and S = T S_0, hence
    S^{-1} B = (1/T) G*^T [F_1^T ... F_T^T]. Every column lies in
    col(G*^T) = row(G*), and when the stacked heads [F_1^T ... F_T^T] have
    rank r (the tasks are diverse) the columns span it. M = W W^T then has
    rank r with range row(G*), so its r eigenvectors of nonzero eigenvalue
    span row(G*) exactly. With noise, or unequal Grams, the start is only an
    estimate; ALS takes it from there.

    W is the minimum-norm solution of S W = B by the G-step's own solver
    (``_min_norm_lstsq``), which for a symmetric PSD S is S^+ B with the
    cutoff n eps. ``pinv``'s cutoff is ``RANK_TOL`` = 1e-10, so the two agree
    unless an eigenvalue of S lies between n eps and 1e-10 times the largest,
    e.g. when cond(S) is between 1e10 and 1 / (n eps): ``pinv`` then drops a
    direction that the solve keeps.

    M is d_x x d_x, so ``eigh`` returns r orthonormal rows even when M has
    rank below r: when T d_y < r, or S is singular (fewer samples than d_x).
    The rows are then completed from M's null space, which ``eigh`` fixes
    deterministically. No random numbers are drawn.
    """
    w = _min_norm_lstsq(xtx.sum(axis=0), np.concatenate(list(xty), axis=1))
    _, vecs = np.linalg.eigh(w @ w.T)
    return vecs[:, :-r - 1:-1].T


def _heads_from_stats(gram: np.ndarray, gxty: np.ndarray) -> np.ndarray:
    """Stacked least-squares heads F_t = (G X_t^T Y_t)^T (G X_t^T X_t G^T)^+.

    ``gram`` is the (T, r, r) stack of feature Grams Z_t^T Z_t and ``gxty`` the
    (T, r, d_y) stack of Z_t^T Y_t, with Z_t = X_t G^T; this is ``ls_head`` for
    every task at once, with the same per-matrix pseudo-inverse cutoff.
    """
    return np.swapaxes(gxty, 1, 2) @ pinv(gram)


def _normal_matrix(xtx: np.ndarray, ftf: np.ndarray) -> np.ndarray:
    """sum_t kron(F_t^T F_t, X_t^T X_t), assembled with one GEMM.

    Row (k, l) of the (r^2, d_x^2) product below is the d_x x d_x matrix
    sum_t (F_t^T F_t)[k, l] X_t^T X_t, which ``kron`` places as the block at
    rows k d_x .. (k + 1) d_x and columns l d_x .. (l + 1) d_x; the transpose
    copies these r^2 contiguous blocks into place.
    """
    t, d_x, _ = xtx.shape
    r = ftf.shape[1]
    m = ftf.reshape(t, r * r).T @ xtx.reshape(t, d_x * d_x)
    return m.reshape(r, r, d_x, d_x).transpose(0, 2, 1, 3).reshape(r * d_x, r * d_x)


def _min_norm_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of a x = b for a symmetric PSD ``a``.

    Both paths share one cutoff, cond = n * eps:

    * Cholesky (LAPACK dpotrf, dpocon, dpotrs) when the factor exists and its
      reciprocal 1-norm condition estimate, with ||a||_1 taken before
      factoring, is >= cond. Then ``a`` is positive definite, a x = b has
      exactly one solution, and that solution is also the minimum-norm one.
      dpocon and dpotrs read only the upper triangle of the factor, so
      dpotrf leaves the lower one as ``a`` had it (``clean=0``) instead of
      zeroing it.
    * Otherwise pivoted QR (LAPACK gelsy), which treats columns whose
      condition estimate exceeds 1 / cond as dependent and so returns the
      minimum-norm solution of a singular system, as the SVD-based driver
      would. A non-finite ``a`` always lands here, and gelsy's finiteness
      check raises ValueError: OpenBLAS's dpotrf need not flag a NaN, but a
      NaN makes ||a||_1, and with it the condition estimate, NaN, which fails
      the comparison.
    """
    import scipy.linalg  # deferred: slow to import, and only the first-stage fit solves here

    n = a.shape[0]
    cond = np.finfo(float).eps * n
    anorm = np.linalg.norm(a, 1)
    factor, info = scipy.linalg.lapack.dpotrf(a, clean=0)
    rcond = scipy.linalg.lapack.dpocon(factor, anorm)[0] if info == 0 else np.nan
    if rcond >= cond:
        return scipy.linalg.lapack.dpotrs(factor, b)[0]
    logger.debug("normal matrix of size n = %d is singular to working precision (Cholesky "
                 "info %d, rcond estimate %.3g, cutoff %.3g); minimum-norm solve by "
                 "pivoted QR", n, info, rcond, cond)
    return scipy.linalg.lstsq(a, b, cond=cond, lapack_driver="gelsy")[0]


class _AlsRun(NamedTuple):
    g: np.ndarray
    objective: float
    iterations: int
    converged: bool
    history: tuple[float, ...]


def _als_single(xtx, xty, yy, n_total, r, opts, g, start) -> _AlsRun:
    """One alternating-LS run from the (r, d_x) orthonormal rows ``g``, named
    ``start`` in the warning it logs if it stops at ``opts.max_iters``.

    Every step reads only the per-task statistics S_t = X_t^T X_t (``xtx``,
    (T, d_x, d_x)) and B_t = X_t^T Y_t (``xty``, (T, d_x, d_y)), the total
    sum_t ||Y_t||_F^2 (``yy``) and sample count (``n_total``), so no iteration
    costs anything that grows with N. With features
    Z_t = X_t G^T:

    * Heads given G: F_t = Y_t^T Z_t (Z_t^T Z_t)^+ = (G B_t)^T (G S_t G^T)^+.
    * Objective: expanding the square and cycling traces,
      ||Y - X G^T F^T||_F^2 = tr Y^T Y - 2 tr(F G X^T Y) + tr(F G X^T X G^T F^T),
      summed over tasks and divided by sum_t N_t.
    * G given heads: setting the G-gradient to zero gives
      sum_t (F_t^T F_t) G S_t = sum_t F_t^T B_t^T. Row-stacked,
      vec_r(A G C) = (A kron C^T) vec_r(G) and S_t is symmetric, so
      [sum_t (F_t^T F_t) kron S_t] vec_r(G) = vec_r(sum_t F_t^T B_t^T).
      Row-stacking only permutes the unknowns and the equations of the
      column-stacked system, so both have the same minimum-norm G.
      This (d_x r) x (d_x r) system is symmetric PSD, and ``_min_norm_lstsq``
      returns its minimum-norm vec_r(G): by Cholesky when the normal matrix is
      positive definite to within the cutoff n * eps, the usual case, and by
      pivoted QR when it is singular: e.g. with T = 1 and d_y < r, with fewer
      than d_x samples in all, or with a Markov law that visits fewer than
      d_x states.

    The statistics carry a relative round-off of about eps, and the objective
    subtracts terms of size ||Y||^2, so it is only resolved down to a floor of
    about eps * ||Y||_F^2 / N and may read slightly negative there. A noiseless
    fit that reaches the floor stalls there and is stopped by the
    relative-decrease test; the ``obj <= 1e-28`` exit fires only if round-off
    lands below it.
    """
    t, d_x, _ = xtx.shape
    rows = xtx.reshape(t * d_x, d_x)  # S_1 .. S_T stacked

    def project(g):
        sg = (rows @ g.T).reshape(t, d_x, -1)  # S_t G^T
        return g @ sg, g @ xty

    def objective(f, gram, gxty):
        cross = float(np.sum(np.swapaxes(f, 1, 2) * gxty))
        quad = float(np.sum((f @ gram) * f))
        return (yy - 2.0 * cross + quad) / n_total

    gram, gxty = project(g)
    history = []
    converged = False
    iterations = 0
    for it in range(opts.max_iters):
        iterations = it + 1
        f = _heads_from_stats(gram, gxty)
        lhs = _normal_matrix(xtx, np.swapaxes(f, 1, 2) @ f)
        rhs = np.tensordot(f, xty, axes=([0, 1], [0, 2]))  # sum_t F_t^T B_t^T, r x d_x
        g = _min_norm_lstsq(lhs, rhs.reshape(-1)).reshape(r, d_x)
        # re-orthonormalize G to its polar factor U V^T, the orthonormal rows
        # nearest G, and give the heads the symmetric factor U S U^T, so
        # predictions are unchanged and a G that is already orthonormal keeps
        # its basis
        u, s, vt = np.linalg.svd(g, full_matrices=False)
        g = u @ vt
        f = f @ ((u * s) @ u.T)
        gram, gxty = project(g)
        obj = objective(f, gram, gxty)
        history.append(obj)
        if len(history) >= 2:
            prev = history[-2]
            if prev - obj <= opts.tol * max(prev, 1e-300):
                converged = True
                break
        if obj <= 1e-28:
            converged = True
            break
    if not converged:
        logger.warning("ALS from the %s stopped at max_iters=%d without converging "
                       "(objective %.6g)", start, opts.max_iters,
                       history[-1] if history else np.nan)
    # exact head refit on the orthonormalized representation
    f = _heads_from_stats(gram, gxty)
    return _AlsRun(g=g, objective=objective(f, gram, gxty),
                   iterations=iterations, converged=converged, history=tuple(history))


def fit_first_stage_linear(datasets, r: int, opts: FitOptions = FitOptions()) -> FirstStageFit:
    """Joint fit of per-task heads and a shared linear representation.

    Alternating minimization with closed-form blocks, run on the per-task
    sufficient statistics (see ``_als_single``); after every round the
    representation is replaced by its polar factor, the nearest orthonormal
    rows, and the heads absorb the rest, so the returned rep satisfies
    G G^T = I_r. The first run
    starts from the spectral estimate (``_spectral_start``); while no run has
    converged, further runs start from random orthonormal rows drawn from
    ``opts.seed``, up to ``opts.restarts`` runs in all, and the run of lowest
    objective is kept. Each task's statistics X_t^T X_t, X_t^T Y_t and
    ||Y_t||_F^2 come from one product on its own k_t rows. One stacked
    ``ls_head`` call on the features Z_t = X_t G^T, zero-padded with the labels
    to the most rows (a zero row adds nothing to a Gram or to a residual sum),
    refits every task's head and reports its residual exactly, as
    ``fit_second_stage`` would; ``objective`` is the residuals' n-weighted
    mean, the pooled mean squared error over all samples. A task may be raw
    rows or a Gram factor; both give the same fit.

    Raises
    ------
    ValueError
        If a task's d_x or d_y differs from the first task's, or unless
        1 <= r <= d_x.
    DegenerateData
        If every covariate entry is zero.
    """
    datasets = list(datasets)
    if not datasets:
        raise DegenerateData("no source tasks")
    d_x, d_y = datasets[0].covariates.shape[1], datasets[0].labels.shape[1]
    for i, ds in enumerate(datasets):
        if (ds.covariates.shape[1], ds.labels.shape[1]) != (d_x, d_y):
            raise ValueError(f"source task {i} (task_id {ds.task_id}) has d_x = "
                             f"{ds.covariates.shape[1]} and d_y = {ds.labels.shape[1]}, but "
                             f"source task 0 has d_x = {d_x} and d_y = {d_y}")
    if not 1 <= r <= d_x:
        raise ValueError(f"r must satisfy 1 <= r <= d_x = {d_x}, got r = {r}")
    if not any(ds.covariates.any() for ds in datasets):
        raise DegenerateData("all covariates are zero")
    xtx = np.empty((len(datasets), d_x, d_x))
    xty = np.empty((len(datasets), d_x, d_y))
    yy = 0.0
    for t, ds in enumerate(datasets):
        np.matmul(ds.covariates.T, ds.covariates, out=xtx[t])
        np.matmul(ds.covariates.T, ds.labels, out=xty[t])
        yy += float(np.vdot(ds.labels, ds.labels))
    n = np.array([ds.n for ds in datasets])
    n_total = int(n.sum())
    runs = [_als_single(xtx, xty, yy, n_total, r, opts, _spectral_start(xtx, xty, r),
                        "spectral start")]
    rng = np.random.default_rng(opts.seed)
    for k in range(1, opts.restarts):
        if runs[-1].converged:
            break
        runs.append(_als_single(xtx, xty, yy, n_total, r, opts,
                                _random_row_orthonormal(r, d_x, rng), f"random start {k}"))
    best = min(runs, key=lambda run: run.objective)
    rep = LinearRep(best.g)
    k = max(ds.covariates.shape[0] for ds in datasets)
    z = np.zeros((len(datasets), k, r))
    y = np.zeros((len(datasets), k, d_y))
    for zt, yt, ds in zip(z, y, datasets):
        np.matmul(ds.covariates, rep.g.T, out=zt[:ds.covariates.shape[0]])
        yt[:ds.labels.shape[0]] = ds.labels
    f = ls_head(z, y)
    resid = y - z @ np.swapaxes(f, 1, 2)
    residuals = np.sum(resid * resid, axis=(1, 2)) / n
    return FirstStageFit(
        heads=tuple(LinearHead(f=ft) for ft in f),
        rep=rep,
        per_task_residual=tuple(residuals.tolist()),
        iterations=best.iterations,
        converged=best.converged,
        objective=sum((residuals * n).tolist()) / n_total,
        objective_history=best.history,
    )


def offset_complexity_stat(datasets, rep: LinearRep, noise) -> float:
    """Martingale offset complexity of the fitted feature/noise pair.

    Evaluates (1 / sum_t N_t) * sum_t sup_F [4 <W_t, Z_t F^T> - ||Z_t F^T||_F^2]
    through the closed form c * ||P_Z W||_F^2 with c = OFFSET_SUP_CONSTANT.
    The projection P_Z W = Z (Z^T Z)^+ Z^T W is the fit Z F_W^T of the
    least-squares head F_W = ``ls_head(Z, W)``, so rank-deficient feature
    Grams go through the same pseudo-inverse as every head fit.

    Raises
    ------
    NeedsRawRows
        If a task is a Gram factor of fewer than n rows: the noise is given per row.
    """
    total = 0.0
    total_n = 0
    for ds, w in zip(datasets, noise):
        ds.require_rows()
        w = np.atleast_2d(np.asarray(w, dtype=float))
        if w.shape[0] != ds.n:
            raise ValueError("noise matrix rows must match the dataset")
        z = rep.features(ds.covariates)
        proj = z @ ls_head(z, w).T
        total += OFFSET_SUP_CONSTANT * float(np.sum(proj * proj))
        total_n += ds.n
    return total / total_n


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _matrix_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=float)
    return {"rows": m.shape[0], "cols": m.shape[1], "data": m.reshape(-1).tolist()}


def first_stage_to_json(fit: FirstStageFit) -> dict:
    """JSON-ready dict; matrices row-major with a dims header."""
    return {
        "heads": [_matrix_json(h.f) for h in fit.heads],
        "rep": {"kind": "linear", "g": _matrix_json(fit.rep.g)},
        "per_task_residual": list(fit.per_task_residual),
        "iterations": fit.iterations,
        "converged": fit.converged,
        "objective": fit.objective,
    }


def second_stage_to_json(fit: SecondStageFit) -> dict:
    return {"head": _matrix_json(fit.head.f), "residual": fit.residual}
