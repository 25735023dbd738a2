"""Population and empirical diagnostics for fitted transfer models.

Computes the target excess risk and task-averaged estimation error, the
coverage coefficients (covariate coverage via Schur complements, head
coverage via whitened Grams), the task-diversity ratio and its plug-in
estimator, the misspecified-regression noise quantities, and the
hypercontractivity ratio. It holds quantities only: ``cli`` assembles them
into sweep rows and ``diagnose``'s report. Representations are linear and every covariate law
exposes an exact second-moment factor, so the risks, the coverage coefficients
and the NRLS excess are exact quadratic forms in that factor. The tasks'
factors form one zero-padded stack (``_factor_stack``), and each population
quantity is one stacked computation over it, with no loop over tasks: the
feature moments and Schur complements (``_stacked_moments``), the risks
(``_risks``) and the infimal risks (``_infimal_risks``). The hypercontractivity
ratio reads fourth moments, which every in-repo law gives exactly through
``law.norm_moments`` (Isserlis' theorem for a Gaussian marginal, a finite sum
for a Markov one), so ``hypercontractivity_c42`` draws nothing.
``nrls_quantities`` reads norm moments up to order ``core.NRLS_MAX_ORDER``. It takes the
misspecified head from the exact moments, as ``nrls_excess`` does
(``_misspecified_head``). On a Gaussian marginal it draws nothing either: the
law gives the moments in closed form (``law.nrls_moments``). Only on a law
without one, a Markov chain, does it draw a seeded Monte Carlo sample, summed
in one pass over chunks so that its memory does not grow with the sample.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    RANK_TOL,
    CovariateLaw,
    LinearHead,
    LinearRep,
    PopulationSpec,
    inv_sqrt_psd,
    pinv,
    spectral_norm,
    sqrt_psd,
)
from .errors import NoClosedForm, RangeViolation

# A risk below this counts as zero (the round-off floor): a diversity ratio
# with such a denominator is undefined (None), and sweeps fit no slope through
# such medians.
NU_UNDEFINED_THRESHOLD = 1e-12

# Random unit directions, besides the coordinate ones, of the c_z supremum.
SPHERE_DIRECTIONS = 1000


@dataclass(frozen=True)
class StackedCovariance:
    """Joint feature second moments of (g, g_star) and the residual Schur complement.

    ``sigma`` stacks the blocks [[E g g^T, E g g_*^T], [E g_* g^T, E g_* g_*^T]];
    ``schur`` is E[g_* g_*^T] - E[g_* g^T] (E[g g^T])^+ E[g g_*^T], the feature
    covariance of g_* left unexplained by regressing on g. ``_stacked_moments``
    gives both with a leading task axis.
    """

    sigma: np.ndarray
    schur: np.ndarray


def _factor_stack(laws) -> np.ndarray:
    """The laws' second-moment factors L_t, zero-padded to the widest and stacked.

    Returns a (len(laws), d_x, m) array. A zero column leaves L L^T unchanged,
    so laws whose factors differ in width (a Markov law has one column per
    state) share one stack.
    """
    factors = [law.second_moment_factor() for law in laws]
    stack = np.zeros((len(factors), factors[0].shape[0], max(f.shape[1] for f in factors)))
    for out, f in zip(stack, factors):
        out[:, :f.shape[1]] = f
    return stack


def _stacked_moments(factors: np.ndarray, g: LinearRep, g_star: LinearRep) -> StackedCovariance:
    """``StackedCovariance`` of (g, g_star) under each factor of a (K, d_x, m) stack.

    phi(x) = [g(x); g_star(x)] = H x with H = [G; G_star], and E[x x^T] = L L^T,
    so E[phi phi^T] = (H L)(H L)^T. The returned ``sigma`` is (K, r + r_*, r + r_*)
    and ``schur`` (K, r_*, r_*), each computed matrix by matrix with its own
    pseudo-inverse cutoff.
    """
    hl = np.vstack([g.g, g_star.g]) @ factors
    sigma = hl @ np.swapaxes(hl, -1, -2)
    r1 = g.out_dim
    m11, m12 = sigma[:, :r1, :r1], sigma[:, :r1, r1:]
    schur = sigma[:, r1:, r1:] - np.swapaxes(m12, -1, -2) @ pinv(m11) @ m12
    return StackedCovariance(sigma=sigma, schur=0.5 * (schur + np.swapaxes(schur, -1, -2)))


def stacked_covariance(law: CovariateLaw, g: LinearRep, g_star: LinearRep) -> StackedCovariance:
    """Stacked feature covariance of (g, g_star) under one task's covariate law:
    ``_stacked_moments`` on a stack of one."""
    one = _stacked_moments(_factor_stack([law]), g, g_star)
    return StackedCovariance(sigma=one.sigma[0], schur=one.schur[0])


def _risks(laws, heads: np.ndarray, true_heads: np.ndarray, g: LinearRep,
           g_star: LinearRep) -> np.ndarray:
    """E^(t) ||F_t g(X) - F_star^(t) g_star(X)||^2 for each task t, as an array.

    ``heads`` and ``true_heads`` are (K, d_y, r) stacks, one matrix per law. With
    F g - F_star g_star = c x, c = F G - F_star G_star, and E[x x^T] = L L^T,
        E ||F g(X) - F_star g_star(X)||^2 = tr(c L L^T c^T) = ||c L||_F^2,
    which is >= 0 in floating point too.
    """
    cl = (heads @ g.g - true_heads @ g_star.g) @ _factor_stack(laws)
    return np.sum(cl * cl, axis=(-2, -1))


def _infimal_risks(laws, true_heads: np.ndarray, g: LinearRep,
                   g_star: LinearRep) -> np.ndarray:
    """inf_F E^(t) ||F g(X) - F_star^(t) g_star(X)||^2 = tr(F_star Schur_t F_star^T)
    for each task t, as an array; ``true_heads`` is a (K, d_y, r_*) stack."""
    schur = _stacked_moments(_factor_stack(laws), g, g_star).schur
    return np.trace(true_heads @ schur @ np.swapaxes(true_heads, -1, -2), axis1=-2, axis2=-1)


def _whitened_cover(target: np.ndarray, sources: np.ndarray, floor) -> float:
    """max_t ||S_t^{+/2} S_0 S_t^{+/2}||_2 over a (K, d, d) stack of PSD S_t: the
    least c with S_0 <= c S_t for all t. One ``eigh`` per S_t gives its
    pseudo-inverse root and the projector P_t onto its range. One cutoff
    c_t = RANK_TOL * max(lambda_max(S_t), floor_t) says what counts as zero:
    S_t's eigenvalues, ||S_0||_2 (term t is then 0) and ||S_0 - P_t S_0||_2 at
    or below it. ``RangeViolation`` if ||S_0 - P_t S_0||_2 exceeds both c_t
    and 1e-8 ||S_0||_2 for some t."""
    w, v = np.linalg.eigh(0.5 * (sources + np.swapaxes(sources, -1, -2)))
    cutoff = RANK_TOL * np.maximum(w.max(axis=-1, initial=0.0), floor)
    keep = w > cutoff[:, None]
    v_t = np.swapaxes(v, -1, -2)
    outside = np.linalg.norm(target - (v * keep[:, None, :]) @ v_t @ target, 2, axis=(-2, -1))
    scale = spectral_norm(target)
    if np.any(outside > np.maximum(cutoff, 1e-8 * scale)):
        raise RangeViolation("the target matrix leaves the range of a source matrix")
    inv_root = np.where(keep, 1.0 / np.sqrt(np.clip(w, 1e-300, None)), 0.0)
    half = (v * inv_root[:, None, :]) @ v_t
    cover = np.linalg.norm(half @ target @ half, 2, axis=(-2, -1))
    return float(np.where(scale <= cutoff, 0.0, cover).max(initial=0.0))


def mu_x(spec: PopulationSpec, g: LinearRep) -> float:
    """Covariate-coverage coefficient of the target by the sources, for a given g.

    max over source tasks t of || (S_t)^{+/2} S_0 (S_t)^{+/2} ||_2 where S_t is
    the task-t Schur complement of (g, g_star) (``_whitened_cover``). S_t is a
    difference of moments of size tr E^(t)[g_* g_*^T], so its zero cutoff is
    c_t = RANK_TOL * max(lambda_max(S_t), tr E^(t)[g_* g_*^T]). A round-off S_t
    (g explains g_star on the source's support) has no range, an S_0 with
    ||S_0||_2 <= c_t (g explains g_star on the target law) counts 0 against
    source t, and so does mass of S_0 outside range(S_t) up to c_t. Raises
    ``RangeViolation`` if S_0 leaves some S_t's range by more: that source
    covers the target with no finite coefficient.
    """
    moments = _stacked_moments(_factor_stack(task.law for task in spec.tasks), g,
                               spec.rep_star)
    r = g.out_dim
    return _whitened_cover(moments.schur[0], moments.schur[1:],
                           np.trace(moments.sigma[1:, r:, r:], axis1=-2, axis2=-1))


def mu_f(heads) -> float:
    """Head-coverage coefficient: target head Gram whitened by the source average.

    heads[0] is the target; ``_whitened_cover`` of F0^T F0 by the averaged
    source Gram, which requires range(F0^T F0) within its range.

    Raises
    ------
    RangeViolation
        If the target Gram has mass outside the source Gram range.
    """
    heads = list(heads)
    if len(heads) < 2:
        raise ValueError("need a target head and at least one source head")
    f = np.stack([head.f for head in heads])
    grams = np.swapaxes(f, 1, 2) @ f
    # cumsum sums in task order, so the mean rounds as a per-task loop's does
    gram_src = np.cumsum(grams[1:], axis=0)[-1:] / (len(heads) - 1)
    return _whitened_cover(grams[0], gram_src, 0.0)


def excess_risk_population(spec: PopulationSpec, head: LinearHead, g: LinearRep) -> float:
    """Target-population squared-loss gap E^(0) ||F g(X) - F_star^(0) g_star(X)||^2.

    Under the realizable label model the noise cancels, so this equals the
    excess risk of (F, g) over the optimal predictor.
    """
    return float(_risks([spec.target.law], head.f[None], spec.target.head.f[None], g,
                        spec.rep_star)[0])


def estimation_error_avg(spec: PopulationSpec, heads, g: LinearRep) -> float:
    """Source-task average of E^(t) ||F^(t) g(X) - F_star^(t) g_star(X)||^2."""
    heads = list(heads)
    if len(heads) != spec.num_sources:
        raise ValueError("need one fitted head per source task")
    risks = _risks([task.law for task in spec.sources], np.stack([head.f for head in heads]),
                   np.stack([task.head.f for task in spec.sources]), g, spec.rep_star)
    return sum(risks.tolist()) / len(heads)


def infimal_risk(law: CovariateLaw, f_star: np.ndarray, g: LinearRep,
                 g_star: LinearRep) -> float:
    """inf_F E ||F g(X) - F_star g_star(X)||^2 = tr(F_star Schur(g) F_star^T)."""
    return float(_infimal_risks([law], np.asarray(f_star, dtype=float)[None], g, g_star)[0])


def nu_true(spec: PopulationSpec, g: LinearRep) -> float | None:
    """Task-diversity ratio induced by g: source-averaged infimal error over target's.

    Returns None (undefined) when the target infimal excess risk is below
    NU_UNDEFINED_THRESHOLD, i.e. g is already target-optimal.
    """
    infimal = _infimal_risks([task.law for task in spec.tasks],
                             np.stack([task.head.f for task in spec.tasks]), g, spec.rep_star)
    if infimal[0] < NU_UNDEFINED_THRESHOLD:
        return None
    return sum(infimal[1:].tolist()) / spec.num_sources / float(infimal[0])


def nu_hat(target_residual: float, source_residuals) -> float | None:
    """Plug-in estimator of nu(g): mean source residual over the target residual.

    Each residual is the mean squared residual of the least-squares head fitted
    through the frozen g (``erm.fit_second_stage``; the first stage reports the
    sources' as ``per_task_residual``) and estimates inf_F E||Y - F g(X)||^2.
    It reads only the Grams of [X Y], so raw rows and a Gram factor give the
    same value.
    With Z = g(X), F_hat = Y^T Z (Z^T Z)^+ and the orthogonal projection
    P = Z (Z^T Z)^+ Z^T, the fit is Z F_hat^T = P Y, so by Pythagoras
    (1/N) ||Y - P Y||_F^2 = mean ||Y||^2 - (1/N) ||P Y||_F^2
                          = mean ||Y||^2 - tr(F_hat Sigma_hat_Z F_hat^T),
    Sigma_hat_Z = Z^T Z / N: the energy of Y that the head does not capture.
    None when the target residual is below NU_UNDEFINED_THRESHOLD.
    """
    source_residuals = list(source_residuals)
    if not source_residuals:
        raise ValueError("need at least one source residual")
    if target_residual < NU_UNDEFINED_THRESHOLD:
        return None
    return sum(source_residuals) / len(source_residuals) / target_residual


# ---------------------------------------------------------------------------
# Non-realizable least-squares (NRLS) noise quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NrlsQuantities:
    """Noise quantities of the misspecified target regression of Y on g(X);
    ``exact`` is True when they are closed forms, False when Monte Carlo."""

    sigma_u_sq: float
    sigma_v_sq: float
    c_z: float
    h_v: float
    misspecified_head: np.ndarray
    exact: bool

    def as_dict(self) -> dict:
        return {
            "sigma_u_sq": self.sigma_u_sq,
            "sigma_v_sq": self.sigma_v_sq,
            "c_z": self.c_z,
            "h_v": self.h_v,
        }


def _misspecified_head(law: CovariateLaw, rep: LinearRep, true_head: LinearHead,
                       rep_star: LinearRep) -> tuple[np.ndarray, np.ndarray]:
    """(F_mis, Sigma_Z) from the exact joint feature moments: Sigma_Z = E[Z Z^T],
    Z = rep(X), and the population least-squares head F_mis = E[Y Z^T] Sigma_Z^+
    of Y on Z, where E[Y Z^T] = F_* E[g_* g^T] as the noise is independent of X."""
    sigma = stacked_covariance(law, rep, rep_star).sigma
    r = rep.out_dim
    sigma_z = sigma[:r, :r]
    return true_head.f @ sigma[:r, r:].T @ pinv(sigma_z), sigma_z


def nrls_quantities(target_law: CovariateLaw, rep: LinearRep,
                    true_head: LinearHead, rep_star: LinearRep,
                    noise_sigma: float, mc_samples: int = 200_000,
                    seed: int = 0) -> NrlsQuantities:
    """Noise quantities of the second-stage regression through ``rep``: exact for a
    law with a closed form (``law.nrls_moments``), else from a seeded Monte Carlo
    sample of ``mc_samples`` draws.

    With Z = rep(X) and Y generated by (true_head, rep_star) plus noise W, the
    exact population head F_mis (``_misspecified_head``) defines the biased noise
    U = Y - F_mis Z = Delta X + W, Delta = F_* G_* - F_mis G, the standardized
    features z = Sigma_Z^{+/2} Z and the interaction V = U z^T. Then
    sigma_u^2 = sqrt(E ||U||^4), sigma_v^2 = E ||V||_F^2, c_z^2 is the supremum
    of E (v^T z)^4 over unit v, and h_v = psi_1^2 / sigma_v^2 with
    psi_1 = max_{p <= NRLS_MAX_ORDER} (E ||V||_F^p)^{1/p} / p. h_v is 0 when
    sigma_v_sq is below NU_UNDEFINED_THRESHOLD, the round-off of a well-specified
    noiseless target. ``exact`` says which path ran.

    Exact path, a Gaussian marginal (``GaussianLaw``, a stationary ``LdsLaw``):
    U and z are jointly Gaussian, and the normal equations make them
    uncorrelated, E[U z^T] = (E[Y Z^T] - F_mis Sigma_Z) Sigma_Z^{+/2} = 0 (the
    rows of E[Y Z^T] lie in the range of Sigma_Z), so they are independent.
    With x = L e, U ~ N(0, C) for C = (Delta L)(Delta L)^T + sigma^2 I, formed
    from Delta L and never as a difference of moments, so a well-specified target's
    C is round-off of size |Delta L|^2, not of size |Sigma|; z ~ N(0, P) with
    P = Sigma_Z^{+/2} Sigma_Z Sigma_Z^{+/2} the projector onto range(Sigma_Z),
    of rank q. Hence

        sigma_u^2 = sqrt((tr C)^2 + 2 tr C^2),    sigma_v^2 = q tr C,
        c_z = sqrt(3) (0 if q = 0),               E ||V||_F^p = E ||U||^p E chi_q^p,

    since E (v^T z)^4 = 3 (v^T P v)^2 peaks at 3 on range(P). E ||U||^p is exact
    for even p (cumulants of the weighted chi-square sum ||U||^2) and a
    trapezoid integral for odd p, within 3e-14 relative at up to 64 label
    dimensions (``core.weighted_chi_moments``). No sample is drawn:
    ``mc_samples`` is still checked, but neither it nor ``seed`` is read.

    Monte Carlo path, any other law (a ``MarkovLaw``): the moments are sample
    means, and c_z^2 is the largest sample mean of (v^T z)^4 over
    SPHERE_DIRECTIONS random unit v and the coordinate axes. As
    (v^T z)^2 = (v (x) v)^T (z (x) z), it is (v (x) v)^T M4 (v (x) v) with
    M4 = mean (z (x) z)(z (x) z)^T. A sample maximum can exceed the population
    supremum: 100 000 Gaussian samples gave c_z near 1.739 > sqrt(3). One pass
    over chunks of at most ``core.MC_DRAW_BUDGET`` values draws x, adds W and
    sums ||u||^4, ||V||_F^2, M4 and ||V||_F^p. ``SeedSequence(seed)`` spawns
    one stream each for x, W and the directions, so chunking changes the
    quantities only by summation order.

    Raises
    ------
    ValueError
        If mc_samples is below 1.
    """
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be >= 1, got {mc_samples}")
    f_mis, sigma_z = _misspecified_head(target_law, rep, true_head, rep_star)
    u_map = true_head.f @ rep_star.g - f_mis @ rep.g
    # Sigma_Z^{+/2} G, formed as G^T Sigma_Z^{+/2}, the product the Monte Carlo chunks take
    z_map = (rep.g.T @ inv_sqrt_psd(sigma_z).T).T
    try:
        u_moments, v_moments, c_z = target_law.nrls_moments(u_map, z_map, noise_sigma)
    except NoClosedForm:
        sigma_u_sq, sigma_v_sq, c_z, v_moments = _nrls_monte_carlo(
            target_law, u_map, z_map, noise_sigma, mc_samples, seed)
        exact = False
    else:
        sigma_u_sq, sigma_v_sq, exact = math.sqrt(u_moments[3]), float(v_moments[1]), True
    if sigma_v_sq < NU_UNDEFINED_THRESHOLD:
        h_v = 0.0
    else:
        psi1 = max(v_moments[p - 1] ** (1.0 / p) / p
                   for p in range(1, core.NRLS_MAX_ORDER + 1))
        h_v = float(psi1 ** 2 / sigma_v_sq)
    return NrlsQuantities(sigma_u_sq=sigma_u_sq, sigma_v_sq=sigma_v_sq, c_z=c_z,
                          h_v=h_v, misspecified_head=f_mis, exact=exact)


def _nrls_monte_carlo(law: CovariateLaw, u_map: np.ndarray, z_map: np.ndarray,
                      noise_sigma: float, n: int,
                      seed: int) -> tuple[float, float, float, np.ndarray]:
    """(sigma_u^2, sigma_v^2, c_z, the mean ||V||_F^p for p = 1..NRLS_MAX_ORDER)
    from n draws of x, in ``nrls_quantities``'s Monte Carlo path."""
    d_y, r = u_map.shape[0], z_map.shape[0]
    proj = np.hstack([u_map.T, z_map.T])  # x -> [u without noise, z], one product per chunk
    x_rng, noise_rng, dir_rng = (np.random.default_rng(s)
                                 for s in np.random.SeedSequence(seed).spawn(3))
    step = max(1, core.MC_DRAW_BUDGET // max(law.d_x, r * r))

    sum_u4 = sum_v2 = 0.0
    m4 = np.zeros((r * r, r * r))
    v_moments = np.zeros(core.NRLS_MAX_ORDER)   # sums of ||V_i||_F^p, p = 1, 2, ...
    for start in range(0, n, step):
        xm = law.sample_marginal(min(step, n - start), x_rng) @ proj
        u, z_std = xm[:, :d_y], xm[:, d_y:]
        if noise_sigma > 0:
            u = u + noise_sigma * noise_rng.standard_normal(u.shape)
        u_norm2 = np.sum(u * u, axis=1)
        v_frob2 = u_norm2 * np.sum(z_std * z_std, axis=1)  # ||V_i||_F^2, V_i rank one
        sum_u4 += float(np.sum(u_norm2 ** 2))
        sum_v2 += float(np.sum(v_frob2))
        zz = (z_std[:, :, None] * z_std[:, None, :]).reshape(-1, r * r)
        m4 += zz.T @ zz
        v_frob = np.sqrt(v_frob2)
        for p in range(1, core.NRLS_MAX_ORDER + 1):
            v_moments[p - 1] += np.sum(v_frob ** p)
    m4 /= n

    dirs = dir_rng.standard_normal((SPHERE_DIRECTIONS, r))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([dirs, np.eye(r)])
    vv = (dirs[:, :, None] * dirs[:, None, :]).reshape(dirs.shape[0], r * r)
    fourth = np.sum((vv @ m4) * vv, axis=1)
    return (math.sqrt(sum_u4 / n), sum_v2 / n, float(np.sqrt(fourth.max(initial=0.0))),
            v_moments / n)


def nrls_excess(target_law: CovariateLaw, fitted_head: LinearHead, rep: LinearRep,
                true_head: LinearHead, rep_star: LinearRep) -> float:
    """Excess of the fitted target head over the best head given ``rep``:
    ||(F_hat - F_mis) sqrt(Sigma_Z)||_F^2, with F_mis and Sigma_Z from
    ``_misspecified_head``.
    """
    f_mis, sigma_z = _misspecified_head(target_law, rep, true_head, rep_star)
    d = (fitted_head.f - f_mis) @ sqrt_psd(sigma_z)
    return float(np.sum(d * d))


@dataclass(frozen=True)
class HypercontractivityResult:
    c42: float
    argmax_index: int


def hypercontractivity_c42(laws, hypothesis_grid, f_star: np.ndarray,
                           g_star: LinearRep) -> HypercontractivityResult:
    """(4->2) moment ratio E||h||^4 / (E||h||^2)^2 maximized over a grid of
    centered hypotheses, exact: it draws no sample.

    ``laws`` is the list of task laws forming a uniform mixture; each grid
    member is a pair (F, g) and the centered hypothesis is
    h(x) = F g(x) - F_star g_star(x) = c x with c = F G - F_star G_star. Each
    mixture moment is the mean of the laws' exact moments, ``law.norm_moments(c)``.
    Members with second moment below 1e-14 are skipped; ``argmax_index`` is the
    first member with the largest ratio, or -1 if every member is skipped.

    Raises
    ------
    ValueError
        If the grid is empty.
    NoClosedForm
        If a law has no exact fourth moment (``CovariateLaw.norm_moments``).
    """
    hypothesis_grid = list(hypothesis_grid)
    if not hypothesis_grid:
        raise ValueError("hypothesis grid is empty")
    laws = list(laws)
    c_star = np.asarray(f_star, dtype=float) @ g_star.g
    best, best_idx = 0.0, -1
    for idx, (f, g) in enumerate(hypothesis_grid):
        f = f.f if isinstance(f, LinearHead) else np.asarray(f, dtype=float)
        moments = [law.norm_moments(f @ g.g - c_star) for law in laws]
        m2 = sum(m[0] for m in moments) / len(laws)
        m4 = sum(m[1] for m in moments) / len(laws)
        if m2 < 1e-14:
            continue
        ratio = m4 / m2 ** 2
        if ratio > best:
            best, best_idx = ratio, idx
    return HypercontractivityResult(c42=best, argmax_index=best_idx)
