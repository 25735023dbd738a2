"""Lower-tail machinery: small-ball quantities, the Paley-Zygmund bound, and
empirical checks of the exponential lower-isometry tail (iid and blocked).

Hypothesis classes enter as finite grids of callables; infima over a grid are
reported with the grid size so they are understood as grid infima.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMoments, PreconditionViolated
from .mixing import MixingProfile, dependency_matrix_bound


def _draw(source, n: int, rng: np.random.Generator, path: bool = False) -> np.ndarray:
    """Sample from a covariate law or a plain ``f(n, rng)`` callable."""
    if hasattr(source, "sample_path") and path:
        return np.atleast_2d(source.sample_path(n, rng))
    if hasattr(source, "sample_marginal"):
        return np.atleast_2d(source.sample_marginal(n, rng))
    return np.atleast_2d(source(n, rng))


@dataclass(frozen=True)
class SmallBallEstimate:
    q_value: float
    threshold: float
    grid_size: int
    mc_samples: int
    argmin_hypothesis: int


def smallball_q(source, hypothesis_grid, u: float, mc_samples: int = 100_000,
                seed: int = 0) -> SmallBallEstimate:
    """Monte Carlo small-ball quantity: inf over the grid of P(h^2(Z) >= u^2).

    ``source`` is a covariate law or an ``f(n, rng)`` sampler; grid members
    map an (n, d) sample array to n scalar hypothesis values.
    """
    hypothesis_grid = list(hypothesis_grid)
    if not hypothesis_grid:
        raise ValueError("hypothesis grid is empty")
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be >= 1, got {mc_samples}")
    rng = np.random.default_rng(seed)
    z = _draw(source, mc_samples, rng)
    q_best, idx_best = 1.0, 0
    for idx, h in enumerate(hypothesis_grid):
        vals = np.asarray(h(z), dtype=float)
        q = float(np.mean(vals * vals >= u * u))
        if q < q_best:
            q_best, idx_best = q, idx
    return SmallBallEstimate(q_value=q_best, threshold=u, grid_size=len(hypothesis_grid),
                             mc_samples=mc_samples, argmin_hypothesis=idx_best)


def paley_zygmund_lower(second_moment: float, fourth_moment: float, theta: float) -> float:
    """Lower bound on P(h^2 > theta * E h^2): (1 - theta)^2 (E h^2)^2 / E h^4.

    Raises
    ------
    InvalidMoments
        If theta is outside [0, 1], a moment is negative, or the fourth
        moment is below the squared second moment (Cauchy-Schwarz).
    """
    if not (0.0 <= theta <= 1.0):
        raise InvalidMoments("theta must lie in [0, 1]")
    if second_moment < 0 or fourth_moment < 0:
        raise InvalidMoments("moments must be nonnegative")
    if fourth_moment < second_moment ** 2 * (1 - 1e-12):
        raise InvalidMoments("fourth moment below squared second moment")
    if fourth_moment == 0.0:
        return 0.0
    return (1.0 - theta) ** 2 * second_moment ** 2 / fourth_moment


# Batches of the calibration sample behind the standard error of its moment ratio.
_CALIBRATION_BATCHES = 20


@dataclass(frozen=True)
class BlockedMode:
    """Blocked tail check: trajectory sampling with this profile and block length."""

    profile: MixingProfile
    k: int


@dataclass(frozen=True)
class TailCheckResult:
    empirical_freq: float
    bound: float
    mean_psi: float
    dep_norm: float
    replicates: int

    @property
    def stderr(self) -> float:
        return math.sqrt(max(self.bound * (1.0 - self.bound), 0.0) / self.replicates)

    @property
    def passed(self) -> bool:
        """Verdict: the bad-event frequency stays below the bound plus three standard errors."""
        return self.empirical_freq <= self.bound + 3.0 * self.stderr


def lower_isometry_tail_check(source, psi, c: float, m: int, replicates: int = 5000,
                              seed: int = 0, blocked: BlockedMode | None = None,
                              calibration_samples: int = 200_000) -> TailCheckResult:
    """Empirical frequency of the lower-isometry bad event against its tail bound.

    The bad event is (1/m) sum psi(x_i) <= E[psi] / 2; its probability is
    bounded by exp(-m / (8 C)), or exp(-m / (8 C ||G_dep||^2)) in blocked
    mode with the dependency-matrix norm of the supplied profile. The
    hypercontractivity precondition E[psi^2] <= C (E[psi])^2 is verified on a
    large calibration sample first. ``psi`` maps an (n, d) sample to its n
    row values, row by row, and is applied once to all replicates' rows.

    Sampler contract. In iid mode (``blocked`` is None) the source is read as
    a marginal sampler: the rows of all replicates come from one draw of
    ``replicates * m`` rows, from a law's ``sample_marginal`` or from one call
    ``f(replicates * m, rng)`` of a plain sampler. The bound holds only for iid
    rows, so a sampler whose rows are dependent within a call is no iid-mode
    source. In blocked mode a law draws all replicates' paths at once with
    ``sample_paths``, and a plain ``f(m, rng)`` sampler is called once per
    replicate, each call one dependent path of length m.

    The result's ``passed`` says whether the frequency stays below the bound
    plus three binomial standard errors; a failed verdict is returned, not
    raised.

    Raises
    ------
    ValueError
        If m or replicates is below 1, or the calibration sample is smaller
        than its batch count.
    PreconditionViolated
        If psi is negative, or the calibration sample rejects (or yields no
        finite value for) E[psi^2] <= C (E[psi])^2.
    """
    for name, count in (("m", m), ("replicates", replicates)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    if calibration_samples < _CALIBRATION_BATCHES:
        raise ValueError(f"calibration_samples must be >= {_CALIBRATION_BATCHES} "
                         f"(one per batch), got {calibration_samples}")
    rng = np.random.default_rng(seed)
    calib = _draw(source, calibration_samples, rng, path=blocked is not None)
    vals = np.asarray(psi(calib), dtype=float)
    if np.any(vals < 0):
        raise PreconditionViolated("psi must be nonnegative")
    mean_psi = float(np.mean(vals))
    mean_psi_sq = float(np.mean(vals ** 2))
    # batch the calibration sample to get an honest stderr for the ratio check
    batches = np.array_split(vals, _CALIBRATION_BATCHES)
    ratios = [np.mean(b ** 2) / max(np.mean(b) ** 2, 1e-300) for b in batches]
    ratio = mean_psi_sq / max(mean_psi ** 2, 1e-300)
    slack = 3.0 * float(np.std(ratios, ddof=1)) / math.sqrt(len(batches))
    # written so that a NaN ratio or slack rejects the precondition
    if not ratio <= c + slack:
        raise PreconditionViolated(
            f"E[psi^2] / (E psi)^2 = {ratio:g} exceeds C = {c:g} (+{slack:g} MC slack)")

    dep_norm = 1.0
    if blocked is not None:
        dep_norm = dependency_matrix_bound(blocked.profile, m).spectral_norm
    bound = math.exp(-m / (8.0 * c * dep_norm ** 2))

    if blocked is None:
        rows = _draw(source, replicates * m, rng)
    elif hasattr(source, "sample_paths"):
        rows = source.sample_paths(replicates, m, rng).reshape(replicates * m, -1)
    else:
        rows = np.concatenate([_draw(source, m, rng) for _ in range(replicates)])
    means = np.asarray(psi(rows), dtype=float).reshape(replicates, -1).mean(axis=1)
    hits = int(np.count_nonzero(means <= 0.5 * mean_psi))
    return TailCheckResult(empirical_freq=hits / replicates, bound=bound,
                           mean_psi=mean_psi, dep_norm=dep_norm, replicates=replicates)
