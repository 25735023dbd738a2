"""Empirical checks of the exponential lower-isometry tail, iid and blocked.

The bad event, after Ziemann and Tu 2022 ("Learning with little mixing"), is
that the mean of a nonnegative psi over m rows falls to half its expectation;
``lower_isometry_tail_check`` counts it against its exponential bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import PreconditionViolated
from .mixing import BlockedMode, dependency_matrix_bound


def _draw(source, n: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of a covariate law's stationary marginal, or of a plain ``f(n, rng)`` callable."""
    if hasattr(source, "sample_marginal"):
        return np.atleast_2d(source.sample_marginal(n, rng))
    return np.atleast_2d(source(n, rng))


# Batches of the calibration sample behind the standard error of its moment ratio.
_CALIBRATION_BATCHES = 20


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


def _calibration(source, psi, n: int, rng: np.random.Generator) -> tuple[float, float, float, int]:
    """(E psi, E[psi^2] / (E psi)^2, the ratio's slack, the row width) on n
    calibration rows, drawn as ``lower_isometry_tail_check`` states.

    Each chunk adds its psi and psi^2 values to the sums of the ``np.array_split``
    batches its rows fall in, so only per-batch sums are kept. The slack is
    three standard errors of the batches' ratios.
    """
    batches = _CALIBRATION_BATCHES
    sizes = np.full(batches, n // batches)
    sizes[:n % batches] += 1  # np.array_split's batch sizes
    starts = np.cumsum(sizes) - sizes
    sums = np.zeros((2, batches))
    width, done = getattr(source, "d_x", 1), 0
    while done < n:
        count = min(n - done, max(1, core.MC_DRAW_BUDGET // width))
        rows = _draw(source, count, rng)
        width = rows.shape[1]
        vals = np.asarray(psi(rows), dtype=float)
        if np.any(vals < 0):
            raise PreconditionViolated("psi must be nonnegative")
        batch = np.searchsorted(starts, np.arange(done, done + count), side="right") - 1
        sums[0] += np.bincount(batch, weights=vals, minlength=batches)
        sums[1] += np.bincount(batch, weights=vals ** 2, minlength=batches)
        done += count
    mean_psi, mean_psi_sq = sums.sum(axis=1) / n
    means, means_sq = sums / sizes
    ratios = means_sq / np.maximum(means ** 2, 1e-300)
    ratio = mean_psi_sq / max(mean_psi ** 2, 1e-300)
    slack = 3.0 * float(np.std(ratios, ddof=1)) / math.sqrt(batches)
    return float(mean_psi), float(ratio), slack, width


def lower_isometry_tail_check(source, psi, c: float, m: int, replicates: int = 5000,
                              seed: int = 0, blocked: BlockedMode | None = None,
                              calibration_samples: int = 200_000) -> TailCheckResult:
    """Empirical frequency of the lower-isometry bad event against its tail bound.

    The bad event is (1/m) sum psi(x_i) <= E[psi] / 2; its probability is
    bounded by exp(-m / (8 C)), or exp(-m / (8 C ||G_dep||^2)) in blocked
    mode with the dependency-matrix norm of the supplied profile. The
    hypercontractivity precondition E[psi^2] <= C (E[psi])^2 is verified on a
    large calibration sample first, split into 20 ``np.array_split`` batches
    for the standard error of the ratio. ``psi`` maps an (n, d) sample to its
    n row values, row by row, and is applied once per chunk of rows.

    Sampler contract. The precondition is a statement about the stationary
    marginal, so in both modes the calibration sample comes in consecutive
    chunks of as many rows as fit in ``core.MC_DRAW_BUDGET`` values (at least
    one): a law's chunks are ``sample_marginal`` draws, and a plain sampler gets
    one call ``f(k, rng)`` per chunk of k rows. A plain sampler's row width is
    unknown until it is called, so its first call asks for
    ``min(calibration_samples, core.MC_DRAW_BUDGET)`` rows.

    Then the replicates come in consecutive chunks of whole replicates, as
    many as fit in the budget (m rows of the calibration sample's width each;
    at least one), drawn in one of three ways:

    - in iid mode (``blocked`` is None) a chunk of c replicates is one draw of
      c * m rows, from a law's ``sample_marginal`` or from one call
      ``f(c * m, rng)`` of a plain sampler; below the budget that is one draw
      of ``replicates * m`` rows. The bound holds only for iid rows, so a
      sampler whose rows are dependent within a call is no iid-mode source;
    - in blocked mode a law draws a chunk's stationary paths at once with
      ``sample_paths``, where the dependence is the point;
    - in blocked mode a plain ``f(m, rng)`` sampler is called once per
      replicate, each call one dependent path of length m.

    A law's draws consume its generator alike in one call or in chunks, so its
    calibration sample and the frequency do not depend on the budget; the
    calibration sums do, by round-off only.

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
    mean_psi, ratio, slack, width = _calibration(source, psi, calibration_samples, rng)
    # written so that a NaN ratio or slack rejects the precondition
    if not ratio <= c + slack:
        raise PreconditionViolated(
            f"E[psi^2] / (E psi)^2 = {ratio:g} exceeds C = {c:g} (+{slack:g} MC slack)")

    dep_norm = 1.0
    if blocked is not None:
        dep_norm = dependency_matrix_bound(blocked.profile, m).spectral_norm
    bound = math.exp(-m / (8.0 * c * dep_norm ** 2))

    chunk = max(1, core.MC_DRAW_BUDGET // (m * width))
    hits = 0
    for start in range(0, replicates, chunk):
        count = min(chunk, replicates - start)
        if blocked is None:
            rows = _draw(source, count * m, rng)
        elif hasattr(source, "sample_paths"):
            rows = source.sample_paths(count, m, rng).reshape(count * m, -1)
        else:
            rows = np.concatenate([_draw(source, m, rng) for _ in range(count)])
        means = np.asarray(psi(rows), dtype=float).reshape(count, -1).mean(axis=1)
        hits += int(np.count_nonzero(means <= 0.5 * mean_psi))
    return TailCheckResult(empirical_freq=hits / replicates, bound=bound,
                           mean_psi=mean_psi, dep_norm=dep_norm, replicates=replicates)
