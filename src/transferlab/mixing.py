"""Mixing coefficients, blocking, decoupling, and dependency-matrix machinery.

Exact conditional-TV mixing coefficients are computed for finite Markov
chains; Gaussian linear systems get a geometric expected-TV surrogate
(a true uniform conditional-TV coefficient does not exist for unbounded
Gaussian conditioning events, so the profile carries an explicit surrogate
flag). Both feed the inflation factor used by burn-in bookkeeping, the
dependency-matrix norm bound, block partitioning, decoupled resampling, and
block-length selection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import CovariateLaw, LdsLaw, stationary_distribution
from .errors import BadPartition, SampleTooShort, TransferLabError


def _lags(lags) -> np.ndarray:
    lags = np.asarray(lags)
    if np.any(lags < 1):
        raise ValueError("lag must be >= 1")
    return lags


@dataclass(frozen=True)
class GeometricProfile:
    """Geometric mixing envelope phi(k) = min(1, gamma * rho^(k-1)), k >= 1, so
    gamma is phi(1).

    ``beta_surrogate`` marks profiles whose coefficients bound an expected
    (beta-type) TV rather than the uniform conditional TV.
    """

    gamma: float
    rho: float
    beta_surrogate: bool = False

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError("rho must lie in [0, 1)")

    def phi_at(self, lags):
        """phi at an integer lag >= 1 (a float), or elementwise at an integer array."""
        lags = _lags(lags)
        phi = np.minimum(1.0, self.gamma * self.rho ** (lags - 1))
        return float(phi) if phi.ndim == 0 else phi


@dataclass(frozen=True)
class ExactProfile:
    """Exactly computed mixing coefficients phi(1..max_lag), optionally with a
    geometric ``tail`` that gives phi(l) for l > max_lag."""

    phi: np.ndarray
    tail: GeometricProfile | None = None

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)
        phi.setflags(write=False)
        if phi.ndim != 1 or phi.size < 1:
            raise ValueError("phi must be a nonempty 1-D sequence")
        if phi.min() < -1e-12 or phi.max() > 1.0 + 1e-12:
            raise ValueError("phi values must lie in [0, 1]")
        if np.any(np.diff(phi) > 1e-12):
            raise ValueError("phi must be non-increasing in the lag")
        object.__setattr__(self, "phi", phi)

    @property
    def max_lag(self) -> int:
        return self.phi.size

    def phi_at(self, lags):
        """phi at an integer lag >= 1 (a float), or elementwise at an integer array;
        beyond max_lag the tail at the same lags (or 0)."""
        lags = _lags(lags)
        stored = self.phi[np.minimum(lags, self.max_lag) - 1]
        beyond = 0.0 if self.tail is None else self.tail.phi_at(lags)
        phi = np.where(lags <= self.max_lag, stored, beyond)
        return float(phi) if phi.ndim == 0 else phi


MixingProfile = ExactProfile | GeometricProfile


@dataclass(frozen=True)
class BlockedMode:
    """A mixing mode: the covariates' mixing profile and a block length ``k``.

    ``smallball``'s blocked tail check samples trajectories and takes its
    bound from the profile alone; the bound formulas
    (``bounds.BoundConfig.mixing``) also read ``k``."""

    profile: MixingProfile
    k: int


def phi_markov(p: np.ndarray, max_lag: int) -> ExactProfile:
    """Exact mixing coefficients of a stationary finite Markov chain.

    For a Markov chain the conditional law given the whole past depends only
    on the current state, so phi(i) = max_s TV(P^i(s, .), pi), computed by
    matrix powers with TV as half the L1 row distance to the stationary
    distribution.

    Raises
    ------
    InvalidMatrix
        If P is not a transition matrix (``core.stationary_distribution``).
    NotErgodic
        If the chain has no unique stationary distribution.
    """
    p = np.asarray(p, dtype=float)
    pi = stationary_distribution(p)
    phi = np.empty(max_lag)
    power = np.eye(p.shape[0])
    for i in range(max_lag):
        power = power @ p
        phi[i] = 0.5 * np.abs(power - pi[None, :]).sum(axis=1).max()
    # exact powers can wobble at machine precision; enforce monotone shape
    phi = np.minimum.accumulate(np.clip(phi, 0.0, 1.0))
    return ExactProfile(phi=phi)


def geometric_profile_from_lds(a: np.ndarray, mc_samples: int = 100_000,
                               seed: int = 0) -> GeometricProfile:
    """Geometric expected-TV mixing surrogate for a stable Gaussian LDS.

    The decay rate is the covariance contraction rate rho = rho(A)^2 and
    gamma = phi(1) is the Monte Carlo average of the Pinsker bound sqrt(KL/2)
    between the one-step conditional N(Ax, I) and the stationary law, over
    stationary states x. The uniform conditional-TV coefficient of a Gaussian
    LDS is unbounded, so the profile is flagged ``beta_surrogate``.

    The states are drawn in consecutive chunks of at most ``core.MC_DRAW_BUDGET``
    values from the one ``default_rng(seed)``, which consume its stream exactly
    as one draw of ``mc_samples`` states does. Each chunk's bounds are formed in
    place and summed (``_pinsker_sum``), so memory does not grow with
    ``mc_samples`` and chunking moves gamma only by summation order.

    Raises
    ------
    ValueError
        If mc_samples is below 1.
    UnstableSystem
        If the spectral radius of A is >= 1.
    """
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be >= 1, got {mc_samples}")
    law = LdsLaw(a=a)  # validates stability
    sigma = law.second_moment()
    sigma_inv = np.linalg.inv(sigma)
    d = sigma.shape[0]
    _, logdet = np.linalg.slogdet(sigma)
    shift = np.trace(sigma_inv) - d
    rng = np.random.default_rng(seed)
    step = max(1, core.MC_DRAW_BUDGET // d)
    total = 0.0
    for start in range(0, mc_samples, step):
        # the one-step means A x, passed on unnamed so no chunk outlives its sum
        total += _pinsker_sum(law.sample_marginal(min(step, mc_samples - start), rng) @ law.a.T,
                              sigma_inv, shift, logdet)
    return GeometricProfile(gamma=total / mc_samples, rho=law.spectral_radius ** 2,
                            beta_surrogate=True)


def _pinsker_sum(mean: np.ndarray, sigma_inv: np.ndarray, shift: float,
                 logdet: float) -> float:
    """Sum over the rows m of min(1, sqrt(KL / 2)), KL = KL(N(m, I) || N(0, Sigma))
    = (shift + m^T Sigma^-1 m + logdet) / 2 with shift = tr(Sigma^-1) - d, formed
    in one buffer."""
    kl = np.einsum("ij,jk,ik->i", mean, sigma_inv, mean)
    kl += shift
    kl += logdet
    np.maximum(kl, 0.0, out=kl)
    kl *= 0.25  # 2 KL / 4 = KL / 2, exact in binary
    np.sqrt(kl, out=kl)
    np.minimum(kl, 1.0, out=kl)
    return float(kl.sum())


def _root_sum_past(profile: GeometricProfile, start: int) -> float:
    """sum_{l > start} sqrt(phi(l)) of a geometric profile: the K lags with
    gamma * rho^(l-1) >= 1 have phi = 1, and past m = max(K, start) the roots
    sqrt(gamma) rho^((l-1)/2) sum to sqrt(gamma) rho^(m/2) / (1 - sqrt(rho)).
    K is counted by comparing the terms ``phi_at`` forms, which fall in l (a
    doubling, then a bisection), so a term of exactly 1 is counted right."""
    gamma, rho = profile.gamma, profile.rho
    lo, k = -1, 1  # term j = gamma * rho^j: term lo >= 1 (lo = -1: none), seek term k < 1
    while gamma * rho ** k >= 1.0:
        lo, k = k, 2 * k
    while k - lo > 1:
        mid = (lo + k) // 2
        lo, k = (mid, k) if gamma * rho ** mid >= 1.0 else (lo, mid)
    m = max(k, start)
    return m - start + math.sqrt(gamma) * rho ** (m / 2) / (1.0 - math.sqrt(rho))


def phi_capital(profile: MixingProfile) -> float:
    """Mixing inflation factor Phi = (sum_{l >= 1} sqrt(phi(l)))^2: a geometric
    profile's sum in closed form (``_root_sum_past``), an exact profile's over its
    stored lags plus, past max_lag, its tail's in closed form."""
    if isinstance(profile, GeometricProfile):
        return _root_sum_past(profile, 0) ** 2
    s = float(np.sqrt(profile.phi).sum())
    if profile.tail is not None:
        s += _root_sum_past(profile.tail, profile.max_lag)
    return s * s


@dataclass(frozen=True)
class DependencyBound:
    matrix: np.ndarray
    spectral_norm: float


def dependency_matrix_bound(profile: MixingProfile, n: int) -> DependencyBound:
    """Upper-triangular dependency-matrix bound and its spectral norm.

    Unit diagonal, entry sqrt(2 * phi(j - i)) above it. The norm always
    satisfies ||G|| <= 1 + sqrt(2) * sum_i sqrt(phi(i)) (Schur test on the
    banded triangle); this is checked.

    An ``ExactProfile`` without a tail counts phi = 0 past ``max_lag``, so for
    n > max_lag + 1 the norm is truncated and can understate the full one:
    ``phi_markov`` gives no tail, and a two-state chain with stay probability
    0.97 and max_lag 32 reads 20.85 at n = 240 against 30.74 with every lag.

    Raises
    ------
    TransferLabError
        If the computed norm exceeds that cap.
    """
    phi = profile.phi_at(np.arange(1, n))
    # row i is the window of [0]*(n-1) + [1, sqrt(2 phi(1)), ..., sqrt(2 phi(n-1))]
    # that starts at n-1-i, so the matrix is one copy of n reversed windows
    band = np.concatenate([np.zeros(n - 1), [1.0], np.sqrt(2.0 * phi)])
    m = np.lib.stride_tricks.sliding_window_view(band, n)[::-1].copy()
    # sigma_max(m) = sqrt(lambda_max(m^T m)): a symmetric eigensolve, not a full SVD
    norm = math.sqrt(float(np.linalg.eigvalsh(m.T @ m)[-1]))
    cap = 1.0 + math.sqrt(2.0) * float(np.sqrt(phi).sum())
    if norm > cap + 1e-9:
        raise TransferLabError(f"dependency norm {norm} exceeds its bound {cap}")
    return DependencyBound(matrix=m, spectral_norm=norm)


@dataclass(frozen=True)
class BlockPartition:
    """[0..n) tiled into an even number of consecutive equal blocks of length k."""

    n: int
    k: int
    blocks: tuple[tuple[int, int], ...]  # half-open (start, stop) ranges

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def odd_blocks(self) -> tuple[tuple[int, int], ...]:
        """Blocks a_1, a_3, ... in 1-based blocking order."""
        return self.blocks[0::2]


def make_blocks(n: int, k: int) -> BlockPartition:
    """Partition [0..n) into 2m consecutive blocks of equal length k.

    Raises
    ------
    BadPartition
        If k does not divide n or n/k is odd.
    """
    if k < 1 or n < 1:
        raise BadPartition("need n >= 1 and k >= 1")
    if n % k != 0:
        raise BadPartition(f"block length {k} does not divide {n}")
    if (n // k) % 2 != 0:
        raise BadPartition(f"n/k = {n // k} must be even")
    blocks = tuple((i * k, (i + 1) * k) for i in range(n // k))
    return BlockPartition(n=n, k=k, blocks=blocks)


def decouple_trajectory(law: CovariateLaw, partition: BlockPartition,
                        seed: int = 0) -> np.ndarray:
    """Blockwise-decoupled sample: block marginals preserved, blocks independent.

    Each block is generated as a fresh stationary trajectory segment of
    length k, so the within-block law matches the original process exactly
    while distinct blocks are exactly independent. The blocks are one
    ``sample_paths`` draw, in block order.
    """
    rng = np.random.default_rng(seed)
    paths = law.sample_paths(partition.num_blocks, partition.k, rng)
    return paths.reshape(partition.n, law.d_x)


def select_block_length(profile: GeometricProfile, m_samples: int, delta: float) -> int:
    """First divisor k of m_samples with an even quotient and m_samples * phi(k) <= delta.

    That rule implies the blocked tail condition (m_samples / k) * phi(k) <= delta,
    but it is stricter, so the k it returns need not be the smallest one that
    meets the tail condition: for the a = 0.5 LDS surrogate, m = 64 and delta
    = 0.1 it returns 8, although (m / k) * phi(k) = 0.058 already holds at k = 4.
    The rule stays, because ``geometric_profile_from_lds`` decays faster than
    the expected TV it stands for (ROADMAP item 1), and shorter blocks under
    an envelope that already undercovers would be wrong. Exact profiles are
    refused: a Markov profile reads phi = 0 past ``max_lag``.

    Raises
    ------
    SampleTooShort
        If no admissible k <= m_samples / 2 exists.
    """
    if not isinstance(profile, GeometricProfile):
        raise TypeError("select_block_length expects a geometric profile")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    ks = np.arange(1, m_samples // 2 + 1)
    ks = ks[(m_samples % ks == 0) & ((m_samples // ks) % 2 == 0)]
    admissible = ks[m_samples * profile.phi_at(ks) <= delta]
    if admissible.size == 0:
        raise SampleTooShort(f"no divisor k of {m_samples} with even quotient has "
                             f"{m_samples} * phi(k) <= {delta:g}")
    return int(admissible[0])


def profile_to_json(profile: MixingProfile) -> dict:
    if isinstance(profile, GeometricProfile):
        return {"kind": "geometric", "gamma": profile.gamma, "rho": profile.rho,
                "beta_surrogate": profile.beta_surrogate,
                "phi_capital": phi_capital(profile)}
    out = {"kind": "exact", "phi": profile.phi.tolist(), "phi_capital": phi_capital(profile)}
    if profile.tail is not None:
        out["tail"] = profile_to_json(profile.tail)
    return out
