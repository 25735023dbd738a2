"""Closed-form evaluation of the complexity and risk bounds.

Covering numbers, the chaining log-integral, the martingale offset-complexity
bound, the estimation-error and transfer-risk bounds with their burn-in
tables (iid and mixing modes), and a Monte Carlo coverage check of the
multi-task self-normalized martingale inequality. All unspecified universal
constants are taken as 1 and the reports say so; this module verifies bound
structure (monotonicity, rates, coverage), not constants.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import Dims, bartlett, logdet_psd
from .errors import InvalidMatrix, NotPSD
from .mixing import BlockedMode, phi_capital


@dataclass(frozen=True)
class FiniteClass:
    """Finite representation dictionary with log-cardinality ``log_card``."""

    log_card: float


@dataclass(frozen=True)
class ParametricClass:
    """Lipschitz-parametric representation class (parameter dim, norm bound, Lipschitz const)."""

    d_theta: int
    b_theta: float
    l_theta: float


ClassComplexity = FiniteClass | ParametricClass


@dataclass(frozen=True)
class BoundConfig:
    """Inputs to every bound formula."""

    dims: Dims
    t_tasks: int
    n: int
    n_prime: int
    sigma_w: float
    b_f: float
    b_g: float
    class_complexity: ClassComplexity
    delta: float = 0.05
    mixing: BlockedMode | None = None

    def __post_init__(self):
        # n == 0 is allowed so the SNM coverage check can exercise its
        # empty-data case; the rate formulas themselves demand n >= 1.
        if self.t_tasks < 1 or self.n < 0 or self.n_prime < 1:
            raise ValueError("need T >= 1, N >= 0, N' >= 1")
        if self.sigma_w <= 0:
            raise ValueError("bound formulas need sigma_w > 0")
        # delta = 1 is allowed so the deviation term can be switched off;
        # transfer_risk_bound separately demands delta < 1/e.
        if not (0.0 < self.delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")

    @property
    def gamma_eff(self) -> float:
        """Covering resolution sigma_w / (N T)."""
        return self.sigma_w / (max(self.n, 1) * self.t_tasks)


def covering_parametric(d_theta: int, b_theta: float, l_theta: float, gamma: float) -> float:
    """Log sup-norm covering number of a Lipschitz-parametric class:
    d_theta * log(1 + 2 B_theta L_theta / gamma)."""
    if min(d_theta, b_theta, l_theta, gamma) <= 0:
        raise ValueError("covering_parametric expects positive inputs")
    return d_theta * math.log1p(2.0 * b_theta * l_theta / gamma)


def covering_star_hull(config: BoundConfig, gamma: float) -> float:
    """Log covering number of the star-hull of the centered composite class.

    T d_y r log(1 + 4 B_F B_G / gamma) + log(1 + 2 B_F B_G / gamma) plus the
    representation-class term (log-cardinality, or the parametric covering at
    resolution gamma / (4 B_F)).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    d = config.dims
    bfg = config.b_f * config.b_g
    heads = config.t_tasks * d.d_y * d.r * math.log1p(4.0 * bfg / gamma)
    hull = math.log1p(2.0 * bfg / gamma)
    cls = config.class_complexity
    if isinstance(cls, FiniteClass):
        rep = cls.log_card
    else:
        rep = covering_parametric(cls.d_theta, cls.b_theta, cls.l_theta,
                                  gamma / (4.0 * config.b_f))
    return heads + hull + rep


def log_integral_bound(c: float) -> float:
    """Closed-form bound sqrt(log(e (1 + C))) on int_0^1 sqrt(log(1 + C/x)) dx."""
    if c < 0:
        raise ValueError("C must be nonnegative")
    return math.sqrt(1.0 + math.log1p(c))


def _class_rate_term(config: BoundConfig) -> float:
    """Representation-class complexity entering the rate (not divided by NT yet)."""
    cls = config.class_complexity
    if isinstance(cls, FiniteClass):
        return cls.log_card
    scale = config.b_f * cls.b_theta * cls.l_theta * config.n * config.t_tasks / config.sigma_w
    return cls.d_theta * math.log(math.e + scale)


def martingale_complexity_terms(config: BoundConfig) -> tuple[float, float, float]:
    """(head, class, deviation) addends of the martingale complexity bound,
    each already scaled by sigma_w^2."""
    if config.n < 1:
        raise ValueError("rate formulas need N >= 1")
    d = config.dims
    n, t = config.n, config.t_tasks
    scale = config.sigma_w ** 2
    head = (d.d_y * d.r / n) * math.log(math.e + config.b_f * config.b_g * n * t / config.sigma_w)
    cls = _class_rate_term(config) / (n * t)
    dev = math.log(1.0 / config.delta) / (n * t)
    return scale * head, scale * cls, scale * dev


def martingale_complexity_bound(config: BoundConfig) -> float:
    """Martingale offset complexity bound: c sigma_w^2 [d_y r / N * log(e + B_F B_G N T / sigma_w)
    + class term / (N T) + log(1/delta) / (N T)]."""
    return sum(martingale_complexity_terms(config))


@dataclass(frozen=True)
class BurnIn:
    """One burn-in condition as required-vs-actual with implied constant 1.

    ``direction`` is "at_least" when the actual quantity must reach the
    requirement and "at_most" for tail conditions that must stay below it.
    """

    name: str
    required: float
    actual: float
    direction: str = "at_least"

    @property
    def satisfied(self) -> bool:
        if self.direction == "at_least":
            return self.actual >= self.required
        return self.actual <= self.required


@dataclass(frozen=True)
class BoundReport:
    covering_log: float
    martingale_bound: float
    nrls_bound: float
    transfer_bound: float
    mu_x: float
    mu_f: float
    burn_ins: tuple[BurnIn, ...]
    up_to_constant: bool = True
    mode: str = "iid"

    def to_json(self) -> dict:
        return {
            "covering_log": self.covering_log,
            "martingale_bound": self.martingale_bound,
            "nrls_bound": self.nrls_bound,
            "transfer_bound": self.transfer_bound,
            "mu_x": self.mu_x,
            "mu_f": self.mu_f,
            "mode": self.mode,
            "up_to_constant": self.up_to_constant,
            "burn_ins": [
                {"name": b.name, "required": b.required, "actual": b.actual,
                 "satisfied": b.satisfied, "direction": b.direction}
                for b in self.burn_ins
            ],
        }


def burn_ins_to_csv(report: BoundReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "required", "actual", "satisfied", "direction"])
    for b in report.burn_ins:
        writer.writerow([b.name, repr(b.required), repr(b.actual), b.satisfied, b.direction])
    return buf.getvalue()


def transfer_risk_bound(config: BoundConfig, mu_x: float, mu_f: float, c_z: float,
                        c42_target: float = 1.0, c42_sources: float = 1.0,
                        h_v: float = 1.0) -> BoundReport:
    """Transfer-risk bound and burn-in table.

    The risk value is sigma_w^2 C_Z d_y r log(1/delta) / N' plus
    mu_x mu_f times the martingale complexity bound; mixing mode leaves the
    value unchanged and only rescales the burn-in table (target sample counts
    divided by the block length k, source requirement inflated by the mixing
    factor, plus the block tail condition (N' / k) phi(k) <= delta). The target
    requirement prices h_z as c_z: the two suprema coincide after the change
    v -> Sigma_Z^{1/2} v.

    ``c42_target``, ``c42_sources`` and ``h_v`` enter only the burn-in table.
    They default to 1.0, and no command passes them: the ``bounds`` command
    prices its burn-ins at these defaults. The (4->2) ratios have an exact
    source, ``diagnostics.hypercontractivity_c42`` over a grid of hypotheses on
    the target's law or the sources' mixture, which no caller feeds in yet.
    """
    if not (0.0 < config.delta < 1.0 / math.e):
        raise ValueError("transfer_risk_bound requires delta in (0, 1/e)")
    d = config.dims
    scale = config.sigma_w ** 2
    log_inv_delta = math.log(1.0 / config.delta)

    nrls = scale * c_z * d.d_y * d.r * log_inv_delta / config.n_prime
    est = martingale_complexity_bound(config)
    transfer = nrls + mu_x * mu_f * est

    k = 1
    phi_cap = 1.0
    mode = "iid"
    if config.mixing is not None:
        k = config.mixing.k
        phi_cap = phi_capital(config.mixing.profile)
        mode = "mixing"

    m_target = config.n_prime / k
    burn_ins = [
        BurnIn(name="target_nrls_samples",
               required=c_z * math.sqrt(c42_target) * d.r + c_z ** 2 * log_inv_delta,
               actual=m_target),
        BurnIn(name="target_psi1_moment",
               required=h_v ** 2 * (log_inv_delta / math.log(max(config.n_prime, 2))) ** 8,
               actual=m_target),
    ]
    if config.mixing is not None:
        tail = m_target * config.mixing.profile.phi_at(k)
        burn_ins.append(BurnIn(name="target_block_tail", required=config.delta,
                               actual=tail, direction="at_most"))
    source_req = phi_cap * c42_sources * (
        d.d_y * d.r * math.log(math.e + config.b_f * config.b_g * config.n
                               * config.t_tasks / config.sigma_w)
        + _class_rate_term(config) / config.t_tasks
        + log_inv_delta / config.t_tasks
    )
    burn_ins.append(BurnIn(name="source_samples", required=source_req,
                           actual=float(config.n)))

    return BoundReport(
        covering_log=covering_star_hull(config, config.gamma_eff),
        martingale_bound=est,
        nrls_bound=nrls,
        transfer_bound=transfer,
        mu_x=mu_x,
        mu_f=mu_f,
        burn_ins=tuple(burn_ins),
        mode=mode,
    )


@dataclass(frozen=True)
class SnmCheckResult:
    violation_rate: float
    delta: float
    replicates: int

    @property
    def stderr(self) -> float:
        return math.sqrt(self.delta * (1.0 - self.delta) / self.replicates)

    @property
    def passed(self) -> bool:
        """Verdict: the violation rate stays within delta plus three standard errors."""
        return self.violation_rate <= self.delta + 3.0 * self.stderr


def _regularizer(reg: np.ndarray | None, d: int) -> np.ndarray:
    """The SNM regularizer S: the identity, or ``reg`` checked to be a finite,
    symmetric, positive definite d x d matrix."""
    if reg is None:
        return np.eye(d)
    s = np.asarray(reg, dtype=float)
    if s.shape != (d, d):
        raise InvalidMatrix(f"reg must be a {d} x {d} matrix (d = dims.d_x), "
                            f"got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise InvalidMatrix("reg contains non-finite entries")
    if np.abs(s - s.T).max() > 1e-10 * max(1.0, float(np.abs(s).max())):
        raise InvalidMatrix("reg must be symmetric")
    if np.linalg.eigvalsh(s)[0] <= 0.0:
        raise NotPSD("reg must be positive definite")
    return s


def _snm_terms(factor: np.ndarray, noise: np.ndarray,
               reg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-task ||W^T X G^{-1/2}||_F^2 and log det G, G = S + X^T X, from a
    factor R of X (X = Q_1 R) and the projected noise Xi = Q_1^T W, or from X
    and W themselves; both are stacks over the leading axes.

    With A = R^T Xi = X^T W, ||W^T X G^{-1/2}||_F^2 = tr(A^T G^{-1} A), the
    sum of A * G^{-1} A, one batched solve.
    """
    gram = reg + np.swapaxes(factor, -1, -2) @ factor
    cross = np.swapaxes(factor, -1, -2) @ noise
    return (cross * np.linalg.solve(gram, cross)).sum(axis=(-2, -1)), logdet_psd(gram)


def snm_bound_check(config: BoundConfig, replicates: int = 2000, seed: int = 0,
                    reg: np.ndarray | None = None) -> SnmCheckResult:
    """Monte Carlo coverage of the multi-task self-normalized martingale bound.

    Per replicate draws T independent tasks of N iid standard Gaussian
    covariates in R^d (d = dims.d_x) with N(0, sigma_w^2 I_d) noise and tests

        sum_t ||W_t^T X_t (S + X_t^T X_t)^{-1/2}||_F^2
            <= sum_t d sigma^2 log det(S + X_t^T X_t) / det(S) + 2 sigma^2 log(1/delta)

    with regularizer S (identity by default). The result's ``passed`` says
    whether the violation rate stays within delta plus three binomial standard
    errors; a failed verdict is returned, not raised.

    Both sides read a task only through X^T X and X^T W, so each task is drawn
    as a Gram factor, exactly in law (the k = min(N, d) convention of
    ``TaskDataset``). For N >= d, X = Q_1 R with Q_1 (N x d) orthonormal, and
    R has the law of the Bartlett factor U (``core.bartlett(d, N)``). W's d
    columns are N(0, sigma^2 I_N) and independent of X, so given X, by
    rotation invariance, Xi = Q_1^T W (d x d) has iid N(0, sigma^2) entries;
    its law does not depend on X, so Xi is independent of R. Hence
    (X^T X, X^T W) = (R^T R, R^T Xi) jointly in law, and the violation
    indicator keeps its law. For N < d the task keeps its raw rows (R = X,
    Xi = W); N = 0 leaves the deviation term alone.

    Streams: ``SeedSequence(seed)`` spawns three, for the chi-squares of the
    factors, their normals (or the raw covariates) and the noise. Each is
    drawn in replicate-then-task order, so chunking replicates to at most
    ``core.MC_DRAW_BUDGET`` values does not change the result.

    Raises
    ------
    ValueError
        If replicates is below 1.
    InvalidMatrix
        If ``reg`` is not a finite symmetric d x d matrix.
    NotPSD
        If ``reg`` is not positive definite.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    d = config.dims.d_x
    n, t = config.n, config.t_tasks
    sigma, delta = config.sigma_w, config.delta
    s_reg = _regularizer(reg, d)
    logdet_reg = logdet_psd(s_reg)
    chi_rng, cov_rng, noise_rng = (np.random.default_rng(s)
                                   for s in np.random.SeedSequence(seed).spawn(3))
    offset = 2.0 * sigma ** 2 * math.log(1.0 / delta)
    k = min(n, d)
    cov_values = d * (d + 1) // 2 if n >= d else n * d
    chunk = max(1, core.MC_DRAW_BUDGET // max(1, t * (cov_values + k * d)))
    violations = 0
    for start in range(0, replicates, chunk):
        shape = (min(chunk, replicates - start), t)
        factor = (bartlett(d, n, chi_rng, shape, normal_rng=cov_rng) if n >= d
                  else cov_rng.standard_normal((*shape, n, d)))
        noise = sigma * noise_rng.standard_normal((*shape, k, d))
        lhs, logdet = _snm_terms(factor, noise, s_reg)
        rhs = offset + (d * sigma ** 2 * (logdet - logdet_reg)).sum(axis=1)
        violations += int(np.count_nonzero(lhs.sum(axis=1) > rhs))
    return SnmCheckResult(violation_rate=violations / replicates, delta=delta,
                          replicates=replicates)
