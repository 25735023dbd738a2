"""Closed-form evaluation of the complexity and risk bounds.

Covering numbers, the chaining log-integral, the martingale offset-complexity
bound, the estimation-error and transfer-risk bounds with their burn-in
tables (iid and mixing modes), and a Monte Carlo coverage check of the
multi-task self-normalized martingale inequality. All unspecified universal
constants default to 1 and the reports say so; this module verifies bound
structure (monotonicity, rates, coverage), not constants.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate

from .core import Dims, logdet_psd
from .mixing import GeometricProfile, MixingProfile, phi_capital


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
class MixingSetup:
    """Mixing mode for the bound formulas: profile, block length, inflation factor."""

    profile: MixingProfile
    k: int

    def phi_at_k(self) -> float:
        if isinstance(self.profile, GeometricProfile):
            return self.profile.gamma * self.profile.rho ** self.k
        return self.profile.phi_at(self.k)


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
    mixing: MixingSetup | None = None
    c_universal: float = 1.0

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


@dataclass(frozen=True)
class LogIntegralResult:
    bound: float
    quadrature: float


def log_integral_bound(c: float) -> LogIntegralResult:
    """Closed-form bound sqrt(log(e (1 + C))) on int_0^1 sqrt(log(1 + C/x)) dx,
    together with a numeric quadrature of the integral for comparison."""
    if c < 0:
        raise ValueError("C must be nonnegative")
    bound = math.sqrt(1.0 + math.log1p(c))
    if c == 0:
        return LogIntegralResult(bound=bound, quadrature=0.0)
    quad, _ = scipy.integrate.quad(lambda x: math.sqrt(math.log1p(c / x)), 0.0, 1.0,
                                   limit=200)
    return LogIntegralResult(bound=bound, quadrature=float(quad))


def _class_rate_term(config: BoundConfig) -> float:
    """Representation-class complexity entering the rate (not divided by NT yet)."""
    cls = config.class_complexity
    if isinstance(cls, FiniteClass):
        return cls.log_card
    scale = config.b_f * cls.b_theta * cls.l_theta * config.n * config.t_tasks / config.sigma_w
    return cls.d_theta * math.log(math.e + scale)


def martingale_complexity_terms(config: BoundConfig) -> tuple[float, float, float]:
    """(head, class, deviation) addends of the martingale complexity bound,
    each already scaled by c_universal * sigma_w^2."""
    if config.n < 1:
        raise ValueError("rate formulas need N >= 1")
    d = config.dims
    n, t = config.n, config.t_tasks
    scale = config.c_universal * config.sigma_w ** 2
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
    divided by the block length, source requirement inflated by the mixing
    factor, plus the block tail condition). The target requirement prices h_z
    as c_z: the two suprema coincide after the change v -> Sigma_Z^{1/2} v.
    """
    if not (0.0 < config.delta < 1.0 / math.e):
        raise ValueError("transfer_risk_bound requires delta in (0, 1/e)")
    d = config.dims
    scale = config.c_universal * config.sigma_w ** 2
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
        tail = m_target * config.mixing.phi_at_k()
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


# Standard normals drawn per chunk of SNM replicates (8 MB of doubles), so the
# check's memory stays bounded at any replicate count and dimensions.
_SNM_DRAW_BUDGET = 1 << 20


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

    Replicates are drawn in chunks of at most 2^20 normals, one
    draw per chunk in the order replicate, task, covariates then noise, and
    each chunk's Grams go through one batched ``eigh`` and ``slogdet``.

    Raises
    ------
    ValueError
        If replicates is below 1.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    d = config.dims.d_x
    n, t = config.n, config.t_tasks
    sigma, delta = config.sigma_w, config.delta
    s_reg = np.eye(d) if reg is None else np.asarray(reg, dtype=float)
    logdet_reg = logdet_psd(s_reg)
    rng = np.random.default_rng(seed)
    offset = 2.0 * sigma ** 2 * math.log(1.0 / delta)
    chunk = max(1, _SNM_DRAW_BUDGET // max(1, 2 * t * n * d))
    violations = 0
    for start in range(0, replicates, chunk):
        z = rng.standard_normal((min(chunk, replicates - start), t, 2, n, d))
        x, w = z[:, :, 0], sigma * z[:, :, 1]
        gram = s_reg + np.swapaxes(x, -1, -2) @ x
        vals, vecs = np.linalg.eigh(gram)
        # with gram = V diag(vals) V^T, ||W^T X gram^{-1/2}||_F^2 is the sum
        # of (W^T X V)_ij^2 / vals_j
        proj = np.swapaxes(w, -1, -2) @ x @ vecs
        lhs = (proj * proj / vals[..., None, :]).sum(axis=(1, 2, 3))
        rhs = offset + (d * sigma ** 2 * (logdet_psd(gram) - logdet_reg)).sum(axis=1)
        violations += int(np.count_nonzero(lhs > rhs))
    return SnmCheckResult(violation_rate=violations / replicates, delta=delta,
                          replicates=replicates)
