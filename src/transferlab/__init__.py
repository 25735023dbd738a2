"""Numerical laboratory for two-stage multi-task representation transfer.

Modules
-------
core
    Domain types (dimensions, datasets, heads, representations, covariate
    laws, populations) and matrix primitives.
datagen
    Seeded samplers for all covariate laws and realizable label generation.
erm
    Two-stage empirical risk minimization and the offset-complexity statistic.
diagnostics
    Excess risk, estimation error, coverage coefficients, task diversity and
    its estimator, misspecified-regression noise quantities.
mixing
    Mixing coefficients, blocking, decoupling, dependency matrices.
smallball
    Small-ball probabilities, Paley-Zygmund bound, lower-isometry tail checks.
bounds
    Closed-form covering/complexity/risk bounds with burn-in tables, plus the
    self-normalized martingale coverage check.
cli
    JSON-configured batch front end with the rate-sweep harness.
"""

from .core import (
    Dims,
    TaskDataset,
    LinearHead,
    Representation,
    LinearRep,
    TanhRep,
    TanhFeatures,
    FiniteMember,
    GaussianLaw,
    LdsLaw,
    MarkovLaw,
    TaskSpec,
    PopulationSpec,
    pinv,
    sqrt_psd,
    inv_sqrt_psd,
    spectral_norm,
    logdet_psd,
)
from .datagen import SampleRequest, sample_tasks

__all__ = [
    "Dims", "TaskDataset", "LinearHead", "Representation",
    "LinearRep", "TanhRep", "TanhFeatures", "FiniteMember", "GaussianLaw",
    "LdsLaw", "MarkovLaw", "TaskSpec", "PopulationSpec", "pinv", "sqrt_psd",
    "inv_sqrt_psd", "spectral_norm", "logdet_psd", "SampleRequest", "sample_tasks",
]

__version__ = "0.1.0"
