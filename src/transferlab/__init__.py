"""Numerical laboratory for two-stage multi-task representation transfer.

Modules
-------
core
    Domain types (dimensions, task samples as raw rows or a Gram factor,
    heads, the linear representation, covariate laws, populations) and matrix
    primitives.
datagen
    Seeded samplers for all covariate laws and realizable label generation.
erm
    Two-stage least squares (alternating least squares for the shared linear
    representation, then the target head) and the offset-complexity statistic.
diagnostics
    Exact excess risk, estimation error, coverage coefficients, task
    diversity, its estimator and misspecified head, and Monte Carlo
    misspecified-regression noise quantities.
mixing
    Mixing coefficients, blocking, decoupling, dependency matrices.
smallball
    Lower-isometry tail checks, iid and blocked.
bounds
    Closed-form covering/complexity/risk bounds with burn-in tables, plus the
    self-normalized martingale coverage check.
cli
    JSON-configured batch front end with the rate-sweep harness, and the one
    declaration of the metrics that sweep rows and ``diagnose`` report.

Importing the package, parsing a config and building any population load numpy
only: scipy serves the first stage's linear solves alone (the ALS G-step and the
spectral start), imported on their first use.
"""

__version__ = "0.1.0"
