"""Exception taxonomy shared by all transferlab modules."""


class TransferLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(TransferLabError):
    """Matrix input violates a structural precondition (non-finite, wrong shape, rank-deficient)."""


class NotPSD(TransferLabError):
    """Matrix expected to be positive semidefinite has an eigenvalue below tolerance."""


class UnstableSystem(TransferLabError):
    """Linear dynamical system matrix has spectral radius >= 1."""


class DegenerateData(TransferLabError):
    """Dataset carries no usable signal (e.g. all covariates zero)."""


class NeedsRawRows(TransferLabError):
    """Per-row data (the offset statistic's noise, CSV rows) asked of a Gram factor."""


class RangeViolation(TransferLabError):
    """Target head Gram matrix is not contained in the range of the source head Gram."""


class NotErgodic(TransferLabError):
    """Markov chain has no unique stationary distribution."""


class BadPartition(TransferLabError):
    """Requested block partition does not tile the index set into an even number of equal blocks."""


class SampleTooShort(TransferLabError):
    """No admissible block length exists for the requested sample size."""


class PreconditionViolated(TransferLabError):
    """An empirically checked precondition (e.g. hypercontractivity) failed."""


class InvalidPoints(TransferLabError):
    """Slope fit received too few points or non-positive coordinates."""


class SweepFailed(TransferLabError):
    """Sweep could not produce a usable result (degenerate grid or too many row failures)."""


class ConfigError(TransferLabError):
    """Experiment configuration is malformed (unknown keys, bad types, bad values)."""


class NoClosedForm(TransferLabError, TypeError):
    """A law has no closed form for the exact moments asked of it. Also a
    ``TypeError``, as the method is unsupported for the law's type; callers that
    fall back to sampling catch this class alone, so that a ``TypeError`` raised
    inside a formula is not taken for a missing one."""
