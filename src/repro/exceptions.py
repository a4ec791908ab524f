"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything emitted by this package with a single ``except`` clause
while still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An input array or parameter failed validation."""


class NotFittedError(ReproError, RuntimeError):
    """A model method requiring a fitted estimator was called before ``fit``."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to converge within its iteration budget."""


class WorkloadError(ReproError):
    """A workload specification or experiment request is invalid."""


class RepositoryError(ReproError):
    """An experiment repository operation failed."""


class PipelineError(ReproError):
    """An end-to-end pipeline stage could not be executed."""


class ServeError(ReproError):
    """A prediction-service request was malformed or unservable."""


class ShuttingDownError(ServeError):
    """The server is shutting down and admits no new computation (a 503)."""
