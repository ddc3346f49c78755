"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch any failure originating from this package with a single ``except``
clause while still being able to distinguish configuration problems from
privacy-parameter problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class InvalidParameterError(ReproError, ValueError):
    """A user-supplied parameter is outside its valid range.

    Examples include a non-positive privacy budget, a domain size below two
    or a fraction outside ``[0, 1]``.
    """


class InvalidPrivacyBudgetError(InvalidParameterError):
    """The privacy budget ``epsilon`` is not a positive, finite number."""


class DomainMismatchError(ReproError, ValueError):
    """Data and domain descriptions are inconsistent.

    Raised, for instance, when a dataset column contains values outside the
    declared attribute domain, or when a tuple has a different number of
    attributes than the :class:`~repro.core.domain.Domain` describing it.
    """


class NotFittedError(ReproError, RuntimeError):
    """A model or estimator was used before being fitted."""


class EstimationError(ReproError, RuntimeError):
    """Frequency estimation could not be carried out.

    Raised when an aggregator receives no reports, or reports whose shape is
    incompatible with the protocol that produced them.
    """


class GridExecutionError(ReproError, RuntimeError):
    """A grid executor finished without a result for every pending cell.

    Raised by :func:`repro.experiments.grid.run_grid` when the configured
    executor returns without recording rows for some cells, and by the
    remote executor when a cell exhausts its retries or every local worker
    exits with cells remaining.
    """
