"""Exception hierarchy shared across the package.

Every error carries a stable ``exit_code`` so the command-line layer can map
failures to distinct process exit statuses. IntegrationWarning is a warning,
not an error: the result it accompanies is returned.
"""


class QITestError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParseError(QITestError):
    """A data file could not be parsed (malformed row, bad column, ...)."""

    exit_code = 2


class ValidationError(QITestError):
    """Parsed data violates a structural requirement (e.g. entry >= exit)."""

    exit_code = 3


class DegenerateDataset(QITestError):
    """The statistic is undefined on this dataset (no comparable pairs, n too small)."""

    exit_code = 4


class DegenerateVariance(QITestError):
    """The plug-in variance estimate is non-positive; the chi-square test is undefined."""

    exit_code = 5


class IntegrationFailure(QITestError):
    """A numerical integral did not meet its tolerance within budget, or diverges."""

    exit_code = 6


class IntegrationWarning(RuntimeWarning):
    """An adaptive integral stopped at its subinterval limit above its tolerance; its estimate stands."""


class CalibrationFailure(QITestError):
    """Censoring-rate calibration could not bracket the target rate."""

    exit_code = 7


class GenerationStall(QITestError):
    """Rejection sampling is accepting virtually nothing; the scenario is misconfigured."""

    exit_code = 8


class DomainError(QITestError):
    """An argument lies outside the mathematical domain of the operation."""

    exit_code = 9
