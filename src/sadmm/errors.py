"""Exception types shared across the package."""


class SadmmError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(SadmmError, ValueError):
    """Operands have incompatible shapes."""


class MatrixFormatError(SadmmError, ValueError):
    """A sparse matrix violates the CSR storage invariants."""


class ConvergenceError(SadmmError, RuntimeError):
    """An iterative method did not reach its tolerance within the budget.

    Carries the best estimate produced so far in ``best_estimate``.
    """

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


class RankDeficiencyError(SadmmError, RuntimeError):
    """A not full row rank: the smallest Gram eigenvalue is numerically zero."""


class ConfigError(SadmmError, ValueError):
    """A solver or experiment configuration violates its constraints."""


class DataFormatError(SadmmError, ValueError):
    """An input file (libsvm data, config, edge list) is malformed."""
