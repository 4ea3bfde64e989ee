"""Exception and warning types shared across the package."""


class GrdmfError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(GrdmfError, ValueError):
    """A matrix or vector has an incompatible shape."""


class SymmetryError(GrdmfError, ValueError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class ParameterError(GrdmfError, ValueError):
    """A parameter, or an array's values, is outside its admissible range."""


class SingularSystemError(GrdmfError, ArithmeticError):
    """A linear system is singular or too close to singular to solve."""


class UndefinedMetricError(GrdmfError, ValueError):
    """A ranking metric is undefined for the given labels (single class, no positives)."""


class ParseError(GrdmfError, ValueError):
    """A data file could not be parsed; the message carries the location."""


class RegistryError(GrdmfError, ValueError):
    """Entity name registries are inconsistent (duplicates, mismatched sets)."""


class ConfigError(GrdmfError, ValueError):
    """A run configuration is incomplete or inconsistent."""


class SolverError(GrdmfError, RuntimeError):
    """The iterative solver aborted; the message carries the iteration index."""


class GrdmfWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class ZeroProfileWarning(GrdmfWarning):
    """An entity has an all-zero feature profile."""


class TopKClampWarning(GrdmfWarning):
    """A requested cutoff k exceeded the number of candidates and was clamped."""


class FoldSkippedWarning(GrdmfWarning):
    """A cross-validation fold was skipped because its metrics are undefined."""


class AsymmetryWarning(GrdmfWarning):
    """A supplied similarity matrix was asymmetric and has been averaged."""
