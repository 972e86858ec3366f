"""Exception types shared across the package."""


class LtclError(Exception):
    """Base class for all package-specific errors."""


class EmptyClassError(LtclError, ValueError):
    """A class has zero samples where a positive count is required."""


class CapacityError(LtclError, ValueError):
    """A size limit was exceeded (subsampling capacity, dense-Hessian guard)."""


class IdxParseError(LtclError, ValueError):
    """An IDX file does not conform to the expected byte layout."""


class CheckpointError(LtclError, ValueError):
    """A model checkpoint file is malformed."""


class ShapeMismatchError(LtclError, ValueError):
    """Array shapes are incompatible for the requested operation."""


class DatasetError(LtclError, ValueError):
    """A dataset's features are not float64, or its labels are not integers in range."""


class NonFiniteInputError(LtclError, ValueError):
    """Input data contains NaN or infinite values."""


class UnsupportedModelError(LtclError, TypeError):
    """The model kind does not support the requested operation."""


class DivergenceError(LtclError, RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"loss became non-finite at epoch {epoch}")


class DegenerateConvexityError(LtclError, ValueError):
    """Both strong-convexity parameters are zero; the bound is undefined."""


class StrictConvexityError(LtclError, ValueError):
    """A Hessian has a non-positive minimum eigenvalue."""


class MinimizerCertificationError(LtclError, ValueError):
    """Inputs claimed to be minimizers fail the minimizer consistency check."""


class CoverageError(LtclError, ValueError):
    """A test set does not cover every class."""


class ConfigError(LtclError, ValueError):
    """An experiment configuration is invalid."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


class EigensolverError(LtclError, RuntimeError):
    """An iterative eigensolver hit its step cap or a non-finite value before converging."""
