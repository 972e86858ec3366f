"""Exception types shared across the package, the value rules with the
one `check` that applies them, and the one seeded random generator."""
import math
import numbers
import os
from pathlib import Path

import numpy as np


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


def _integer(v) -> bool:
    """An integer, numpy's too, that is not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# Value rules: (test, message). A value failing test is rejected with
# message. Each test states the range it accepts, so NaN fails it.
AT_LEAST_0 = (lambda v: v >= 0, "must be >= 0")
AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
COUNT = (lambda v: _integer(v) and v >= 1, "must be an integer >= 1")
SEED = (lambda v: _integer(v) and v >= 0, "must be an integer >= 0")  # what numpy's generators accept
BOOL = (lambda v: isinstance(v, (bool, np.bool_)), "must be a bool")
FRACTION = (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")
AT_LEAST_0_BELOW_1 = (lambda v: 0.0 <= v < 1.0, "must be in [0, 1)")
FINITE = (lambda v: -math.inf < v < math.inf, "must be finite")
FINITE_AT_LEAST_0 = (lambda v: 0.0 <= v < math.inf, "must be >= 0 and finite")
FINITE_POSITIVE = (lambda v: 0.0 < v < math.inf, "must be positive and finite")
# os.path.isfile answers False where the lookup fails, as for a name too long for the file system
FILE = (lambda path: os.path.isfile(Path(path)), "must name an existing file")


def one_of(*options):
    return (lambda v: v in options, f"must be one of {options}")


def list_of(rule, distinct: bool = False):
    """A non-empty list whose every item passes rule, and whose items
    differ when distinct."""
    test, message = rule
    return (lambda vs: len(vs) > 0 and all(test(v) for v in vs) and (not distinct or len(set(vs)) == len(vs)),
            f"must be a non-empty list of {'distinct ' if distinct else ''}values, each of which {message}")


def check(name: str, value, rule) -> None:
    """Raise ValueError naming the parameter and the value unless value
    passes rule. A value that rule cannot compare (a string against a
    range, an array against a scalar) fails it, and so does any value
    whose test gives no single bool."""
    test, message = rule
    try:
        passed = test(value)
    except (TypeError, ValueError):
        passed = False
    if not isinstance(passed, (bool, np.bool_)) or not passed:
        raise ValueError(f"{name} {message}, got {value!r}")


def seeded_rng(seed) -> "np.random.Generator":
    """numpy's default generator for seed, which must pass the SEED rule."""
    check("seed", seed, SEED)
    return np.random.default_rng(seed)
