"""Exception types shared across the package, and the input boundary that
raises them: caller numbers enter through check_int and check_float, flags
through check_bool (configs store the plain int, float or bool returned,
through __dict__, as they are frozen), choices through check_choice and arrays
through check_array. A ragged, non-real or wrong-rank array is an InputError;
ShapeError is kept for input that disagrees with the architecture or a workspace."""

import numbers

import numpy as np


class MosuqError(Exception):
    """Base class for every package-specific error."""


class ConfigError(MosuqError, ValueError):
    """Invalid architecture, training, sampling, or generation configuration."""


class ShapeError(MosuqError, ValueError):
    """Array dimensions inconsistent with the declared architecture."""


class InputError(MosuqError, ValueError):
    """Rejected input data: empty, non-finite, wrong columns, bad class mix."""


class InvariantError(MosuqError, ValueError):
    """A documented runtime invariant was violated."""


class TrainingDivergedError(MosuqError, RuntimeError):
    """Training produced a non-finite loss and cannot continue."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}: non-finite loss")


class CheckpointError(MosuqError, ValueError):
    """Checkpoint file unreadable or structurally invalid."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format_version is not supported by this build."""


# The largest array size or count numpy can allocate: the maximum for sizes.
MAX_SIZE = int(np.iinfo(np.intp).max)


def check_int(name: str, value, minimum: int, maximum: int | None = None,
              error: type = ConfigError) -> int:
    """int(value), or error unless value is an integer >= minimum (and <= maximum,
    if given). A bool is not an integer here; numpy integers are. An exact int
    skips the slower ABC check."""
    is_int = type(value) is int or (type(value) is not bool and isinstance(value, numbers.Integral))
    if not is_int or value < minimum or (maximum is not None and value > maximum):
        bound = f"in [{minimum}, {maximum}]" if maximum is not None else f">= {minimum}"
        raise error(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def check_bool(name: str, value, error: type = ConfigError) -> bool:
    """bool(value), or error unless value is a bool or a numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise error(f"{name} must be true or false, got {value!r}")
    return bool(value)


def check_float(name: str, value, low: float, high: float, low_open: bool = False,
                error: type = ConfigError) -> float:
    """float(value), or error unless value is a real number whose float lies in
    [low, high), or in (low, high) when low_open is set. A bool is not a number
    here, nan lies in no interval, and an integer beyond the float range is
    rejected; numpy floats and integers are numbers. An exact float skips the
    slower ABC check."""
    try:
        if type(value) is float or (type(value) is not bool and isinstance(value, numbers.Real)):
            number = float(value)
            if (low < number if low_open else low <= number) and number < high:
                return number
        got = repr(value)
    except OverflowError:
        got = "an integer too large for a float"
    interval = f"{'(' if low_open else '['}{low:g}, {high:g})"
    raise error(f"{name} must be a number in {interval}, got {got}")


def check_choice(name: str, value, options: tuple[str, ...]) -> str:
    """str(value), or ConfigError unless value is a string among options."""
    if not (isinstance(value, str) and value in options):
        raise ConfigError(f"{name} must be one of {options}, got {value!r}")
    return str(value)


_FLOAT64 = np.dtype(np.float64)


def check_array(name: str, value, ndim: int | None = None, finite=False, text=False) -> np.ndarray:
    """value as a float64 array (a str array when text is set), else InputError
    naming it: ragged, not real numbers (bools, integers and number objects are
    converted), not ndim-d when ndim is given, or with nan or inf when finite
    is set. A float64 array is returned without a copy."""
    if text or type(value) is not np.ndarray or value.dtype is not _FLOAT64:
        try:
            value = np.asarray(value, str if text else None)
            if value.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in value.flat):
                value = value.astype(np.float64)
        except (TypeError, ValueError, OverflowError):  # ragged, or an int beyond float range
            value = None
        if value is None or not (text or value.dtype.kind in "biuf"):
            kind = "text" if text else "numeric"
            raise InputError(f"{name} must be a rectangular {ndim or 'n'}-d {kind} array, "
                             f"got {'a ragged value' if value is None else value.dtype}")
        value = value if text else value.astype(np.float64, copy=False)
    if ndim is not None and value.ndim != ndim:
        raise InputError(f"{name} must be a {ndim}-d array, got shape {value.shape}")
    if finite and np.count_nonzero(np.isfinite(value)) != value.size:
        raise InputError(f"{name} must be finite, got nan or inf")
    return value
