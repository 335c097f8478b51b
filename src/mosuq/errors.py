"""Exception types shared across the package, and the integer and float
checks that configs raise them from."""

import numbers


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


def check_int(name: str, value, minimum: int) -> None:
    """Raise ConfigError unless value is an integer >= minimum. A bool is not
    an integer here; numpy integers are. An exact int skips the slower ABC check."""
    is_int = type(value) is int or (type(value) is not bool and isinstance(value, numbers.Integral))
    if not is_int or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_float(name: str, value, low: float, high: float, low_open: bool = False) -> None:
    """Raise ConfigError unless value is a real number in [low, high), or in
    (low, high) when low_open is set. A bool is not a number here, and nan
    lies in no interval; numpy floats and integers are numbers. An exact
    float skips the slower ABC check."""
    if (
        (type(value) is not float and (type(value) is bool or not isinstance(value, numbers.Real)))
        or not (low < value if low_open else low <= value)
        or not value < high
    ):
        interval = f"{'(' if low_open else '['}{low:g}, {high:g})"
        raise ConfigError(f"{name} must be a number in {interval}, got {value!r}")
