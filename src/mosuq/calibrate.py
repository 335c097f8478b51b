"""Closed-form scalar recalibration of predicted variances.

A single multiplier r is fitted on held-out columns (CalibrationScale.fit)
so that r^2 * sigma_hat^2 matches the observed squared residuals on
average: r^2 is the mean of (y - y_hat)^2 / sigma_hat^2, which is exactly
the minimiser of the Gaussian NLL over the family
{(y_hat, r^2 sigma_hat^2)}. Callers apply the scale to whole arrays, adding
2 log r to the log-variances (shift_log_variance) or multiplying variances
by variance_multiplier. Either way point predictions are untouched, so
rank-based and squared-error metrics are bit-identical before and after
calibration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, InvariantError
from .net import HeteroPrediction

__all__ = [
    "DEGENERATE_FLOOR",
    "CalibrationScale",
    "DegenerateCalibrationWarning",
    "fit_scale",
]

# Residual mass below this total is treated as a degenerate fit.
_DEGENERATE_SUM = 1e-12

# r is floored here instead of collapsing to zero variance.
DEGENERATE_FLOOR = 1e-6


class DegenerateCalibrationWarning(UserWarning):
    """Raised when the calibration set carries (numerically) zero residuals."""


@dataclass(frozen=True)
class CalibrationScale:
    """Fitted multiplier for predicted standard deviations.

    mean_normalized_residual_sq is the raw mean of (y - y_hat)^2 / sigma^2;
    except for degenerate fits it equals r^2.
    """

    r: float
    num_samples_used: int
    mean_normalized_residual_sq: float
    degenerate: bool = False

    def __post_init__(self):
        if not self.r > 0.0:
            raise InvariantError(f"calibration scale must be positive, got {self.r}")

    @classmethod
    def fit(cls, y_hat, s, y) -> "CalibrationScale":
        """Fit the scale on three matched 1-d columns: point predictions,
        their log-variances and the labels.

        The positive root is always taken. If the summed normalized
        residuals fall below 1e-12 the scale is floored at DEGENERATE_FLOOR
        and a DegenerateCalibrationWarning is emitted.
        """
        y_hat, s, y = (np.asarray(column, dtype=float) for column in (y_hat, s, y))
        shapes = [column.shape for column in (y_hat, s, y)]
        if len(set(shapes)) > 1 or y.ndim != 1:
            raise InputError(f"calibration needs 1-d columns of one length, got shapes {shapes}")
        n = len(y)
        if n == 0:
            raise InputError("calibration requires at least one sample")
        if not (np.all(np.isfinite(y_hat)) and np.all(np.isfinite(s)) and np.all(np.isfinite(y))):
            raise InputError("calibration inputs must be finite")
        sigma2 = np.exp(s)
        if not np.all(sigma2 > 0.0):
            raise InvariantError("predicted variances must be strictly positive")

        normalized_sq = (y - y_hat) ** 2 / sigma2
        total = float(normalized_sq.sum())
        mean = total / n
        if total < _DEGENERATE_SUM:
            warnings.warn(
                "calibration residuals are numerically zero; "
                f"flooring r at {DEGENERATE_FLOOR}",
                DegenerateCalibrationWarning,
            )
            return cls(DEGENERATE_FLOOR, n, mean, degenerate=True)
        return cls(math.sqrt(mean), n, mean)

    @classmethod
    def from_r(cls, r: float) -> "CalibrationScale":
        """Wrap an already-known multiplier, e.g. one read from a checkpoint."""
        return cls(r=float(r), num_samples_used=0, mean_normalized_residual_sq=float(r) ** 2)

    @property
    def variance_multiplier(self) -> float:
        return self.r * self.r

    def shift_log_variance(self, s):
        """Log-variances under this scale, s + 2 log r, for a float or an array."""
        return s + 2.0 * math.log(self.r)


# Kept for perfbench/workloads.py (train-paper), which fits on rows.
def fit_scale(
    preds: Sequence[HeteroPrediction], labels: Sequence[float]
) -> CalibrationScale:
    """CalibrationScale.fit on the columns of matched predictions and labels."""
    return CalibrationScale.fit([p.y_hat for p in preds], [p.s for p in preds], labels)
