"""Closed-form scalar recalibration of predicted variances.

A single multiplier r is fitted on held-out data so that r^2 * sigma_hat^2
matches the observed squared residuals on average: r^2 is the mean of
(y - y_hat)^2 / sigma_hat^2, which is exactly the minimiser of the Gaussian
NLL over the family {(y_hat, r^2 sigma_hat^2)}. Callers apply the scale to
whole arrays, adding 2 log r to the log-variances or multiplying variances
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
    def from_r(cls, r: float) -> "CalibrationScale":
        """Wrap an already-known multiplier, e.g. one read from a checkpoint."""
        return cls(r=float(r), num_samples_used=0, mean_normalized_residual_sq=float(r) ** 2)

    @property
    def variance_multiplier(self) -> float:
        return self.r * self.r


def fit_scale(
    preds: Sequence[HeteroPrediction], labels: Sequence[float]
) -> CalibrationScale:
    """Fit the scale on matched predictions and labels.

    The positive root is always taken. If the summed normalized residuals
    fall below 1e-12 the scale is floored at DEGENERATE_FLOOR and a
    DegenerateCalibrationWarning is emitted.
    """
    if len(preds) == 0:
        raise InputError("calibration requires at least one sample")
    if len(preds) != len(labels):
        raise InputError(
            f"got {len(preds)} predictions but {len(labels)} labels"
        )
    y_hat = np.array([p.y_hat for p in preds], dtype=float)
    s = np.array([p.s for p in preds], dtype=float)
    y = np.asarray(labels, dtype=float)
    if not (np.all(np.isfinite(y_hat)) and np.all(np.isfinite(s)) and np.all(np.isfinite(y))):
        raise InputError("calibration inputs must be finite")
    sigma2 = np.exp(s)
    if not np.all(sigma2 > 0.0):
        raise InvariantError("predicted variances must be strictly positive")

    normalized_sq = (y - y_hat) ** 2 / sigma2
    total = float(normalized_sq.sum())
    mean = total / len(preds)
    if total < _DEGENERATE_SUM:
        warnings.warn(
            "calibration residuals are numerically zero; "
            f"flooring r at {DEGENERATE_FLOOR}",
            DegenerateCalibrationWarning,
        )
        return CalibrationScale(DEGENERATE_FLOOR, len(preds), mean, degenerate=True)
    return CalibrationScale(math.sqrt(mean), len(preds), mean)
