"""Evaluation metrics for probabilistic quality-score regression.

All functions take flat lists of EvalRecord, one per rated item, carrying
the true score, the predicted score, the predicted variance, and optional
grouping/domain labels. Accuracy metrics (mse, srcc_system), proper-score
and calibration metrics (nll_metric, uce, sharpness), a separability
metric (roc_auc), and two diagnostic curves (error_uncertainty_curve,
selective_sweep) are provided, plus a one-call report.

The two rank-based metrics (srcc_system, roc_auc) share one numpy helper
that gives 1-based average ranks: a tie group takes the mean of the ranks
it spans. These are half-integers, exact in float64, and equal to
scipy.stats.rankdata(method="average") bit for bit; the package needs only
numpy at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, InvariantError
from .ioutils import canonical_json

__all__ = [
    "EvalRecord",
    "MetricsReport",
    "mse",
    "srcc_system",
    "nll_metric",
    "uce",
    "sharpness",
    "roc_auc",
    "error_uncertainty_curve",
    "selective_sweep",
    "compute_report",
]

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class EvalRecord:
    """One scored item: ground truth, point prediction, predicted variance.

    domain_label marks out-of-distribution membership (1 = OOD, 0 = in
    domain) and may be None when no domain information exists.
    """

    id: str
    system_id: str
    y_true: float
    y_pred: float
    var_pred: float
    domain_label: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.y_true) and math.isfinite(self.y_pred)):
            raise InputError(f"record {self.id!r} has non-finite scores")
        if not (math.isfinite(self.var_pred) and self.var_pred >= 0.0):
            raise InvariantError(
                f"record {self.id!r} needs a finite non-negative var_pred, got {self.var_pred}"
            )


@dataclass(frozen=True)
class MetricsReport:
    """Flat bundle of the headline metrics; auc is None without domain labels."""

    mse: float
    srcc_system: float
    nll: float
    uce: float
    sharpness: float
    auc: float | None

    def to_dict(self) -> dict:
        """Plain-JSON form; an undefined srcc_system (nan) becomes None."""
        return {
            "mse": self.mse,
            "srcc_system": self.srcc_system if math.isfinite(self.srcc_system) else None,
            "nll": self.nll,
            "uce": self.uce,
            "sharpness": self.sharpness,
            "auc": self.auc,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def _require_records(records: Sequence[EvalRecord]) -> None:
    if len(records) == 0:
        raise InputError("metric requires at least one record")


def _arrays(records: Sequence[EvalRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    y_true = np.array([r.y_true for r in records], dtype=float)
    y_pred = np.array([r.y_pred for r in records], dtype=float)
    var = np.array([r.var_pred for r in records], dtype=float)
    return y_true, y_pred, var


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array, each tie group given its mean rank."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    dense = np.cumsum(starts)[inverse]
    bounds = np.r_[np.flatnonzero(starts), order.size]
    return 0.5 * (bounds[dense] + bounds[dense - 1] + 1)


def mse(records: Sequence[EvalRecord]) -> float:
    """Mean squared error of the point predictions."""
    _require_records(records)
    y_true, y_pred, _ = _arrays(records)
    return float(np.mean((y_true - y_pred) ** 2))


def srcc_system(records: Sequence[EvalRecord]) -> float:
    """Spearman rank correlation between per-system mean true and mean
    predicted scores. Ties receive average (fractional) ranks."""
    _require_records(records)
    true_sums: dict[str, float] = {}
    pred_sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for r in records:
        true_sums[r.system_id] = true_sums.get(r.system_id, 0.0) + r.y_true
        pred_sums[r.system_id] = pred_sums.get(r.system_id, 0.0) + r.y_pred
        counts[r.system_id] = counts.get(r.system_id, 0) + 1
    systems = sorted(counts)
    if len(systems) < 2:
        raise InputError(f"system correlation needs >= 2 systems, got {len(systems)}")
    true_means = np.array([true_sums[k] / counts[k] for k in systems])
    pred_means = np.array([pred_sums[k] / counts[k] for k in systems])
    rank_true = _average_ranks(true_means)
    rank_pred = _average_ranks(pred_means)
    # Constant means give zero rank variance; the correlation is then
    # undefined and reported as nan rather than raising mid-report.
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.corrcoef(rank_true, rank_pred)[0, 1])


def nll_metric(records: Sequence[EvalRecord], include_const: bool = True) -> float:
    """Mean Gaussian negative log-likelihood under N(y_pred, var_pred).

    include_const adds the 1/2*log(2*pi) term so values are comparable with
    reported likelihoods; turning it off matches the training loss.
    """
    _require_records(records)
    y_true, y_pred, var = _arrays(records)
    if np.any(var <= 0.0):
        raise InputError("nll_metric requires strictly positive predicted variances")
    vals = 0.5 * np.log(var) + (y_true - y_pred) ** 2 / (2.0 * var)
    if include_const:
        vals = vals + HALF_LOG_2PI
    return float(np.mean(vals))


def uce(records: Sequence[EvalRecord], num_bins: int = 10) -> float:
    """Uncertainty calibration error over equal-width variance bins.

    Records are binned by var_pred into num_bins equal-width bins spanning
    the observed [min, max]; each bin contributes its occupancy-weighted
    absolute gap between the mean squared error and the mean predicted
    variance inside the bin. Empty bins contribute nothing.
    """
    _require_records(records)
    if num_bins < 1:
        raise InputError(f"num_bins must be >= 1, got {num_bins}")
    y_true, y_pred, var = _arrays(records)
    sq_err = (y_true - y_pred) ** 2
    edges = np.linspace(var.min(), var.max(), num_bins + 1)
    # Right-closed bins; the first bin also includes its left edge.
    idx = np.digitize(var, edges[1:-1], right=True)
    n = len(records)
    total = 0.0
    for m in range(num_bins):
        sel = idx == m
        count = int(sel.sum())
        if count == 0:
            continue
        gap = abs(float(sq_err[sel].mean()) - float(var[sel].mean()))
        total += (count / n) * gap
    return total


def sharpness(records: Sequence[EvalRecord]) -> float:
    """Mean predicted variance; lower is sharper."""
    _require_records(records)
    return float(np.mean([r.var_pred for r in records]))


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability that a random positive outscores a random negative,
    counting ties as one half (the Mann-Whitney statistic)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InputError("scores and labels must be matching 1-d sequences")
    if scores.size == 0:
        raise InputError("roc_auc requires at least one score")
    if not np.all(np.isfinite(scores)):
        raise InputError("roc_auc scores must be finite")
    if not np.all((labels == 0) | (labels == 1)):
        raise InputError("labels must be 0 or 1")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise InputError("roc_auc needs at least one positive and one negative label")
    ranks = _average_ranks(scores)
    rank_sum_pos = float(ranks[labels == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def error_uncertainty_curve(
    records: Sequence[EvalRecord], num_bins: int = 10
) -> list[tuple[float, float]]:
    """Mean squared error inside equal-count bins of increasing uncertainty.

    Records are sorted by var_pred and cut into num_bins contiguous bins of
    floor(n/num_bins) records each; the last bin absorbs the remainder.
    Returns (mean variance, mean squared error) per bin, in bin order.
    """
    _require_records(records)
    n = len(records)
    if num_bins < 1 or num_bins > n:
        raise InputError(f"num_bins must lie in [1, {n}], got {num_bins}")
    y_true, y_pred, var = _arrays(records)
    sq_err = (y_true - y_pred) ** 2
    order = np.argsort(var, kind="stable")
    base = n // num_bins
    points = []
    for m in range(num_bins):
        start = m * base
        stop = start + base if m < num_bins - 1 else n
        sel = order[start:stop]
        points.append((float(var[sel].mean()), float(sq_err[sel].mean())))
    return points


def selective_sweep(
    records: Sequence[EvalRecord], thresholds: Sequence[float]
) -> list[tuple[float, float, float | None]]:
    """Accuracy when predictions above an uncertainty budget are rejected.

    For each threshold t (ascending) the subset with var_pred <= t is kept;
    the result rows are (t, retained fraction, subset mse), with None in
    place of the mse when nothing is retained.
    """
    _require_records(records)
    thresholds = [float(t) for t in thresholds]
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise InputError("thresholds must be sorted ascending")
    y_true, y_pred, var = _arrays(records)
    sq_err = (y_true - y_pred) ** 2
    n = len(records)
    rows: list[tuple[float, float, float | None]] = []
    for t in thresholds:
        sel = var <= t
        kept = int(sel.sum())
        subset_mse = float(sq_err[sel].mean()) if kept else None
        rows.append((t, kept / n, subset_mse))
    return rows


def compute_report(
    records: Sequence[EvalRecord],
    num_bins: int = 10,
    include_const: bool = True,
) -> MetricsReport:
    """All headline metrics in one pass.

    The AUC field separates OOD from in-domain records by var_pred and is
    None unless every record carries a domain label and both classes occur.
    """
    _require_records(records)
    labels = [r.domain_label for r in records]
    auc = None
    if all(l is not None for l in labels) and len(set(labels)) == 2:
        auc = roc_auc([r.var_pred for r in records], labels)
    return MetricsReport(
        mse=mse(records),
        srcc_system=srcc_system(records),
        nll=nll_metric(records, include_const=include_const),
        uce=uce(records, num_bins=num_bins),
        sharpness=sharpness(records),
        auc=auc,
    )
