"""Evaluation metrics for probabilistic quality-score regression.

Every function takes the 1-d columns it reads, one entry per rated item:
system_ids, y_true, y_pred, var_pred, and for the report optional domain
labels (1 = OOD, 0 = in domain). One helper checks them: equal lengths, at
least one row, finite scores and finite non-negative variances. Accuracy
metrics (mse, srcc_system), proper-score and calibration metrics
(nll_metric, uce, sharpness), a separability metric (roc_auc), and two
diagnostic curves (error_uncertainty_curve, selective_sweep) are provided,
plus the one-call MetricsReport.of. compute_report and EvalRecord keep the
older row form: it stacks the rows once and calls MetricsReport.of.

The two rank-based metrics (srcc_system, roc_auc) share one numpy helper
that gives 1-based average ranks: a tie group takes the mean of the ranks
it spans. These are half-integers, exact in float64, and equal to
scipy.stats.rankdata(method="average") bit for bit; the package needs only
numpy at run time.

uce, error_uncertainty_curve and selective_sweep loop over no bin or threshold
(uce is one bincount; the curve's bins and the sweep's kept sets are slices of one
stable sort by var_pred), so their sums may differ from per-bin means in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    MAX_SIZE, InputError, InvariantError, check_array, check_bool, check_float, check_int,
)
from .ioutils import canonical_json

__all__ = [
    "EvalRecord", "MetricsReport", "mse", "srcc_system", "nll_metric", "uce", "sharpness",
    "roc_auc", "error_uncertainty_curve", "selective_sweep", "compute_report",
]

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


# Kept for perfbench/workloads.py (train-paper), which scores rows.
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
        for name in ("y_true", "y_pred"):
            check_float(f"record {self.id!r} {name}", getattr(self, name), -math.inf, math.inf,
                        low_open=True, error=InputError)
        check_float(f"record {self.id!r} var_pred", self.var_pred, 0.0, math.inf,
                    error=InvariantError)


@dataclass(frozen=True)
class MetricsReport:
    """Flat bundle of the headline metrics; auc is None without domain labels."""

    mse: float
    srcc_system: float
    nll: float
    uce: float
    sharpness: float
    auc: float | None

    @classmethod
    def of(
        cls, system_ids: np.ndarray, y_true: np.ndarray, y_pred: np.ndarray,
        var_pred: np.ndarray, domain_labels: np.ndarray | None = None,
        num_bins: int = 10, include_const: bool = True,
    ) -> MetricsReport:
        """All headline metrics of one prediction set, given as columns. auc separates OOD
        rows (domain label 1) from in-domain rows (0) by var_pred, if both occur. A metric
        with no JSON form, a non-finite one other than srcc_system, raises InvariantError."""
        named = dict(system_ids=system_ids, y_true=y_true, y_pred=y_pred, var_pred=var_pred)
        if domain_labels is not None:
            named["domain_labels"] = domain_labels
        system_ids, y_true, y_pred, var_pred, *labels = _columns(**named)
        auc = roc_auc(var_pred, labels[0]) if labels and np.unique(labels[0]).size == 2 else None
        report = cls(
            mse=mse(y_true, y_pred),
            srcc_system=srcc_system(system_ids, y_true, y_pred),
            nll=nll_metric(y_true, y_pred, var_pred, include_const=include_const),
            uce=uce(y_true, y_pred, var_pred, num_bins=num_bins),
            sharpness=sharpness(var_pred),
            auc=auc,
        )
        for name in ("mse", "nll", "uce", "sharpness", "auc"):
            if not math.isfinite(getattr(report, name) or 0.0):
                raise InvariantError(f"metric {name} is not finite: {getattr(report, name)}")
        return report

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


def _columns(**columns) -> tuple[np.ndarray, ...]:
    """The named inputs as 1-d arrays of one length, at least one row: system_ids as objects,
    the rest float64 (errors.check_array). As in EvalRecord, non-finite y_true, y_pred (or
    roc_auc scores) raise InputError, and a var_pred that is not finite and non-negative
    raises InvariantError."""
    finite = ("y_true", "y_pred", "scores")
    arrays = [check_array(k, v, 1, k in finite) if k != "system_ids"
              else np.asarray(v, dtype=object) for k, v in columns.items()]
    shapes = dict(zip(columns, (a.shape for a in arrays)))
    if len(set(shapes.values())) > 1:
        raise InputError(f"metric columns must be 1-d and of one length, got shapes {shapes}")
    if arrays[0].size == 0:
        raise InputError("metric requires at least one record")
    var = dict(zip(columns, arrays)).get("var_pred")
    if var is not None and not (np.isfinite(var) & (var >= 0.0)).all():
        raise InvariantError("var_pred needs finite non-negative values")
    return tuple(arrays)


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


def _by_variance(y_true, y_pred, var_pred) -> tuple[np.ndarray, np.ndarray]:
    """The checked var_pred and the squared errors, both stably sorted by var_pred."""
    y_true, y_pred, var = _columns(y_true=y_true, y_pred=y_pred, var_pred=var_pred)
    order = np.argsort(var, kind="stable")
    return var[order], ((y_true - y_pred) ** 2)[order]


def mse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean squared error of the point predictions."""
    y_true, y_pred = _columns(y_true=y_true, y_pred=y_pred)
    return float(np.mean((y_true - y_pred) ** 2))


def srcc_system(system_ids: np.ndarray, y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Spearman rank correlation between per-system mean true and mean
    predicted scores. Ties receive average (fractional) ranks."""
    # An object array keeps ids that a fixed-width "U" array would merge,
    # such as "a" and "a\x00"; bincount sums each system in row order.
    system_ids, y_true, y_pred = _columns(system_ids=system_ids, y_true=y_true, y_pred=y_pred)
    try:
        systems, system = np.unique(system_ids, return_inverse=True)
    except (TypeError, ValueError):  # ids that do not sort against each other
        raise InputError("system_ids must be mutually comparable, such as strings") from None
    if len(systems) < 2:
        raise InputError(f"system correlation needs >= 2 systems, got {len(systems)}")
    counts = np.bincount(system)
    true_means = np.bincount(system, weights=y_true) / counts
    pred_means = np.bincount(system, weights=y_pred) / counts
    rank_true = _average_ranks(true_means)
    rank_pred = _average_ranks(pred_means)
    # Constant means give zero rank variance; the correlation is then
    # undefined and reported as nan rather than raising mid-report.
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.corrcoef(rank_true, rank_pred)[0, 1])


def nll_metric(
    y_true: np.ndarray, y_pred: np.ndarray, var_pred: np.ndarray, include_const: bool = True
) -> float:
    """Mean Gaussian negative log-likelihood under N(y_pred, var_pred).

    include_const adds the 1/2*log(2*pi) term so values are comparable with
    reported likelihoods; turning it off matches the training loss.
    """
    y_true, y_pred, var = _columns(y_true=y_true, y_pred=y_pred, var_pred=var_pred)
    if np.any(var <= 0.0):
        raise InputError("nll_metric requires strictly positive predicted variances")
    vals = 0.5 * np.log(var) + (y_true - y_pred) ** 2 / (2.0 * var)
    if check_bool("include_const", include_const, error=InputError):
        vals = vals + HALF_LOG_2PI
    return float(np.mean(vals))


def uce(
    y_true: np.ndarray, y_pred: np.ndarray, var_pred: np.ndarray, num_bins: int = 10
) -> float:
    """Uncertainty calibration error over equal-width variance bins.

    Rows are binned by var_pred into num_bins equal-width bins spanning
    the observed [min, max]; each bin contributes its occupancy-weighted
    absolute gap between the mean squared error and the mean predicted
    variance inside the bin. Empty bins contribute nothing.
    """
    y_true, y_pred, var = _columns(y_true=y_true, y_pred=y_pred, var_pred=var_pred)
    num_bins = check_int("num_bins", num_bins, 1, MAX_SIZE, error=InputError)
    edges = np.linspace(var.min(), var.max(), num_bins + 1)
    # Right-closed bins; the first bin also includes its left edge. A bin's term, count / n *
    # |mean gap|, is |its gap sum| / n, divided first so the total overflows only if a term does.
    bins = np.digitize(var, edges[1:-1], right=True)
    sums = np.bincount(bins, weights=(y_true - y_pred) ** 2 - var)
    return float(np.sum(np.abs(sums) / var.size))


def sharpness(var_pred: np.ndarray) -> float:
    """Mean predicted variance; lower is sharper."""
    (var,) = _columns(var_pred=var_pred)
    return float(np.mean(var))


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random positive outscores a random negative,
    counting ties as one half (the Mann-Whitney statistic)."""
    scores, labels = _columns(scores=scores, labels=labels)
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
    y_true: np.ndarray, y_pred: np.ndarray, var_pred: np.ndarray, num_bins: int = 10
) -> list[tuple[float, float]]:
    """Mean squared error inside equal-count bins of increasing uncertainty.

    Rows are sorted by var_pred and cut into num_bins contiguous bins of
    floor(n/num_bins) rows each; the last bin absorbs the remainder.
    Returns (mean variance, mean squared error) per bin, in bin order.
    """
    var, sq_err = _by_variance(y_true, y_pred, var_pred)
    n = var.size
    if check_int("num_bins", num_bins, 1, MAX_SIZE, error=InputError) > n:
        raise InputError(f"num_bins must lie in [1, {n}], got {num_bins}")
    starts = np.arange(num_bins) * (n // num_bins)
    counts = np.diff(starts, append=n)
    mean_var, mean_err = (np.add.reduceat(column, starts) / counts for column in (var, sq_err))
    return list(zip(mean_var.tolist(), mean_err.tolist()))


def selective_sweep(
    y_true: np.ndarray, y_pred: np.ndarray, var_pred: np.ndarray, thresholds: Sequence[float]
) -> list[tuple[float, float, float | None]]:
    """Accuracy when predictions above an uncertainty budget are rejected.

    For each threshold t (ascending) the subset with var_pred <= t is kept;
    the result rows are (t, retained fraction, subset mse), with None in
    place of the mse when nothing is retained.
    """
    var, sq_err = _by_variance(y_true, y_pred, var_pred)
    thresholds = check_array("thresholds", thresholds, 1)
    if (thresholds[1:] < thresholds[:-1]).any():
        raise InputError("thresholds must be sorted ascending")
    # The rows kept at t are a prefix of the sorted rows; none at a nan t, placed last here.
    kept = np.where(np.isnan(thresholds), 0, np.searchsorted(var, thresholds, side="right"))
    sums = np.r_[0.0, np.cumsum(sq_err)][kept]
    subset_mse = np.where(kept > 0, sums / np.maximum(kept, 1), None)
    return list(zip(thresholds.tolist(), (kept / var.size).tolist(), subset_mse.tolist()))


# Kept for perfbench/workloads.py (train-paper), which scores EvalRecord rows.
def compute_report(
    records: Sequence[EvalRecord], num_bins: int = 10, include_const: bool = True
) -> MetricsReport:
    """MetricsReport.of over EvalRecord rows, stacked once into columns.

    The rows' domain labels are used only when every record carries one.
    """
    labels = [r.domain_label for r in records]
    scores = check_array("records", [(r.y_true, r.y_pred, r.var_pred) for r in records])
    return MetricsReport.of(
        [r.system_id for r in records], *scores.reshape(-1, 3).T.copy(),
        domain_labels=None if None in labels else labels,
        num_bins=num_bins, include_const=include_const,
    )
