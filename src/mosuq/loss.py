"""Training losses over a batch, with analytic gradients.

Each loss takes (B,) arrays of predicted scores y_hat, log-variances s and
labels y, and returns the per-sample values together with their
derivatives with respect to the two network outputs, so the trainer never
differentiates anything numerically. Inputs are not checked for
finiteness here: the trainer checks its data once per split and stops on a
non-finite batch loss. The Gaussian NLL drops the additive 1/2*log(2*pi)
constant: it shifts every value equally and has zero gradient, so it is
irrelevant for optimisation. The evaluation-time NLL metric (see
``mosuq.metrics.nll_metric``) can include it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LOSSES", "nll_loss_batch", "mse_loss_batch"]

LOSSES = ("nll", "mse")


def nll_loss_batch(
    y_hat: np.ndarray, s: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian negative log-likelihood of labels y: returns (values, d_y_hat, d_s).

    value   = s/2 + (y - y_hat)^2 / (2 exp(s))
    d_y_hat = (y_hat - y) / exp(s)
    d_s     = 1/2 - (y - y_hat)^2 / (2 exp(s))
    """
    resid = y - y_hat
    inv_var = np.exp(-s)
    half_norm_sq = 0.5 * resid * resid * inv_var
    return 0.5 * s + half_norm_sq, -resid * inv_var, 0.5 - half_norm_sq


def mse_loss_batch(
    y_hat: np.ndarray, s: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared error baseline: returns (values, d_y_hat, d_s), where d_s is
    all zeros, so the log-variance output receives no gradient."""
    resid = y - y_hat
    return resid * resid, -2.0 * resid, np.zeros_like(resid)
