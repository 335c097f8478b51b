"""Training losses over a batch, with analytic gradients.

Each loss takes (B,) arrays of predicted scores y_hat, log-variances s and
labels y, and returns the per-sample values together with their
derivatives with respect to the two network outputs, so the trainer never
differentiates anything numerically: into out, a (values, d_y_hat, d_s)
triple of (B,) arrays such as ``net.Workspace.loss_out``, or new arrays.
Without out, the inputs must be finite real 1-d arrays of one length (else
InputError); a training step passes out unchecked, as the trainer checks its
data once per split and stops on a non-finite batch loss. The Gaussian NLL
drops the additive 1/2*log(2*pi) constant: it shifts every value equally and has
zero gradient, so it is irrelevant for optimisation. The evaluation-time
NLL metric (see ``mosuq.metrics.nll_metric``) can include it.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, check_array

__all__ = ["LOSSES", "nll_loss_batch", "mse_loss_batch"]

LOSSES = ("nll", "mse")


def nll_loss_batch(
    y_hat: np.ndarray, s: np.ndarray, y: np.ndarray, out: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian negative log-likelihood of labels y: returns (values, d_y_hat, d_s).

    value   = s/2 + (y_hat - y)^2 / (2 exp(s))
    d_y_hat = (y_hat - y) / exp(s)
    d_s     = 1/2 - (y_hat - y)^2 / (2 exp(s))
    """
    if out is None:
        y_hat, s, y, out = _checked(y_hat, s, y)
    values, d_y_hat, d_s = out
    r = np.subtract(y_hat, y, out=d_y_hat)
    inv_var = np.exp(np.negative(s, out=values), out=values)
    half_norm_sq = np.multiply(np.multiply(r, 0.5, out=d_s), r, out=d_s)
    half_norm_sq *= inv_var
    r *= inv_var
    np.add(np.multiply(s, 0.5, out=values), half_norm_sq, out=values)
    np.subtract(0.5, half_norm_sq, out=d_s)
    return values, d_y_hat, d_s


def mse_loss_batch(
    y_hat: np.ndarray, s: np.ndarray, y: np.ndarray, out: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared error baseline: returns (values, d_y_hat, d_s), where d_s is
    all zeros, so the log-variance output receives no gradient."""
    if out is None:
        y_hat, s, y, out = _checked(y_hat, s, y)
    values, d_y_hat, d_s = out
    r = np.subtract(y_hat, y, out=d_y_hat)
    np.multiply(r, r, out=values)
    r *= 2.0
    d_s[...] = 0.0
    return values, d_y_hat, d_s


def _checked(y_hat, s, y) -> tuple:
    """The inputs of a loss called without out, checked, and new outputs."""
    y_hat, s, y = (check_array(k, v, 1, True) for k, v in dict(y_hat=y_hat, s=s, y=y).items())
    if not len(y_hat) == len(s) == len(y):
        raise InputError(f"loss inputs differ in length: {len(y_hat)}, {len(s)}, {len(y)}")
    return y_hat, s, y, np.empty((3, len(s)))
