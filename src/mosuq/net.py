"""Two-head feed-forward network with hand-derived backpropagation.

A shared trunk maps a feature vector to a hidden representation. Two heads
map that representation to a predicted score and to the log of the
predicted variance. Each head is a dropout layer followed by two linear
layers with one activation in between, so test-time MC sampling only ever
perturbs the heads.

All learnable arrays live in one contiguous float64 vector,
``ModelParams.flat``. One layout table, ``param_layout(arch)``, gives each
array's group, shape and span in that vector, and ``trunk_w``, ``trunk_b``,
``head_w`` and ``head_b`` are views into it. The two heads are stored side
by side: ``head_w`` and ``head_b`` view each head layer as one ``(2, ...)``
stack, score head first, and each head layer is one ``np.matmul``.
``backward_batch`` writes its gradients into a flat vector of the same
layout (a ModelParams, fresh or reused), so an optimizer updates every
parameter with a few whole-vector operations.

Everything else is plain and explicit: the network draws no random numbers,
and gradients are computed by replaying the forward pass, whose
intermediates ``forward_batch`` hands to ``backward_batch`` as a plain
tuple. Dropout runs only when the caller passes a mask: the ``(2, B, H)``
inverted-dropout multipliers of both heads, score head first.
``dropout_mask`` makes one from a generator's uniforms; the trainer draws
them for many batches at once and hands each batch its slice.

There is one code path per operation, over a batch of rows:
``forward_batch`` and ``backward_batch``. A single row is a batch of one.
``forward_batch`` checks only the shape of its features. Their finiteness
is checked once per dataset by its callers (``trainer.train`` for the train
and validation splits, ``trainer.predict_batch``, and the MC kernel).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InputError, ShapeError, check_float, check_int

__all__ = [
    "ACTIVATIONS",
    "S_CLAMP",
    "ArchConfig",
    "ModelParams",
    "HeteroPrediction",
    "param_layout",
    "init_params",
    "dropout_mask",
    "forward_batch",
    "backward_batch",
]

ACTIVATIONS = ("tanh", "relu")

# Log-variance head outputs are clamped to this symmetric range so that
# exp(s) stays within roughly [4.5e-5, 2.2e4] no matter how far training
# or an out-of-distribution input pushes the raw head output.
S_CLAMP = 10.0

_FLOAT64 = np.dtype(np.float64)

# Parameter groups; within a group, layers in order.
GROUPS = ("trunk_w", "trunk_b", "head_w", "head_b")


@dataclass(frozen=True)
class ArchConfig:
    """Network shape and regularisation settings.

    These defaults are the CLI's. Every width is an integer >= 1 (checked
    with errors.check_int), and trunk_dims, which may be empty so that both
    heads read the raw input, is stored as a tuple of ints. dropout_p, a
    number in [0, 1) (errors.check_float), is the drop probability of the
    training masks (MC sampling takes its own from MCConfig).
    """

    input_dim: int = 16
    trunk_dims: tuple[int, ...] = (32,)
    head_hidden_dim: int = 16
    dropout_p: float = 0.5
    activation: str = "tanh"

    def __post_init__(self):
        check_int("input_dim", self.input_dim, 1)
        for w in self.trunk_dims:
            check_int("trunk width", w, 1)
        object.__setattr__(self, "trunk_dims", tuple(int(w) for w in self.trunk_dims))
        check_int("head_hidden_dim", self.head_hidden_dim, 1)
        check_float("dropout_p", self.dropout_p, 0.0, 1.0)
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")

    @property
    def trunk_output_dim(self) -> int:
        return self.trunk_dims[-1] if self.trunk_dims else self.input_dim


class Slot(NamedTuple):
    """One learnable array: flat[start:stop] viewed with this shape."""

    group: str
    shape: tuple[int, ...]
    start: int
    stop: int


@functools.lru_cache(maxsize=64)
def param_layout(arch: ArchConfig) -> tuple[Slot, ...]:
    """Every learnable array of the architecture, in flat-vector order.

    Weight matrices are (fan_out, fan_in). The order is trunk weights, then
    trunk biases, layers in order; then, for each head layer in turn, both
    heads' weights as one (2, fan_out, fan_in) stack and both heads' biases
    as one (2, 1, fan_out) stack, score head first.
    """
    widths = (arch.input_dim, *arch.trunk_dims)
    entries = [("trunk_w", shape) for shape in zip(widths[1:], widths[:-1])]
    entries += [("trunk_b", (w,)) for w in arch.trunk_dims]
    for w in ((arch.head_hidden_dim, arch.trunk_output_dim), (1, arch.head_hidden_dim)):
        entries += [("head_w", (2, *w)), ("head_b", (2, 1, w[0]))]
    slots, start = [], 0
    for group, shape in entries:
        slots.append(Slot(group, shape, start, start + math.prod(shape)))
        start = slots[-1].stop
    return tuple(slots)


@dataclass(frozen=True)
class ModelParams:
    """All learnable arrays, as views into one flat float64 vector.

    Treat instances as immutable once published. Layer l computes
    a_out = act(W @ a_in + b). Each head holds exactly two layers: index 0
    maps the (dropped-out) trunk output to the head hidden layer, index 1
    maps the head hidden layer to the scalar output. head_w[l] and head_b[l]
    view layer l of both heads at once, score head first: weights as
    (2, fan_out, fan_in), biases as (2, 1, fan_out), so head_w[l][1] is the
    log-variance head's weight. Gradients from backward_batch use the same
    class and layout.
    """

    arch: ArchConfig
    flat: np.ndarray
    rng_seed_used: int
    trunk_w: list[np.ndarray] = field(init=False, repr=False, compare=False)
    trunk_b: list[np.ndarray] = field(init=False, repr=False, compare=False)
    head_w: list[np.ndarray] = field(init=False, repr=False, compare=False)
    head_b: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layout = param_layout(self.arch)
        size, flat = layout[-1].stop, self.flat
        if flat.dtype != np.float64 or flat.shape != (size,) or not flat.flags.c_contiguous:
            raise ShapeError(
                f"expected a contiguous float64 vector of {size} parameters, "
                f"got {flat.dtype} array of shape {flat.shape}"
            )
        for group in GROUPS:
            object.__setattr__(self, group, [])
        for slot in layout:
            getattr(self, slot.group).append(flat[slot.start : slot.stop].reshape(slot.shape))

    def __deepcopy__(self, memo) -> ModelParams:
        return ModelParams(self.arch, self.flat.copy(), self.rng_seed_used)


# Kept for perfbench/workloads.py (train-paper), which builds fit_scale rows.
@dataclass(frozen=True)
class HeteroPrediction:
    """A Gaussian predictive distribution for one input; s is the log of the
    predicted variance."""

    y_hat: float
    s: float


def _activate(z: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z, out=out)
    return np.maximum(z, 0.0, out=out)


def _activate_grad(post: np.ndarray, kind: str) -> np.ndarray:
    # tanh' from the cached output avoids recomputing tanh; relu' is 0 at 0,
    # and relu's output is positive exactly where its input is.
    if kind == "tanh":
        return 1.0 - post * post
    return post > 0.0


def init_params(arch: ArchConfig, seed: int) -> ModelParams:
    """Deterministically initialise all layers from one integer seed.

    Weights are uniform on [-1/sqrt(fan_in), +1/sqrt(fan_in)]; biases are
    zero. Draw order is fixed: trunk layers, then both score head layers,
    then both log-variance head layers.
    """
    rng = np.random.default_rng(seed)
    params = ModelParams(arch, np.zeros(param_layout(arch)[-1].stop), int(seed))
    for w in params.trunk_w + [layer[h] for h in (0, 1) for layer in params.head_w]:
        bound = 1.0 / math.sqrt(w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _check_shape(arch: ArchConfig, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ShapeError(
            f"expected features of width {arch.input_dim}, got array of shape {x.shape}"
        )


def _as_features(x) -> np.ndarray:
    """x as a float64 array. Features that are ragged or not real numbers
    (strings, complex numbers, objects that are not numbers) are an
    InputError; bools, integers and number objects are converted."""
    try:
        x = np.asarray(x)
        if x.dtype.kind == "O":
            x = x.astype(np.float64)
    except (TypeError, ValueError):  # ragged, or an object that is not a number
        raise InputError("features must be a rectangular array of real numbers") from None
    if x.dtype.kind not in "biuf":
        raise InputError(f"features must be real numbers, got an array of dtype {x.dtype}")
    return x if x.dtype is _FLOAT64 else x.astype(np.float64)


def _check_features(arch: ArchConfig, x: np.ndarray) -> None:
    _check_shape(arch, x)
    if not np.isfinite(x).all():
        raise InputError("features contain non-finite values")


def dropout_mask(rng: np.random.Generator, p: float, shape, out=None) -> np.ndarray | None:
    """Inverted-dropout multipliers of the given shape at drop probability p.

    Each entry is 0 with probability p, else 1/(1-p), from one
    ``rng.random(shape)`` draw, made in place: in out when it is given (of
    that shape), else in a new array. At p = 0 the mask would be all ones,
    so nothing is drawn and None (no dropout) is returned.
    """
    if p == 0.0:
        return None
    u = rng.random(shape, out=out)
    return np.divide(np.greater_equal(u, p, out=u), 1.0 - p, out=u)


def forward_batch(
    params: ModelParams, x: np.ndarray, mask: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Run the network on a (batch, input_dim) array.

    Returns (y_hat, s, cache) where y_hat and s are (batch,) arrays, s is
    already clamped to [-S_CLAMP, +S_CLAMP], and cache holds the
    intermediates that backward_batch replays. mask, when given, is the
    (2, batch, trunk_output_dim) inverted-dropout multipliers of the
    heads' input, score head first (see dropout_mask); without one the pass
    runs no dropout. Features are not checked for finiteness here (see the
    module docstring).
    """
    arch = params.arch
    x = np.asarray(x, dtype=float)
    _check_shape(arch, x)

    a = x
    trunk_post = []
    for w, b in zip(params.trunk_w, params.trunk_b):
        a = _activate(a @ w.T + b, arch.activation)
        trunk_post.append(a)

    # Both heads at once, as (2, B, .) stacks. Without a mask the heads
    # share the trunk output without a copy.
    if mask is not None:
        if mask.shape != (2, *a.shape):
            raise ShapeError(
                f"expected a dropout mask of shape {(2, *a.shape)}, got {mask.shape}"
            )
        h_in = a * mask
    else:
        h_in = np.broadcast_to(a, (2, *a.shape))
    w, b = params.head_w, params.head_b
    hidden = _activate(np.matmul(h_in, w[0].transpose(0, 2, 1)) + b[0], arch.activation)
    out = np.matmul(hidden, w[1].transpose(0, 2, 1)) + b[1]
    s_raw = out[1, :, 0]
    s = np.minimum(np.maximum(s_raw, -S_CLAMP), S_CLAMP)
    return out[0, :, 0], s, (x, trunk_post, mask, h_in, hidden, s_raw)


def backward_batch(
    cache: tuple,
    params: ModelParams,
    d_y_hat: np.ndarray,
    d_s: np.ndarray,
    out: ModelParams | None = None,
) -> ModelParams:
    """Parameter gradients for a cached batch forward pass.

    d_y_hat and d_s are (batch,) upstream derivatives of a scalar loss with
    respect to the two outputs. Where the log-variance clamp was active the
    incoming d_s is zeroed, matching the piecewise-constant clamp. The
    gradients are written into out, which every call overwrites entirely,
    or into a new ModelParams when out is None; either is returned.
    """
    x, trunk_post, mask, h_in, hidden, s_raw = cache
    arch = params.arch
    if x.shape[1] != arch.input_dim or h_in.shape[2] != arch.trunk_output_dim:
        raise ShapeError("forward cache does not match the supplied parameters")
    d_y_hat = np.asarray(d_y_hat, dtype=float)
    d_s = np.asarray(d_s, dtype=float)
    if d_y_hat.shape != (len(x),) or d_s.shape != (len(x),):
        raise ShapeError(
            f"upstream gradients must have shape ({len(x)},), "
            f"got {d_y_hat.shape} and {d_s.shape}"
        )
    if out is None:
        out = ModelParams(arch, np.empty_like(params.flat), params.rng_seed_used)
    elif out.arch is not arch and out.arch != arch:
        raise ShapeError("gradient buffer does not match the supplied parameters")

    kind = arch.activation
    w, d_w, d_b = params.head_w, out.head_w, out.head_b
    d_out = np.empty((2, len(x), 1))
    d_out[0, :, 0] = d_y_hat
    np.multiply(d_s, np.abs(s_raw) < S_CLAMP, out=d_out[1, :, 0])
    np.matmul(d_out.transpose(0, 2, 1), hidden, out=d_w[1])
    np.add.reduce(d_out, axis=1, keepdims=True, out=d_b[1])
    d_hidden = np.matmul(d_out, w[1]) * _activate_grad(hidden, kind)
    np.matmul(d_hidden.transpose(0, 2, 1), h_in, out=d_w[0])
    np.add.reduce(d_hidden, axis=1, keepdims=True, out=d_b[0])
    d_h = np.matmul(d_hidden, w[0])
    if mask is not None:
        d_h *= mask
    d_a = d_h[0] + d_h[1]
    for l in range(len(trunk_post) - 1, -1, -1):
        d_z = d_a * _activate_grad(trunk_post[l], kind)
        np.matmul(d_z.T, trunk_post[l - 1] if l > 0 else x, out=out.trunk_w[l])
        np.add.reduce(d_z, axis=0, out=out.trunk_b[l])
        if l > 0:
            d_a = d_z @ params.trunk_w[l]
    return out
