"""Two-head feed-forward network with hand-derived backpropagation.

A shared trunk maps a feature vector to a hidden representation. Two heads
map that representation to a predicted score and to the log of the
predicted variance. Each head is a dropout layer followed by two linear
layers with one activation in between, so test-time MC sampling only ever
perturbs the heads.

All learnable arrays live in one contiguous float64 vector,
``ModelParams.flat``. One layout table, ``param_layout(arch)``, gives each
array's group, shape and span in that vector, and ``trunk_w`` ...
``logvar_b`` are views into it. ``backward_batch`` writes its gradients into
one fresh flat vector of the same layout (returned as a ModelParams), so an
optimizer updates every parameter with a few whole-vector operations.

Everything else is plain and explicit: randomness enters only through
generators passed by the caller, and gradients are computed by replaying the
forward pass, whose intermediates ``forward_batch`` hands to
``backward_batch`` as a plain tuple. In dropout mode both heads' masks come
from one ``rng.random((2, B, H))`` draw, score head first: the same stream
as one draw per head.

``forward_batch`` checks only the shape of its features. Their finiteness
is checked once per dataset by its callers (``trainer.train`` for the train
and validation splits, ``trainer.predict_batch``) and on every call of the
one-row ``forward``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InputError, ShapeError

__all__ = [
    "ACTIVATIONS",
    "GROUPS",
    "S_CLAMP",
    "ArchConfig",
    "ModelParams",
    "HeteroPrediction",
    "Slot",
    "dropout_mask",
    "param_layout",
    "init_params",
    "forward",
    "forward_batch",
    "backward",
    "backward_batch",
    "param_arrays",
]

ACTIVATIONS = ("tanh", "relu")

# Log-variance head outputs are clamped to this symmetric range so that
# exp(s) stays within roughly [4.5e-5, 2.2e4] no matter how far training
# or an out-of-distribution input pushes the raw head output.
S_CLAMP = 10.0

MODES = ("deterministic", "dropout")

# Parameter groups in flat-vector order; within a group, layers in order.
GROUPS = ("trunk_w", "trunk_b", "score_w", "score_b", "logvar_w", "logvar_b")


@dataclass(frozen=True)
class ArchConfig:
    """Network shape and regularisation settings.

    trunk_dims may be empty, in which case both heads read the raw input.
    dropout_p is the drop probability used whenever a forward pass runs in
    dropout mode (training and MC sampling may override it per call).
    """

    input_dim: int = 16
    trunk_dims: tuple[int, ...] = (32,)
    head_hidden_dim: int = 16
    dropout_p: float = 0.5
    activation: str = "tanh"

    def __post_init__(self):
        object.__setattr__(self, "trunk_dims", tuple(int(w) for w in self.trunk_dims))
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if any(w < 1 for w in self.trunk_dims):
            raise ConfigError(f"trunk widths must all be >= 1, got {self.trunk_dims}")
        if self.head_hidden_dim < 1:
            raise ConfigError(f"head_hidden_dim must be >= 1, got {self.head_hidden_dim}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")
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

    Weight matrices are (fan_out, fan_in). The order is GROUPS: trunk
    weights, trunk biases, then score head and log-variance head weights and
    biases, layers in order within each group.
    """
    widths = (arch.input_dim, *arch.trunk_dims)
    head_w = [(arch.head_hidden_dim, arch.trunk_output_dim), (1, arch.head_hidden_dim)]
    head_b = [(arch.head_hidden_dim,), (1,)]
    trunk_w = list(zip(widths[1:], widths[:-1]))
    trunk_b = [(w,) for w in arch.trunk_dims]
    slots, start = [], 0
    for group, shapes in zip(GROUPS, (trunk_w, trunk_b, head_w, head_b, head_w, head_b)):
        for shape in shapes:
            slots.append(Slot(group, shape, start, start + math.prod(shape)))
            start = slots[-1].stop
    return tuple(slots)


@dataclass(frozen=True)
class ModelParams:
    """All learnable arrays, as views into one flat float64 vector.

    Treat instances as immutable once published. Layer l computes
    a_out = act(W @ a_in + b). Each head holds exactly two layers: index 0
    maps the (dropped-out) trunk output to the head hidden layer, index 1
    maps the head hidden layer to the scalar output. Gradients from
    backward_batch use the same class and layout.
    """

    arch: ArchConfig
    flat: np.ndarray
    rng_seed_used: int
    trunk_w: list[np.ndarray] = field(init=False, repr=False, compare=False)
    trunk_b: list[np.ndarray] = field(init=False, repr=False, compare=False)
    score_w: list[np.ndarray] = field(init=False, repr=False, compare=False)
    score_b: list[np.ndarray] = field(init=False, repr=False, compare=False)
    logvar_w: list[np.ndarray] = field(init=False, repr=False, compare=False)
    logvar_b: list[np.ndarray] = field(init=False, repr=False, compare=False)

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


@dataclass(frozen=True)
class HeteroPrediction:
    """A Gaussian predictive distribution for one input.

    s is the log of the predicted variance; sigma2 is always exp(s).
    """

    y_hat: float
    s: float

    @property
    def sigma2(self) -> float:
        return math.exp(self.s)


def param_arrays(params: ModelParams) -> list[np.ndarray]:
    """All learnable arrays, as views in flat-vector order."""
    return [params.flat[s.start : s.stop].reshape(s.shape) for s in param_layout(params.arch)]


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _activate_grad(post: np.ndarray, kind: str) -> np.ndarray:
    # tanh' from the cached output avoids recomputing tanh; relu' is 0 at 0,
    # and relu's output is positive exactly where its input is.
    if kind == "tanh":
        return 1.0 - post * post
    return post > 0.0


def dropout_mask(rng: np.random.Generator, shape: tuple[int, ...], p: float) -> np.ndarray:
    """Inverted-dropout mask: entries are 0 with probability p, else 1/(1-p).

    With p = 0 no random numbers are consumed and the mask is all ones, so
    dropout mode with p = 0 is bit-identical to a deterministic pass.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must lie in [0, 1), got {p}")
    if p == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= p
    return keep / (1.0 - p)


def init_params(arch: ArchConfig, seed: int) -> ModelParams:
    """Deterministically initialise all layers from one integer seed.

    Weights are uniform on [-1/sqrt(fan_in), +1/sqrt(fan_in)]; biases are
    zero. Draw order is fixed: trunk layers, then score head, then
    log-variance head.
    """
    rng = np.random.default_rng(seed)
    params = ModelParams(arch, np.zeros(param_layout(arch)[-1].stop), int(seed))
    for w in params.trunk_w + params.score_w + params.logvar_w:
        bound = 1.0 / math.sqrt(w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _check_shape(arch: ArchConfig, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ShapeError(
            f"expected features of width {arch.input_dim}, got array of shape {x.shape}"
        )


def _check_features(arch: ArchConfig, x: np.ndarray) -> None:
    _check_shape(arch, x)
    if not np.all(np.isfinite(x)):
        raise InputError("features contain non-finite values")


def _head_forward(
    h: np.ndarray,
    w: list[np.ndarray],
    b: list[np.ndarray],
    kind: str,
    mask: np.ndarray | None,
) -> tuple[np.ndarray, tuple]:
    """(head output, (mask, head input, hidden activations)) for a batch."""
    h_in = h if mask is None else h * mask
    hidden = _activate(h_in @ w[0].T + b[0], kind)
    return (hidden @ w[1].T + b[1])[:, 0], (mask, h_in, hidden)


def forward_batch(
    params: ModelParams,
    x: np.ndarray,
    mode: str = "deterministic",
    rng: np.random.Generator | None = None,
    dropout_p: float | None = None,
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Run the network on a (batch, input_dim) array.

    Returns (y_hat, s, cache) where y_hat and s are (batch,) arrays, s is
    already clamped to [-S_CLAMP, +S_CLAMP], and cache holds the
    intermediates that backward_batch replays. In dropout mode the masks of
    both heads, score head first, come from one draw on the supplied
    generator. Features are not checked for finiteness here (see the module
    docstring).
    """
    arch = params.arch
    x = np.asarray(x, dtype=float)
    _check_shape(arch, x)
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    p = arch.dropout_p if dropout_p is None else float(dropout_p)
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout_p must lie in [0, 1), got {p}")
    if mode == "dropout" and rng is None:
        raise ConfigError("dropout mode requires an rng")

    a = x
    trunk_post = []
    for w, b in zip(params.trunk_w, params.trunk_b):
        a = _activate(a @ w.T + b, arch.activation)
        trunk_post.append(a)

    # At p = 0 a mask would be all ones, and multiplying by one is exact.
    masks = (
        dropout_mask(rng, (2, *a.shape), p) if mode == "dropout" and p > 0.0 else (None, None)
    )
    y_hat, score = _head_forward(a, params.score_w, params.score_b, arch.activation, masks[0])
    s_raw, logvar = _head_forward(a, params.logvar_w, params.logvar_b, arch.activation, masks[1])
    return y_hat, np.clip(s_raw, -S_CLAMP, S_CLAMP), (x, trunk_post, score, logvar, s_raw)


def forward(
    params: ModelParams,
    x: np.ndarray,
    mode: str = "deterministic",
    rng: np.random.Generator | None = None,
    dropout_p: float | None = None,
) -> tuple[HeteroPrediction, tuple]:
    """Run the network on one feature vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-d feature vector, got array of shape {x.shape}")
    _check_features(params.arch, x[None, :])
    y_hat, s, cache = forward_batch(params, x[None, :], mode, rng, dropout_p)
    return HeteroPrediction(float(y_hat[0]), float(s[0])), cache


def _head_backward(
    head: tuple,
    w: list[np.ndarray],
    d_w: list[np.ndarray],
    d_b: list[np.ndarray],
    d_out: np.ndarray,
    kind: str,
) -> np.ndarray:
    """Backprop a head given d(loss)/d(head output) of shape (B,).

    Writes the head's weight and bias gradients into d_w and d_b and
    returns d(loss)/d(trunk output).
    """
    mask, h_in, hidden = head
    do = d_out[:, None]
    np.matmul(do.T, hidden, out=d_w[1])
    np.add.reduce(do, axis=0, out=d_b[1])
    d_hidden = (do @ w[1]) * _activate_grad(hidden, kind)
    np.matmul(d_hidden.T, h_in, out=d_w[0])
    np.add.reduce(d_hidden, axis=0, out=d_b[0])
    d_h = d_hidden @ w[0]
    return d_h if mask is None else d_h * mask


def backward_batch(
    cache: tuple,
    params: ModelParams,
    d_y_hat: np.ndarray,
    d_s: np.ndarray,
) -> ModelParams:
    """Parameter gradients for a cached batch forward pass.

    d_y_hat and d_s are (batch,) upstream derivatives of a scalar loss with
    respect to the two outputs. Where the log-variance clamp was active the
    incoming d_s is zeroed, matching the piecewise-constant clamp. The
    gradients come back as a ModelParams over one new flat vector.
    """
    x, trunk_post, score, logvar, s_raw = cache
    arch = params.arch
    if x.shape[1] != arch.input_dim or score[1].shape[1] != arch.trunk_output_dim:
        raise ShapeError("forward cache does not match the supplied parameters")
    d_y_hat = np.asarray(d_y_hat, dtype=float)
    d_s = np.asarray(d_s, dtype=float)
    if d_y_hat.shape != (len(x),) or d_s.shape != (len(x),):
        raise ShapeError(
            f"upstream gradients must have shape ({len(x)},), "
            f"got {d_y_hat.shape} and {d_s.shape}"
        )

    grads = ModelParams(arch, np.empty_like(params.flat), params.rng_seed_used)
    kind = arch.activation
    d_s_eff = d_s * (np.abs(s_raw) < S_CLAMP)
    d_a = _head_backward(score, params.score_w, grads.score_w, grads.score_b, d_y_hat, kind)
    d_a += _head_backward(logvar, params.logvar_w, grads.logvar_w, grads.logvar_b, d_s_eff, kind)
    for l in range(len(trunk_post) - 1, -1, -1):
        d_z = d_a * _activate_grad(trunk_post[l], kind)
        np.matmul(d_z.T, trunk_post[l - 1] if l > 0 else x, out=grads.trunk_w[l])
        np.add.reduce(d_z, axis=0, out=grads.trunk_b[l])
        if l > 0:
            d_a = d_z @ params.trunk_w[l]
    return grads


def backward(cache: tuple, params: ModelParams, d_y_hat: float, d_s: float) -> ModelParams:
    """Single-sample gradient: cache must come from a one-row forward pass."""
    batch = len(cache[0])
    if batch != 1:
        raise ShapeError(f"backward() expects a single-sample cache, got batch size {batch}")
    return backward_batch(cache, params, np.array([d_y_hat]), np.array([d_s]))
