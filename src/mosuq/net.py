"""Two-head feed-forward network with hand-derived backpropagation.

A shared trunk maps a feature vector to a hidden representation. Two heads
map that representation to a predicted score and to the log of the
predicted variance. Each head is a dropout layer followed by two linear
layers with one activation in between, so test-time MC sampling only ever
perturbs the heads.

All learnable arrays live in one contiguous float64 vector,
``ModelParams.flat``, in layer order. One layout table,
``param_layout(arch)``, gives each layer, first to last, a (stack, fan_out,
fan_in) weight and then a (stack, 1, fan_out) bias, and
``ModelParams.layers`` holds them as (W, b) views into the vector, its only
views: a trunk layer is a stack of one, a head layer the stack of both
heads, score head first. Gradients share the layout, so an optimizer
updates every parameter with a few whole-vector operations.

There is one code path per operation, over a batch of rows (a single row is
a batch of one): ``forward_batch``, one loop over the layers, and
``backward_batch``, one loop back, whose one special step is the dropout
boundary between the trunk and the heads. Both write every intermediate
into a ``Workspace``, which is also the forward cache that the backward
pass replays; training makes one per batch length and reuses it, with the
views it binds once, so a step's passes make no new arrays, and any other
call gets a fresh one. The network draws no random numbers: dropout runs
only when the caller passes a mask, the ``(2, B, H)`` inverted-dropout
multipliers of both heads, score head first, which ``dropout_mask`` makes
from a generator's uniforms. Caller arrays enter through
``errors.check_array``; a workspace-bound pass, the training step's, takes
the trainer's own float64 arrays, which it checked once per dataset.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    MAX_SIZE, ConfigError, ShapeError, check_array, check_choice, check_float, check_int,
)

__all__ = [
    "ACTIVATIONS",
    "S_CLAMP",
    "ArchConfig",
    "ModelParams",
    "HeteroPrediction",
    "Workspace",
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
        self.__dict__["input_dim"] = check_int("input_dim", self.input_dim, 1, MAX_SIZE)
        try:
            widths = tuple(check_int("trunk width", w, 1, MAX_SIZE) for w in self.trunk_dims)
        except TypeError:  # not a sequence
            raise ConfigError(f"trunk_dims must be a sequence, got {self.trunk_dims!r}") from None
        self.__dict__["trunk_dims"] = widths
        self.__dict__["head_hidden_dim"] = check_int(
            "head_hidden_dim", self.head_hidden_dim, 1, MAX_SIZE
        )
        self.__dict__["dropout_p"] = check_float("dropout_p", self.dropout_p, 0.0, 1.0)
        self.__dict__["activation"] = check_choice("activation", self.activation, ACTIVATIONS)

    @property
    def trunk_output_dim(self) -> int:
        return self.trunk_dims[-1] if self.trunk_dims else self.input_dim


class Slot(NamedTuple):
    """One learnable array: flat[start:stop] viewed with this shape."""

    shape: tuple[int, ...]
    start: int
    stop: int


@functools.lru_cache(maxsize=64)
def param_layout(arch: ArchConfig) -> tuple[Slot, ...]:
    """Every learnable array of the architecture, in flat-vector order: for
    each layer, first to last, its weights as a (stack, fan_out, fan_in)
    stack and then its biases as a (stack, 1, fan_out) stack. A trunk layer
    is a stack of one; a head layer stacks both heads, score head first.
    """
    widths = (arch.input_dim, *arch.trunk_dims, arch.head_hidden_dim, 1)
    slots, start = [], 0
    for layer, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        stack = 1 if layer < len(arch.trunk_dims) else 2
        for shape in ((stack, fan_out, fan_in), (stack, 1, fan_out)):
            slots.append(Slot(shape, start, start + math.prod(shape)))
            start = slots[-1].stop
    return tuple(slots)


@dataclass(frozen=True)
class ModelParams:
    """All learnable arrays, as views into one flat float64 vector.

    Treat instances as immutable once published. Layer l computes
    a_out = act(W @ a_in + b). layers holds every layer as (W, b), first to
    last, in param_layout's order: weights as (stack, fan_out, fan_in),
    biases as (stack, 1, fan_out). A trunk layer is a stack of one. The last
    two layers are the heads', each the stack of both heads, score head
    first: layers[-2] maps the (dropped-out) trunk output to the head hidden
    layer, layers[-1] maps that to the scalar output, and layers[-1][0][1]
    is the log-variance head's output weight. Gradients from backward_batch
    use the same class and layout.
    """

    arch: ArchConfig
    flat: np.ndarray
    rng_seed_used: int
    layers: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layout = param_layout(self.arch)
        size, flat = layout[-1].stop, check_array("parameters", self.flat, 1)
        if len(flat) != size or not flat.flags.c_contiguous:
            raise ShapeError(f"expected a contiguous vector of {size} parameters, got {flat.shape}")
        object.__setattr__(self, "flat", flat)
        views = [flat[slot.start : slot.stop].reshape(slot.shape) for slot in layout]
        object.__setattr__(self, "layers", list(zip(views[::2], views[1::2])))

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


def init_params(arch: ArchConfig, seed: int) -> ModelParams:
    """Deterministically initialise all layers from one integer seed.

    Weights are uniform on [-1/sqrt(fan_in), +1/sqrt(fan_in)]; biases are
    zero. Draw order is fixed: trunk layers, then both score head layers,
    then both log-variance head layers. The seed is an integer >= 0.
    """
    seed = check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    params = ModelParams(arch, np.zeros(param_layout(arch)[-1].stop), seed)
    trunk, heads = params.layers[:-2], params.layers[-2:]
    for w in [w[0] for w, _ in trunk] + [w[h] for h in (0, 1) for w, _ in heads]:
        bound = 1.0 / math.sqrt(w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _check_width(arch: ArchConfig, x: np.ndarray) -> None:
    if x.shape[1] != arch.input_dim:
        raise ShapeError(f"expected features of width {arch.input_dim}, got shape {x.shape}")


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


class Workspace:
    """The buffers of a batch pass over a fixed number of rows. layers holds,
    per layer of params.layers, W transposed, b and the layer's (stack, rows,
    fan_out) output, bound once (an optimizer updates params.flat in place,
    so they stay valid). for_training() adds those of a masked pass, the loss
    and backward_batch. loss_out is a loss's (values, d_y_hat, d_s) output;
    the last two view d_out, the (2, rows, 1) upstream stack, score first.
    hidden is the heads' hidden layer; a pass sets x, mask and h_in, the
    heads' input: the masked (2, rows, width) stack, or without a mask the
    trunk output (x when the trunk is empty), which matmul broadcasts."""

    def __init__(self, params: ModelParams, rows: int):
        arch = params.arch
        # Rows numpy can size: the widest buffer (h_buf) holds 4 * trunk_output_dim
        # doubles a row, hidden and its twins 2 * head_hidden_dim, a trunk layer its width.
        widest = max(4 * arch.trunk_output_dim, 2 * arch.head_hidden_dim, *arch.trunk_dims)
        rows = check_int("rows", rows, 0, MAX_SIZE // (8 * widest))
        self.params, self.kind, self.h_buf = params, arch.activation, None  # h_buf: for_training
        self.x_shape, self.h_shape = (rows, arch.input_dim), (2, rows, arch.trunk_output_dim)
        self.layers = [
            (w.transpose(0, 2, 1), b, np.empty((len(w), rows, w.shape[1])))
            for w, b in params.layers
        ]
        self.hidden, self.out = self.layers[-2][2], self.layers[-1][2]
        (self.y_hat, self.s_raw), self.s = self.out[:, :, 0], np.empty(rows)

    def for_training(self) -> Workspace:
        """Make the buffers of a masked pass, the loss and backward_batch, once."""
        if self.h_buf is None:
            grad_dtype = float if self.kind == "tanh" else bool  # 1 - post^2, or post > 0
            self.h_buf, self.d_h = np.empty((2, *self.h_shape))  # masked head input, its derivative
            self.d_out = np.empty(self.out.shape)
            self.d_y_hat, self.d_s = self.d_out[:, :, 0]
            self.loss_out = (np.empty_like(self.s), self.d_y_hat, self.d_s)
            self.abs_s_raw, self.unclamped = np.empty_like(self.s), np.empty_like(self.s, bool)
            # backward_batch's record per layer, last to first: d (the output's
            # derivative) and d transposed, the activation derivative (None on
            # the output layer), the output, W, the input's derivative (None on
            # the first layer) and the input, None where a pass sets it (x, h_in).
            posts = [post for _, _, post in self.layers]
            d = [np.empty(post.shape) for post in posts[:-1]] + [self.d_out]
            act = [np.empty(post.shape, grad_dtype) for post in posts[:-1]] + [None]
            inputs = [None, *posts[:-1]]
            inputs[-2] = None
            self.back = list(zip(d, [v.transpose(0, 2, 1) for v in d], act, posts,
                                 [w for w, _ in self.params.layers], [None, *d[:-1]], inputs))[::-1]
        return self


def forward_batch(
    params: ModelParams, x, mask: np.ndarray | None = None, work: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray, Workspace]:
    """Run the network on a (batch, input_dim) array.

    Returns (y_hat, s, work): (batch,) arrays, s clamped to [-S_CLAMP,
    +S_CLAMP], and the Workspace that holds them, the cache backward_batch
    replays. mask, when given, is the (2, batch, trunk_output_dim) dropout
    multipliers of the heads' input (see dropout_mask; another shape is a
    ShapeError); without one the pass runs no dropout. Without work a fresh
    one is made, and x and mask must be finite real arrays; with one, they
    must be float64 arrays of its rows, and its next pass overwrites it.
    """
    if work is None:
        x = check_array("features", x, 2, finite=True)
        _check_width(params.arch, x)
        work = Workspace(params, len(x))
        if mask is not None:
            mask = check_array("dropout mask", mask, finite=True)
    elif work.params is not params or x.shape != work.x_shape:
        raise ShapeError(f"workspace of shape {work.x_shape} does not match the params or features")
    if mask is not None and mask.shape != work.h_shape:
        raise ShapeError(f"expected a dropout mask of shape {work.h_shape}, got {mask.shape}")

    tanh, hidden, out, a = work.kind == "tanh", work.hidden, work.out, x
    work.x, work.mask = x, mask
    for w_t, b, post in work.layers:
        if post is hidden:  # the dropout boundary: matmul broadcasts the trunk output to both heads
            if mask is not None:
                a = np.multiply(a, mask, out=work.for_training().h_buf)
            work.h_in = a
        np.matmul(a, w_t, out=post)
        post += b
        if post is not out:
            a = np.tanh(post, out=post) if tanh else np.maximum(post, 0.0, out=post)
    np.minimum(np.maximum(work.s_raw, -S_CLAMP, out=work.s), S_CLAMP, out=work.s)
    return work.y_hat, work.s, work


def backward_batch(
    work: Workspace,
    params: ModelParams,
    d_y_hat: np.ndarray,
    d_s: np.ndarray,
    out: ModelParams | None = None,
) -> ModelParams:
    """Parameter gradients for the forward pass cached in work, its Workspace.

    d_y_hat and d_s are (batch,) upstream derivatives of a scalar loss with
    respect to the two outputs, read in place when they are work.d_y_hat
    and work.d_s (as a loss given out=work.loss_out returns them), and
    otherwise finite real arrays (errors.check_array). Where the
    log-variance clamp was active d_s is zeroed, matching the
    piecewise-constant clamp. The gradients are written into out.layers,
    which every call overwrites entirely, or into a new ModelParams; either
    is returned.
    """
    if work.params is not params:
        raise ShapeError("forward cache does not match the supplied parameters")
    work.for_training()
    if d_y_hat is not work.d_y_hat or d_s is not work.d_s:
        d_y_hat, d_s = (check_array("upstream gradients", d, 1, True) for d in (d_y_hat, d_s))
        if not len(d_y_hat) == len(d_s) == len(work.s):
            raise ShapeError(f"upstream gradients must have shape {work.s.shape}")
        work.d_y_hat[...], work.d_s[...] = d_y_hat, d_s
    if out is None:
        out = ModelParams(params.arch, np.empty_like(params.flat), params.rng_seed_used)
    elif out.arch is not params.arch and out.arch != params.arch:
        raise ShapeError("gradient buffer does not match the supplied parameters")

    tanh, hidden, d_h, mask = work.kind == "tanh", work.hidden, work.d_h, work.mask
    work.d_s *= np.less(np.abs(work.s_raw, out=work.abs_s_raw), S_CLAMP, out=work.unclamped)
    for (d, d_t, act, post, w, d_in, a), (g_w, g_b) in zip(work.back, reversed(out.layers)):
        # tanh' = 1 - post^2 from the cached output; relu' = post > 0, where its input is.
        if act is not None:
            d *= (np.subtract(1.0, np.multiply(post, post, out=act), out=act) if tanh
                  else np.greater(post, 0.0, out=act))
        if a is None:
            a = work.h_in if post is hidden else work.x
        np.matmul(d_t, a, out=g_w)
        np.add.reduce(d, axis=1, keepdims=True, out=g_b)
        if d_in is None:
            break
        np.matmul(d, w, out=d_h if post is hidden else d_in)
        if post is hidden:  # the dropout boundary: the heads' input derivative, masked, summed
            if mask is not None:
                d_h *= mask
            np.add(d_h[0], d_h[1], out=d_in[0])
    return out
