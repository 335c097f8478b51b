"""Mini-batch training loop and checkpoint serialization.

The loop is deliberately plain: shuffle, slice into batches, run the
batched forward pass with dropout active, push the analytic loss gradients
through the batched backward pass, and apply either Adam or plain SGD to
the whole flat parameter vector (``ModelParams.flat``) at once. Every
source of randomness (init, per-epoch shuffling, dropout masks) is derived
from the single seed in TrainConfig, so a (dataset, arch, config) triple
always reproduces the same parameters bit for bit.

Each step writes into one ``net.Workspace`` per batch length (the full
batch and a short last one), made once per ``train`` call, so only the
optimizer makes new arrays. Dropout masks are drawn for a chunk of batches
at a time: one ``net.dropout_mask`` call over about ``MASK_CHUNK_UNITS``
uniforms, into one buffer made once per ``train`` call, whose contiguous
``(2, B, H)`` slices are the batches' masks: the same uniforms in the same
order as one draw per batch, so the chunk size changes no result. Each
chunk's shuffled rows are gathered into one chunk-sized buffer too, so the
mask and shuffle memory is one chunk, whatever the row count.

Features and labels are checked once per split, before the first step; a
step's workspace-bound pass checks only their shape. predict_batch, and so the
per-epoch validation loss, checks its features once and runs every pass over
``PREDICT_BLOCK_ROWS`` rows through one workspace, the last block zero-padded.

Checkpoints are canonical JSON: keys sorted, two-space indent, trailing
newline, floats via repr. Saving a loaded checkpoint therefore reproduces
the original file byte for byte. A checkpoint keeps one section per head
(``weights.score_head``, ``biases.logvar_head`` ...), and one table,
``_checkpoint_views``, maps each section to its views into the layer
stacks of ``ModelParams.layers``, for saving and loading alike, so the
bytes do not depend on the order of the flat vector.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .datagen import Dataset
from .errors import (
    MAX_SIZE, CheckpointError, CheckpointVersionError, ConfigError, InputError, InvariantError,
    ShapeError, TrainingDivergedError, check_array, check_choice, check_float, check_int,
)
from .ioutils import atomic_write_text, canonical_json, read_json_object, write_csv
from .loss import LOSSES, mse_loss_batch, nll_loss_batch
from .net import (
    ArchConfig,
    ModelParams,
    Workspace,
    _check_width,
    backward_batch,
    dropout_mask,
    forward_batch,
    init_params,
    param_layout,
)

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "OPTIMIZERS",
    "TrainConfig",
    "TrainHistory",
    "train",
    "predict_batch",
    "save_checkpoint",
    "load_checkpoint",
    "save_history_csv",
]

CHECKPOINT_FORMAT_VERSION = 1

OPTIMIZERS = ("adam", "sgd")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Mask entries drawn per chunk, rounded down to whole batches (at least
# one). 2**16 doubles are 512 KiB, twice over with the uniforms; a
# whole-epoch draw would grow with the row count.
MASK_CHUNK_UNITS = 2**16

# Rows of every predict_batch pass, the last block zero-padded. BLAS sums round by the
# call's shape, so one shape gives a row the same bits alone as in any longer call; 256
# held on every OpenBLAS kernel tried (64 did not) and costs a one-row call the least.
PREDICT_BLOCK_ROWS = 256


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    learning_rate: float = 3e-4
    loss: str = "nll"
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        self.__dict__["epochs"] = check_int("epochs", self.epochs, 1)
        self.__dict__["batch_size"] = check_int("batch_size", self.batch_size, 1, MAX_SIZE)
        self.__dict__["learning_rate"] = check_float(
            "learning_rate", self.learning_rate, 0.0, math.inf, low_open=True
        )
        self.__dict__["loss"] = check_choice("loss", self.loss, LOSSES)
        self.__dict__["optimizer"] = check_choice("optimizer", self.optimizer, OPTIMIZERS)
        self.__dict__["seed"] = check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class TrainHistory:
    """Per-epoch mean losses; val_loss is None when no validation split ran."""

    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...] | None


class _Adam:
    """Adam (Kingma & Ba 2015) over the whole flat parameter vector."""

    def __init__(self, flat: np.ndarray, lr: float):
        self.flat = flat
        self.lr = lr
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.t = 0

    def step(self, g: np.ndarray) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * (g * g)
        self.flat -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS)


class _SGD:
    def __init__(self, flat: np.ndarray, lr: float):
        self.flat = flat
        self.lr = lr

    def step(self, g: np.ndarray) -> None:
        self.flat -= self.lr * g


def train(
    dataset: Dataset,
    arch: ArchConfig,
    cfg: TrainConfig,
    val_dataset: Dataset | None = None,
) -> tuple[ModelParams, TrainHistory]:
    """Train a fresh network on the dataset.

    Weights start from init_params(arch, cfg.seed); dropout is active in
    every training forward pass (a no-op when arch.dropout_p is 0).
    Per-epoch losses are means over samples. The features and labels of
    both splits are checked once, before the first step: a non-finite value
    raises InputError. A non-finite batch loss aborts with
    TrainingDivergedError naming the offending epoch.
    """
    x_all, y_all = _checked_split("training", dataset, arch)
    n = len(dataset)
    if cfg.batch_size > n:
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    if val_dataset is not None:
        x_val, y_val = _checked_split("validation", val_dataset, arch)

    params, batch = init_params(arch, cfg.seed), cfg.batch_size
    # One gradient buffer and one workspace per batch length (the full batch
    # and a short last one) for the whole run: every step overwrites them.
    grads = ModelParams(arch, np.empty_like(params.flat), params.rng_seed_used)
    full = Workspace(params, batch).for_training()
    last = Workspace(params, n % batch).for_training() if n % batch else full
    optimizer = (_Adam if cfg.optimizer == "adam" else _SGD)(params.flat, cfg.learning_rate)
    loss_batch = nll_loss_batch if cfg.loss == "nll" else mse_loss_batch

    shuffle_stream, dropout_stream = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_stream)
    dropout_rng = np.random.default_rng(dropout_stream)
    row_units = 2 * arch.trunk_output_dim
    chunk_rows = max(1, MASK_CHUNK_UNITS // (row_units * batch)) * batch
    # One chunk buffer for the whole run, which each chunk's draw overwrites
    # (empty at p = 0, where nothing is drawn).
    mask_buf = np.empty(min(chunk_rows, n) * row_units if arch.dropout_p else 0)
    # One chunk of shuffled rows, which each chunk's gather overwrites. mode="clip"
    # gathers straight into out (the default mode gathers into a temporary copy
    # first); order is a permutation, so nothing is clipped.
    x_buf, y_buf = np.empty((min(chunk_rows, n), x_all.shape[1])), np.empty(min(chunk_rows, n))

    train_curve = []
    val_curve = [] if val_dataset is not None else None
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        epoch_loss_sum = 0.0
        for chunk in range(0, n, chunk_rows):
            rows = order[chunk : chunk + chunk_rows]
            x_chunk, y_chunk = x_buf[: len(rows)], y_buf[: len(rows)]
            np.take(x_all, rows, axis=0, out=x_chunk, mode="clip")
            np.take(y_all, rows, out=y_chunk, mode="clip")
            size = len(rows) * row_units
            masks = dropout_mask(dropout_rng, arch.dropout_p, size, out=mask_buf[:size])
            for start in range(0, len(rows), batch):
                xb, yb = x_chunk[start : start + batch], y_chunk[start : start + batch]
                work = full if len(xb) == batch else last
                mask = None
                if masks is not None:
                    offset = start * row_units
                    mask = masks[offset : offset + len(xb) * row_units].reshape(work.h_shape)
                y_hat, s, _ = forward_batch(params, xb, mask, work)
                values, d_y_hat, d_s = loss_batch(y_hat, s, yb, work.loss_out)
                # The batch loss is finite exactly when its sum is.
                batch_sum = float(np.add.reduce(values))
                if not math.isfinite(batch_sum):
                    raise TrainingDivergedError(epoch)
                epoch_loss_sum += batch_sum
                # Batch loss is a mean, so upstream derivatives carry the 1/B.
                work.d_out /= len(xb)
                backward_batch(work, params, d_y_hat, d_s, out=grads)
                optimizer.step(grads.flat)
        train_curve.append(epoch_loss_sum / n)

        if val_dataset is not None:
            val_values, _, _ = loss_batch(*predict_batch(params, x_val), y_val)
            val_loss = float(val_values.mean())
            if not math.isfinite(val_loss):
                raise TrainingDivergedError(epoch)
            val_curve.append(val_loss)

    history = TrainHistory(
        train_loss=tuple(train_curve),
        val_loss=tuple(val_curve) if val_curve is not None else None,
    )
    return params, history


def _checked_split(
    name: str, dataset: Dataset, arch: ArchConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The (features, labels) of one split, after checking that it is not
    empty, has arch.input_dim features and holds only finite values."""
    if len(dataset) == 0:
        raise InputError(f"{name} dataset is empty")
    if dataset.feature_dim != arch.input_dim:
        raise ShapeError(
            f"{name} data has {dataset.feature_dim} features but arch expects {arch.input_dim}"
        )
    x = check_array(f"{name} features", dataset.features(), finite=True)
    return x, check_array(f"{name} labels", dataset.labels(), finite=True)


def predict_batch(params: ModelParams, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (y_hat, s) arrays for a feature matrix (InputError unless a
    2-d array of finite real numbers, ShapeError unless input_dim wide), in
    PREDICT_BLOCK_ROWS-row passes: a row gets the same bits alone as in any call."""
    x = check_array("features", features, 2, finite=True)
    _check_width(params.arch, x)
    n, block, y_hat, s = len(x), PREDICT_BLOCK_ROWS, np.empty(len(x)), np.empty(len(x))
    work, padded = Workspace(params, block), np.zeros((block, x.shape[1]))
    for start in range(0, n, block):
        rows, kept = x[start : start + block], min(block, n - start)
        if kept < block:  # the last block, zero-padded
            padded[:kept] = rows
            rows = padded
        y_block, s_block, _ = forward_batch(params, rows, None, work)
        y_hat[start : start + kept], s[start : start + kept] = y_block[:kept], s_block[:kept]
    return y_hat, s


def _checkpoint_views(params: ModelParams) -> dict[tuple[str, str], list[np.ndarray]]:
    """Each (section, key) of a checkpoint document and its views into params."""
    views, trunk, heads = {}, params.layers[:-2], params.layers[-2:]
    for key, layers, k in ("trunk", trunk, 0), ("score_head", heads, 0), ("logvar_head", heads, 1):
        views["weights", key] = [w[k] for w, _ in layers]
        views["biases", key] = [b[k, 0] for _, b in layers]
    return views


def save_checkpoint(
    params: ModelParams, path: str | Path, calibration_r: float | None = None
) -> None:
    """Serialize a model (and optional calibration scale r > 0) as canonical JSON."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "arch": asdict(params.arch),
        "weights": {},
        "biases": {},
        "rng_seed_used": params.rng_seed_used,
    }
    for (section, key), views in _checkpoint_views(params).items():
        doc[section][key] = [a.tolist() for a in views]
    if calibration_r is not None:
        doc["calibration_r"] = check_float("r", calibration_r, 0.0, math.inf, True, InvariantError)
    atomic_write_text(path, canonical_json(doc))


def _section_arrays(doc: dict, section: str, key: str) -> list[np.ndarray]:
    """The arrays of doc[section][key], as float arrays.

    Every element must be a finite number (errors.check_float): a bool or a
    numeric string, which np.array(..., dtype=float) would convert, raises
    ValueError naming the section, as does a ragged or non-numeric array.
    """
    arrays = []
    try:
        for node in doc[section][key]:
            cells = np.array(node, dtype=object)
            values = [check_float("parameter", v, -math.inf, math.inf, True) for v in cells.flat]
            arrays.append(np.array(values).reshape(cells.shape))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{section}.{key}: {exc}") from None
    return arrays


def _integer(value):
    """A JSON integer: an integral float such as 3.0 reads as the int it holds."""
    return int(value) if type(value) is float and value.is_integer() else value


def load_checkpoint(path: str | Path) -> tuple[ModelParams, float | None]:
    """Load a checkpoint, returning (params, calibration_r or None).

    An unreadable file or any malformed field raises CheckpointError, naming the file.
    """
    doc = read_json_object(path, CheckpointError)

    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format_version {version!r} is not supported "
            f"(expected {CHECKPOINT_FORMAT_VERSION})"
        )
    for key in ("arch", "weights", "biases", "rng_seed_used"):
        if key not in doc:
            raise CheckpointError(f"{path}: missing field {key!r}")

    # Numbers enter through errors.check_int and check_float, ArchConfig's
    # included: a ConfigError is a ValueError, re-raised as CheckpointError.
    try:
        spec = doc["arch"]
        arch = ArchConfig(
            _integer(spec["input_dim"]), tuple(map(_integer, spec["trunk_dims"])),
            _integer(spec["head_hidden_dim"]), spec["dropout_p"], spec["activation"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: invalid arch section: {exc}") from None
    try:
        rng_seed_used = check_int("rng_seed_used", _integer(doc["rng_seed_used"]), 0)
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid rng_seed_used: {exc}") from None

    params = ModelParams(arch, np.empty(param_layout(arch)[-1].stop), rng_seed_used)
    views = _checkpoint_views(params)
    try:
        arrays = {where: _section_arrays(doc, *where) for where in views}
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed weights/biases: {exc}") from None
    expected = [v.shape for section in views.values() for v in section]
    actual = [a.shape for section in arrays.values() for a in section]
    if actual != expected:
        raise CheckpointError(
            f"{path}: weight shapes {actual} do not match arch (expected {expected})"
        )
    # The views cover the flat vector, so every parameter is written.
    for where, section in views.items():
        for view, a in zip(section, arrays[where]):
            view[...] = a

    calibration_r = doc.get("calibration_r")
    if calibration_r is not None:
        try:
            calibration_r = check_float("calibration_r", calibration_r, 0.0, math.inf, True)
        except ValueError as exc:
            raise CheckpointError(f"{path}: invalid calibration_r: {exc}") from None
    return params, calibration_r


def save_history_csv(history: TrainHistory, path: str | Path) -> None:
    """Write `epoch,train_loss,val_loss` rows; val cells are empty when no
    validation split was supplied."""
    train_loss = check_array("train_loss", history.train_loss, 1)
    epochs = len(train_loss)
    val = history.val_loss
    val = [None] * epochs if val is None else check_array("val_loss", val, 1)
    write_csv(path, ["epoch", "train_loss", "val_loss"], [range(1, epochs + 1), train_loss, val])
