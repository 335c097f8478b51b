"""Mini-batch training loop and checkpoint serialization.

The loop is deliberately plain: shuffle, slice into batches, run the
batched forward pass with dropout active, push the analytic loss gradients
through the batched backward pass, and apply either Adam or plain SGD to
the whole flat parameter vector (``ModelParams.flat``) at once. Every
source of randomness (init, per-epoch shuffling, dropout masks) is derived
from the single seed in TrainConfig, so a (dataset, arch, config) triple
always reproduces the same parameters bit for bit.

Dropout masks are drawn for a chunk of batches at a time: one
``net.dropout_mask`` call over about ``MASK_CHUNK_UNITS`` uniforms, whose
contiguous ``(2, B, H)`` slices are the batches' masks. Those are the same
uniforms in the same order as one ``(2, B, H)`` draw per batch, so the chunk
size changes no result. Every chunk is drawn into one buffer made once per
``train`` call, so the mask memory is one chunk, whatever the row count.

Features are checked for non-finite values once per dataset, before the
first step (training and validation splits), and once per predict_batch
call; the per-batch forward pass checks only their shape.

Checkpoints are canonical JSON: keys sorted, two-space indent, trailing
newline, floats via repr. Saving a loaded checkpoint therefore reproduces
the original file byte for byte. A checkpoint keeps one section per head
(``weights.score_head``, ``biases.logvar_head`` ...), and one table,
``_checkpoint_views``, maps each section to its views into the stacked
head arrays, for saving and loading alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .datagen import Dataset
from .errors import (
    CheckpointError,
    CheckpointVersionError,
    ConfigError,
    InputError,
    ShapeError,
    TrainingDivergedError,
    check_float,
    check_int,
)
from .ioutils import atomic_write_text, canonical_json, write_csv
from .loss import LOSSES, mse_loss_batch, nll_loss_batch
from .net import (
    ArchConfig,
    ModelParams,
    _check_features,
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


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    learning_rate: float = 3e-4
    loss: str = "nll"
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        check_int("epochs", self.epochs, 1)
        check_int("batch_size", self.batch_size, 1)
        check_float("learning_rate", self.learning_rate, 0.0, math.inf, low_open=True)
        if self.loss not in LOSSES:
            raise ConfigError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(
                f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}"
            )
        check_int("seed", self.seed, 0)


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

    params = init_params(arch, cfg.seed)
    # One gradient buffer for the whole run: every backward pass overwrites it.
    grads = ModelParams(arch, np.empty_like(params.flat), params.rng_seed_used)
    optimizer = (_Adam if cfg.optimizer == "adam" else _SGD)(params.flat, cfg.learning_rate)
    loss_batch = nll_loss_batch if cfg.loss == "nll" else mse_loss_batch

    shuffle_stream, dropout_stream = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_stream)
    dropout_rng = np.random.default_rng(dropout_stream)
    batch, width = cfg.batch_size, arch.trunk_output_dim
    row_units = 2 * width
    chunk_rows = max(1, MASK_CHUNK_UNITS // (row_units * batch)) * batch
    # One chunk buffer for the whole run, which each chunk's draw overwrites
    # (empty at p = 0, where nothing is drawn).
    mask_buf = np.empty(min(chunk_rows, n) * row_units if arch.dropout_p else 0)
    # One shuffled copy of the split, overwritten each epoch. mode="clip" gathers
    # straight into out (the default mode gathers into a temporary copy first);
    # order is a permutation, so nothing is clipped.
    x_epoch, y_epoch = np.empty(x_all.shape), np.empty(n)

    train_curve = []
    val_curve = [] if val_dataset is not None else None
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        np.take(x_all, order, axis=0, out=x_epoch, mode="clip")
        np.take(y_all, order, out=y_epoch, mode="clip")
        epoch_loss_sum = 0.0
        for chunk in range(0, n, chunk_rows):
            stop = min(chunk + chunk_rows, n)
            size = (stop - chunk) * row_units
            masks = dropout_mask(dropout_rng, arch.dropout_p, size, out=mask_buf[:size])
            for start in range(chunk, stop, batch):
                xb = x_epoch[start : start + batch]
                yb = y_epoch[start : start + batch]
                mask = None
                if masks is not None:
                    offset = (start - chunk) * row_units
                    mask = masks[offset : offset + len(xb) * row_units].reshape(2, len(xb), width)
                y_hat, s, cache = forward_batch(params, xb, mask)
                values, d_y_hat, d_s = loss_batch(y_hat, s, yb)
                # The batch loss is finite exactly when its sum is.
                batch_sum = float(np.add.reduce(values))
                if not math.isfinite(batch_sum):
                    raise TrainingDivergedError(epoch)
                epoch_loss_sum += batch_sum
                # Batch loss is a mean, so upstream derivatives carry the 1/B.
                backward_batch(cache, params, d_y_hat / len(xb), d_s / len(xb), out=grads)
                optimizer.step(grads.flat)
        train_curve.append(epoch_loss_sum / n)

        if val_dataset is not None:
            y_hat, s, _ = forward_batch(params, x_val)
            val_values, _, _ = loss_batch(y_hat, s, y_val)
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
    _check_features(arch, dataset.features())
    if not np.all(np.isfinite(dataset.labels())):
        raise InputError(f"{name} labels contain non-finite values")
    return dataset.features(), dataset.labels()


def predict_batch(params: ModelParams, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (y_hat, s) arrays for a feature matrix.

    Raises InputError if a feature is not finite.
    """
    features = np.asarray(features, dtype=float)
    _check_features(params.arch, features)
    y_hat, s, _ = forward_batch(params, features)
    return y_hat, s


def _checkpoint_views(params: ModelParams) -> dict[tuple[str, str], list[np.ndarray]]:
    """Each (section, key) of a checkpoint document and its views into params."""
    w, b = params.head_w, params.head_b
    return {
        ("weights", "trunk"): params.trunk_w,
        ("biases", "trunk"): params.trunk_b,
        ("weights", "score_head"): [layer[0] for layer in w],
        ("biases", "score_head"): [layer[0, 0] for layer in b],
        ("weights", "logvar_head"): [layer[1] for layer in w],
        ("biases", "logvar_head"): [layer[1, 0] for layer in b],
    }


def save_checkpoint(
    params: ModelParams, path: str | Path, calibration_r: float | None = None
) -> None:
    """Serialize a model (and optional calibration scale) as canonical JSON."""
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
        doc["calibration_r"] = float(calibration_r)
    atomic_write_text(path, canonical_json(doc))


def _section_arrays(doc: dict, section: str, key: str) -> list[np.ndarray]:
    """The arrays of doc[section][key], as float arrays.

    Every element must be a JSON number: a bool or a numeric string, which
    np.array(..., dtype=float) would convert, raises ValueError naming the
    section, as does a ragged or non-numeric array.
    """
    arrays = []
    try:
        for node in doc[section][key]:
            cells = np.array(node, dtype=object)
            arrays.append(np.array([_number(v) for v in cells.flat]).reshape(cells.shape))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{section}.{key}: {exc}") from None
    return arrays


def _number(value, integral: bool = False) -> float | int:
    """A JSON number as a float, or as an int when integral is set.

    Raises ValueError for anything else, bools included, for an integer
    beyond the float range, and for a number with a fractional part where an
    integer is asked for.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    if not integral:
        try:
            return float(value)
        except OverflowError:
            raise ValueError("integer too large for a float") from None
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def load_checkpoint(path: str | Path) -> tuple[ModelParams, float | None]:
    """Load a checkpoint, returning (params, calibration_r or None).

    Any malformed field raises CheckpointError, naming the file.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path}: checkpoint root must be an object")

    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format_version {version!r} is not supported "
            f"(expected {CHECKPOINT_FORMAT_VERSION})"
        )
    for key in ("arch", "weights", "biases", "rng_seed_used"):
        if key not in doc:
            raise CheckpointError(f"{path}: missing field {key!r}")

    try:
        arch = ArchConfig(
            input_dim=_number(doc["arch"]["input_dim"], integral=True),
            trunk_dims=tuple(_number(w, integral=True) for w in doc["arch"]["trunk_dims"]),
            head_hidden_dim=_number(doc["arch"]["head_hidden_dim"], integral=True),
            dropout_p=_number(doc["arch"]["dropout_p"]),
            activation=str(doc["arch"]["activation"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: invalid arch section: {exc}") from None
    try:
        rng_seed_used = _number(doc["rng_seed_used"], integral=True)
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
    if not np.all(np.isfinite(params.flat)):
        raise CheckpointError(f"{path}: checkpoint contains non-finite values")

    calibration_r = doc.get("calibration_r")
    if calibration_r is not None:
        try:
            calibration_r = _number(calibration_r)
        except ValueError as exc:
            raise CheckpointError(f"{path}: invalid calibration_r: {exc}") from None
        if not (math.isfinite(calibration_r) and calibration_r > 0.0):
            raise CheckpointError(
                f"{path}: calibration_r must be positive and finite, got {calibration_r}"
            )
    return params, calibration_r


def save_history_csv(history: TrainHistory, path: str | Path) -> None:
    """Write `epoch,train_loss,val_loss` rows; val cells are empty when no
    validation split was supplied."""
    train_loss = np.asarray(history.train_loss, dtype=float)
    epochs = len(train_loss)
    val = [None] * epochs if history.val_loss is None else np.asarray(history.val_loss, dtype=float)
    write_csv(path, ["epoch", "train_loss", "val_loss"], [range(1, epochs + 1), train_loss, val])
