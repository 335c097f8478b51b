"""Epistemic uncertainty from repeated stochastic forward passes.

The network is run num_passes times with head dropout active; the spread
of the sampled outputs measures how much the model's prediction depends on
which units happen to be dropped. Two epistemic signals are reported:

* epi_pred_var - population variance of the sampled score outputs,
* epi_dist_var - population variance of the sampled log-variance outputs.

Population variance (divisor = number of passes) is used throughout, from
the one routine variance_of: it works along the last axis, so it serves a
(rows, passes) block and a single sample list alike. The aleatoric
variance is the mean of exp(s_t) across passes, multiplied by r^2 when a
calibration scale is supplied; calibration never touches the epistemic
quantities.

Masks come from a counter-based hash (SplitMix64, in the style of Salmon
et al. 2011): the keep bit of each unit is a pure function of (row key,
pass, head, unit), tested on the integer hash; at p = 0 no bits are drawn.
The hash skips SplitMix64's last step where it cannot move a keep bit (_plan).
One kernel serves both entry points: it runs the deterministic trunk once
per row and the two dropout heads per pass, over blocks of rows. Each layer
is one np.matmul of its stored weights over a stack: one column per row in
the trunk, and in the heads one (units, _CHUNK) chunk of pass columns per
head and row, the passes padded to whole chunks. So every BLAS call has one
core shape per config: a row's samples do not depend on which rows share
the call or where the row sits, and pass t (chunk t // _CHUNK, column
t % _CHUNK) not on the pass count. Mask scaling, bias adds, the activation,
the log-variance clamp and the summaries run once per block on the
row-major (2, rows, chunks, units, _CHUNK) stack. Row keys come from the
same SplitMix64: row i of a dataset is keyed by its output i + 1 for the
state seed mod 2^64 (row_seed), computed for all rows at once.

Results are columns, made once per call, and each block writes its samples
and summaries into slices of them. mc_forward_dataset returns one
MCSamples of columns. Indexing it with an int gives one row as an MCSamples
again, of (passes,) sample views and np.float64 summaries, and
mc_forward builds that row of a one-row call straight from its columns.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .calibrate import CalibrationScale
from .errors import MAX_SIZE, ConfigError, InputError, check_array, check_float, check_int
from .net import S_CLAMP, ModelParams, _activate, _check_width

__all__ = ["MCConfig", "MCSamples", "variance_of", "mc_forward",
           "mc_forward_dataset", "row_seed"]

# SplitMix64, for keep bits and row keys: output k for state b is b + k * _GOLDEN
# (mod 2^64), xor-shifted by each shift, then multiplied (not after the last).
# The multipliers are uint64, so the mask hash does not convert them per block.
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FINALISER = ((30, np.uint64(0xBF58476D1CE4E5B9)), (27, np.uint64(0x94D049BB133111EB)), (31, None))

# Rows per block x padded pass columns x the wider of the trunk output and
# the head hidden layer: 64 rows at 25 passes and width 16, in a per-call
# workspace of about 1.3 MB: two (2, rows, chunks, width, _CHUNK) uint64 hash
# buffers (the second reused for the masked head inputs), the bool mask, the
# heads' hidden layers and the samples. 32 to 128 rows run equally fast.
_BLOCK_UNITS = 64 * 25 * 16
# Pass columns of one head matmul, weights @ (width, _CHUNK). The paper's 25
# pads nothing at its pass count, and a 2,100-row, 25-pass call ran fastest
# at 25 of 5, 8, 13, 16, 25, 32 and 50 columns (20.6 ms against 22.5-37.9).
_CHUNK = 25


@dataclass(frozen=True, init=False)
class MCConfig:
    num_passes: int
    dropout_p: float
    seed: int

    # One __dict__ update of the checked values: rows scored one at a time make a config each.
    def __init__(self, num_passes: int = 25, dropout_p: float = 0.5, seed: int = 0):
        self.__dict__.update(num_passes=check_int("num_passes", num_passes, 1, MAX_SIZE),
                             dropout_p=check_float("dropout_p", dropout_p, 0.0, 1.0),
                             seed=check_int("seed", seed, 0))


@dataclass(frozen=True, eq=False, init=False)
class MCSamples:
    """MC results of many rows as columns: (rows, passes) samples and
    (rows,) summaries. Indexing reads every column with the same index, so
    results[i] is row i as an MCSamples of (passes,) sample views and
    np.float64 summaries, and a slice gives an MCSamples of those rows;
    iteration gives the rows in order. == compares column by column. A row
    has length 1 only so that it is truthy: it cannot be iterated or indexed."""

    y_samples: np.ndarray
    s_samples: np.ndarray
    y_mean: np.ndarray
    s_mean: np.ndarray
    aleatoric_var: np.ndarray
    epi_pred_var: np.ndarray
    epi_dist_var: np.ndarray

    # One __dict__ update, not seven object.__setattr__ calls: a row is made per one-row call.
    def __init__(self, y_samples, s_samples, y_mean, s_mean, aleatoric_var, epi_pred_var,
                 epi_dist_var):
        self.__dict__.update(y_samples=y_samples, s_samples=s_samples, y_mean=y_mean, s_mean=s_mean,
                             aleatoric_var=aleatoric_var, epi_pred_var=epi_pred_var,
                             epi_dist_var=epi_dist_var)

    # len (1 for a row) and iteration are kept for perfbench/workloads.py (mc-ood): it reads rows.
    def __len__(self) -> int:
        return np.size(self.y_mean)

    def __getitem__(self, index) -> MCSamples:
        return MCSamples(*(column[index] for column in vars(self).values()))

    def __iter__(self):
        return map(MCSamples, *vars(self).values())

    def __eq__(self, other):
        if not isinstance(other, MCSamples):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))


def variance_of(samples) -> np.ndarray | float:
    """Population variance (divisor = number of samples) along the last axis,
    computed in two passes.

    A (rows, passes) array gives one variance per row; a flat sequence gives
    one float. A row of identical samples gives exactly 0.0, so degenerate
    sampling setups (single pass, zero dropout) report zero epistemic
    variance without floating-point residue. Samples that are ragged, not
    finite real numbers (errors.check_array) or empty raise InputError.
    """
    a = check_array("samples", samples, finite=True)
    if a.ndim == 0 or a.shape[-1] == 0:
        raise InputError("variance of an empty sample list is undefined")
    return _variance(a, _mean(a), np.empty(a.shape[:-1]))[()]


def _variance(a: np.ndarray, mean: np.ndarray, out: np.ndarray) -> np.ndarray:
    """variance_of(a) written into out, given mean = _mean(a)."""
    d = np.subtract(a, mean[..., None])
    _mean(np.multiply(d, d, out=d), out=out)
    np.copyto(out, 0.0, where=np.logical_and.reduce(a == a[..., :1], axis=-1))
    return out


def _mean(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a.mean(axis=-1), bit for bit, without numpy's Python-level wrapper;
    written into out when it is given."""
    return np.divide(np.add.reduce(a, axis=-1, out=out), a.shape[-1], out=out)


def _keep_mask(keys: np.ndarray, passes: int, width: int, p: float) -> np.ndarray:
    """Boolean keep mask of shape (rows, passes, 2, width).

    Unit u of head h (0 = score, 1 = log-variance) in pass t of a row with
    key k is kept when the SplitMix64 hash of k + c * 0x9E3779B97F4A7C15,
    with counter c = (2t + h) * width + u + 1, gives a uniform
    (hash >> 11) * 2^-53 >= p, tested exactly as hash >= ceil(p * 2^53) << 11
    (the threshold is below 2^53). The mask is a copy of the row-major
    buffer that _splitmix_keep writes, in a fresh workspace.
    """
    _, chunks, _, hashing = _plan(passes, p, width, width, _BLOCK_UNITS)
    keep = _splitmix_keep(keys[:, None, None, None], *hashing,
                          *_mask_workspace(len(keys), chunks, width))
    return keep.transpose(1, 2, 4, 0, 3).reshape(len(keys), -1, 2, width)[:, :passes]


def _splitmix_keep(keys, step, threshold, finaliser, z, shifted, keep) -> np.ndarray:
    """The bits of _keep_mask, written into keep and returned row-major as
    (2, rows, chunks, width, _CHUNK), for a (rows, 1, 1, 1) column of keys and
    the hashing of _plan; z and shifted are uint64 buffers of the same shape,
    from _mask_workspace or leading slices of its buffers."""
    np.add(keys, step, out=z)
    for shift, multiplier in finaliser:
        np.right_shift(z, shift, out=shifted)
        z ^= shifted
        if multiplier is not None:
            z *= multiplier
    return np.greater_equal(z, threshold, out=keep)


@functools.lru_cache(maxsize=64)
def _plan(passes: int, p: float, width: int, hidden: int, block_units: int) -> tuple:
    """An MC config's constants, worked out once: rows per block (block_units
    over the padded pass columns x the wider layer); chunks, the passes in
    whole chunks of _CHUNK, the last one padded; 1 / (1 - p); and the hashing:
    the read-only counter term c * 0x9E3779B97F4A7C15 (mod 2^64) of _keep_mask as
    (2, 1, chunks, width, _CHUNK), pass t at chunk t // _CHUNK, column t % _CHUNK, the
    threshold T and the finaliser, less its last step, which changes only bits 0-32, where
    T % 2^33 == 0 (p a multiple of 2^-31, as 0.5). p is a float, as MCConfig stores it."""
    chunks = -(-passes // _CHUNK)
    counter = np.arange(1, chunks * _CHUNK * 2 * width + 1, dtype=np.uint64) * _GOLDEN
    step = counter.reshape(chunks, _CHUNK, 2, width).transpose(2, 0, 3, 1)[:, None].copy()
    step.flags.writeable = False
    block = max(1, block_units // (chunks * _CHUNK * max(width, hidden)))
    t = math.ceil(p * 2.0**53) << 11
    return block, chunks, 1.0 / (1.0 - p), (step, np.uint64(t), _FINALISER[: 3 if t % 2**33 else 2])


def _mask_workspace(rows: int, chunks: int, width: int) -> tuple:
    """_splitmix_keep's z and shifted (one uint64 array) and keep, for up to rows rows."""
    z, shifted = np.empty((2, 2, rows, chunks, width, _CHUNK), dtype=np.uint64)
    return z, shifted, np.empty(z.shape, dtype=bool)


@functools.cache
def _memory_bytes() -> int:
    """The machine's physical memory, or numpy's size limit where it cannot be read."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return MAX_SIZE


def _key(seed: int) -> int:
    """A non-negative seed of any size, folded to 64 bits."""
    return int(seed) & _MASK64


def _mc_rows(
    params: ModelParams,
    x: np.ndarray,
    keys: np.ndarray,
    cfg: MCConfig,
    scale: CalibrationScale | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The one MC kernel: row i of x is sampled with the uint64 mask key keys[i].
    It returns the sample and summary columns of an MCSamples, in field order.

    Rows are processed in blocks so that the working memory is bounded by
    _BLOCK_UNITS, whatever the row count. The workspace is made once per call
    and its views bound before the loop; only a short last block slices them.
    Each block writes into slices of the result columns. At p = 0 the heads
    run one chunk of copies, whose first column every pass repeats.
    """
    x = np.ascontiguousarray(x)
    _check_width(params.arch, x)
    arch, passes, p = params.arch, cfg.num_passes, cfg.dropout_p
    kind, width, hidden_dim = arch.activation, arch.trunk_output_dim, arch.head_hidden_dim
    # The layers as read here, bound once per params: views of flat, which training updates.
    if (bound := params.__dict__.get("_kernel_layers")) is None:
        *trunk, (hidden_w, hidden_b), (out_w, out_b) = params.layers
        bound = params.__dict__["_kernel_layers"] = (
            [(w[0], b[0].T) for w, b in trunk], hidden_w[:, None, None],
            hidden_b[:, None, None, 0, :, None], out_w[:, None, None], out_b[:, None, None])
    trunk, hidden_w, hidden_b, out_w, out_b = bound
    # The most bytes the call holds: the (2, rows, passes) samples, and per
    # padded pass column a one-row block's hash buffers, keep bits and counter
    # term (50 B per unit of width), hidden layers (16 B per unit) and stack
    # (24 B). More than the machine has is refused before any array is made.
    one_row = -(-passes // _CHUNK) * _CHUNK * (50 * width + 16 * hidden_dim + 24)
    if 16 * passes * len(x) + one_row > _memory_bytes():
        raise ConfigError(f"num_passes {passes} needs more memory than this machine has")
    # Only one-chunk plans are cached: a plan's counter term grows with the passes.
    plan = _plan if passes <= _CHUNK else _plan.__wrapped__
    block, chunks, keep_scale, hashing = plan(passes, p, width, hidden_dim, _BLOCK_UNITS)
    chunks, n, keys = chunks if p else 1, min(block, len(x)), keys[:, None, None, None]
    # The workspace. The hash's shift buffer is dead once a mask is made, so
    # it then holds the masked head inputs: at p = 0, one chunk of copies of
    # the trunk output.
    z, shifted, keep = _mask_workspace(n, chunks, width)
    # The heads' hidden layers; the two heads' samples, then exp of the
    # log-variance samples, whose leading columns the output layer writes.
    h = np.empty((2, n, chunks, hidden_dim, _CHUNK))
    stack = np.empty((3, n, max(passes, chunks * _CHUNK)))
    out = stack[:2, :, : chunks * _CHUNK].reshape(2, n, chunks, 1, _CHUNK)
    h_in, stack = shifted.view(float), stack[:, :, :passes]
    samples, s, exp_s = stack[:2], stack[1:2], stack[2:]
    # The result, in MCSamples field order: y and s samples; the means of the
    # three sample rows (aleatoric before scaling); the y and s variances.
    sampled, summary = np.empty((2, len(x), passes)), np.empty((5, len(x)))
    for start in range(0, len(x), block):
        rows = slice(start, start + block)
        a = x[rows, :, None]  # a column per row
        for w, b in trunk:
            a = _activate(np.matmul(w, a) + b, kind)
        if len(a) < n:  # a short last block
            n = len(a)
            z, shifted, keep, h_in, h, out, stack, samples, s, exp_s = (
                v[:, :n] for v in (z, shifted, keep, h_in, h, out, stack, samples, s, exp_s))
        a = a[None, :, None]  # (1, rows, 1, width, 1)
        if p:
            _splitmix_keep(keys[rows], *hashing, z, shifted, keep)
            # a * (keep * scale), in this order: a dropped unit of a huge
            # input then gives a signed zero, where (a * scale) * 0 gives NaN.
            np.multiply(keep, keep_scale, out=h_in)
            np.multiply(a, h_in, out=h_in)
        else:
            np.copyto(h_in, a)
        np.matmul(hidden_w, h_in, out=h)
        h += hidden_b
        _activate(h, kind, out=h)
        np.matmul(out_w, h, out=out)
        out += out_b
        if not p:
            samples[:, :, 1:] = samples[:, :, :1]
        np.maximum(s, -S_CLAMP, out=s)
        np.minimum(s, S_CLAMP, out=s)
        np.exp(s, out=exp_s)
        sampled[:, rows] = samples
        means = _mean(stack, out=summary[:3, rows])
        _variance(samples, means[:2], summary[3:, rows])
        if scale is not None:
            means[2] *= scale.variance_multiplier
    return sampled, summary


def mc_forward(
    params: ModelParams,
    x: np.ndarray,
    cfg: MCConfig,
    scale: CalibrationScale | None = None,
) -> MCSamples:
    """Run num_passes dropout forward passes on one feature vector, giving
    its row: an MCSamples of (passes,) samples and np.float64 summaries.

    The masks are keyed by cfg.seed itself, taken modulo 2^64; x is a finite real vector.
    """
    x = check_array("features", x, 1, finite=True)
    keys = np.array([_key(cfg.seed)], np.uint64)
    sampled, summary = _mc_rows(params, x[None, :], keys, cfg, scale)
    # Indexed item by item: iterating the columns costs several times more.
    return MCSamples(sampled[0, 0], sampled[1, 0], summary[0, 0], summary[1, 0],
                     summary[2, 0], summary[3, 0], summary[4, 0])


def row_seed(base_seed: int, row_index: int) -> int:
    """Per-row seed: output row_index + 1 of SplitMix64 with state base_seed mod 2^64.

    Both must be Python or numpy integers (not bools) in range, else it
    raises InputError.
    """
    if not (type(base_seed) is int and type(row_index) is int) and not all(
        isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in (base_seed, row_index)
    ):
        raise InputError(f"row_seed needs integers; got {base_seed!r}, {row_index!r}")
    if base_seed < 0 or not 0 <= row_index <= _MASK64:
        raise InputError(f"row_seed needs seed >= 0, 0 <= row < 2^64; got {base_seed}, {row_index}")
    return _row_keys(_key(base_seed), int(row_index))


def _row_keys(base: int, rows: np.ndarray | int) -> np.ndarray | int:
    """row_seed(base, i) for every i in rows: a uint64 array, which wraps modulo
    2^64 (i = 2^64 - 1 gives i + 1 = 0), or one int, masked to 64 bits."""
    z = (base + (rows + 1) * _GOLDEN) & _MASK64
    for shift, multiplier in _FINALISER:
        z ^= z >> shift
        if multiplier is not None:
            z = z * int(multiplier) & _MASK64
    return z


def mc_forward_dataset(
    params: ModelParams,
    features: np.ndarray,
    cfg: MCConfig,
    scale: CalibrationScale | None = None,
) -> MCSamples:
    """mc_forward over every row of a feature matrix, as columns.

    Row i uses seed row_seed(cfg.seed, i), so per-row results do not depend
    on which other rows are present and repeat runs are bit-identical. The
    features must be a 2-d array of finite real numbers (errors.check_array).
    """
    features = check_array("features", features, 2, finite=True)
    keys = _row_keys(_key(cfg.seed), np.arange(len(features), dtype=np.uint64))
    sampled, summary = _mc_rows(params, features, keys, cfg, scale)
    return MCSamples(*sampled, *summary)
