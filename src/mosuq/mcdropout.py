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
pass, head, unit), tested on the integer hash. Results are therefore
reproducible pass by pass, invariant to how many passes run before or
after, and independent of which other rows are sampled in the same call.
At p = 0 no bits are drawn. One kernel serves both entry points: it runs
the deterministic trunk once per row and only the two dropout heads per
pass, over blocks of rows. The heads run as one unit-major
(2, units, rows, passes) stack, score head first, read from the stacked
views head_w and head_b; mask scaling, bias adds, the activation, the
log-variance clamp and the summaries each run once on the stack. Only the
contractions run per head, as einsum without optimize over a
(units, rows, passes) operand, whose per-element bits do not depend on how
many rows or passes share a call, except at 1 row x 1 pass, where einsum
sums in another order; the kernel never forms that shape. Every
block-sized buffer is made once per call, and each block works in leading
slices of it. Dataset row keys (row_seed) are computed for all rows at
once.

Results are columns, made once per call, and each block writes its samples
and summaries into slices of them. mc_forward_dataset returns one
MCSamples, which reads as a sequence of MCResult rows built only on
request; mc_forward returns the one row of a one-row call.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .calibrate import CalibrationScale
from .errors import InputError, ShapeError, check_float, check_int
from .net import S_CLAMP, ModelParams, _activate, _check_features

__all__ = ["MCConfig", "MCResult", "MCSamples", "variance_of", "mc_forward",
           "mc_forward_dataset", "row_seed"]

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# SeedSequence's entropy mixing (O'Neill's seed_seq_fe, as numpy implements it).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF

# Rows per block x passes x the wider of the trunk output and the head
# hidden layer: 64 rows at 25 passes and width 16. The per-call workspace is
# then about 1.3 MB: two unit-major (2, width, rows, passes) uint64 hash
# buffers (the second reused for the masked head inputs), the bool mask, the
# two heads' hidden layers and the samples. At one pass the heads compute
# two pass columns, which doubles it. Blocks of 32 to 128 rows run equally
# fast; larger ones raise peak memory and run slower.
_BLOCK_UNITS = 64 * 25 * 16
_ROW_BLOCK = 256  # MCResult rows that iterating an MCSamples builds at a time


@dataclass(frozen=True)
class MCConfig:
    num_passes: int = 25
    dropout_p: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_int("num_passes", self.num_passes, 1)
        check_float("dropout_p", self.dropout_p, 0.0, 1.0)
        check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class MCResult:
    """Summary of one sample's stochastic passes."""

    y_samples: tuple[float, ...]
    s_samples: tuple[float, ...]
    y_mean: float
    s_mean: float
    epi_pred_var: float
    epi_dist_var: float
    aleatoric_var: float


@dataclass(frozen=True, eq=False)
class MCSamples:
    """The MCResult fields of many rows as columns: (rows, passes) samples
    and (rows,) summaries. len, iteration, an int index and a slice (which
    gives an MCSamples) read it as a sequence of MCResult rows, built only
    on request; == with an MCSamples or a list of rows compares rows."""

    y_samples: np.ndarray
    s_samples: np.ndarray
    y_mean: np.ndarray
    s_mean: np.ndarray
    epi_pred_var: np.ndarray
    epi_dist_var: np.ndarray
    aleatoric_var: np.ndarray

    def __len__(self) -> int:
        return len(self.y_mean)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return MCSamples(*(column[index] for column in vars(self).values()))
        i = operator.index(index)
        y, s, *summaries = (column[i] for column in vars(self).values())
        return MCResult(tuple(y.tolist()), tuple(s.tolist()), *map(float, summaries))

    def __iter__(self):
        for start in range(0, len(self), _ROW_BLOCK):
            y, s, *summaries = (c[start : start + _ROW_BLOCK].tolist() for c in vars(self).values())
            yield from map(MCResult, map(tuple, y), map(tuple, s), *summaries)

    def __eq__(self, other):
        if isinstance(other, list):
            return list(self) == other
        if not isinstance(other, MCSamples):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))


def variance_of(samples) -> np.ndarray | float:
    """Population variance (divisor = number of samples) along the last axis,
    computed in two passes.

    A (rows, passes) array gives one variance per row; a flat sequence gives
    one float. A row of identical samples gives exactly 0.0, so degenerate
    sampling setups (single pass, zero dropout) report zero epistemic
    variance without floating-point residue.
    """
    a = np.asarray(samples, dtype=float)
    if a.ndim == 0 or a.shape[-1] == 0:
        raise InputError("variance of an empty sample list is undefined")
    return _variance(a, _mean(a), np.empty(a.shape[:-1]))[()]


def _variance(a: np.ndarray, mean: np.ndarray, out: np.ndarray) -> np.ndarray:
    """variance_of(a) written into out, given mean = _mean(a)."""
    _mean((a - mean[..., None]) ** 2, out=out)
    np.copyto(out, 0.0, where=np.logical_and.reduce(a == a[..., :1], axis=-1))
    return out


def _mean(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a.mean(axis=-1), bit for bit, without numpy's Python-level wrapper;
    written into out when it is given."""
    return np.divide(np.add.reduce(a, axis=-1, out=out), a.shape[-1], out=out)


def _keep_mask(keys: np.ndarray, passes: int, width: int, p: float, work: tuple = ()) -> np.ndarray:
    """Boolean keep mask of shape (rows, passes, 2, width).

    Unit u of head h (0 = score, 1 = log-variance) in pass t of a row with
    key k is kept when the SplitMix64 hash of k + c * 0x9E3779B97F4A7C15,
    with counter c = (2t + h) * width + u + 1, gives a uniform
    (hash >> 11) * 2^-53 >= p, tested exactly as hash >= ceil(p * 2^53) << 11
    (the threshold is below 2^53). The mask is a transposed view of a
    unit-major (2, width, rows, passes) buffer: the one in work, from
    _mask_workspace, when it is given, and a fresh one otherwise.
    """
    step, z, shifted, keep = work or _mask_workspace(len(keys), passes, width)
    z, shifted, keep = z[:, :, : len(keys)], shifted[:, :, : len(keys)], keep[:, :, : len(keys)]
    np.add(keys[:, None], step[:, :, None], out=z)
    for shift, multiplier in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        if multiplier is not None:
            z *= multiplier
    np.greater_equal(z, np.uint64(math.ceil(p * 2.0**53) << 11), out=keep)
    return keep.transpose(2, 3, 0, 1)


@functools.lru_cache(maxsize=16)
def _counter_term(passes: int, width: int) -> np.ndarray:
    """c * 0x9E3779B97F4A7C15 (mod 2^64) for the counters c of _keep_mask,
    unit-major as (2, width, passes); read-only, since calls share it."""
    counter = np.arange(1, passes * 2 * width + 1, dtype=np.uint64).reshape(passes, 2, width)
    step = np.ascontiguousarray(counter.transpose(1, 2, 0)) * _GOLDEN
    step.flags.writeable = False
    return step


def _mask_workspace(rows: int, passes: int, width: int) -> tuple:
    """The counter term of _keep_mask and its unit-major (2, width, rows,
    passes) buffers for up to rows rows."""
    z, shifted = np.empty((2, 2, width, rows, passes), dtype=np.uint64)
    return _counter_term(passes, width), z, shifted, np.empty(z.shape, dtype=bool)


def _key(seed: int) -> int:
    """A non-negative seed of any size, folded to 64 bits."""
    return int(seed) & _MASK64


def _mc_rows(
    params: ModelParams,
    x: np.ndarray,
    keys: np.ndarray,
    cfg: MCConfig,
    scale: CalibrationScale | None,
) -> MCSamples:
    """The one MC kernel: row i of x is sampled with the uint64 mask key keys[i].

    Rows are processed in blocks so that the working memory is bounded by
    _BLOCK_UNITS, whatever the row count: the workspace is made once per
    call, and every block works in leading slices of it and writes into
    slices of the result columns. At p = 0 the heads run one deterministic
    pass, which every pass repeats.
    """
    x = np.ascontiguousarray(x)
    _check_features(params.arch, x)
    arch, passes, p = params.arch, cfg.num_passes, cfg.dropout_p
    kind, width = arch.activation, arch.trunk_output_dim
    block = max(1, _BLOCK_UNITS // (passes * max(width, arch.head_hidden_dim)))
    # The heads compute run pass columns: every pass, or at p = 0 one
    # deterministic pass, and never fewer than two, because einsum sums a
    # 1-row x 1-pass operand in another order. Extra columns are dropped.
    size, run = min(block, len(x)), max(passes if p else 1, 2)
    # The workspace. The hash's shift buffer is dead once a mask is made, so
    # it then holds the masked head inputs.
    work = _mask_workspace(size, run, width) if p else ()
    head_in = work[2].view(np.float64) if p else None
    hidden = np.empty((2, arch.head_hidden_dim, size, run))
    # The two heads' samples, then exp of the log-variance samples.
    samples = np.empty((3, size, max(passes, run)))
    w, b = params.head_w, params.head_b
    # The result: y and s samples; the means of the three sample rows (the
    # aleatoric one before scaling), then epi_pred_var and epi_dist_var.
    sampled, summary = np.empty((2, len(x), passes)), np.empty((5, len(x)))
    for start in range(0, len(x), block):
        rows = slice(start, start + block)
        a = x[rows]
        for trunk_w, trunk_b in zip(params.trunk_w, params.trunk_b):
            a = _activate(np.einsum("rk,jk->rj", a, trunk_w) + trunk_b, kind)
        n = len(a)
        a = a.T[:, :, None]
        if p:
            keep = _keep_mask(keys[rows], run, width, p, work).transpose(2, 3, 0, 1)
            # a * (keep * scale), in this order: a dropped unit of a huge
            # input then gives a signed zero, where (a * scale) * 0 gives NaN.
            h_in = np.multiply(keep, 1.0 / (1.0 - p), out=head_in[:, :, :n])
            np.multiply(a, h_in, out=h_in)
        else:
            h_in = np.broadcast_to(a, (2, width, n, run))
        h, out, stack = hidden[:, :, :n], samples[:2, :n, :run], samples[:, :n, :passes]
        for head in range(2):
            np.einsum("krt,jk->jrt", h_in[head], w[0][head], out=h[head])
        h += b[0][:, 0, :, None, None]
        _activate(h, kind, out=h)
        for head in range(2):
            np.einsum("jrt,j->rt", h[head], w[1][head, 0], out=out[head])
        out += b[1]
        if not p:
            stack[:2, :, 1:] = out[:, :, :1]
        np.maximum(stack[1], -S_CLAMP, out=stack[1])
        np.minimum(stack[1], S_CLAMP, out=stack[1])
        np.exp(stack[1], out=stack[2])
        sampled[:, rows] = stack[:2]
        means = _mean(stack, out=summary[:3, rows])
        _variance(stack[:2], means[:2], summary[3:, rows])
        if scale is not None:
            means[2] *= scale.variance_multiplier
    y_mean, s_mean, aleatoric, *variances = summary
    return MCSamples(*sampled, y_mean, s_mean, *variances, aleatoric)


def mc_forward(
    params: ModelParams,
    x: np.ndarray,
    cfg: MCConfig,
    scale: CalibrationScale | None = None,
) -> MCResult:
    """Run num_passes dropout forward passes on one feature vector.

    The masks are keyed by cfg.seed itself, taken modulo 2^64.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-d feature vector, got array of shape {x.shape}")
    return _mc_rows(params, x[None, :], np.array([_key(cfg.seed)], np.uint64), cfg, scale)[0]


def row_seed(base_seed: int, row_index: int) -> int:
    """Per-row seed: SeedSequence([base_seed mod 2^64, row_index]).generate_state(1)[0]."""
    if base_seed < 0 or not 0 <= row_index <= _MASK64:
        raise InputError(f"row_seed needs seed >= 0, 0 <= row < 2^64; got {base_seed}, {row_index}")
    return int(_row_keys(_key(base_seed), int(row_index)))


def _row_keys(base: int, rows: np.ndarray | int) -> np.ndarray | int:
    """SeedSequence([base, i]).generate_state(1)[0] for every i in rows, at once.

    rows is a uint64 array, or one int (plain int arithmetic is faster than
    numpy for a single row). The entropy is base's one or two uint32 words,
    then i's two, zero-padded to the 4-word pool (SeedSequence hashes a 0
    into each unused slot). Words are held in ints or uint64 arrays and
    masked after each product.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    words = [base & _MASK32] + ([base >> 32] if base >> 32 else []) + [rows & _MASK32, rows >> 32]
    pool = [hashmix(word) for word in words + [0] * (4 - len(words))]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
    value = (pool[0] ^ _INIT_B) * (_INIT_B * _MULT_B & _MASK32) & _MASK32
    return value ^ value >> 16


def mc_forward_dataset(
    params: ModelParams,
    features: np.ndarray,
    cfg: MCConfig,
    scale: CalibrationScale | None = None,
) -> MCSamples:
    """mc_forward over every row of a feature matrix, as columns.

    Row i uses seed row_seed(cfg.seed, i), so per-row results do not depend
    on which other rows are present and repeat runs are bit-identical.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise InputError(f"expected a 2-d feature matrix, got shape {features.shape}")
    keys = _row_keys(_key(cfg.seed), np.arange(len(features), dtype=np.uint64))
    return _mc_rows(params, features, keys, cfg, scale)
