"""Epistemic uncertainty from repeated stochastic forward passes.

The network is run num_passes times with head dropout active; the spread
of the sampled outputs measures how much the model's prediction depends on
which units happen to be dropped. Two epistemic signals are reported:

* epi_pred_var - population variance of the sampled score outputs,
* epi_dist_var - population variance of the sampled log-variance outputs.

Population variance (divisor = number of passes) is used throughout. The
aleatoric variance is the mean of exp(s_t) across passes, multiplied by
r^2 when a calibration scale is supplied; calibration never touches the
epistemic quantities.

Masks come from a counter-based hash (SplitMix64, in the style of Salmon
et al. 2011): the keep bit of each unit is a pure function of (row key,
pass, head, unit), tested on the integer hash. Results are therefore
reproducible pass by pass, invariant to how many passes run before or
after, and independent of which other rows are sampled in the same call.
At p = 0 no bits are drawn. One kernel serves both entry points: it runs
the deterministic trunk once per row and only the two dropout heads per
pass, over blocks of rows that reuse one set of mask buffers. Dataset row
keys (row_seed) are computed for all rows at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calibrate import CalibrationScale
from .errors import ConfigError, InputError, ShapeError
from .net import S_CLAMP, ModelParams, _activate, _check_features

__all__ = ["MCConfig", "MCResult", "variance_of", "mc_forward", "mc_forward_dataset", "row_seed"]

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# SeedSequence's entropy mixing (O'Neill's seed_seq_fe, as numpy implements it).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF

# Rows per block x passes x trunk width: 64 rows at 25 passes and width 16,
# about 0.8 MB of temporaries. Blocks of 32 to 128 rows run equally fast;
# larger ones raise peak memory and run slower.
_BLOCK_UNITS = 64 * 25 * 16


@dataclass(frozen=True)
class MCConfig:
    num_passes: int = 25
    dropout_p: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.num_passes < 1:
            raise ConfigError(f"num_passes must be >= 1, got {self.num_passes}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


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


def variance_of(samples: Sequence[float]) -> float:
    """Population variance (divisor = n), computed in two passes.

    Identical samples short-circuit to exactly 0.0, so degenerate sampling
    setups (single pass, zero dropout) report zero epistemic variance
    without floating-point residue.
    """
    a = np.asarray(samples, dtype=float)
    if a.size == 0:
        raise InputError("variance of an empty sample list is undefined")
    return float(_variances(a.reshape(1, -1))[0])


def _variances(samples: np.ndarray) -> np.ndarray:
    """Row-wise population variance of a (rows, passes) array; the batch
    form of variance_of, with the same exact zero for constant rows."""
    mean = samples.mean(axis=1, keepdims=True)
    var = np.mean((samples - mean) ** 2, axis=1)
    var[np.all(samples == samples[:, :1], axis=1)] = 0.0
    return var


def _keep_mask(keys: np.ndarray, passes: int, width: int, p: float, work: tuple = ()) -> np.ndarray:
    """Boolean keep mask of shape (rows, passes, 2, width).

    Unit u of head h (0 = score, 1 = log-variance) in pass t of a row with
    key k is kept when the SplitMix64 hash of k + c * 0x9E3779B97F4A7C15,
    with counter c = (2t + h) * width + u + 1, gives a uniform
    (hash >> 11) * 2^-53 >= p, tested exactly as hash >= ceil(p * 2^53) << 11
    (the threshold is below 2^53). The mask is a view into work, from
    _mask_workspace, when it is given, and into fresh buffers otherwise.
    """
    step, z, shifted, keep = work or _mask_workspace(len(keys), passes, width)
    z, shifted, keep = (buf[: len(keys)] for buf in (z, shifted, keep))
    np.add(keys[:, None, None, None], step, out=z)
    for shift, multiplier in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        if multiplier is not None:
            z *= multiplier
    return np.greater_equal(z, np.uint64(math.ceil(p * 2.0**53) << 11), out=keep)


def _mask_workspace(rows: int, passes: int, width: int) -> tuple:
    """The counter term of _keep_mask and its buffers for up to rows rows."""
    counter = np.arange(1, passes * 2 * width + 1, dtype=np.uint64).reshape(passes, 2, width)
    z, shifted = np.empty((2, rows, passes, 2, width), dtype=np.uint64)
    return counter * _GOLDEN, z, shifted, np.empty(z.shape, dtype=bool)


def _head(h_in: np.ndarray, w: list[np.ndarray], b: list[np.ndarray], kind: str) -> np.ndarray:
    hidden = _activate(np.einsum("rtk,jk->rtj", h_in, w[0]) + b[0], kind)
    return np.einsum("rtj,j->rt", hidden, w[1][0]) + b[1][0]


def _sample_block(
    params: ModelParams, x: np.ndarray, keys: np.ndarray, cfg: MCConfig, work: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, passes) score and clamped log-variance samples for a block.

    The trunk runs once per row. Contractions are einsum without optimize:
    unlike a BLAS matmul, their per-row bits do not depend on how many rows
    or passes share the call.
    """
    kind = params.arch.activation
    a = x
    for w, b in zip(params.trunk_w, params.trunk_b):
        a = _activate(np.einsum("rk,jk->rj", a, w) + b, kind)
    h = a[:, None, :]
    if cfg.dropout_p == 0.0:
        # No bits are drawn: every pass is the deterministic pass, run once.
        y = _head(h, params.score_w, params.score_b, kind)
        s = _head(h, params.logvar_w, params.logvar_b, kind)
        y, s = (np.repeat(v, cfg.num_passes, axis=1) for v in (y, s))
    else:
        keep = _keep_mask(keys, cfg.num_passes, a.shape[1], cfg.dropout_p, work)
        scale = 1.0 / (1.0 - cfg.dropout_p)
        y = _head(h * (keep[:, :, 0] * scale), params.score_w, params.score_b, kind)
        s = _head(h * (keep[:, :, 1] * scale), params.logvar_w, params.logvar_b, kind)
    return y, np.clip(s, -S_CLAMP, S_CLAMP)


def _key(seed: int) -> int:
    """A non-negative seed of any size, folded to 64 bits."""
    return int(seed) & _MASK64


def _mc_rows(
    params: ModelParams,
    x: np.ndarray,
    keys: np.ndarray | Sequence[int],
    cfg: MCConfig,
    scale: CalibrationScale | None,
) -> list[MCResult]:
    """The one MC kernel: row i of x is sampled with the 64-bit mask key keys[i].

    Rows are processed in blocks so that the working memory is bounded by
    _BLOCK_UNITS, whatever the row count; the mask buffers are made once per
    call and reused by every block.
    """
    x = np.ascontiguousarray(x)
    _check_features(params.arch, x)
    keys = np.asarray(keys, dtype=np.uint64)
    width = params.arch.trunk_output_dim
    block = max(1, _BLOCK_UNITS // (cfg.num_passes * width))
    work = _mask_workspace(min(block, len(x)), cfg.num_passes, width) if cfg.dropout_p else ()
    multiplier = 1.0 if scale is None else scale.variance_multiplier
    results = []
    for start in range(0, len(x), block):
        rows = slice(start, start + block)
        y, s = _sample_block(params, x[rows], keys[rows], cfg, work)
        y_mean, s_mean = y.mean(axis=1), s.mean(axis=1)
        epi_pred, epi_dist = _variances(y), _variances(s)
        aleatoric = np.mean(np.exp(s), axis=1) * multiplier
        results.extend(
            MCResult(tuple(ys), tuple(ss), ym, sm, ep, ed, al)
            for ys, ss, ym, sm, ep, ed, al in zip(
                y.tolist(), s.tolist(), y_mean.tolist(), s_mean.tolist(),
                epi_pred.tolist(), epi_dist.tolist(), aleatoric.tolist(),
            )
        )
    return results


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
    return _mc_rows(params, x[None, :], [_key(cfg.seed)], cfg, scale)[0]


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
) -> list[MCResult]:
    """mc_forward over every row of a feature matrix.

    Row i uses seed row_seed(cfg.seed, i), so per-row results do not depend
    on which other rows are present and repeat runs are bit-identical.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise InputError(f"expected a 2-d feature matrix, got shape {features.shape}")
    keys = _row_keys(_key(cfg.seed), np.arange(len(features), dtype=np.uint64))
    return _mc_rows(params, features, keys, cfg, scale)
