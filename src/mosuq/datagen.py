"""Synthetic quality-score datasets with known noise structure.

Samples are grouped into synthetic "systems". Each system k owns a cluster
center mu_k; features are drawn x ~ N(mu_k, I). The clean score is a fixed
smooth function of the features,

    g(x) = 3 + 2 * tanh(w . x + b),

whose weights are derived from the dataset seed, so scores always stay
inside (1, 5) and every regeneration with the same config is bit-identical.
Labels are g(x) plus noise from one of three models:

* Homoscedastic(sigma):   constant-variance Gaussian noise.
* Heteroscedastic():      sigma(x) = 0.05 + 0.5 * sigmoid(v . x + c), so
                          harder items genuinely carry more label noise.
* RaterPanel(R, sd):      the mean of R simulated rater scores, each
                          g(x) + N(0, sd^2); label variance is sd^2 / R.

Every sample records the true label-noise variance, which makes calibration
and uncertainty metrics checkable against ground truth. Labels are not
clipped to the score range unless explicitly requested.

Feature draws and noise draws come from separate substreams of the seed, so
two configs that differ only in their noise model produce identical feature
matrices and clean scores. Generating with Homoscedastic(0) therefore
yields the noiseless twin of any dataset.

A Dataset is a table of read-only columns (ids, system ids, domain tags,
labels, true noise variances and the feature matrix), not a list of row
objects. Generation, corruption, splitting and CSV I/O each work on whole
columns; a Sample is built only when one row is indexed or iterated.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    MAX_SIZE, ConfigError, InputError, check_array, check_bool, check_float, check_int,
)
from .ioutils import count_lines, open_text, write_csv

__all__ = [
    "DOMAIN_IN",
    "DOMAIN_OOD",
    "Sample",
    "Dataset",
    "Homoscedastic",
    "Heteroscedastic",
    "RaterPanel",
    "GenConfig",
    "gen_synthetic",
    "gen_ood_shift",
    "add_feature_noise",
    "feature_noise_analogue",
    "split_dataset",
    "split_rows",
    "save_dataset_csv",
    "load_dataset_csv",
]

DOMAIN_IN = "in_domain"
DOMAIN_OOD = "ood"
DOMAIN_TAGS = (DOMAIN_IN, DOMAIN_OOD)

# The CSV columns before the features f0, f1, ...
_FIXED_HEADER = ["id", "system_id", "domain_tag", "y", "true_noise_var"]

SCORE_MID = 3.0
SCORE_SPAN = 2.0
HET_SIGMA_MIN = 0.05
HET_SIGMA_SPAN = 0.5

# Cluster centers are drawn with this standard deviation per dimension.
# Within-cluster spread is fixed at 1, so centers tighter than the
# within-cluster noise keep the in-domain pool compact: a mean shift of a
# few within-cluster standard deviations then lands clearly outside it.
CENTER_SPREAD = 0.5

# Signal-domain corruption strengths are quoted as additive noise amplitudes
# on unit-peak waveforms (0.002 .. 0.02). Feature-space corruption expresses
# strength in units of the global feature std instead; this linear factor
# maps the quoted range onto 0.2 .. 2.0 feature stds, where the weakest
# corruption is still measurable at desk scale and orderings transfer.
NOISE_ANALOGUE_SCALE = 100.0

# Substream index used only for the OOD shift direction, so drawing it
# never perturbs the model/center/feature/noise streams.
_SHIFT_DIRECTION_STREAM = 4

# CSV records per np.loadtxt call of load_dataset_csv, which holds one chunk's cells at a time.
_LOAD_CHUNK_ROWS = 256


# Kept for perfbench/workloads.py (train-paper), which iterates a split's rows.
@dataclass(frozen=True)
class Sample:
    """One row of a Dataset, built on demand by indexing or iteration."""

    id: str
    system_id: str
    features: np.ndarray
    y: float
    domain_tag: str = DOMAIN_IN
    true_noise_var: float | None = None


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered, immutable table of samples, held as one column per field.

    ids, system_ids and domain_tags are numpy string vectors, y and
    true_noise_var float vectors (nan marks a missing true_noise_var), and
    x is the (n, feature_dim) feature matrix; all pass errors.check_array, share
    one length and hold tags in DOMAIN_TAGS (else InputError). All are read-only,
    so features() and labels() return them uncopied; indexing builds Sample rows.
    """

    ids: np.ndarray
    system_ids: np.ndarray
    domain_tags: np.ndarray
    y: np.ndarray
    true_noise_var: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        for name, (ndim, text) in _COLUMNS.items():
            column = check_array(name, getattr(self, name), ndim, text=text)
            column = np.ascontiguousarray(column).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        lengths = {name: len(getattr(self, name)) for name in _COLUMNS}
        if len(set(lengths.values())) > 1:
            raise InputError(f"dataset columns differ in length: {lengths}")
        row = _unknown_tag(self.domain_tags)
        if row is not None:
            raise InputError(f"row {row}: unknown domain_tag {str(self.domain_tags[row])!r}")

    def __len__(self) -> int:
        return len(self.y)

    # __iter__ and __getitem__ are kept for perfbench/workloads.py (train-paper).
    def __iter__(self) -> Iterator[Sample]:
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int) -> Sample:
        var = float(self.true_noise_var[i])
        return Sample(
            id=str(self.ids[i]),
            system_id=str(self.system_ids[i]),
            features=self.x[i],
            y=float(self.y[i]),
            domain_tag=str(self.domain_tags[i]),
            true_noise_var=None if math.isnan(var) else var,
        )

    def _take(self, rows: np.ndarray) -> Dataset:
        """The rows at the given indices, taken from every column alike."""
        return Dataset(*(getattr(self, name)[rows] for name in _COLUMNS))

    @property
    def feature_dim(self) -> int:
        if len(self) == 0:
            raise InputError("empty dataset has no feature dimension")
        return self.x.shape[1]

    def features(self) -> np.ndarray:
        return self.x

    def labels(self) -> np.ndarray:
        return self.y


# Dataset columns in constructor order, with the rank of each and whether it is text.
_COLUMNS = dict(
    ids=(1, True), system_ids=(1, True), domain_tags=(1, True),
    y=(1, False), true_noise_var=(1, False), x=(2, False),
)


def _unknown_tag(tags: np.ndarray) -> int | None:
    """The index of the first tag outside DOMAIN_TAGS, or None."""
    unknown = np.flatnonzero(~np.isin(tags, DOMAIN_TAGS))
    return int(unknown[0]) if unknown.size else None


@dataclass(frozen=True)
class Homoscedastic:
    """Constant-variance Gaussian label noise; sigma = 0 gives clean labels."""

    sigma: float = 0.1

    def __post_init__(self):
        self.__dict__["sigma"] = check_float("sigma", self.sigma, 0.0, math.inf)


@dataclass(frozen=True)
class Heteroscedastic:
    """Input-dependent noise sigma(x) = 0.05 + 0.5 * sigmoid(v . x + c)."""


@dataclass(frozen=True)
class RaterPanel:
    """Labels are the mean of num_raters independent noisy rater scores."""

    num_raters: int = 4
    rater_sd: float = 0.8

    def __post_init__(self):
        self.__dict__["num_raters"] = check_int("num_raters", self.num_raters, 1, MAX_SIZE)
        self.__dict__["rater_sd"] = check_float("rater_sd", self.rater_sd, 0.0, math.inf)


@dataclass(frozen=True)
class GenConfig:
    """Dataset shape, noise model and seed; these defaults are the CLI's.
    Counts are integers >= 1 and the seed >= 0 (errors.check_int)."""

    num_systems: int = 12
    samples_per_system: int = 150
    feature_dim: int = 16
    noise_model: Homoscedastic | Heteroscedastic | RaterPanel = Heteroscedastic()
    seed: int = 0
    clip_labels: bool = False

    def __post_init__(self):
        for name in ("num_systems", "samples_per_system", "feature_dim"):
            self.__dict__[name] = check_int(name, getattr(self, name), 1, MAX_SIZE)
        self.__dict__["seed"] = check_int("seed", self.seed, 0)
        self.__dict__["clip_labels"] = check_bool("clip_labels", self.clip_labels)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _generate(cfg: GenConfig, center_offset: np.ndarray | None, tag: str) -> Dataset:
    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_model, rng_centers, rng_features, rng_noise = map(np.random.default_rng, streams)

    d = cfg.feature_dim
    # Downscale w so the quality projection w.x stays in the responsive part
    # of tanh for typical inputs instead of saturating.
    w = rng_model.normal(size=d) / math.sqrt(2.0 * d)
    b = rng_model.normal() * 0.5
    v = rng_model.normal(size=d) / math.sqrt(2.0 * d)
    c = rng_model.normal() * 0.5
    if d >= 2:
        # Decorrelate noisiness from quality: project the noise direction
        # onto the complement of the quality direction and renormalize so
        # the noise projection keeps unit variance. Without this, nearly
        # collinear draws would make sigma(x) a function of the quality
        # score itself.
        w_hat = w / np.linalg.norm(w)
        v_perp = v - (v @ w_hat) * w_hat
        norm = np.linalg.norm(v_perp)
        while norm < 1e-9:
            v_perp = rng_model.normal(size=d)
            v_perp = v_perp - (v_perp @ w_hat) * w_hat
            norm = np.linalg.norm(v_perp)
        v = v_perp / (norm * math.sqrt(2.0))

    centers = rng_centers.normal(size=(cfg.num_systems, d)) * CENTER_SPREAD
    if center_offset is not None:
        centers = centers + center_offset

    k, n_k = cfg.num_systems, cfg.samples_per_system
    # Centers added to their systems' draws in place: np.repeat(centers) + draws, bit for bit.
    x = rng_features.standard_normal((k, n_k, d))
    x += centers[:, None]
    x = x.reshape(k * n_k, d)

    def project(direction, offset):
        # One system's rows at a time: the bits of a matrix-vector product
        # can depend on how many rows share the call.
        return np.concatenate([rows @ direction for rows in np.split(x, k)]) + offset

    clean = SCORE_MID + SCORE_SPAN * np.tanh(project(w, b))
    noise = cfg.noise_model
    if isinstance(noise, Homoscedastic):
        y = clean + rng_noise.normal(size=k * n_k) * noise.sigma
        true_var = np.full(k * n_k, noise.sigma**2)
    elif isinstance(noise, Heteroscedastic):
        sigma = HET_SIGMA_MIN + HET_SIGMA_SPAN * _sigmoid(project(v, c))
        y = clean + rng_noise.normal(size=k * n_k) * sigma
        true_var = sigma**2
    elif isinstance(noise, RaterPanel):
        rater_noise = rng_noise.normal(size=(k * n_k, noise.num_raters)) * noise.rater_sd
        y = clean + rater_noise.mean(axis=1)
        true_var = np.full(k * n_k, noise.rater_sd**2 / noise.num_raters)
    else:
        raise ConfigError(f"unknown noise model: {noise!r}")

    if cfg.clip_labels:
        y = np.clip(y, SCORE_MID - SCORE_SPAN, SCORE_MID + SCORE_SPAN)

    systems = np.char.mod("sys%03d", np.arange(k))
    ids = np.char.add(systems[:, None], np.char.mod("-%05d", np.arange(n_k))).ravel()
    return Dataset(ids, np.repeat(systems, n_k), np.full(k * n_k, tag), y, true_var, x)


def gen_synthetic(cfg: GenConfig) -> Dataset:
    """Generate an in-domain dataset from the config alone."""
    return _generate(cfg, center_offset=None, tag=DOMAIN_IN)


def gen_ood_shift(cfg: GenConfig, shift: float) -> Dataset:
    """Generate the same dataset with every cluster center translated.

    The translation direction is a seed-derived unit vector, so each center
    lands exactly `shift` feature units from its in-domain counterpart.
    shift = 0 reproduces gen_synthetic(cfg) bit for bit; any positive shift
    tags the samples as OOD. A shift that is not a finite number >= 0 is an InputError.
    """
    shift = check_float("shift", shift, 0.0, math.inf, error=InputError)
    if shift == 0.0:
        return gen_synthetic(cfg)
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, _SHIFT_DIRECTION_STREAM])
    )
    direction = rng.normal(size=cfg.feature_dim)
    direction /= np.linalg.norm(direction)
    return _generate(cfg, center_offset=shift * direction, tag=DOMAIN_OOD)


def add_feature_noise(dataset: Dataset, level: float, seed: int) -> Dataset:
    """Corrupt features with additive Gaussian noise; labels stay untouched.

    The noise std is level * (global std of all feature entries). Any
    positive level marks the returned samples as OOD; level 0 returns the
    dataset unchanged. level is checked as in gen_ood_shift, seed as a config's.
    """
    level = check_float("noise level", level, 0.0, math.inf, error=InputError)
    seed = check_int("seed", seed, 0)
    if len(dataset) == 0:
        raise InputError("cannot perturb an empty dataset")
    if level == 0.0:
        return dataset
    global_std = float(np.std(dataset.x))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=dataset.x.shape)  # scaled and shifted in place: one new table
    x *= level * global_std
    x += dataset.x
    return replace(dataset, x=x, domain_tags=np.full(len(dataset), DOMAIN_OOD))


def feature_noise_analogue(amplitude: float) -> float:
    """Map a waveform-amplitude corruption strength to a feature-noise level."""
    return amplitude * NOISE_ANALOGUE_SCALE


def split_dataset(
    dataset: Dataset, fractions: Sequence[float], seed: int
) -> tuple[Dataset, ...]:
    """The parts of the dataset at split_rows(dataset, fractions, seed)."""
    return tuple(dataset._take(rows) for rows in split_rows(dataset, fractions, seed))


def split_rows(dataset: Dataset, fractions: Sequence[float], seed: int) -> tuple[np.ndarray, ...]:
    """Shuffle the row indices once with the given seed and cut them into
    len(fractions) parts.

    Every part but the first gets floor(fraction * n) rows; the first part
    absorbs the remainder. Fractions must be finite, non-negative and sum
    to 1, and the seed an integer >= 0, else ConfigError.
    """
    fractions = fractions if np.iterable(fractions) else []
    fractions = [check_float("fraction", f, 0.0, math.inf) for f in fractions]
    if not fractions:
        raise ConfigError("fractions must be a non-empty sequence of finite numbers >= 0")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {fractions}")
    n = len(dataset)
    sizes = [int(math.floor(f * n)) for f in fractions]
    sizes[0] = n - sum(sizes[1:])
    if sizes[0] < 0:
        raise ConfigError(f"fractions {fractions} over-allocate {n} samples")
    order = np.random.default_rng(check_int("seed", seed, 0)).permutation(n)
    ends = np.cumsum(sizes)
    return tuple(order[end - size : end] for size, end in zip(sizes, ends))


def save_dataset_csv(dataset: Dataset, path: str | Path, rows=None) -> None:
    """Write `id,system_id,domain_tag,y,true_noise_var,f0,...` rows.

    A missing true_noise_var becomes an empty field. Floats are written
    with repr so a load/save round trip is byte-identical. With rows, a 1-D
    array of integers in [0, len(dataset)) (else InputError), the file is that
    of dataset._take(rows), written without copying those rows out first.
    """
    if rows is not None:
        index = check_array("rows", rows, 1)
        if not ((index >= 0) & (index < len(dataset)) & (index == np.floor(index))).all():
            raise InputError(f"rows must be integer indices in [0, {len(dataset)})")
        rows = np.asarray(rows if isinstance(rows, np.ndarray) else index, np.intp)
        del index  # its float copy of rows would otherwise live through the write
    if (len(dataset) if rows is None else len(rows)) == 0:
        raise InputError("refusing to write an empty dataset")

    def var_cells(at):  # nan marks a missing variance
        return [None if math.isnan(v) else v for v in dataset.true_noise_var[at].tolist()]

    write_csv(
        path, [*_FIXED_HEADER, *(f"f{j}" for j in range(dataset.feature_dim))],
        [dataset.ids, dataset.system_ids, dataset.domain_tags, dataset.y, var_cells, dataset.x],
        rows,
    )


def load_dataset_csv(path: str | Path) -> Dataset:
    """Read a dataset written by save_dataset_csv, or any file with its header.

    csv.reader reads the header; np.loadtxt, _LOAD_CHUNK_ROWS records a call, splits
    the rows as csv does and parses every number once, by numpy's rule ("1_0" is
    refused), into float columns sized by count_lines; the chunks' text cells are
    joined one column at a time at the end. An empty true_noise_var is missing,
    a literal nan there is refused (nan marks missing) and blank lines are
    skipped. A malformed file, text that is not UTF-8 or a field beyond
    csv.field_size_limit() raises InputError naming the path and the first
    faulty row, if any, counted in CSV records, by a rescan from the top.
    """
    try:
        capacity = count_lines(path)
        with open_text(path) as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise InputError(f"{path}: empty dataset file")
            d = len(header) - len(_FIXED_HEADER)
            if d < 1 or header != [*_FIXED_HEADER, *(f"f{j}" for j in range(d))]:
                want = f"want {_FIXED_HEADER} + f0..."
                raise InputError(f"{path}: unexpected header {header!r}, {want}")
            fields = [("text", object, (3,)), ("y", float), ("var", object), ("x", float, (d,))]
            y, var, x = np.empty(capacity), np.empty(capacity), np.empty((capacity, d))
            texts, n, full = [[], [], []], 0, True
            try:
                while full:  # a short chunk is the last
                    rows = _quiet_loadtxt(fh, fields, quotechar='"', max_rows=_LOAD_CHUNK_ROWS)
                    full, missing = len(rows) == _LOAD_CHUNK_ROWS, rows["var"] == ""
                    values = _floats(np.where(missing, "nan", rows["var"]).tolist())
                    for column, cells in zip(texts, rows["text"].T):
                        column.append(cells.astype(str))
                    bad_var = values is None or (np.isnan(values) & ~missing).any()
                    if bad_var or _unknown_tag(texts[2][-1]) is not None:
                        raise ValueError("bad true_noise_var or domain_tag")
                    at = slice(n, n + len(rows))
                    y[at], var[at], x[at], n = rows["y"], values, rows["x"], at.stop
            except ValueError as exc:
                raise InputError(_fault(path, header, str(exc))) from None
        if not n:
            raise InputError(f"{path}: dataset file has a header but no rows")
        columns = [np.concatenate(texts.pop(0)) for _ in range(3)]  # pieces die once joined
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: unreadable as CSV text: {exc}") from None
    return Dataset(*columns, y[:n], var[:n], x[:n])


def _quiet_loadtxt(source, dtype=float, quotechar=None, max_rows=None) -> np.ndarray:
    """np.loadtxt of comma-separated lines, without its warning for no data."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, dtype, delimiter=",", quotechar=quotechar, comments=None,
                          ndmin=1, max_rows=max_rows)


def _floats(cells: list[str]) -> np.ndarray | None:
    """cells as float64 by np.loadtxt's number rule, or None if one is not a number."""
    try:
        values = _quiet_loadtxt(cells)
    except ValueError:
        return None
    return values if values.shape == (len(cells),) else None


def _fault(path: str | Path, header: list[str], reason: str) -> str:
    """The error for the first CSV record that breaks a loader rule, by a csv.reader rescan."""
    with open_text(path) as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if lineno == 1 or not row:
                continue  # the header, or a blank line, which np.loadtxt skips too
            if len(row) != len(header):
                return f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            cells = [row[3], row[4] or "nan", *row[len(_FIXED_HEADER):]]
            values = _floats(cells)
            if values is None:
                bad = next(i for i, cell in enumerate(cells) if _floats([cell]) is None)
                return f"{path}:{lineno}: {header[3 + bad]} is not a number: {cells[bad]!r}"
            if row[4] and math.isnan(values[1]):
                return f"{path}:{lineno}: true_noise_var is nan; leave it empty"
            if row[2] not in DOMAIN_TAGS:
                return f"{path}:{lineno}: unknown domain_tag {row[2]!r}"
    return f"{path}: {reason}"
