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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, InputError, check_float, check_int
from .ioutils import write_csv

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
    x is the (n, feature_dim) feature matrix. Every column is read-only, so
    features() and labels() hand them out without a copy. Indexing and
    iteration build Sample rows on demand.
    """

    ids: np.ndarray
    system_ids: np.ndarray
    domain_tags: np.ndarray
    y: np.ndarray
    true_noise_var: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        try:
            for name, dtype in _COLUMN_DTYPES.items():
                column = np.ascontiguousarray(getattr(self, name), dtype=dtype).view()
                column.flags.writeable = False
                object.__setattr__(self, name, column)
        except (TypeError, ValueError) as exc:
            raise InputError(f"dataset column {name} is not a regular array: {exc}") from None
        if self.x.ndim != 2:
            raise InputError(f"features must form an (n, d) matrix, got shape {self.x.shape}")
        lengths = {name: len(getattr(self, name)) for name in _COLUMN_DTYPES}
        if len(set(lengths.values())) > 1:
            raise InputError(f"dataset columns differ in length: {lengths}")

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
        return Dataset(*(getattr(self, name)[rows] for name in _COLUMN_DTYPES))

    @property
    def feature_dim(self) -> int:
        if len(self) == 0:
            raise InputError("empty dataset has no feature dimension")
        return self.x.shape[1]

    def features(self) -> np.ndarray:
        return self.x

    def labels(self) -> np.ndarray:
        return self.y


# Dataset columns in constructor order, with the dtype each is stored as.
_COLUMN_DTYPES = dict(
    ids=str, system_ids=str, domain_tags=str, y=float, true_noise_var=float, x=float
)


@dataclass(frozen=True)
class Homoscedastic:
    """Constant-variance Gaussian label noise; sigma = 0 gives clean labels."""

    sigma: float = 0.1

    def __post_init__(self):
        check_float("sigma", self.sigma, 0.0, math.inf)


@dataclass(frozen=True)
class Heteroscedastic:
    """Input-dependent noise sigma(x) = 0.05 + 0.5 * sigmoid(v . x + c)."""


@dataclass(frozen=True)
class RaterPanel:
    """Labels are the mean of num_raters independent noisy rater scores."""

    num_raters: int = 4
    rater_sd: float = 0.8

    def __post_init__(self):
        check_int("num_raters", self.num_raters, 1)
        check_float("rater_sd", self.rater_sd, 0.0, math.inf)


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
        check_int("num_systems", self.num_systems, 1)
        check_int("samples_per_system", self.samples_per_system, 1)
        check_int("feature_dim", self.feature_dim, 1)
        check_int("seed", self.seed, 0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _generate(cfg: GenConfig, center_offset: np.ndarray | None, tag: str) -> Dataset:
    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_model = np.random.default_rng(streams[0])
    rng_centers = np.random.default_rng(streams[1])
    rng_features = np.random.default_rng(streams[2])
    rng_noise = np.random.default_rng(streams[3])

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
    x = np.repeat(centers, n_k, axis=0) + rng_features.standard_normal((k * n_k, d))

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

    system_ids = np.repeat(np.char.mod("sys%03d", np.arange(k)), n_k)
    row_numbers = np.char.mod("-%05d", np.tile(np.arange(n_k), k))
    return Dataset(
        np.char.add(system_ids, row_numbers), system_ids, np.full(k * n_k, tag), y, true_var, x
    )


def gen_synthetic(cfg: GenConfig) -> Dataset:
    """Generate an in-domain dataset from the config alone."""
    return _generate(cfg, center_offset=None, tag=DOMAIN_IN)


def gen_ood_shift(cfg: GenConfig, shift: float) -> Dataset:
    """Generate the same dataset with every cluster center translated.

    The translation direction is a seed-derived unit vector, so each center
    lands exactly `shift` feature units from its in-domain counterpart.
    shift = 0 reproduces gen_synthetic(cfg) bit for bit; any positive shift
    tags the samples as OOD.
    """
    if not 0.0 <= shift < math.inf:
        raise InputError(f"shift must be finite and >= 0, got {shift}")
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
    dataset unchanged.
    """
    if not 0.0 <= level < math.inf:
        raise InputError(f"noise level must be finite and >= 0, got {level}")
    if len(dataset) == 0:
        raise InputError("cannot perturb an empty dataset")
    if level == 0.0:
        return dataset
    global_std = float(np.std(dataset.x))
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=dataset.x.shape) * (level * global_std)
    return replace(dataset, x=dataset.x + noise, domain_tags=np.full(len(dataset), DOMAIN_OOD))


def feature_noise_analogue(amplitude: float) -> float:
    """Map a waveform-amplitude corruption strength to a feature-noise level."""
    return amplitude * NOISE_ANALOGUE_SCALE


def split_dataset(
    dataset: Dataset, fractions: Sequence[float], seed: int
) -> tuple[Dataset, ...]:
    """Shuffle once with the given seed and cut into len(fractions) parts.

    Every part but the first gets floor(fraction * n) samples; the first
    part absorbs the remainder. Fractions must be finite, non-negative and
    sum to 1.
    """
    fractions = [float(f) for f in fractions]
    if not fractions or not all(0.0 <= f < math.inf for f in fractions):
        raise ConfigError(f"fractions must be finite and non-negative, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {fractions}")
    n = len(dataset)
    sizes = [int(math.floor(f * n)) for f in fractions]
    sizes[0] = n - sum(sizes[1:])
    if sizes[0] < 0:
        raise ConfigError(f"fractions {fractions} over-allocate {n} samples")
    order = np.random.default_rng(seed).permutation(n)
    ends = np.cumsum(sizes)
    return tuple(dataset._take(order[end - size : end]) for size, end in zip(sizes, ends))


def save_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    """Write `id,system_id,domain_tag,y,true_noise_var,f0,...` rows.

    A missing true_noise_var becomes an empty field. Floats are written
    with repr so a load/save round trip is byte-identical.
    """
    if len(dataset) == 0:
        raise InputError("refusing to write an empty dataset")
    header = [*_FIXED_HEADER, *(f"f{j}" for j in range(dataset.feature_dim))]
    var = [None if math.isnan(v) else v for v in dataset.true_noise_var.tolist()]
    write_csv(
        path, header,
        [dataset.ids, dataset.system_ids, dataset.domain_tags, dataset.y, var, *dataset.x.T],
    )


def load_dataset_csv(path: str | Path) -> Dataset:
    """Read a dataset written by save_dataset_csv (or any file matching its
    header contract).

    One csv pass reads and checks every column but the features, which
    np.loadtxt parses in one call. An empty true_noise_var is a missing
    value; a literal nan there is rejected, as nan marks a missing value in
    the loaded column. A malformed file raises InputError naming the path
    and, where one row is at fault, its row number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: empty dataset file")
        width = len(_FIXED_HEADER)
        if header[:width] != _FIXED_HEADER or any(
            col != f"f{j}" for j, col in enumerate(header[width:])
        ):
            raise InputError(f"{path}: unexpected header {header!r}")
        if len(header) == width:
            raise InputError(f"{path}: no feature columns")
        ids, system_ids, tags, y, var = [], [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise InputError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            if row[2] not in DOMAIN_TAGS:
                raise InputError(f"{path}:{lineno}: unknown domain_tag {row[2]!r}")
            try:
                y.append(float(row[3]))
                var.append(math.nan if row[4] == "" else float(row[4]))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            if row[4] != "" and math.isnan(var[-1]):
                raise InputError(f"{path}:{lineno}: true_noise_var is nan; leave it empty")
            ids.append(row[0])
            system_ids.append(row[1])
            tags.append(row[2])
    if not ids:
        raise InputError(f"{path}: dataset file has a header but no rows")
    try:
        x = np.loadtxt(
            path, delimiter=",", quotechar='"', comments=None, skiprows=1,
            usecols=range(width, len(header)), ndmin=2, encoding=fh.encoding,
        )
    except ValueError as exc:
        raise InputError(f"{path}:{_bad_feature_row(path, width)}: {exc}") from None
    return Dataset(
        np.array(ids, dtype=str), np.array(system_ids, dtype=str), np.array(tags, dtype=str),
        y, var, x,
    )


def _bad_feature_row(path: str | Path, width: int) -> int | str:
    """Row number of the first row whose features float() rejects, or "?"."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for lineno, row in enumerate(rows, start=2):
            try:
                list(map(float, row[width:]))
            except ValueError:
                return lineno
    return "?"
