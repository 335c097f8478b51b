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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import ConfigError, InputError
from .ioutils import write_csv

__all__ = [
    "DOMAIN_IN",
    "DOMAIN_OOD",
    "CENTER_SPREAD",
    "NOISE_ANALOGUE_SCALE",
    "Sample",
    "Dataset",
    "Homoscedastic",
    "Heteroscedastic",
    "RaterPanel",
    "NoiseModel",
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


@dataclass(frozen=True)
class Sample:
    id: str
    system_id: str
    features: np.ndarray
    y: float
    domain_tag: str = DOMAIN_IN
    true_noise_var: float | None = None


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of samples with uniform feature width."""

    samples: tuple[Sample, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        widths = {s.features.shape for s in self.samples}
        if len(widths) > 1:
            raise InputError(f"inconsistent feature shapes in dataset: {sorted(widths)}")

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def __getitem__(self, i: int) -> Sample:
        return self.samples[i]

    @property
    def feature_dim(self) -> int:
        if not self.samples:
            raise InputError("empty dataset has no feature dimension")
        return self.samples[0].features.shape[0]

    def features(self) -> np.ndarray:
        return np.array([s.features for s in self.samples], dtype=float)

    def labels(self) -> np.ndarray:
        return np.array([s.y for s in self.samples], dtype=float)


@dataclass(frozen=True)
class Homoscedastic:
    """Constant-variance Gaussian label noise; sigma = 0 gives clean labels."""

    sigma: float = 0.1

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class Heteroscedastic:
    """Input-dependent noise sigma(x) = 0.05 + 0.5 * sigmoid(v . x + c)."""


@dataclass(frozen=True)
class RaterPanel:
    """Labels are the mean of num_raters independent noisy rater scores."""

    num_raters: int = 4
    rater_sd: float = 0.8

    def __post_init__(self):
        if self.num_raters < 1:
            raise ConfigError(f"num_raters must be >= 1, got {self.num_raters}")
        if self.rater_sd < 0.0:
            raise ConfigError(f"rater_sd must be >= 0, got {self.rater_sd}")


NoiseModel = Union[Homoscedastic, Heteroscedastic, RaterPanel]


@dataclass(frozen=True)
class GenConfig:
    num_systems: int = 12
    samples_per_system: int = 150
    feature_dim: int = 16
    noise_model: NoiseModel = Heteroscedastic()
    seed: int = 0
    clip_labels: bool = False

    def __post_init__(self):
        if self.num_systems < 1:
            raise ConfigError(f"num_systems must be >= 1, got {self.num_systems}")
        if self.samples_per_system < 1:
            raise ConfigError(
                f"samples_per_system must be >= 1, got {self.samples_per_system}"
            )
        if self.feature_dim < 1:
            raise ConfigError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


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

    noise = cfg.noise_model
    samples = []
    for k in range(cfg.num_systems):
        n_k = cfg.samples_per_system
        x = centers[k] + rng_features.standard_normal((n_k, d))
        clean = SCORE_MID + SCORE_SPAN * np.tanh(x @ w + b)

        if isinstance(noise, Homoscedastic):
            y = clean + rng_noise.normal(size=n_k) * noise.sigma
            true_var = np.full(n_k, noise.sigma**2)
        elif isinstance(noise, Heteroscedastic):
            sigma = HET_SIGMA_MIN + HET_SIGMA_SPAN * _sigmoid(x @ v + c)
            y = clean + rng_noise.normal(size=n_k) * sigma
            true_var = sigma**2
        elif isinstance(noise, RaterPanel):
            rater_noise = rng_noise.normal(size=(n_k, noise.num_raters)) * noise.rater_sd
            y = clean + rater_noise.mean(axis=1)
            true_var = np.full(n_k, noise.rater_sd**2 / noise.num_raters)
        else:
            raise ConfigError(f"unknown noise model: {noise!r}")

        if cfg.clip_labels:
            y = np.clip(y, SCORE_MID - SCORE_SPAN, SCORE_MID + SCORE_SPAN)

        system_id = f"sys{k:03d}"
        for i in range(n_k):
            samples.append(
                Sample(
                    id=f"{system_id}-{i:05d}",
                    system_id=system_id,
                    features=x[i],
                    y=float(y[i]),
                    domain_tag=tag,
                    true_noise_var=float(true_var[i]),
                )
            )
    return Dataset(tuple(samples))


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
    if shift < 0.0:
        raise InputError(f"shift must be >= 0, got {shift}")
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
    if level < 0.0:
        raise InputError(f"noise level must be >= 0, got {level}")
    if len(dataset) == 0:
        raise InputError("cannot perturb an empty dataset")
    if level == 0.0:
        return dataset
    global_std = float(np.std(dataset.features()))
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(len(dataset), dataset.feature_dim)) * (level * global_std)
    samples = tuple(
        replace(s, features=s.features + noise[i], domain_tag=DOMAIN_OOD)
        for i, s in enumerate(dataset)
    )
    return Dataset(samples)


def feature_noise_analogue(amplitude: float) -> float:
    """Map a waveform-amplitude corruption strength to a feature-noise level."""
    return amplitude * NOISE_ANALOGUE_SCALE


def split_dataset(
    dataset: Dataset, fractions: Sequence[float], seed: int
) -> tuple[Dataset, ...]:
    """Shuffle once with the given seed and cut into len(fractions) parts.

    Every part but the first gets floor(fraction * n) samples; the first
    part absorbs the remainder. Fractions must be non-negative and sum to 1.
    """
    fractions = [float(f) for f in fractions]
    if not fractions or any(f < 0.0 for f in fractions):
        raise ConfigError(f"fractions must be non-negative, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {fractions}")
    n = len(dataset)
    sizes = [int(math.floor(f * n)) for f in fractions]
    sizes[0] = n - sum(sizes[1:])
    if sizes[0] < 0:
        raise ConfigError(f"fractions {fractions} over-allocate {n} samples")
    order = np.random.default_rng(seed).permutation(n)
    parts = []
    start = 0
    for size in sizes:
        part = tuple(dataset[int(i)] for i in order[start : start + size])
        parts.append(Dataset(part))
        start += size
    return tuple(parts)


def save_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    """Write `id,system_id,domain_tag,y,true_noise_var,f0,...` rows.

    A missing true_noise_var becomes an empty field. Floats are written
    with repr so a load/save round trip is byte-identical.
    """
    if len(dataset) == 0:
        raise InputError("refusing to write an empty dataset")
    header = ["id", "system_id", "domain_tag", "y", "true_noise_var"]
    header += [f"f{j}" for j in range(dataset.feature_dim)]
    rows = (
        [
            s.id,
            s.system_id,
            s.domain_tag,
            float(s.y),
            None if s.true_noise_var is None else float(s.true_noise_var),
            *s.features.tolist(),
        ]
        for s in dataset
    )
    write_csv(path, header, rows)


def load_dataset_csv(path: str | Path) -> Dataset:
    """Read a dataset written by save_dataset_csv (or any file matching its
    header contract)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty dataset file") from None
        fixed = ["id", "system_id", "domain_tag", "y", "true_noise_var"]
        if header[: len(fixed)] != fixed or any(
            col != f"f{j}" for j, col in enumerate(header[len(fixed) :])
        ):
            raise InputError(f"{path}: unexpected header {header!r}")
        d = len(header) - len(fixed)
        if d < 1:
            raise InputError(f"{path}: no feature columns")
        samples = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise InputError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            sid, system_id, tag, y_text, var_text = row[:5]
            if tag not in DOMAIN_TAGS:
                raise InputError(f"{path}:{lineno}: unknown domain_tag {tag!r}")
            try:
                y = float(y_text)
                true_var = None if var_text == "" else float(var_text)
                features = np.array([float(x) for x in row[5:]], dtype=float)
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            samples.append(
                Sample(
                    id=sid,
                    system_id=system_id,
                    features=features,
                    y=y,
                    domain_tag=tag,
                    true_noise_var=true_var,
                )
            )
    if not samples:
        raise InputError(f"{path}: dataset file has a header but no rows")
    return Dataset(tuple(samples))
