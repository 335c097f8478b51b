"""Shared fixtures: five trained-and-calibrated heteroscedastic runs.

Several behavioral tests (calibration effect, selective prediction, OOD
separation, corruption sensitivity) evaluate the same trained models. The
bundle below is built once per session: for each of five seeds it generates
a heteroscedastic dataset, splits it 5/7 train (exactly 5000 samples),
1/7 calibration, 1/7 test, trains for 50 epochs, and fits the closed-form
variance scale on the calibration split.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np
import pytest

from mosuq.calibrate import CalibrationScale
from mosuq.datagen import (
    DOMAIN_IN,
    Dataset,
    GenConfig,
    Heteroscedastic,
    gen_synthetic,
    split_dataset,
)
from mosuq.mcdropout import MCConfig
from mosuq.net import ArchConfig, ModelParams, param_layout
from mosuq.trainer import TrainConfig, TrainHistory, predict_batch, train

FIXTURE_SEEDS = (0, 1, 2, 3, 4)
FIXTURE_SPLIT = (5.0 / 7.0, 1.0 / 7.0, 1.0 / 7.0)
FIXTURE_MC = MCConfig(num_passes=25, dropout_p=0.5, seed=12345)


def dataset_of(ids, system_ids, x, y, domain_tags=None, true_noise_var=None) -> Dataset:
    """A Dataset built from its columns. Domain tags default to in-domain and
    true noise variances to missing (nan)."""
    n = len(ids)
    return Dataset(
        ids=ids,
        system_ids=system_ids,
        domain_tags=[DOMAIN_IN] * n if domain_tags is None else domain_tags,
        y=y,
        true_noise_var=[math.nan] * n if true_noise_var is None else true_noise_var,
        x=x,
    )


def param_arrays(params: ModelParams) -> list[np.ndarray]:
    """All learnable arrays, as views in flat-vector order."""
    return [params.flat[s.start : s.stop].reshape(s.shape) for s in param_layout(params.arch)]


def concat_datasets(*datasets: Dataset) -> Dataset:
    """The rows of each dataset in turn, column by column."""
    return Dataset(*(
        np.concatenate([getattr(d, f.name) for d in datasets]) for f in fields(Dataset)
    ))


def head_rows(dataset: Dataset, n: int) -> Dataset:
    """The first n rows of a dataset, column by column."""
    return Dataset(*(getattr(dataset, f.name)[:n] for f in fields(Dataset)))


def fixture_gen_config(seed: int) -> GenConfig:
    return GenConfig(
        num_systems=20,
        samples_per_system=350,
        feature_dim=2,
        noise_model=Heteroscedastic(),
        seed=seed,
    )


def fixture_arch() -> ArchConfig:
    return ArchConfig(
        input_dim=2,
        trunk_dims=(16,),
        head_hidden_dim=16,
        dropout_p=0.7,
        activation="tanh",
    )


def fixture_train_config(seed: int) -> TrainConfig:
    return TrainConfig(epochs=50, batch_size=8, learning_rate=3e-4, loss="nll", seed=seed)


@dataclass(frozen=True)
class SeedRun:
    """One trained model plus everything needed to evaluate it."""

    seed: int
    dataset: Dataset
    train_split: Dataset
    cal_split: Dataset
    test_split: Dataset
    params: ModelParams
    history: TrainHistory
    scale: CalibrationScale
    build_seconds: float

    def predictions(self, split: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic (y_hat, s) arrays for a dataset split."""
        return predict_batch(self.params, split.features())


def build_seed_run(seed: int) -> SeedRun:
    start = time.perf_counter()
    dataset = gen_synthetic(fixture_gen_config(seed))
    train_split, cal_split, test_split = split_dataset(dataset, FIXTURE_SPLIT, seed=seed)
    params, history = train(train_split, fixture_arch(), fixture_train_config(seed), cal_split)
    y_cal, s_cal = predict_batch(params, cal_split.features())
    scale = CalibrationScale.fit(y_cal, s_cal, cal_split.labels())
    return SeedRun(
        seed=seed,
        dataset=dataset,
        train_split=train_split,
        cal_split=cal_split,
        test_split=test_split,
        params=params,
        history=history,
        scale=scale,
        build_seconds=time.perf_counter() - start,
    )


@pytest.fixture(scope="session")
def hetero_runs() -> tuple[SeedRun, ...]:
    return tuple(build_seed_run(seed) for seed in FIXTURE_SEEDS)
