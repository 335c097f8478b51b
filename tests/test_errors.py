"""The integer and float checks that every config runs its fields through."""

from __future__ import annotations

import enum
import math
import numbers
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from mosuq.datagen import GenConfig, Homoscedastic, RaterPanel
from mosuq.errors import ConfigError, check_float, check_int
from mosuq.mcdropout import MCConfig
from mosuq.net import ArchConfig
from mosuq.trainer import TrainConfig


class Count(enum.IntEnum):
    THREE = 3


class FloatSubclass(float):
    """A float subclass, which takes the ABC check rather than the exact-float one."""


@pytest.mark.parametrize("value", [0, 7, 2**70, np.int64(3), np.uint8(3), Count.THREE])
def test_check_int_accepts(value):
    check_int("n", value, 0)


@pytest.mark.parametrize(
    "value", [-1, np.int64(-1), True, False, 5.0, Fraction(5), np.float64(2.0), "3", None]
)
def test_check_int_rejects(value):
    with pytest.raises(ConfigError, match="must be an integer >= 0"):
        check_int("n", value, 0)


@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, 0.5, 0, np.int64(0), Fraction(1, 2), FloatSubclass(0.5), np.float32(0.5),
     np.float64(0.99)],
)
def test_check_float_accepts(value):
    check_float("p", value, 0.0, 1.0)


@pytest.mark.parametrize(
    "value",
    [1.0, -1e-300, math.nan, math.inf, Decimal("0.5"), 0.5j, "0.5", None, True, False,
     FloatSubclass(1.0), np.float32("nan")],
)
def test_check_float_rejects(value):
    with pytest.raises(ConfigError, match=r"must be a number in \[0, 1\)"):
        check_float("p", value, 0.0, 1.0)


@pytest.mark.parametrize("value", [0.0, -0.0, 0, Fraction(0), np.float32(0.0)])
def test_check_float_low_open_rejects_the_low_end(value):
    check_float("p", value, 0.0, 1.0)
    with pytest.raises(ConfigError, match=r"must be a number in \(0, 1\)"):
        check_float("p", value, 0.0, 1.0, low_open=True)


@pytest.mark.parametrize(
    "value", [5e-324, 0.5, Fraction(1, 3), FloatSubclass(0.25), np.float32(1e-30)]
)
def test_check_float_low_open_accepts_the_inside(value):
    check_float("p", value, 0.0, 1.0, low_open=True)


@pytest.mark.parametrize("value", [7, np.int64(7), np.uint8(7), Count.THREE])
def test_check_int_returns_a_python_int(value):
    got = check_int("n", value, 0)
    assert type(got) is int and got == value


@pytest.mark.parametrize("value", [0.5, 0, np.float32(0.5), np.int64(0), Fraction(1, 2),
                                   FloatSubclass(0.5)])
def test_check_float_returns_a_python_float(value):
    got = check_float("p", value, 0.0, 1.0)
    assert type(got) is float and got == value


@pytest.mark.parametrize("config", [
    ArchConfig(input_dim=np.int64(3), trunk_dims=(np.int32(4), np.uint8(2)),
               head_hidden_dim=np.int16(5), dropout_p=np.float32(0.1)),
    TrainConfig(epochs=np.int64(2), batch_size=np.int32(4), learning_rate=np.float32(1e-3),
                seed=np.uint64(7)),
    MCConfig(num_passes=np.int64(5), dropout_p=np.float32(0.25), seed=np.int8(1)),
    GenConfig(num_systems=np.int64(2), samples_per_system=np.int32(3), feature_dim=np.int8(2),
              seed=np.uint16(4)),
    Homoscedastic(sigma=np.float32(0.3)),
    RaterPanel(num_raters=np.int64(3), rater_sd=np.float16(0.5)),
], ids=lambda config: type(config).__name__)
def test_configs_store_plain_python_numbers(config):
    """Every checked number is stored as the int or float it converts to."""
    for name, value in vars(config).items():
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, (np.generic, numbers.Number)) and not isinstance(v, bool):
                assert type(v) in (int, float), name
