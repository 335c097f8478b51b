"""The input boundary: the integer, float, flag and choice checks that every
config runs its fields through, and the one array check that every caller array
enters through."""

from __future__ import annotations

import enum
import warnings
import math
import numbers
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from mosuq.datagen import GenConfig, Homoscedastic, RaterPanel
from mosuq.errors import (
    MAX_SIZE, ConfigError, InputError, InvariantError, check_array, check_bool, check_choice,
    check_float, check_int,
)
from mosuq.mcdropout import MCConfig
from mosuq.metrics import uce
from mosuq.net import ArchConfig, Workspace, init_params
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
              seed=np.uint16(4), clip_labels=np.bool_(True)),
    Homoscedastic(sigma=np.float32(0.3)),
    RaterPanel(num_raters=np.int64(3), rater_sd=np.float16(0.5)),
], ids=lambda config: type(config).__name__)
def test_configs_store_plain_python_numbers(config):
    """Every checked number or flag is stored as the int, float or bool it converts to."""
    for name, value in vars(config).items():
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, (np.generic, numbers.Number)):
                assert type(v) in (int, float, bool), name


@pytest.mark.parametrize("value", [MAX_SIZE + 1, 2**64, 10**400, np.uint64(2**64 - 1)])
def test_check_int_rejects_an_integer_above_its_maximum(value):
    assert check_int("n", MAX_SIZE, 0, MAX_SIZE) == MAX_SIZE
    with pytest.raises(ConfigError, match=rf"n must be an integer in \[0, {MAX_SIZE}\]"):
        check_int("n", value, 0, MAX_SIZE)


def test_a_size_beyond_numpy_raises_the_error_of_its_caller():
    with pytest.raises(ConfigError, match="rows"):
        Workspace(init_params(ArchConfig(input_dim=2), 0), 10**400)
    with pytest.raises(InputError, match="num_bins"):
        uce([1.0, 2.0], [1.0, 2.0], [1.0, 2.0], num_bins=10**400)
    with pytest.raises(ConfigError, match="feature_dim"):
        GenConfig(feature_dim=2**64)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), np.bool_(False)])
def test_check_bool_returns_a_plain_bool(value):
    got = check_bool("flag", value)
    assert type(got) is bool and got == value


@pytest.mark.parametrize(
    "value", [1, 0, 1.0, "true", None, np.array([1, 0]), np.array(True), [True]]
)
def test_check_bool_rejects(value):
    with pytest.raises(ConfigError, match="flag must be true or false"):
        check_bool("flag", value)
    with pytest.raises(InputError, match="flag must be true or false"):
        check_bool("flag", value, error=InputError)


def test_check_float_rejects_an_integer_beyond_the_float_range():
    with pytest.raises(ConfigError, match="must be a number"):
        check_float("sigma", 10**400, 0.0, math.inf)


def test_checks_raise_the_error_class_they_are_given():
    with pytest.raises(InputError, match="shift"):
        check_float("shift", -1.0, 0.0, math.inf, error=InputError)
    with pytest.raises(InvariantError, match="n must be an integer"):
        check_int("n", 0.5, 0, error=InvariantError)


@pytest.mark.parametrize("value", ["tanh", np.str_("relu")])
def test_check_choice_returns_a_plain_str(value):
    got = check_choice("activation", value, ("tanh", "relu"))
    assert type(got) is str and got == value


@pytest.mark.parametrize("value", ["sigmoid", None, 1, np.array(["tanh", "relu"]), ["tanh"]])
def test_check_choice_rejects(value):
    with pytest.raises(ConfigError, match="activation must be one of"):
        check_choice("activation", value, ("tanh", "relu"))


class TestCheckArray:
    def test_a_float64_array_passes_through_without_a_copy(self):
        x = np.zeros((2, 3))
        assert check_array("x", x, 2, finite=True) is x

    @pytest.mark.parametrize("value, want", [
        ([1, 2], [1.0, 2.0]), ([True, False], [1.0, 0.0]), (np.int8([3]), [3.0]),
        (np.float32([0.5]), [0.5]), ([Fraction(1, 2), np.float32(0.25)], [0.5, 0.25]),
        (np.array([1.0, 2.0], dtype=">f8"), [1.0, 2.0]),
    ])
    def test_real_numbers_are_converted_to_float64(self, value, want):
        got = check_array("x", value, 1)
        assert got.dtype == np.float64 and got.dtype.isnative and got.tolist() == want

    @pytest.mark.parametrize("value", [
        [[1.0], [2.0, 3.0]], ["1.5"], [1j], np.array([1j]), [None], [object()], [10**400],
        np.array(["2020-01-01"], dtype="datetime64[D]"), {"a": 1}, [Decimal("0.5")],
    ], ids=["ragged", "text", "complex", "complex-array", "none", "object", "huge-int",
            "datetime", "dict", "decimal"])
    def test_values_that_are_not_real_numbers_are_an_input_error(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="column must be a rectangular"):
                check_array("column", value)

    @pytest.mark.parametrize("value, ndim", [([1.0], 2), ([[1.0]], 1), (1.0, 1)])
    def test_wrong_rank_is_an_input_error(self, value, ndim):
        with pytest.raises(InputError, match=f"column must be a {ndim}-d array"):
            check_array("column", value, ndim)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_finite_rejects_nan_and_inf(self, bad):
        check_array("column", [1.0, bad])
        with pytest.raises(InputError, match="column must be finite"):
            check_array("column", [1.0, bad], finite=True)

    def test_text_columns(self):
        got = check_array("ids", ["a", 1, 2.5], 1, text=True)
        assert got.dtype.kind == "U" and got.tolist() == ["a", "1", "2.5"]
        with pytest.raises(InputError, match="ids must be a rectangular 1-d text array"):
            check_array("ids", [["a"], ["b", "c"]], 1, text=True)
