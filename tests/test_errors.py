"""The integer and float checks that every config runs its fields through."""

from __future__ import annotations

import enum
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from mosuq.errors import ConfigError, check_float, check_int


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
