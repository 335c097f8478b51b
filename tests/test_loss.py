"""Batched Gaussian NLL and MSE training losses with analytic gradients."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosuq.loss import mse_loss_batch, nll_loss_batch

finite_floats = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def nll(y_hat, s, y):
    """nll_loss_batch over broadcast inputs: (values, d_y_hat, d_s) arrays."""
    y_hat, s, y = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (y_hat, s, y)))
    return nll_loss_batch(y_hat, s, y)


class TestNllLossValues:
    def test_zero_residual_unit_variance(self):
        value, d_y_hat, d_s = nll([1.5], [0.0], [1.5])
        assert value[0] == 0.0
        assert d_y_hat[0] == 0.0
        assert d_s[0] == 0.5

    def test_hand_worked_example(self):
        value, d_y_hat, d_s = nll([0.0], [0.0], [2.0])
        assert value[0] == pytest.approx(2.0, abs=1e-12)
        assert d_y_hat[0] == pytest.approx(-2.0, abs=1e-12)
        assert d_s[0] == pytest.approx(-1.5, abs=1e-12)

    def test_residual_sign_symmetry(self):
        value, _, _ = nll([0.0, 0.0], [0.3, 0.3], [1.7, -1.7])
        assert value[0] == value[1]


class TestNllLossGradients:
    @settings(max_examples=50, deadline=None)
    @given(finite_floats, st.floats(-8.0, 8.0), finite_floats)
    def test_matches_central_differences(self, y_hat, s, y):
        step = 1e-6
        _, d_y_hat, d_s = nll([y_hat], [s], [y])
        # One call scores the four shifted predictions.
        values, _, _ = nll(
            [y_hat + step, y_hat - step, y_hat, y_hat], [s, s, s + step, s - step], y
        )
        d_y_num = (values[0] - values[1]) / (2 * step)
        d_s_num = (values[2] - values[3]) / (2 * step)
        assert d_y_hat[0] == pytest.approx(d_y_num, rel=1e-6, abs=1e-6)
        assert d_s[0] == pytest.approx(d_s_num, rel=1e-6, abs=1e-6)

    def test_convex_in_s_with_closed_form_minimizer(self):
        """For a fixed residual e, s -> loss is convex with minimum ln(e^2)."""
        residual = 0.8
        s_star = math.log(residual**2)
        grid = np.linspace(s_star - 4.0, s_star + 4.0, 401)
        values, _, _ = nll(0.0, grid, residual)
        best = grid[int(np.argmin(values))]
        assert best == pytest.approx(s_star, abs=grid[1] - grid[0])
        second_diff = np.diff(values, 2)
        assert np.all(second_diff > -1e-12)

    def test_gradient_zero_at_minimizer(self):
        residual = 1.37
        s_star = math.log(residual**2)
        _, _, d_s = nll([0.0], [s_star], [residual])
        assert d_s[0] == pytest.approx(0.0, abs=1e-12)

    def test_rows_are_independent(self):
        """A row's loss and gradients do not depend on the other rows."""
        rng = np.random.default_rng(0)
        y_hat, s, y = rng.normal(size=(3, 8))
        batch = nll_loss_batch(y_hat, s, y)
        for i in range(8):
            one = nll_loss_batch(y_hat[i : i + 1], s[i : i + 1], y[i : i + 1])
            for got, want in zip(batch, one):
                assert got[i] == want[0]


class TestMseLoss:
    def test_perfect_prediction(self):
        value, d_y_hat, _ = mse_loss_batch(np.array([2.0]), np.array([0.7]), np.array([2.0]))
        assert value[0] == 0.0
        assert d_y_hat[0] == 0.0

    def test_direct_definition(self):
        value, d_y_hat, _ = mse_loss_batch(np.array([1.0]), np.array([0.0]), np.array([3.0]))
        assert value[0] == 4.0
        assert d_y_hat[0] == -4.0

    @settings(max_examples=30, deadline=None)
    @given(finite_floats, finite_floats, finite_floats)
    def test_never_touches_log_variance(self, y_hat, s, y):
        _, _, d_s = mse_loss_batch(np.array([y_hat]), np.array([s]), np.array([y]))
        np.testing.assert_array_equal(d_s, np.zeros(1))
