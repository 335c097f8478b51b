"""Closed-form variance calibration: fitting, applying, and its optimality."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mosuq.calibrate import (
    DEGENERATE_FLOOR,
    CalibrationScale,
    DegenerateCalibrationWarning,
    fit_scale,
)
from mosuq.errors import InputError, InvariantError
from mosuq.mcdropout import MCConfig, mc_forward_dataset
from mosuq.metrics import nll_metric
from mosuq.net import ArchConfig, HeteroPrediction, init_params


def columns_with_normalized_residuals(norm_sq):
    """Unit-variance (y_hat, s, y) columns whose squared residuals equal norm_sq."""
    zeros = np.zeros(len(norm_sq))
    return zeros, zeros, np.sqrt(norm_sq)


class TestFit:
    def test_perfectly_calibrated_gives_unit_scale(self):
        scale = CalibrationScale.fit(*columns_with_normalized_residuals([1.0, 1.0, 1.0]))
        assert scale.r == pytest.approx(1.0, abs=1e-15)
        assert scale.num_samples_used == 3
        assert not scale.degenerate

    def test_hand_worked_pair(self):
        scale = CalibrationScale.fit(*columns_with_normalized_residuals([4.0, 16.0]))
        assert scale.r == pytest.approx(math.sqrt(10.0), abs=1e-12)
        assert scale.mean_normalized_residual_sq == pytest.approx(10.0, abs=1e-12)

    def test_scale_invariant_links_r_to_mean(self):
        rng = np.random.default_rng(5)
        y_hat, s = rng.normal(size=(40, 2)).T
        labels = rng.normal(size=40)
        scale = CalibrationScale.fit(y_hat, s, list(labels))
        assert scale.r**2 == pytest.approx(scale.mean_normalized_residual_sq, rel=1e-12)

    def test_zero_residuals_floor_and_warn(self):
        with pytest.warns(DegenerateCalibrationWarning):
            scale = CalibrationScale.fit([1.0, -2.0], [0.0, 0.3], [1.0, -2.0])
        assert scale.r == DEGENERATE_FLOOR
        assert scale.degenerate

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            CalibrationScale.fit([], [], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            CalibrationScale.fit([0.0], [0.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "y_hat, s, y",
        [
            ([0.0, 1.0], [0.0], [1.0, 2.0]),
            ([0.0, 1.0], [0.0, 0.5], [1.0]),
            ([0.0], [0.0, 0.5], [1.0, 2.0]),
            ([[0.0, 1.0]], [[0.0, 0.5]], [[1.0, 2.0]]),
            ([0.0, 1.0], [[0.0], [0.5]], [1.0, 2.0]),
            (0.0, 0.0, 1.0),
            ([], [0.0], [1.0]),
            (np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2))),
        ],
    )
    def test_ragged_multi_dimensional_or_empty_columns_rejected(self, y_hat, s, y):
        with pytest.raises(InputError):
            CalibrationScale.fit(y_hat, s, y)

    def test_recovers_injected_scale(self):
        """Labels drawn as y = y_hat + N(0, c^2 sigma^2) recover r = c."""
        rng = np.random.default_rng(99)
        c = 1.7
        s = rng.uniform(-1.0, 1.0, size=10000)
        y_hat = rng.normal(size=10000)
        labels = y_hat + rng.normal(size=10000) * c * np.exp(0.5 * s)
        scale = CalibrationScale.fit(y_hat, s, list(labels))
        assert scale.r == pytest.approx(c, rel=0.02)


class TestFitScaleRows:
    """fit_scale is CalibrationScale.fit over HeteroPrediction rows."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_give_the_bits_of_columns(self, seed):
        rng = np.random.default_rng(seed)
        y_hat, s, labels = rng.normal(size=(3, 50))
        preds = [HeteroPrediction(float(m), float(v)) for m, v in zip(y_hat, s)]
        assert fit_scale(preds, labels) == CalibrationScale.fit(y_hat, s, labels)

    def test_degenerate_rows_warn_and_match_columns(self):
        preds = [HeteroPrediction(1.0, 0.0), HeteroPrediction(-2.0, 0.3)]
        with pytest.warns(DegenerateCalibrationWarning):
            rows = fit_scale(preds, [1.0, -2.0])
        with pytest.warns(DegenerateCalibrationWarning):
            columns = CalibrationScale.fit([1.0, -2.0], [0.0, 0.3], [1.0, -2.0])
        assert rows == columns

    def test_empty_and_mismatched_rows_rejected(self):
        with pytest.raises(InputError):
            fit_scale([], [])
        with pytest.raises(InputError):
            fit_scale([HeteroPrediction(0.0, 0.0)], [1.0, 2.0])


class TestCalibrationScaleType:
    def test_rejects_non_positive_r(self):
        with pytest.raises(InvariantError):
            CalibrationScale(r=0.0, num_samples_used=1, mean_normalized_residual_sq=0.0)

    def test_from_r_round_trips(self):
        scale = CalibrationScale.from_r(2.5)
        assert scale.r == 2.5
        assert scale.variance_multiplier == pytest.approx(6.25)


class TestApplyingTheScale:
    """mc_forward_dataset applies a scale to a whole batch: it multiplies each
    row's aleatoric variance by r^2 and leaves everything else alone."""

    @staticmethod
    def run(r=None):
        arch = ArchConfig(input_dim=3, trunk_dims=(4,), head_hidden_dim=4)
        x = np.random.default_rng(0).normal(size=(5, 3))
        scale = None if r is None else CalibrationScale.from_r(r)
        cfg = MCConfig(num_passes=6, dropout_p=0.5, seed=3)
        return mc_forward_dataset(init_params(arch, seed=1), x, cfg, scale)

    def test_identity_scale_is_a_no_op(self):
        assert self.run(1.0) == self.run()

    def test_variance_multiplied_by_r_squared(self):
        for plain, scaled in zip(self.run(), self.run(3.0)):
            assert scaled.aleatoric_var == pytest.approx(9.0 * plain.aleatoric_var, rel=1e-12)

    def test_point_prediction_untouched(self):
        plain = self.run()
        for r in (0.01, 0.5, 1.0, 7.0):
            scaled = self.run(r)
            assert np.array_equal(scaled.y_samples, plain.y_samples)
            assert np.array_equal(scaled.y_mean, plain.y_mean)

    def test_applying_twice_composes_multiplicatively(self):
        twice = (CalibrationScale.from_r(2.0).variance_multiplier
                 * CalibrationScale.from_r(3.0).variance_multiplier)
        assert twice == pytest.approx(CalibrationScale.from_r(6.0).variance_multiplier, abs=1e-12)


def nll_at_scale(y_hat, s, labels, r):
    return nll_metric(labels, y_hat, (r**2) * np.exp(s))


class TestOptimality:
    def test_fitted_scale_beats_nearby_scales_on_fit_set(self):
        rng = np.random.default_rng(2024)
        s = rng.uniform(-1.5, 0.5, size=400)
        y_hat = rng.normal(size=400)
        labels = y_hat + rng.normal(size=400) * 1.4 * np.exp(0.5 * s)
        scale = CalibrationScale.fit(y_hat, s, list(labels))
        fitted = nll_at_scale(y_hat, s, labels, scale.r)
        for factor in (0.5, 0.9, 1.1, 2.0):
            assert fitted <= nll_at_scale(y_hat, s, labels, factor * scale.r) + 1e-12

    def test_refit_after_scaling_is_idempotent(self):
        rng = np.random.default_rng(77)
        s = rng.uniform(-1.0, 1.0, size=5000)
        y_hat = rng.normal(size=5000)
        labels = y_hat + rng.normal(size=5000) * 0.6 * np.exp(0.5 * s)
        scale = CalibrationScale.fit(y_hat, s, list(labels))
        # As the CLI applies the scale: every log-variance shifts by 2 log r.
        again = CalibrationScale.fit(y_hat, scale.shift_log_variance(s), list(labels))
        assert again.r == pytest.approx(1.0, rel=0.02)


class TestShiftLogVariance:
    def test_adds_twice_the_log_of_r_to_floats_and_arrays(self):
        scale = CalibrationScale.from_r(1.7)
        s = np.array([-3.0, 0.0, 0.25, 9.5])
        shifted = scale.shift_log_variance(s)
        assert shifted.tolist() == [v + 2.0 * math.log(1.7) for v in s.tolist()]
        assert scale.shift_log_variance(0.25) == shifted[2]
        np.testing.assert_allclose(np.exp(shifted), scale.variance_multiplier * np.exp(s))
