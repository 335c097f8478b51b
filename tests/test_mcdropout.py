"""Stochastic forward-pass sampling and the two epistemic variances."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosuq import mcdropout
from mosuq.calibrate import CalibrationScale
from mosuq.datagen import gen_ood_shift, split_dataset
from mosuq.errors import ConfigError, InputError, ShapeError
from mosuq.mcdropout import (
    _BLOCK_UNITS,
    MCConfig,
    MCSamples,
    _keep_mask,
    _mask_workspace,
    _row_keys,
    mc_forward,
    mc_forward_dataset,
    row_seed,
    variance_of,
)
from mosuq.net import S_CLAMP, ArchConfig, forward_batch, init_params
from mosuq.trainer import predict_batch

from conftest import FIXTURE_MC, fixture_gen_config


def tiny_params(seed=0, dropout_p=0.5):
    arch = ArchConfig(input_dim=3, trunk_dims=(4,), head_hidden_dim=4, dropout_p=dropout_p)
    return init_params(arch, seed=seed)


class TestVarianceOf:
    def test_hand_worked_triple(self):
        assert variance_of([1.0, 2.0, 3.0]) == 2.0 / 3.0

    def test_all_equal_is_exactly_zero(self):
        assert variance_of([0.1 + 0.2] * 7) == 0.0

    def test_single_sample_is_zero(self):
        assert variance_of([42.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            variance_of([])

    @pytest.mark.parametrize(
        "samples",
        [["a", "b"], [[1.0, 2.0], [3.0]], [1.0 + 2.0j, 0.5], np.array([1.0 + 2.0j, 0.5])],
        ids=["non-numeric", "ragged", "complex-list", "complex-array"],
    )
    def test_samples_that_are_not_real_numbers_are_an_input_error(self, samples):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="samples"):
                variance_of(samples)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-1, 1), min_size=2, max_size=10),
        st.floats(-1e3, 1e3),
    )
    def test_shift_invariance(self, samples, shift):
        """Adding a constant to every sample leaves the variance unchanged.

        Samples are unit scale here because the shifted inputs x + c are
        rounded to the nearest double before the variance routine ever sees
        them. That rounding alone perturbs the variance by roughly
        2 * max|x - mean| * ulp(c), so for wide samples no algorithm can
        reach 1e-12 absolute; at unit scale the worst observed error is
        about 1e-13.
        """
        base = variance_of(samples)
        shifted = variance_of([x + shift for x in samples])
        assert shifted == pytest.approx(base, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=10),
        st.floats(-1e3, 1e3),
    )
    def test_shift_invariance_wide_samples(self, samples, shift):
        """Same property at wider sample scale, with a tolerance that
        covers the irreducible input-representation rounding (worst
        measured error 1.7e-11 over 4e5 random trials)."""
        base = variance_of(samples)
        shifted = variance_of([x + shift for x in samples])
        assert shifted == pytest.approx(base, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=10), st.floats(-4, 4))
    def test_quadratic_scaling(self, samples, factor):
        base = variance_of(samples)
        scaled = variance_of([factor * x for x in samples])
        assert scaled == pytest.approx(factor**2 * base, rel=1e-9, abs=1e-12)


class TestMCConfig:
    def test_defaults(self):
        cfg = MCConfig()
        assert cfg.num_passes == 25
        assert cfg.dropout_p == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"num_passes": 0},
        {"dropout_p": 1.0},
        {"dropout_p": -0.2},
        {"seed": -1},
        {"dropout_p": False},
        {"dropout_p": None},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            MCConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"num_passes": 2.5},
        {"num_passes": 3.0},
        {"num_passes": True},
        {"num_passes": "3"},
        {"seed": 1.5},
        {"seed": False},
        {"seed": np.float64(2.0)},
    ])
    def test_counts_and_seeds_must_be_integers(self, kwargs):
        with pytest.raises(ConfigError, match="must be an integer"):
            MCConfig(**kwargs)

    def test_numpy_integers_are_accepted_and_sample_like_ints(self):
        cfg = MCConfig(num_passes=np.int64(4), dropout_p=0.5, seed=np.uint64(9))
        params, x = tiny_params(seed=1), np.array([0.3, -0.2, 0.9])
        assert mc_forward(params, x, cfg) == mc_forward(params, x, MCConfig(4, 0.5, 9))


class TestMcForward:
    def test_no_dropout_means_no_epistemic_variance(self):
        params = tiny_params()
        result = mc_forward(params, np.ones(3), MCConfig(num_passes=8, dropout_p=0.0, seed=1))
        assert len(set(result.y_samples)) == 1
        assert result.epi_pred_var == 0.0
        assert result.epi_dist_var == 0.0

    def test_single_pass_means_no_epistemic_variance(self):
        params = tiny_params()
        result = mc_forward(params, np.ones(3), MCConfig(num_passes=1, dropout_p=0.5, seed=1))
        assert result.epi_pred_var == 0.0
        assert result.epi_dist_var == 0.0

    def test_fixed_seed_reproduces_result_bit_for_bit(self):
        params = tiny_params(seed=4)
        cfg = MCConfig(num_passes=25, dropout_p=0.5, seed=31)
        x = np.array([0.2, -0.7, 1.1])
        assert mc_forward(params, x, cfg) == mc_forward(params, x, cfg)

    def test_pass_results_do_not_depend_on_total_pass_count(self):
        """A pass's mask bits are hashed from (row key, pass, head, unit)
        counters, so they do not depend on how many passes follow it."""
        params = tiny_params(seed=4)
        x = np.array([0.2, -0.7, 1.1])
        short = mc_forward(params, x, MCConfig(num_passes=3, dropout_p=0.5, seed=9))
        long = mc_forward(params, x, MCConfig(num_passes=10, dropout_p=0.5, seed=9))
        assert np.array_equal(long.y_samples[:3], short.y_samples)
        assert np.array_equal(long.s_samples[:3], short.s_samples)

    def test_summary_fields_follow_from_samples(self):
        params = tiny_params(seed=2)
        result = mc_forward(params, np.zeros(3), MCConfig(num_passes=12, dropout_p=0.5, seed=0))
        assert result.y_mean == pytest.approx(np.mean(result.y_samples), abs=1e-15)
        assert result.s_mean == pytest.approx(np.mean(result.s_samples), abs=1e-15)
        assert result.epi_pred_var == variance_of(result.y_samples)
        assert result.epi_dist_var == variance_of(result.s_samples)
        assert result.aleatoric_var == pytest.approx(
            np.mean(np.exp(result.s_samples)), rel=1e-12
        )

    def test_calibration_scales_only_the_aleatoric_variance(self):
        params = tiny_params(seed=2)
        cfg = MCConfig(num_passes=10, dropout_p=0.5, seed=5)
        x = np.array([0.4, 0.4, -0.1])
        plain = mc_forward(params, x, cfg)
        scaled = mc_forward(params, x, cfg, scale=CalibrationScale.from_r(2.0))
        assert scaled.aleatoric_var == pytest.approx(4.0 * plain.aleatoric_var, rel=1e-12)
        assert scaled.epi_pred_var == plain.epi_pred_var
        assert scaled.epi_dist_var == plain.epi_dist_var
        assert np.array_equal(scaled.y_samples, plain.y_samples)
        assert np.array_equal(scaled.s_samples, plain.s_samples)


class TestMcForwardDataset:
    def test_rows_are_independent_of_batch_composition(self):
        params = tiny_params(seed=6)
        cfg = MCConfig(num_passes=5, dropout_p=0.5, seed=17)
        features = np.random.default_rng(3).normal(size=(4, 3))
        full = mc_forward_dataset(params, features, cfg)
        row2 = mc_forward(params, features[2], replace(cfg, seed=row_seed(17, 2)))
        assert full[2] == row2

    def test_requires_matrix_input(self):
        params = tiny_params()
        with pytest.raises(InputError):
            mc_forward_dataset(params, np.zeros(3), MCConfig())

    def test_row_seeds_differ(self):
        seeds = {row_seed(0, i) for i in range(100)}
        assert len(seeds) == 100


def paper_shape_params(seed=0):
    """Trunk width 16, as in the paper preset."""
    arch = ArchConfig(input_dim=2, trunk_dims=(16,), head_hidden_dim=16, dropout_p=0.5)
    return init_params(arch, seed=seed)


def splitmix_uniform(key, counter):
    """Scalar SplitMix64 of key + counter * golden gamma, as a uniform in [0, 1)."""
    z = (key + counter * 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    z ^= z >> 31
    return (z >> 11) * 2.0**-53


def one_row(params, features, cfg, i):
    return mc_forward(params, features[i], replace(cfg, seed=row_seed(cfg.seed, i)))


@pytest.mark.bitwise
class TestKernelInvariants:
    """Properties of the one kernel behind mc_forward and mc_forward_dataset."""

    def test_rows_match_one_row_calls_across_a_block_boundary(self):
        params = paper_shape_params(seed=3)
        cfg = MCConfig(num_passes=25, dropout_p=0.5, seed=8)
        # Rows 127 and 128 fall in different blocks.
        assert 128 % (_BLOCK_UNITS // (cfg.num_passes * 16)) == 0
        features = np.random.default_rng(5).normal(size=(300, 2))
        full = mc_forward_dataset(params, features, cfg)
        for i in (0, 127, 128, 129, len(features) - 1):
            assert full[i] == one_row(params, features, cfg, i)

    def test_dataset_pass_prefix_is_stable(self):
        params = paper_shape_params(seed=1)
        features = np.random.default_rng(6).normal(size=(140, 2))
        short = mc_forward_dataset(params, features, MCConfig(num_passes=5, dropout_p=0.5, seed=2))
        long = mc_forward_dataset(params, features, MCConfig(num_passes=25, dropout_p=0.5, seed=2))
        for a, b in zip(short, long):
            assert np.array_equal(b.y_samples[:5], a.y_samples)
            assert np.array_equal(b.s_samples[:5], a.s_samples)

    @pytest.mark.parametrize("passes, p", [(10, 0.0), (1, 0.5)])
    def test_dataset_path_gives_exact_zero_epistemic_variance(self, passes, p):
        params = paper_shape_params(seed=2)
        features = np.random.default_rng(7).normal(size=(200, 2))
        results = mc_forward_dataset(params, features, MCConfig(passes, p, seed=4))
        assert all(r.epi_pred_var == 0.0 and r.epi_dist_var == 0.0 for r in results)

    def test_zero_dropout_draws_no_bits_and_matches_the_deterministic_pass(self, monkeypatch):
        def no_bits(*args):
            raise AssertionError("mask bits drawn at p = 0")

        monkeypatch.setattr(mcdropout, "_keep_mask", no_bits)
        monkeypatch.setattr(mcdropout, "_splitmix_keep", no_bits)
        params = paper_shape_params(seed=2)
        features = np.random.default_rng(8).normal(size=(30, 2))
        results = mc_forward_dataset(params, features, MCConfig(4, 0.0, seed=1))
        y_det, s_det, _ = forward_batch(params, features)
        np.testing.assert_allclose([r.y_mean for r in results], y_det, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose([r.s_mean for r in results], s_det, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.7])
    def test_keep_rate_is_one_minus_p(self, p):
        keep = _keep_mask(np.arange(100, dtype=np.uint64), 25, 20, p)
        assert keep.size == 100_000
        sigma = math.sqrt(p * (1.0 - p) / keep.size)
        assert abs(float(keep.mean()) - (1.0 - p)) < 4.0 * sigma

    def test_keep_bits_follow_the_documented_hash(self):
        # First output of the reference SplitMix64 generator seeded with 0.
        assert splitmix_uniform(0, 1) == (0xE220A8397B1DCDAF >> 11) * 2.0**-53
        key, passes, width, p = 2**64 - 3, 3, 5, 0.37
        keep = _keep_mask(np.array([key], dtype=np.uint64), passes, width, p)
        for t in range(passes):
            for head in (0, 1):
                for unit in range(width):
                    counter = (t * 2 + head) * width + unit + 1
                    assert keep[0, t, head, unit] == (splitmix_uniform(key, counter) >= p)

    def test_score_and_log_variance_heads_draw_different_masks(self):
        keep = _keep_mask(np.array([7, 2**64 - 1], dtype=np.uint64), 25, 16, 0.5)
        differ = keep[:, :, 0] != keep[:, :, 1]
        assert 0.3 < float(differ.mean()) < 0.7

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 30),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_variance_of_rows_equals_variance_of_each_row(self, rows, passes, seed, constant):
        samples = np.random.default_rng(seed).normal(size=(rows, passes))
        if constant:
            samples[::2] = samples[::2, :1]
        assert variance_of(samples).tolist() == [variance_of(tuple(row)) for row in samples]

    @pytest.mark.parametrize("width", [1, 3])
    def test_wrong_width_is_a_shape_error_on_both_paths(self, width):
        params = paper_shape_params()
        with pytest.raises(ShapeError):
            mc_forward(params, np.zeros(width), MCConfig())
        with pytest.raises(ShapeError):
            mc_forward_dataset(params, np.zeros((4, width)), MCConfig())

    def test_wrong_rank_is_an_input_error_on_both_paths(self):
        """One class for one fault: a matrix for one row, or a row for a matrix."""
        params = paper_shape_params()
        with pytest.raises(InputError, match="features must be a 1-d array"):
            mc_forward(params, np.zeros((1, 2)), MCConfig())
        with pytest.raises(InputError, match="features must be a 2-d array"):
            mc_forward_dataset(params, np.zeros(2), MCConfig())

    @pytest.mark.parametrize("samples", [[1.0, math.inf], [[math.nan, 1.0]]])
    def test_non_finite_samples_are_an_input_error(self, samples):
        with pytest.raises(InputError, match="samples must be finite"):
            variance_of(samples)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_features_are_an_input_error_on_both_paths(self, bad):
        params = paper_shape_params()
        features = np.zeros((4, 2))
        features[3, 1] = bad
        with pytest.raises(InputError):
            mc_forward(params, features[3], MCConfig())
        with pytest.raises(InputError):
            mc_forward_dataset(params, features, MCConfig())

    @pytest.mark.parametrize(
        "row, matrix",
        [
            (["a", "b"], [["a", "b"]]),  # not numbers
            ([1.0, [2.0, 3.0]], [[1.0, 2.0], [3.0]]),  # ragged
            ([1.0 + 2.0j, 0.5], [[1.0 + 2.0j, 0.5]]),  # complex
            ([1.0 + 2.0j, None], [[1.0 + 2.0j, None]]),  # objects, one complex
        ],
        ids=["non-numeric", "ragged", "complex", "complex-object"],
    )
    @pytest.mark.parametrize("entry", ["mc_forward", "mc_forward_dataset", "predict_batch"])
    def test_malformed_features_are_an_input_error(self, entry, row, matrix):
        params, cfg = paper_shape_params(), MCConfig(num_passes=3)
        call = {
            "mc_forward": lambda: mc_forward(params, row, cfg),
            "mc_forward_dataset": lambda: mc_forward_dataset(params, matrix, cfg),
            "predict_batch": lambda: predict_batch(params, matrix),
        }[entry]
        # No numpy warning (a ComplexWarning for complex input) gets through.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="features"):
                call()

    def test_integer_and_bool_features_are_converted(self):
        params, cfg = paper_shape_params(), MCConfig(num_passes=3, seed=4)
        floats = np.array([[1.0, 0.0], [-2.0, 1.0]])
        for matrix in ([[1, 0], [-2, 1]], np.array([[1, 0], [-2, 1]], dtype=np.int8)):
            want = mc_forward_dataset(params, floats, cfg)
            assert mc_forward_dataset(params, matrix, cfg) == want
            assert mc_forward(params, matrix[0], cfg) == mc_forward(params, floats[0], cfg)
            assert np.array_equal(predict_batch(params, matrix), predict_batch(params, floats))
        assert mc_forward(params, [True, False], cfg) == mc_forward(params, floats[0], cfg)
        numbers = np.array([Fraction(1), 0], dtype=object)
        assert mc_forward(params, numbers, cfg) == mc_forward(params, floats[0], cfg)

    def test_features_are_validated_once_per_call(self, monkeypatch):
        checked = []
        real = mcdropout.check_array

        def counting_check(name, x, *args, **kwargs):
            checked.append(np.shape(x))
            return real(name, x, *args, **kwargs)

        monkeypatch.setattr(mcdropout, "check_array", counting_check)
        params = paper_shape_params()
        features = np.zeros((300, 2))
        mc_forward_dataset(params, features, MCConfig(num_passes=25))
        mc_forward(params, features[0], MCConfig(num_passes=25))
        assert checked == [(300, 2), (2,)]

    def test_masks_are_hashed_once_per_block_by_the_shared_helper(self, monkeypatch):
        """The kernel and _keep_mask hash through one helper, and the kernel
        calls it once per block: 1 call for one row, 3 for 131 rows in blocks
        of 64, none at p = 0."""
        hashed, real = [], mcdropout._splitmix_keep

        def counting_hash(keys, *rest):
            hashed.append(len(keys))
            return real(keys, *rest)

        monkeypatch.setattr(mcdropout, "_splitmix_keep", counting_hash)
        params = paper_shape_params()
        features = np.random.default_rng(5).normal(size=(131, 2))
        mc_forward(params, features[0], MCConfig(num_passes=25))
        assert hashed == [1]
        hashed.clear()
        mc_forward_dataset(params, features, MCConfig(num_passes=25))
        assert hashed == [64, 64, 3]
        hashed.clear()
        mc_forward_dataset(params, features, MCConfig(num_passes=25, dropout_p=0.0))
        assert hashed == []
        keep = _keep_mask(np.arange(5, dtype=np.uint64), 25, 16, 0.5)
        assert hashed == [5] and keep.shape == (5, 25, 2, 16)

    def test_one_contraction_per_layer_and_block(self, monkeypatch):
        """Each block makes one einsum per trunk layer and one per head
        layer, both heads in the same call."""
        subscripts, real = [], np.einsum

        def counting_einsum(*args, **kwargs):
            subscripts.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counting_einsum)
        params = paper_shape_params()
        features = np.random.default_rng(5).normal(size=(131, 2))
        block = ["srk,sjk->srj", "hkrt,hjk->hjrt", "hjrt,hj->hrt"]
        mc_forward(params, features[0], MCConfig(num_passes=25))
        assert subscripts == block
        subscripts.clear()
        mc_forward_dataset(params, features, MCConfig(num_passes=25))
        assert subscripts == block * 3

    def test_seeds_beyond_64_bits_fold_the_same_way_on_both_paths(self):
        params = tiny_params(seed=3)
        features = np.random.default_rng(9).normal(size=(3, 3))
        small = MCConfig(num_passes=6, dropout_p=0.5, seed=12345)
        big = replace(small, seed=2**64 + 12345)
        huge = replace(small, seed=2**200 + 12345)
        for cfg in (big, huge):
            assert mc_forward(params, features[0], cfg) == mc_forward(params, features[0], small)
            assert mc_forward_dataset(params, features, cfg) == mc_forward_dataset(
                params, features, small
            )
        full = mc_forward_dataset(params, features, big)
        assert full[2] == one_row(params, features, small, 2)

    @pytest.mark.parametrize(
        "trunk_dims, activation",
        [((5,), "relu"), ((), "tanh"), ((), "relu"), ((6, 4), "tanh")],
    )
    def test_samples_match_a_plain_forward_with_the_same_masks(self, trunk_dims, activation):
        arch = ArchConfig(
            input_dim=3, trunk_dims=trunk_dims, head_hidden_dim=4, activation=activation
        )
        params = init_params(arch, seed=2)
        features = np.random.default_rng(10).normal(size=(6, 3))
        cfg = MCConfig(num_passes=7, dropout_p=0.4, seed=11)
        results = mc_forward_dataset(params, features, cfg)

        keys = np.array([row_seed(cfg.seed, i) for i in range(6)], dtype=np.uint64)
        keep = _keep_mask(keys, cfg.num_passes, arch.trunk_output_dim, cfg.dropout_p)
        keep = keep / (1.0 - cfg.dropout_p)
        act = np.tanh if activation == "tanh" else (lambda z: np.maximum(z, 0.0))
        a = features
        for w, b in params.layers[:-2]:
            a = act(a @ w[0].T + b[0, 0])

        def head(mask, k):
            (w0, b0), (w1, b1) = ((w[k], b[k]) for w, b in params.layers[-2:])
            return (act((a[:, None, :] * mask) @ w0.T + b0) @ w1.T + b1)[..., 0]

        y = head(keep[:, :, 0], 0)
        s = np.clip(head(keep[:, :, 1], 1), -S_CLAMP, S_CLAMP)
        np.testing.assert_allclose([r.y_samples for r in results], y, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose([r.s_samples for r in results], s, rtol=1e-12, atol=1e-12)
        assert results[4] == one_row(params, features, cfg, 4)


def splitmix64(state, k):
    """Output k of SplitMix64 for the given state, on Python ints."""
    mask = 2**64 - 1
    z = (state + k * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def splitmix_key(base, i):
    """Row i's key: SplitMix64 output i + 1, the counter taken mod 2^64."""
    return splitmix64(base, (i + 1) % 2**64)


EDGE_INDICES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


class TestRowKeys:
    """Vectorised row keys against a Python-int SplitMix64, the reference."""

    def test_first_key_is_splitmix64s_published_first_output(self):
        assert row_seed(0, 0) == splitmix64(0, 1) == 0xE220A8397B1DCDAF

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.integers(0, 2**32 - 1),
            st.integers(2**32, 2**64 - 1),
            st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
        ),
        st.lists(st.integers(0, 2**64 - 1), max_size=8),
    )
    def test_keys_equal_splitmix64(self, base, drawn):
        rows = EDGE_INDICES + drawn
        want = [splitmix_key(base, i) for i in rows]
        keys = _row_keys(base, np.array(rows, dtype=np.uint64))
        assert keys.dtype == np.uint64
        assert keys.tolist() == want
        assert [row_seed(base, i) for i in rows] == want

    @pytest.mark.parametrize("base", [0, 5, 2**32 + 7, 2**64 - 1])
    def test_int_and_array_paths_agree_on_edge_indices(self, base):
        keys = _row_keys(base, np.array(EDGE_INDICES, dtype=np.uint64))
        assert keys.tolist() == [_row_keys(base, i) for i in EDGE_INDICES]

    @pytest.mark.parametrize("k", [0, 5, 2**32 + 7, 2**64 - 1])
    def test_bases_beyond_64_bits_are_folded(self, k):
        for base in (2**64 + k, 2**200 + k):
            assert [row_seed(base, i) for i in EDGE_INDICES] == [
                splitmix_key(k, i) for i in EDGE_INDICES
            ]

    @pytest.mark.parametrize("base, i", [(-1, 0), (0, -1), (0, 2**64)])
    def test_out_of_range_arguments_are_an_input_error(self, base, i):
        with pytest.raises(InputError):
            row_seed(base, i)

    @pytest.mark.parametrize(
        "base, i",
        [
            (1.5, 0), (1, 2.7), (2.0, 0), (0, np.float64(3.0)), (True, 0), (0, False),
            (np.True_, 0), ("3", 0), (0, "1"), (math.nan, 0), (None, 0), (0, [1]),
        ],
    )
    def test_non_integer_arguments_are_an_input_error(self, base, i):
        with pytest.raises(InputError, match="integers"):
            row_seed(base, i)

    @pytest.mark.parametrize(
        "base, i", [(np.int64(3), 5), (3, np.uint64(5)), (np.uint8(3), np.int32(5))]
    )
    def test_numpy_integers_are_accepted(self, base, i):
        assert row_seed(base, i) == row_seed(3, 5) == splitmix_key(3, 5)

    def test_row_seed_reproduces_dataset_rows_for_seeds_beyond_64_bits(self):
        params = tiny_params(seed=3)
        features = np.random.default_rng(9).normal(size=(3, 3))
        cfg = MCConfig(num_passes=6, dropout_p=0.5, seed=2**64 + 5)
        full = mc_forward_dataset(params, features, cfg)
        assert list(full) == [one_row(params, features, cfg, i) for i in range(3)]


@pytest.mark.bitwise
class TestBufferReuse:
    """Mask buffers are made once per call and reused by its blocks."""

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 2 * 64 + 3])
    def test_rows_match_one_row_calls_for_every_block_fill(self, rows):
        params = paper_shape_params(seed=3)
        cfg = MCConfig(num_passes=25, dropout_p=0.5, seed=8)
        assert _BLOCK_UNITS // (cfg.num_passes * 16) == 64
        features = np.random.default_rng(rows).normal(size=(rows, 2))
        full = mc_forward_dataset(params, features, cfg)
        assert list(full) == [one_row(params, features, cfg, i) for i in range(rows)]

    def test_back_to_back_calls_match_calls_in_reverse_order(self):
        params = paper_shape_params(seed=5)
        features = np.random.default_rng(11).normal(size=(150, 2))
        calls = [
            (150, MCConfig(25, 0.5, seed=1)),
            (7, MCConfig(3, 0.5, seed=2)),
            (70, MCConfig(40, 0.3, seed=3)),
            (150, MCConfig(5, 0.0, seed=4)),
            (65, MCConfig(25, 0.5, seed=1)),
        ]
        forward = [mc_forward_dataset(params, features[:n], cfg) for n, cfg in calls]
        backward = [mc_forward_dataset(params, features[:n], cfg) for n, cfg in calls[::-1]]
        assert forward == backward[::-1]
        assert forward[4] == forward[0][:65]
        for (n, cfg), results in zip(calls, forward):
            assert results[n - 1] == one_row(params, features, cfg, n - 1)

    def test_interleaved_calls_equal_calls_after_clearing_the_plan_cache(self, monkeypatch):
        """The kernel keeps no state across calls but its cached constants:
        each call of a shuffled run over archs, pass counts, dropout rates and
        block fills equals the same call made with the plan cache cleared."""
        archs = [
            ArchConfig(input_dim=2, trunk_dims=(16,), head_hidden_dim=16),
            ArchConfig(input_dim=2, trunk_dims=(5,), head_hidden_dim=7, activation="relu"),
            ArchConfig(input_dim=2, trunk_dims=(), head_hidden_dim=3),
        ]
        models = [init_params(arch, seed=k) for k, arch in enumerate(archs)]
        data = np.random.default_rng(13)
        features = data.normal(size=(129, 2))
        calls = [
            (k, passes, p, rows)
            for k in range(len(models))
            for passes in (1, 2, 25)
            for p in (0.0, 0.37)
            for rows in (1, 63, 64, 65, 129)
        ]
        data.shuffle(calls)

        def call(k, passes, p, rows):
            arch = archs[k]
            # Blocks of 64 rows, so that the row counts fill blocks every way.
            widest = max(arch.trunk_output_dim, arch.head_hidden_dim)
            monkeypatch.setattr(mcdropout, "_BLOCK_UNITS", 64 * passes * widest)
            cfg = MCConfig(num_passes=passes, dropout_p=p, seed=rows + 100 * k)
            return (
                mc_forward_dataset(models[k], features[:rows], cfg),
                mc_forward(models[k], features[rows - 1], cfg),
            )

        interleaved = [call(*c) for c in calls]
        for c, (columns, row) in zip(calls, interleaved):
            mcdropout._plan.cache_clear()
            fresh_columns, fresh_row = call(*c)
            assert columns == fresh_columns and row == fresh_row

    def test_equal_dropout_rates_of_other_types_give_equal_results(self):
        """MCConfig stores dropout_p as a Python float, so a float32 0.25 and
        a float 0.25 are one config and scale the masks alike, in either
        order and with the plan cache cleared or not."""
        params = paper_shape_params(seed=2)
        features = np.random.default_rng(14).normal(size=(5, 2))
        results = {}
        for p in (np.float32(0.25), 0.25, np.float32(0.25), 0.25):
            assert type(MCConfig(dropout_p=p).dropout_p) is float
            got = mc_forward_dataset(params, features, MCConfig(num_passes=25, dropout_p=p))
            mcdropout._plan.cache_clear()
            fresh = mc_forward_dataset(params, features, MCConfig(num_passes=25, dropout_p=p))
            assert got == fresh == results.setdefault(type(p), fresh)
        assert results[float] == results[np.float32]

    @pytest.mark.parametrize("trunk_dims, head", [((16,), 16), ((1,), 64), ((), 256)])
    def test_working_memory_is_bounded_by_the_head_width_too(self, trunk_dims, head):
        """A block's hidden-layer buffer grows with the head width, so a
        wide head over a narrow trunk must get smaller blocks."""
        arch = ArchConfig(input_dim=2, trunk_dims=trunk_dims, head_hidden_dim=head)
        params = init_params(arch, seed=0)
        features = np.random.default_rng(0).normal(size=(1100, 2))
        cfg = MCConfig(num_passes=25, dropout_p=0.5, seed=1)
        mc_forward_dataset(params, features, cfg)
        tracemalloc.start()
        try:
            mc_forward_dataset(params, features, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @pytest.mark.parametrize("p", [2.0**-53, 0.37, 1.0 - 2.0**-53])
    def test_hash_in_a_reused_workspace_equals_fresh_buffers_and_the_hash(self, p):
        """The kernel hashes every block into leading slices of one workspace."""
        passes, width = 3, 4
        work = _mask_workspace(10, passes, width)
        step, threshold = mcdropout._plan(passes, p, width, width, _BLOCK_UNITS)[2:4]
        for rows in (10, 3, 1, 10):
            keys = np.array([(977 * r + rows) * 0x9E3779B97F4A7C15 % 2**64 for r in range(rows)],
                            dtype=np.uint64)
            views = (v[:, :, :rows] for v in work)
            keep = mcdropout._splitmix_keep(keys[:, None], step, threshold, *views)
            keep = keep.transpose(2, 3, 0, 1)
            assert np.array_equal(keep, _keep_mask(keys, passes, width, p))
            want = [
                splitmix_uniform(int(key), c + 1) >= p
                for key in keys
                for c in range(passes * 2 * width)
            ]
            assert keep.ravel().tolist() == want


@pytest.mark.bitwise
class TestShapeInvariance:
    """A row's samples do not depend on how many rows or passes share a
    call, down to the 1-row x 1-pass shape, where einsum would sum in
    another order if the kernel ran its contractions on it."""

    @pytest.mark.parametrize("passes", [1, 2, 25])
    @pytest.mark.parametrize("p", [0.0, 0.37])
    @pytest.mark.parametrize("trunk_dims", [(), (16,), (6, 4)])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_rows_equal_one_row_calls_and_pass_prefixes(
        self, monkeypatch, activation, trunk_dims, p, passes
    ):
        arch = ArchConfig(
            input_dim=3, trunk_dims=trunk_dims, head_hidden_dim=5, activation=activation
        )
        widest = max(arch.trunk_output_dim, arch.head_hidden_dim)
        monkeypatch.setattr(mcdropout, "_BLOCK_UNITS", 64 * passes * widest)
        params = init_params(arch, seed=7)
        data = np.random.default_rng(passes + 10 * len(trunk_dims))
        params.flat[...] += data.normal(scale=0.5, size=params.flat.size)
        features = data.normal(scale=2.0, size=(65, 3))
        cfg = MCConfig(num_passes=passes, dropout_p=p, seed=int(data.integers(2**63)))
        alone = [one_row(params, features, cfg, i) for i in range(len(features))]
        longer = mc_forward_dataset(params, features, replace(cfg, num_passes=30))
        for rows in (1, 2, 63, 64, 65):
            got = mc_forward_dataset(params, features[:rows], cfg)
            assert list(got) == alone[:rows]
        for short, long in zip(alone, longer):
            assert np.array_equal(long.y_samples[:passes], short.y_samples)
            assert np.array_equal(long.s_samples[:passes], short.s_samples)
            if p == 0.0 or passes == 1:
                assert short.epi_pred_var == 0.0 and short.epi_dist_var == 0.0


def per_head_reference(params, x, cfg, multiplier=1.0):
    """MC results for every row of x, as one MCSamples, with the two heads
    run one at a time: a plain oracle for the stacked kernel, with all rows
    in one block, a fresh mask, and summaries in numpy's own words."""
    act = np.tanh if params.arch.activation == "tanh" else (lambda z: np.maximum(z, 0.0))
    passes, p = cfg.num_passes, cfg.dropout_p

    def head(h_in, k):
        """One head over a unit-major (width, rows, passes) input."""
        (w0, b0), (w1, b1) = ((w[k], b[k, 0]) for w, b in params.layers[-2:])
        hidden = act(np.einsum("krt,jk->jrt", h_in, w0) + b0[:, None, None])
        return np.einsum("jrt,j->rt", hidden, w1[0]) + b1[0]

    a = x
    for w, b in params.layers[:-2]:
        a = act(np.einsum("rk,jk->rj", a, w[0]) + b[0, 0])
    h = a.T[:, :, None]
    if p == 0.0:
        y = np.repeat(head(h, 0), passes, axis=1)
        s = np.repeat(head(h, 1), passes, axis=1)
    else:
        keys = np.array([row_seed(cfg.seed, i) for i in range(len(x))], dtype=np.uint64)
        keep = _keep_mask(keys, passes, a.shape[1], p).transpose(2, 3, 0, 1)
        scale = 1.0 / (1.0 - p)
        y = head(h * (keep[0] * scale), 0)
        s = head(h * (keep[1] * scale), 1)
    s = np.clip(s, -S_CLAMP, S_CLAMP)

    def variance(v):
        var = np.mean((v - v.mean(axis=1, keepdims=True)) ** 2, axis=1)
        return np.where(np.all(v == v[:, :1], axis=1), 0.0, var)

    return MCSamples(
        y_samples=y, s_samples=s, y_mean=y.mean(axis=1), s_mean=s.mean(axis=1),
        aleatoric_var=np.mean(np.exp(s), axis=1) * multiplier,
        epi_pred_var=variance(y), epi_dist_var=variance(s),
    )


def result_bits(result):
    """Every field of an MC row as raw float64 bytes, so NaNs compare too."""
    return [np.asarray(getattr(result, f.name), dtype=float).tobytes() for f in fields(result)]


@pytest.mark.bitwise
class TestStackedKernel:
    """The kernel runs both heads as one unit-major (2, ., rows, passes)
    stack in a per-call workspace. On the running numpy that must give the
    per-head results bit for bit, on both entry points."""

    @pytest.mark.parametrize("passes", [1, 7, 25])
    @pytest.mark.parametrize("p", [0.0, 0.37, 0.5])
    @pytest.mark.parametrize("trunk_dims", [(), (5,), (6, 4)])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_stacked_equals_per_head_bit_for_bit(
        self, monkeypatch, activation, trunk_dims, p, passes
    ):
        arch = ArchConfig(
            input_dim=3, trunk_dims=trunk_dims, head_hidden_dim=6, activation=activation
        )
        # Blocks of 64 rows at every width and pass count, so that the row
        # counts below fall on both sides of a block boundary.
        widest = max(arch.trunk_output_dim, arch.head_hidden_dim)
        monkeypatch.setattr(mcdropout, "_BLOCK_UNITS", 64 * passes * widest)
        blocks, activate = [], mcdropout._activate

        def recording_activate(z, kind, out=None):
            if z.ndim == 4:  # the heads' hidden layer, (2, width, rows, passes)
                blocks.append(z.shape[2])
            return activate(z, kind, out=out)

        monkeypatch.setattr(mcdropout, "_activate", recording_activate)
        params = init_params(arch, seed=4)
        data = np.random.default_rng(passes + len(trunk_dims))
        # Non-zero biases, and some log-variances beyond the clamp.
        params.flat[...] += data.normal(scale=0.5, size=params.flat.size)
        params.layers[-1][1][1] = 9.0
        features = data.normal(scale=2.0, size=(131, 3))
        # Inputs near the float limit, where the order of the mask product
        # decides between a signed zero and NaN for a dropped unit.
        features[3] = [1e308, -1e308, 3e307]
        cfg = MCConfig(num_passes=passes, dropout_p=p, seed=int(data.integers(2**63)))
        scale = CalibrationScale.from_r(1.7)
        with np.errstate(all="ignore"):
            reference = per_head_reference(params, features, cfg, scale.variance_multiplier)
            want = [result_bits(r) for r in reference]
            for rows in (1, 63, 64, 65, 131):
                blocks.clear()
                got = mc_forward_dataset(params, features[:rows], cfg, scale)
                assert [result_bits(r) for r in got] == want[:rows]
                assert blocks == [64] * (rows // 64) + [rows % 64] * (rows % 64 > 0)
            for i in (0, 3, 64, 130):
                row_cfg = replace(cfg, seed=row_seed(cfg.seed, i))
                assert result_bits(mc_forward(params, features[i], row_cfg, scale)) == want[i]


class TestMCSamples:
    """mc_forward_dataset returns one MCSamples of columns. Indexing and
    iteration read it as a sequence of rows, each an MCSamples of sample
    views and np.float64 summaries, the way the benchmark reads it."""

    SUMMARIES = ("y_mean", "s_mean", "epi_pred_var", "epi_dist_var", "aleatoric_var")

    @pytest.mark.parametrize("passes, p", [(25, 0.5), (25, 0.0), (1, 0.5), (3, 0.3)])
    @pytest.mark.parametrize("r", [None, 1.7])
    def test_reads_as_the_rows_of_one_row_calls(self, monkeypatch, passes, p, r):
        params = paper_shape_params(seed=3)
        # More rows than one 64-row kernel block.
        monkeypatch.setattr(mcdropout, "_BLOCK_UNITS", 64 * passes * 16)
        features = np.random.default_rng(passes).normal(size=(300, 2))
        n, seed = len(features), 12
        scale = None if r is None else CalibrationScale.from_r(r)
        results = mc_forward_dataset(params, features, MCConfig(passes, p, seed), scale)
        assert isinstance(results, MCSamples)
        assert len(results) == n
        for name in ("y_samples", "s_samples"):
            assert getattr(results, name).shape == (n, passes)
        for name in ("y_samples", "s_samples", *self.SUMMARIES):
            assert getattr(results, name).dtype == np.float64
            assert len(getattr(results, name)) == n
        for name in self.SUMMARIES:
            assert getattr(results, name).shape == (n,)

        rows = [
            mc_forward(params, features[i], MCConfig(passes, p, row_seed(seed, i)), scale)
            for i in range(n)
        ]
        assert all(results[i] == rows[i] for i in range(n))
        iterated = list(results)
        assert iterated == rows
        assert all(
            result_bits(row) == result_bits(results[i]) for i, row in enumerate(iterated)
        )
        for row in (rows[7], iterated[7], results[7]):
            for name in ("y_samples", "s_samples"):
                assert getattr(row, name).shape == (passes,)
                assert getattr(row, name).dtype == np.float64
            for name in self.SUMMARIES:
                assert type(getattr(row, name)) is np.float64
        assert np.shares_memory(iterated[7].y_samples, results.y_samples)
        assert [row.epi_dist_var for row in results] == results.epi_dist_var.tolist()
        for name in self.SUMMARIES:
            assert getattr(results, name).tolist() == [getattr(row, name) for row in rows]
        assert results[-1] == rows[-1] and results[-n] == rows[0]
        assert results[np.int64(5)] == rows[5]
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                results[index]
        assert list(results[:65]) == rows[:65] and list(results[100::7]) == rows[100::7]

        again = mc_forward_dataset(params, features, MCConfig(passes, p, seed), scale)
        assert again == results and results == again and list(results) == rows
        if p and passes > 1:
            other = mc_forward_dataset(params, features, MCConfig(passes, p, seed + 1), scale)
            assert results != other and list(results) != rows[::-1]
        assert list(results) != rows[:-1] and results != results[:-1]

    def test_length_and_truth_of_rows_and_columns(self):
        """A row has length 1 and is truthy; columns have one entry per row,
        so zero rows give an empty, falsy result. A row's length is only its
        truth: its summaries are scalars, so it cannot be iterated or indexed."""
        params = paper_shape_params(seed=2)
        features = np.random.default_rng(1).normal(size=(3, 2))
        cfg = MCConfig(5, 0.5, 1)
        row = mc_forward(params, features[0], cfg)
        results = mc_forward_dataset(params, features, cfg)
        assert len(row) == 1 and bool(row)
        assert len(results[2]) == 1 and bool(results[2])
        assert len(results) == 3 and bool(results)
        with pytest.raises(TypeError):
            iter(row)
        with pytest.raises(IndexError):
            row[0]
        empty = mc_forward_dataset(params, features[:0], cfg)
        assert len(empty) == 0 and not empty and list(empty) == []
        assert empty.y_samples.shape == (0, 5) and empty.epi_dist_var.shape == (0,)

    def test_columns_hold_at_most_480_bytes_per_row(self):
        """Two 25-sample rows and five summaries are 440 B per row, against
        about 1.9 KB as per-row objects of float tuples; nothing else stays
        held."""
        params = paper_shape_params(seed=1)
        features = np.random.default_rng(0).normal(size=(5000, 2))
        cfg = MCConfig(25, 0.5, 2)
        mc_forward_dataset(params, features[:10], cfg)
        tracemalloc.start()
        try:
            results = mc_forward_dataset(params, features, cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        nbytes = sum(getattr(results, f.name).nbytes for f in fields(results))
        assert nbytes / len(features) <= 480
        assert held / len(features) <= 480

    def test_listed_rows_hold_at_most_1_kib_each(self):
        """Rows share the columns' memory: a row's samples are views, so
        list(results) adds about 490 B per row at 25 passes, against about
        1.9 KB for rows that copy the samples into float tuples."""
        params = paper_shape_params(seed=1)
        features = np.random.default_rng(0).normal(size=(5000, 2))
        cfg = MCConfig(25, 0.5, 2)
        list(mc_forward_dataset(params, features[:10], cfg))
        results = mc_forward_dataset(params, features, cfg)
        tracemalloc.start()
        try:
            rows = list(results)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(rows) == len(features)
        assert held / len(features) <= 1024


class TestTrainedModelSensitivity:
    def test_mean_distributional_variance_rises_off_distribution(self, hetero_runs):
        """Shifted inputs produce higher mean epi_dist_var than in-domain ones.

        Checked at 95% confidence (normal approximation over 500 inputs per
        pool) on the first fixture model.
        """
        run = hetero_runs[0]
        cfg = fixture_gen_config(run.seed)
        ood = gen_ood_shift(cfg, 3.0)
        _, _, ood_test = split_dataset(ood, (5 / 7, 1 / 7, 1 / 7), seed=run.seed)
        in_feats = run.test_split.features()[:500]
        ood_feats = ood_test.features()[:500]
        in_vars = np.array(
            [r.epi_dist_var for r in mc_forward_dataset(run.params, in_feats, FIXTURE_MC)]
        )
        ood_vars = np.array(
            [r.epi_dist_var for r in mc_forward_dataset(run.params, ood_feats, FIXTURE_MC)]
        )
        gap = ood_vars.mean() - in_vars.mean()
        stderr = math.sqrt(in_vars.var(ddof=1) / 500 + ood_vars.var(ddof=1) / 500)
        assert gap > 1.645 * stderr
