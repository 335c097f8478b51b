"""Network construction, forward/backward passes, dropout, and clamping."""

from __future__ import annotations

import copy
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosuq.errors import ConfigError, InputError, ShapeError
from mosuq.loss import nll_loss_batch
from mosuq.net import (
    S_CLAMP,
    ArchConfig,
    HeteroPrediction,
    ModelParams,
    Workspace,
    backward_batch,
    dropout_mask,
    forward_batch,
    init_params,
    param_layout,
)

from conftest import param_arrays


def drawn_mask(params, rng, rows):
    """The (2, rows, H) training mask of params.arch drawn from rng, as the
    trainer draws it (None without a generator, or at p = 0)."""
    if rng is None:
        return None
    arch = params.arch
    return dropout_mask(rng, arch.dropout_p, (2, rows, arch.trunk_output_dim))


def one_row(params, x, rng=None):
    """forward_batch on one feature vector, with a mask drawn from rng when
    one is given: (prediction, cache)."""
    y_hat, s, cache = forward_batch(
        params, np.asarray(x, dtype=float)[None, :], drawn_mask(params, rng, 1)
    )
    return HeteroPrediction(float(y_hat[0]), float(s[0])), cache


def small_arch(**overrides) -> ArchConfig:
    base = dict(input_dim=3, trunk_dims=(4,), head_hidden_dim=4, dropout_p=0.5)
    base.update(overrides)
    return ArchConfig(**base)


class TestArchConfig:
    def test_defaults(self):
        arch = ArchConfig()
        assert arch.input_dim == 16
        assert arch.trunk_dims == (32,)
        assert arch.head_hidden_dim == 16
        assert arch.dropout_p == 0.5
        assert arch.activation == "tanh"

    def test_empty_trunk_feeds_heads_the_raw_features(self):
        arch = small_arch(trunk_dims=())
        assert arch.trunk_output_dim == arch.input_dim

    def test_trunk_output_dim_is_last_trunk_width(self):
        arch = small_arch(trunk_dims=(8, 5))
        assert arch.trunk_output_dim == 5

    @pytest.mark.parametrize(
        "overrides",
        [
            {"input_dim": 0},
            {"trunk_dims": (0,)},
            {"head_hidden_dim": -1},
            {"dropout_p": 1.0},
            {"dropout_p": -0.1},
            {"activation": "sigmoid"},
            {"input_dim": 2.5},
            {"head_hidden_dim": True},
            {"trunk_dims": (16.7,)},
            {"dropout_p": False},
            {"dropout_p": None},
            {"dropout_p": "0.5"},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            small_arch(**overrides)

    def test_numpy_integers_are_accepted(self):
        arch = ArchConfig(
            input_dim=np.int64(3), trunk_dims=(np.int32(4), np.uint8(2)),
            head_hidden_dim=np.int16(5),
        )
        assert arch == ArchConfig(input_dim=3, trunk_dims=(4, 2), head_hidden_dim=5)
        assert all(type(w) is int for w in arch.trunk_dims)


class TestInitParams:
    def test_same_seed_same_params(self):
        a = init_params(small_arch(), seed=7)
        b = init_params(small_arch(), seed=7)
        for left, right in zip(param_arrays(a), param_arrays(b)):
            np.testing.assert_array_equal(left, right)

    def test_different_seeds_differ(self):
        a = init_params(small_arch(), seed=7)
        b = init_params(small_arch(), seed=8)
        assert any(
            not np.array_equal(left, right)
            for left, right in zip(param_arrays(a), param_arrays(b))
        )

    def test_biases_start_at_zero(self):
        params = init_params(small_arch(), seed=3)
        for _, bias in params.layers:
            np.testing.assert_array_equal(bias, np.zeros_like(bias))

    def test_weights_bounded_by_fan_in(self):
        params = init_params(small_arch(trunk_dims=(6, 4)), seed=11)
        for w, _ in params.layers:
            bound = 1.0 / math.sqrt(w.shape[-1])
            assert np.all(np.abs(w) <= bound)

    def test_records_seed(self):
        assert init_params(small_arch(), seed=42).rng_seed_used == 42

    @pytest.mark.parametrize("seed", [1.5, -1, True, "3", None])
    def test_seed_that_is_not_an_integer_at_least_zero_is_a_config_error(self, seed):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            init_params(small_arch(), seed)

    def test_numpy_integer_seed_is_recorded_as_an_int(self):
        params = init_params(small_arch(), np.int64(42))
        assert type(params.rng_seed_used) is int
        assert np.array_equal(params.flat, init_params(small_arch(), 42).flat)

    def test_shapes(self):
        arch = small_arch(trunk_dims=(5,), head_hidden_dim=2)
        params = init_params(arch, seed=0)
        (trunk_w, _), (hidden_w, _), (out_w, _) = params.layers
        assert trunk_w[0].shape == (5, 3)
        assert hidden_w[0].shape == (2, 5)
        assert out_w[0].shape == (1, 2)
        assert hidden_w[1].shape == (2, 5)
        assert out_w[1].shape == (1, 2)


def address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


class TestFlatLayout:
    ARCHS = [
        small_arch(trunk_dims=()),
        small_arch(trunk_dims=(5,), head_hidden_dim=2),
        small_arch(trunk_dims=(6, 4)),
    ]
    # Per arch, each layer's (stack, fan_out, fan_in) weights, then its
    # (stack, 1, fan_out) biases, first layer to last.
    DOCUMENTED = [
        [(2, 4, 3), (2, 1, 4), (2, 1, 4), (2, 1, 1)],
        [(1, 5, 3), (1, 1, 5), (2, 2, 5), (2, 1, 2), (2, 1, 2), (2, 1, 1)],
        [(1, 6, 3), (1, 1, 6), (1, 4, 6), (1, 1, 4), (2, 4, 4), (2, 1, 4), (2, 1, 4), (2, 1, 1)],
    ]

    @pytest.mark.parametrize(
        "arch, documented", zip(ARCHS, DOCUMENTED), ids=["arch0", "arch1", "arch2"]
    )
    def test_param_arrays_are_consecutive_views_of_one_buffer_in_documented_order(
        self, arch, documented
    ):
        params = init_params(arch, seed=0)
        flat = params.flat
        assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags.c_contiguous
        assert [s.shape for s in param_layout(arch)] == documented
        arrays = param_arrays(params)
        assert [a.shape for a in arrays] == documented
        offset = 0
        for a in arrays:
            assert a.base is flat
            assert a.flags.c_contiguous
            assert address(a) == address(flat) + 8 * offset
            offset += a.size
        assert offset == flat.size

    @pytest.mark.parametrize("arch", ARCHS)
    def test_layers_are_the_layout_views_in_order(self, arch):
        params = init_params(arch, seed=0)
        layout = param_layout(arch)
        assert len(params.layers) == len(arch.trunk_dims) + 2
        views = [a for layer in params.layers for a in layer]
        assert all(a.base is params.flat for a in views)
        assert [(address(a), a.shape) for a in views] == [
            (address(params.flat) + 8 * s.start, s.shape) for s in layout
        ]
        assert [address(a) for a in views] == [address(a) for a in param_arrays(params)]

    @pytest.mark.parametrize("arch", ARCHS)
    def test_stacked_head_views_cover_both_heads_score_first(self, arch):
        """The last two layers are the heads'. Each head layer's slots follow
        the trunk's, score head first in each stack: per head layer, score
        weight, log-variance weight, score bias, log-variance bias."""
        params = init_params(arch, seed=0)
        offset = sum(math.prod(s.shape) for s in param_layout(arch)[:-4])
        head_slots = param_layout(arch)[-4:]
        for l, (fan_out, fan_in) in enumerate(
            [(arch.head_hidden_dim, arch.trunk_output_dim), (1, arch.head_hidden_dim)]
        ):
            w, b = params.layers[len(arch.trunk_dims) + l]
            assert w.base is params.flat and b.base is params.flat
            assert w.shape == (2, fan_out, fan_in)
            assert b.shape == (2, 1, fan_out)
            score_w, logvar_w = offset, offset + fan_out * fan_in
            score_b, logvar_b = offset + 2 * fan_out * fan_in, offset + 2 * fan_out * fan_in + fan_out
            assert address(w) == address(w[0]) == address(params.flat) + 8 * score_w
            assert address(w[1]) == address(params.flat) + 8 * logvar_w
            assert address(b) == address(b[0]) == address(params.flat) + 8 * score_b
            assert address(b[1]) == address(params.flat) + 8 * logvar_b
            assert head_slots[2 * l][1:] == (score_w, score_b)
            assert head_slots[2 * l + 1][1:] == (score_b, logvar_b + fan_out)
            offset = logvar_b + fan_out
        assert offset == params.flat.size

    def test_writes_through_a_view_reach_the_flat_vector(self):
        params = init_params(small_arch(), seed=0)
        params.layers[-1][1][0, 0, 0] = 123.0
        slot = param_layout(params.arch)[-1]
        assert params.flat[slot.start] == 123.0

    @pytest.mark.parametrize("arch", ARCHS)
    def test_init_draws_in_the_documented_order(self, arch):
        """Trunk layers, then every score head layer, then every log-variance
        head layer, each a uniform weight draw per layer; biases draw
        nothing."""
        rng = np.random.default_rng(3)
        widths = (arch.input_dim, *arch.trunk_dims)
        head = [(arch.head_hidden_dim, arch.trunk_output_dim), (1, arch.head_hidden_dim)]
        want = [
            rng.uniform(-1.0 / math.sqrt(f), 1.0 / math.sqrt(f), size=(w, f))
            for w, f in list(zip(widths[1:], widths[:-1])) + head + head
        ]
        params = init_params(arch, seed=3)
        trunk, heads = params.layers[:-2], params.layers[-2:]
        got = [w[0] for w, _ in trunk] + [w[0] for w, _ in heads] + [w[1] for w, _ in heads]
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)

    def test_wrong_buffer_size_rejected(self):
        arch = small_arch()
        with pytest.raises(ShapeError):
            ModelParams(arch, np.zeros(param_layout(arch)[-1].stop + 1), 0)

    def test_deepcopy_owns_a_new_buffer_and_keeps_its_views(self):
        params = init_params(small_arch(), seed=0)
        clone = copy.deepcopy(params)
        clone.layers[0][0][0, 0, 0] = 99.0
        assert clone.flat[0] == 99.0
        assert params.flat[0] != 99.0

    def test_gradients_share_the_layout(self):
        params = init_params(small_arch(trunk_dims=(6, 4)), seed=0)
        _, _, cache = forward_batch(params, np.ones((2, 3)))
        grads = backward_batch(cache, params, np.ones(2), np.ones(2))
        assert grads.arch == params.arch
        assert [a.shape for a in param_arrays(grads)] == [
            a.shape for a in param_arrays(params)
        ]
        assert not np.shares_memory(grads.flat, params.flat)


class TestForward:
    def test_zero_network_outputs_unit_variance(self):
        params = init_params(small_arch(), seed=0)
        for arr in param_arrays(params):
            arr[...] = 0.0
        pred, _ = one_row(params, np.ones(3))
        assert pred.y_hat == 0.0
        assert pred.s == 0.0
        assert math.exp(pred.s) == 1.0

    def test_dropout_p_zero_matches_deterministic(self):
        params = init_params(small_arch(dropout_p=0.0), seed=5)
        x = np.array([0.3, -1.2, 0.8])
        det, _ = one_row(params, x)
        drop, _ = one_row(params, x, rng=np.random.default_rng(0))
        assert det.y_hat == drop.y_hat
        assert det.s == drop.s

    def test_dropout_deterministic_given_seed(self):
        params = init_params(small_arch(), seed=5)
        x = np.array([0.3, -1.2, 0.8])
        a, _ = one_row(params, x, rng=np.random.default_rng(99))
        b, _ = one_row(params, x, rng=np.random.default_rng(99))
        assert a == b

    def test_dimension_mismatch_raises(self):
        params = init_params(small_arch(), seed=1)
        with pytest.raises(ShapeError):
            forward_batch(params, np.zeros((1, 4)))

    @pytest.mark.parametrize(
        "features",
        [[["a", "b", "c"]], [[1.0, 2.0, 3.0], [4.0]], [[1.0 + 2.0j, 0.5, 0.0]],
         np.array([[1.0 + 2.0j, 0.5, 0.0]])],
        ids=["non-numeric", "ragged", "complex-list", "complex-array"],
    )
    def test_features_that_are_not_real_numbers_are_an_input_error(self, features):
        params = init_params(small_arch(), seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="features"):
                forward_batch(params, features)

    @pytest.mark.parametrize("features", [np.zeros(3), np.zeros((1, 1, 3)), 0.5])
    def test_features_of_the_wrong_rank_are_an_input_error(self, features):
        with pytest.raises(InputError, match="features must be a 2-d array"):
            forward_batch(init_params(small_arch(), seed=1), features)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_features_are_an_input_error(self, bad):
        x = np.zeros((2, 3))
        x[1, 2] = bad
        with pytest.raises(InputError, match="features must be finite"):
            forward_batch(init_params(small_arch(), seed=1), x)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 4, 3), (1, 4, 4), (2, 3, 4)])
    def test_mask_of_another_shape_rejected(self, shape):
        params = init_params(small_arch(), seed=1)
        with pytest.raises(ShapeError, match="dropout mask"):
            forward_batch(params, np.ones((4, 3)), np.ones(shape))

    def test_no_dropout_without_an_rng(self):
        """At p = 0.5 a pass without a mask still drops nothing: both heads
        read the trunk output as it is."""
        params = init_params(small_arch(), seed=1)
        xs = np.random.default_rng(0).normal(size=(4, 3))
        y_hat, s, work = forward_batch(params, xs)
        (w, b), = params.layers[:-2]
        trunk_out = np.tanh(xs @ w[0].T + b[0, 0])
        assert work.mask is None
        assert np.array_equal(np.broadcast_to(work.h_in, (2, 4, 4)), np.stack([trunk_out] * 2))
        again_y, again_s, _ = forward_batch(params, xs)
        assert same_bits(y_hat, again_y) and same_bits(s, again_s)

    def test_batch_agrees_with_single_rows(self):
        params = init_params(small_arch(), seed=2)
        xs = np.random.default_rng(0).normal(size=(6, 3))
        y_hat, s, _ = forward_batch(params, xs)
        for i, row in enumerate(xs):
            pred, _ = one_row(params, row)
            assert pred.y_hat == pytest.approx(y_hat[i], abs=1e-12)
            assert pred.s == pytest.approx(s[i], abs=1e-12)

    def test_one_mask_draw_matches_one_draw_per_head(self):
        """Both heads' masks come from one (2, B, H) draw at arch.dropout_p:
        the score mask is the first half of it, exactly as two (B, H) draws
        would give."""
        params = init_params(small_arch(trunk_dims=(6,), dropout_p=0.4), seed=2)
        xs = np.random.default_rng(0).normal(size=(5, 3))
        rng = np.random.default_rng(8)
        y_hat, s, _ = forward_batch(params, xs, drawn_mask(params, rng, len(xs)))

        ref_rng = np.random.default_rng(8)
        score_mask = (ref_rng.random((5, 6)) >= 0.4) / (1.0 - 0.4)
        logvar_mask = (ref_rng.random((5, 6)) >= 0.4) / (1.0 - 0.4)
        (w, b), = params.layers[:-2]
        h = np.tanh(xs @ w[0].T + b[0, 0])

        def head(mask, k):
            (w0, b0), (w1, b1) = ((w[k], b[k]) for w, b in params.layers[-2:])
            hidden = np.tanh((h * mask) @ w0.T + b0)
            return (hidden @ w1.T + b1)[:, 0]

        assert np.array_equal(y_hat, head(score_mask, 0))
        assert np.array_equal(s, np.clip(head(logvar_mask, 1), -S_CLAMP, S_CLAMP))
        assert rng.random() == ref_rng.random()

    def test_log_variance_clamped(self):
        params = init_params(small_arch(), seed=3)
        for arr in (a for layer in params.layers[-2:] for a in layer):
            arr[1] = 50.0
        pred, _ = one_row(params, np.ones(3) * 100.0)
        assert abs(pred.s) == S_CLAMP

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=3), st.integers(0, 10))
    def test_clamp_holds_for_any_input(self, values, seed):
        params = init_params(small_arch(), seed=seed)
        pred, _ = one_row(params, np.array(values))
        assert -S_CLAMP <= pred.s <= S_CLAMP
        assert math.exp(-S_CLAMP) <= math.exp(pred.s) <= math.exp(S_CLAMP)


class TestDropoutMask:
    """The inverted-dropout mask dropout_mask draws and forward_batch caches
    for replay."""

    @staticmethod
    def mask(p, rows, seed):
        """The (2, rows, 50) mask of one forward pass at dropout p."""
        params = init_params(small_arch(trunk_dims=(50,), dropout_p=p), seed=0)
        xs = np.random.default_rng(1).normal(size=(rows, 3))
        mask = drawn_mask(params, np.random.default_rng(seed), rows)
        return forward_batch(params, xs, mask)[2].mask

    def test_values_are_zero_or_inverse_keep(self):
        mask = self.mask(0.25, 10, seed=0)
        assert mask.shape == (2, 10, 50)
        expected = 1.0 / 0.75
        assert set(np.unique(mask)) <= {0.0, expected}

    def test_expectation_close_to_one(self):
        draws = self.mask(0.5, 100, seed=123)
        assert draws.size == 10000
        assert abs(draws.mean() - 1.0) < 0.03

    def test_p_zero_is_all_ones_and_consumes_no_randomness(self):
        """At p = 0 no mask is drawn or applied: the heads read the trunk
        output unchanged, as an all-ones mask would leave it."""
        params = init_params(small_arch(trunk_dims=(16,), dropout_p=0.0), seed=0)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        x = np.ones((1, 3))
        _, _, work = forward_batch(params, x, drawn_mask(params, rng_a, 1))
        (w, b), = params.layers[:-2]
        trunk_out = np.tanh(x @ w[0].T + b[0, 0])
        assert work.mask is None
        np.testing.assert_array_equal(
            np.broadcast_to(work.h_in, (2, 1, 16)), np.stack([trunk_out] * 2)
        )
        assert rng_a.random() == rng_b.random()


def nll_one_row(pred, y):
    """nll_loss_batch on one prediction: (value, d_y_hat, d_s) as floats."""
    out = nll_loss_batch(np.array([pred.y_hat]), np.array([pred.s]), np.array([y]))
    return tuple(float(a[0]) for a in out)


def loss_through_network(params, x, y):
    pred, _ = one_row(params, x)
    return nll_one_row(pred, y)[0]


def finite_difference_grads(params, x, y, step=1e-5):
    """Central differences of the NLL of a one-row forward pass for every parameter."""
    grads = []
    for arr in param_arrays(params):
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = arr[idx]
            arr[idx] = original + step
            up = loss_through_network(params, x, y)
            arr[idx] = original - step
            down = loss_through_network(params, x, y)
            arr[idx] = original
            g[idx] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def one_row_grads(cache, params, d_y_hat, d_s):
    """backward_batch for a one-row cache, as a list of parameter arrays."""
    return param_arrays(backward_batch(cache, params, np.array([d_y_hat]), np.array([d_s])))


def analytic_grads(params, x, y):
    pred, cache = one_row(params, x)
    _, d_y_hat, d_s = nll_one_row(pred, y)
    return one_row_grads(cache, params, d_y_hat, d_s)


@pytest.mark.bitwise
class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        params = init_params(small_arch(), seed=4)
        _, cache = one_row(params, np.ones(3))
        for g in one_row_grads(cache, params, 0.0, 0.0):
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_linearity_in_upstream_gradient(self):
        params = init_params(small_arch(), seed=4)
        _, cache = one_row(params, np.array([0.5, -0.25, 1.5]))
        once = one_row_grads(cache, params, 0.7, 0.0)
        twice = one_row_grads(cache, params, 1.4, 0.0)
        for g1, g2 in zip(once, twice):
            np.testing.assert_array_equal(2.0 * g1, g2)

    def test_gradients_match_finite_differences(self):
        """Analytic gradients agree with central differences everywhere.

        Exercises input 3, trunk [4], head hidden 4 against a 1e-5 step;
        the whole sweep must stay under a second.
        """
        params = init_params(small_arch(), seed=12)
        x = np.array([0.4, -1.1, 0.9])
        y = 2.3
        start = time.perf_counter()
        numeric = finite_difference_grads(copy.deepcopy(params), x, y)
        analytic = analytic_grads(params, x, y)
        elapsed = time.perf_counter() - start
        worst = 0.0
        for num, ana in zip(numeric, analytic):
            scale = np.maximum(np.abs(num), 1e-8)
            worst = max(worst, float(np.max(np.abs(num - ana) / scale)))
        assert worst < 1e-4
        assert elapsed < 1.0

    def test_gradients_with_dropout_masks_replayed(self):
        params = init_params(small_arch(), seed=12)
        x = np.array([0.4, -1.1, 0.9])
        pred, cache = one_row(params, x, rng=np.random.default_rng(3))
        _, d_y_hat, d_s = nll_one_row(pred, 2.3)
        analytic = one_row_grads(cache, params, d_y_hat, d_s)
        assert any(np.any(g != 0.0) for g in analytic)

    def test_batch_gradient_is_sum_of_per_sample_gradients(self):
        params = init_params(small_arch(), seed=9)
        xs = np.random.default_rng(1).normal(size=(3, 3))
        ys = np.array([1.0, 2.0, 3.0])
        y_hat, s, cache = forward_batch(params, xs)
        d_y = y_hat - ys
        d_s = np.full(3, 0.25)
        batch = param_arrays(backward_batch(cache, params, d_y, d_s))
        summed = None
        for i in range(3):
            _, c = one_row(params, xs[i])
            g = one_row_grads(c, params, float(d_y[i]), float(d_s[i]))
            summed = g if summed is None else [a + b for a, b in zip(summed, g)]
        for got, want in zip(batch, summed):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_upstream_shape_mismatch_raises(self):
        params = init_params(small_arch(), seed=9)
        _, _, cache = forward_batch(params, np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            backward_batch(cache, params, np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.zeros((2, 1)), ["a", "b"], [1.0, [2.0]], [1j, 0.0],
                                     [math.inf, 0.0]],
                             ids=["2-d", "text", "ragged", "complex", "inf"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_malformed_upstream_gradients_are_an_input_error(self, bad, which):
        params = init_params(small_arch(), seed=9)
        _, _, cache = forward_batch(params, np.zeros((2, 3)))
        upstream = [np.ones(2), np.ones(2)]
        upstream[which] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="upstream gradients"):
                backward_batch(cache, params, *upstream)

    def test_upstream_lists_are_converted(self):
        params = init_params(small_arch(), seed=9)
        _, _, cache = forward_batch(params, np.ones((2, 3)))
        want = backward_batch(cache, params, np.array([0.5, -1.0]), np.array([1.0, 0.0]))
        got = backward_batch(cache, params, [0.5, -1], [True, False])
        assert np.array_equal(got.flat, want.flat)

    def test_clamped_log_variance_blocks_its_gradient(self):
        params = init_params(small_arch(), seed=3)
        for arr in (a for layer in params.layers[-2:] for a in layer):
            arr[1] = 50.0
        _, _, cache = forward_batch(params, np.ones((1, 3)) * 100.0)
        grads = backward_batch(cache, params, np.zeros(1), np.ones(1))
        for g in (a for layer in grads.layers[-2:] for a in layer):
            np.testing.assert_array_equal(g[1], np.zeros_like(g[1]))


def per_head_reference(params, x, rng, d_y_hat, d_s):
    """The network run one head at a time with 2-d matmuls, as a plain oracle
    for the stacked heads: (y_hat, s, gradients by group). Head gradients
    are listed by head, then layer: want["head_w"][k][l] is head k's."""
    arch = params.arch
    if arch.activation == "tanh":
        act, act_grad = np.tanh, lambda post: 1.0 - post * post
    else:
        act, act_grad = (lambda z: np.maximum(z, 0.0)), (lambda post: post > 0.0)
    a, trunk_post = x, []
    trunk = [(w[0], b[0, 0]) for w, b in params.layers[:-2]]
    for w, b in trunk:
        a = act(a @ w.T + b)
        trunk_post.append(a)
    p = arch.dropout_p
    masks = (rng.random((2, *a.shape)) >= p) / (1.0 - p) if rng is not None else (None, None)
    heads = []
    for k, mask in enumerate(masks):
        w, b = [w[k] for w, _ in params.layers[-2:]], [b[k, 0] for _, b in params.layers[-2:]]
        h_in = a if mask is None else a * mask
        hidden = act(h_in @ w[0].T + b[0])
        heads.append(((hidden @ w[1].T + b[1])[:, 0], mask, h_in, hidden, w))
    y_hat, s_raw = heads[0][0], heads[1][0]

    grads = {"head_w": [], "head_b": []}
    d_h = []
    d_outs = (d_y_hat, d_s * (np.abs(s_raw) < S_CLAMP))
    for (_, mask, h_in, hidden, w), d_out in zip(heads, d_outs):
        do = d_out[:, None]
        d_hidden = (do @ w[1]) * act_grad(hidden)
        grads["head_w"].append([d_hidden.T @ h_in, do.T @ hidden])
        grads["head_b"].append([d_hidden.sum(axis=0), do.sum(axis=0)])
        d = d_hidden @ w[0]
        d_h.append(d if mask is None else d * mask)
    d_a = d_h[0] + d_h[1]
    trunk_w, trunk_b = [], []
    for l in range(len(trunk_post) - 1, -1, -1):
        d_z = d_a * act_grad(trunk_post[l])
        trunk_w.insert(0, d_z.T @ (trunk_post[l - 1] if l > 0 else x))
        trunk_b.insert(0, d_z.sum(axis=0))
        if l > 0:
            d_a = d_z @ trunk[l][0]
    grads["trunk_w"], grads["trunk_b"] = trunk_w, trunk_b
    return y_hat, np.clip(s_raw, -S_CLAMP, S_CLAMP), grads


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.bitwise
class TestStackedHeads:
    """forward_batch and backward_batch run both heads as one (2, B, .) stack.
    On the running BLAS that must give the per-head results bit for bit."""

    @pytest.mark.parametrize("batch", [1, 8, 300])
    @pytest.mark.parametrize("trunk_dims", [(), (5,), (6, 4)])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("mode", ["deterministic", "dropout"])
    def test_stacked_equals_per_head_bit_for_bit(self, mode, activation, trunk_dims, batch):
        arch = small_arch(trunk_dims=trunk_dims, head_hidden_dim=6, activation=activation)
        params = init_params(arch, seed=4)
        data = np.random.default_rng(batch)
        # Non-zero biases, and some outputs beyond the clamp.
        params.flat[...] += data.normal(scale=0.5, size=params.flat.size)
        params.layers[-1][1][1] = 9.0
        x = data.normal(scale=2.0, size=(batch, 3))
        d_y_hat, d_s = data.normal(size=batch), data.normal(size=batch)

        rng = (lambda: np.random.default_rng(7)) if mode == "dropout" else (lambda: None)
        y_hat, s, cache = forward_batch(params, x, drawn_mask(params, rng(), batch))
        grads = backward_batch(cache, params, d_y_hat, d_s)
        want_y, want_s, want = per_head_reference(params, x, rng(), d_y_hat, d_s)
        assert same_bits(y_hat, want_y)
        assert same_bits(s, want_s)
        trunk, heads = grads.layers[:-2], grads.layers[-2:]
        assert len(trunk) == len(want["trunk_w"]) == len(want["trunk_b"])
        for (g_w, g_b), w, b in zip(trunk, want["trunk_w"], want["trunk_b"]):
            assert same_bits(g_w[0], w), "trunk_w"
            assert same_bits(g_b[0, 0], b), "trunk_b"
        for k in range(2):
            for l, (g_w, g_b) in enumerate(heads):
                assert same_bits(g_w[k], want["head_w"][k][l]), ("head_w", k, l)
                assert same_bits(g_b[k, 0], want["head_b"][k][l]), ("head_b", k, l)

    @pytest.mark.parametrize("trunk_dims", [(), (6, 4)])
    @pytest.mark.parametrize("mode", ["deterministic", "dropout"])
    def test_reused_buffer_is_overwritten_entirely(self, mode, trunk_dims):
        params = init_params(small_arch(trunk_dims=trunk_dims), seed=2)
        data = np.random.default_rng(3)
        x = data.normal(size=(9, 3))
        rng = np.random.default_rng(1) if mode == "dropout" else None
        _, _, cache = forward_batch(params, x, drawn_mask(params, rng, 9))
        d_y_hat, d_s = data.normal(size=9), data.normal(size=9)
        buffer = ModelParams(params.arch, np.full(params.flat.size, np.nan), 0)
        got = backward_batch(cache, params, d_y_hat, d_s, out=buffer)
        assert got is buffer
        assert same_bits(buffer.flat, backward_batch(cache, params, d_y_hat, d_s).flat)

    def test_buffer_of_another_arch_rejected(self):
        params = init_params(small_arch(), seed=2)
        _, _, cache = forward_batch(params, np.ones((2, 3)))
        other = init_params(small_arch(head_hidden_dim=5), seed=2)
        with pytest.raises(ShapeError):
            backward_batch(cache, params, np.ones(2), np.ones(2), out=other)


@pytest.mark.bitwise
class TestWorkspace:
    """forward_batch and backward_batch write into a Workspace when given
    one; without one they make a fresh one, so their outputs are new arrays."""

    @pytest.mark.parametrize("trunk_dims", [(), (5,), (6, 4)])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("mode", ["deterministic", "dropout"])
    def test_reused_workspace_equals_fresh_passes_bit_for_bit(self, mode, activation, trunk_dims):
        params = init_params(small_arch(trunk_dims=trunk_dims, activation=activation), seed=4)
        params.flat[...] += np.random.default_rng(0).normal(scale=0.5, size=params.flat.size)
        params.layers[-1][1][1] = 9.0  # some log-variances beyond the clamp
        data = np.random.default_rng(1)
        rng = np.random.default_rng(2) if mode == "dropout" else None
        work = Workspace(params, 6).for_training()
        grads = ModelParams(params.arch, np.empty_like(params.flat), 0)
        for _ in range(3):
            x = data.normal(scale=2.0, size=(6, 3))
            mask = drawn_mask(params, rng, 6)
            d_y_hat, d_s = data.normal(size=6), data.normal(size=6)
            y_hat, s, got_work = forward_batch(params, x, mask, work)
            want_y, want_s, fresh = forward_batch(params, x, mask)
            assert got_work is work and fresh is not work
            assert same_bits(y_hat, want_y) and same_bits(s, want_s)
            # Upstream derivatives written into the workspace are read in place.
            work.d_y_hat[...], work.d_s[...] = d_y_hat, d_s
            backward_batch(work, params, work.d_y_hat, work.d_s, out=grads)
            want = backward_batch(fresh, params, d_y_hat, d_s)
            assert same_bits(grads.flat, want.flat)

    def test_fresh_outputs_are_not_overwritten_by_later_calls(self):
        params = init_params(small_arch(), seed=3)
        data = np.random.default_rng(5)
        first_x, second_x = data.normal(size=(4, 3)), data.normal(size=(4, 3))
        y_hat, s, work = forward_batch(params, first_x)
        kept = y_hat.copy(), s.copy(), work.hidden.copy()
        again_y, again_s, again_work = forward_batch(params, second_x)
        assert again_work is not work
        assert not np.shares_memory(y_hat, again_y) and not np.shares_memory(s, again_s)
        for got, want in zip((y_hat, s, work.hidden), kept):
            assert same_bits(got, want)

    def test_workspace_of_other_params_or_rows_rejected(self):
        params = init_params(small_arch(), seed=3)
        other = init_params(small_arch(), seed=3)
        work = Workspace(params, 4)
        with pytest.raises(ShapeError, match="workspace"):
            forward_batch(other, np.ones((4, 3)), None, work)
        with pytest.raises(ShapeError, match="workspace"):
            forward_batch(params, np.ones((5, 3)), None, work)
        with pytest.raises(ShapeError, match="dropout mask"):
            forward_batch(params, np.ones((4, 3)), np.ones((2, 5, 4)), work)
        forward_batch(params, np.ones((4, 3)), None, work)
        with pytest.raises(ShapeError, match="forward cache"):
            backward_batch(work, other, np.ones(4), np.ones(4))
