"""Training loop behavior, history bookkeeping, and checkpoint files."""

from __future__ import annotations

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mosuq.datagen import (
    GenConfig,
    Heteroscedastic,
    Homoscedastic,
    gen_synthetic,
    split_dataset,
)
from mosuq.errors import (
    CheckpointError,
    CheckpointVersionError,
    ConfigError,
    InputError,
    ShapeError,
    TrainingDivergedError,
)
from mosuq import trainer as trainer_module
from mosuq.loss import mse_loss_batch, nll_loss_batch
from mosuq.net import (
    ArchConfig,
    ModelParams,
    backward_batch,
    forward_batch,
    init_params,
    param_layout,
)
from mosuq.trainer import (
    CHECKPOINT_FORMAT_VERSION,
    TrainConfig,
    TrainHistory,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
    save_history_csv,
    train,
)

from conftest import dataset_of, param_arrays


def small_dataset(seed=0, n_per=25, sigma=0.3):
    cfg = GenConfig(
        num_systems=4,
        samples_per_system=n_per,
        feature_dim=3,
        noise_model=Homoscedastic(sigma),
        seed=seed,
    )
    return gen_synthetic(cfg)


def small_arch(dropout_p=0.0):
    return ArchConfig(
        input_dim=3, trunk_dims=(8,), head_hidden_dim=8, dropout_p=dropout_p
    )


def quick_cfg(**kwargs):
    defaults = dict(epochs=3, batch_size=8, learning_rate=3e-4, seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestTrainConfig:
    def test_reference_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 8
        assert cfg.learning_rate == 3e-4
        assert cfg.optimizer == "adam"

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"batch_size": 0},
        {"learning_rate": 0.0},
        {"learning_rate": float("inf")},
        {"loss": "huber"},
        {"optimizer": "rmsprop"},
        {"seed": -3},
        {"learning_rate": True},
        {"learning_rate": "0.1"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 2.5},
        {"epochs": True},
        {"batch_size": 2.5},
        {"batch_size": 8.0},
        {"seed": 1.5},
        {"seed": False},
    ])
    def test_counts_and_seed_must_be_integers(self, kwargs):
        with pytest.raises(ConfigError, match="must be an integer"):
            TrainConfig(**kwargs)

    def test_numpy_integers_are_accepted(self):
        cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int32(4), seed=np.uint64(7))
        assert (cfg.epochs, cfg.batch_size, cfg.seed) == (2, 4, 7)


class TestTrainValidation:
    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            train(dataset_of([], [], np.empty((0, 0)), []), small_arch(), quick_cfg())

    def test_batch_size_larger_than_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train(small_dataset(), small_arch(), quick_cfg(batch_size=101))

    def test_feature_dim_mismatch_rejected(self):
        arch = ArchConfig(input_dim=5, trunk_dims=(8,), head_hidden_dim=8)
        with pytest.raises(ShapeError):
            train(small_dataset(), arch, quick_cfg())

    def test_mismatched_validation_split_rejected(self):
        wide = gen_synthetic(
            GenConfig(num_systems=2, samples_per_system=10, feature_dim=4, seed=0)
        )
        with pytest.raises(ShapeError):
            train(small_dataset(), small_arch(), quick_cfg(), val_dataset=wide)

    def test_non_finite_labels_rejected(self):
        bad = dataset_of(["a", "b"], ["s", "s"], [np.zeros(3), np.ones(3)], [float("nan"), 3.0])
        with pytest.raises(InputError):
            train(bad, small_arch(), quick_cfg(batch_size=2))

    @staticmethod
    def with_nan_feature(dataset):
        x = dataset.features().copy()
        x[0] = [0.0, np.nan, 1.0]
        return dataclasses.replace(dataset, x=x)

    @staticmethod
    def forbid_steps(monkeypatch):
        def step(*args, **kwargs):
            raise AssertionError("a training step ran before the features were checked")

        monkeypatch.setattr(trainer_module, "forward_batch", step)
        monkeypatch.setattr(trainer_module, "backward_batch", step)

    def test_non_finite_train_feature_rejected_before_the_first_step(self, monkeypatch):
        self.forbid_steps(monkeypatch)
        with pytest.raises(InputError, match="features"):
            train(self.with_nan_feature(small_dataset()), small_arch(), quick_cfg())

    def test_non_finite_val_feature_rejected_before_the_first_step(self, monkeypatch):
        self.forbid_steps(monkeypatch)
        with pytest.raises(InputError, match="features"):
            train(
                small_dataset(), small_arch(), quick_cfg(),
                val_dataset=self.with_nan_feature(small_dataset(seed=9)),
            )

    def test_non_finite_val_label_rejected_before_the_first_step(self, monkeypatch):
        """A bad validation label is bad input, not a divergence found after
        a whole epoch of training."""
        self.forbid_steps(monkeypatch)
        val = small_dataset(seed=9)
        y = val.labels().copy()
        y[4] = np.nan
        bad = dataclasses.replace(val, y=y)
        with pytest.raises(InputError, match="validation labels"):
            train(small_dataset(), small_arch(), quick_cfg(), val_dataset=bad)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_names_the_epoch(self):
        # Plain SGD with an absurd learning rate overflows within an epoch
        # (Adam's normalized steps would keep the loss finite).
        with pytest.raises(TrainingDivergedError) as excinfo:
            train(
                small_dataset(),
                small_arch(),
                quick_cfg(learning_rate=1e12, epochs=5, optimizer="sgd"),
            )
        assert excinfo.value.epoch >= 1
        assert f"epoch {excinfo.value.epoch}" in str(excinfo.value)


class TestDeterminism:
    def test_same_seed_reproduces_params_and_history(self, tmp_path):
        dataset = small_dataset()
        arch = small_arch(dropout_p=0.3)
        params_a, hist_a = train(dataset, arch, quick_cfg(seed=7))
        params_b, hist_b = train(dataset, arch, quick_cfg(seed=7))
        assert hist_a == hist_b
        for a, b in zip(param_arrays(params_a), param_arrays(params_b)):
            assert np.array_equal(a, b)
        save_checkpoint(params_a, tmp_path / "a.json")
        save_checkpoint(params_b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_different_seeds_differ(self):
        dataset = small_dataset()
        params_a, _ = train(dataset, small_arch(), quick_cfg(seed=0))
        params_b, _ = train(dataset, small_arch(), quick_cfg(seed=1))
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(param_arrays(params_a), param_arrays(params_b))
        )


class TestHistory:
    def test_lengths_match_epochs(self):
        dataset = small_dataset()
        val = small_dataset(seed=9)
        _, history = train(dataset, small_arch(), quick_cfg(epochs=4), val_dataset=val)
        assert len(history.train_loss) == 4
        assert len(history.val_loss) == 4

    def test_val_loss_is_none_without_validation_split(self):
        _, history = train(small_dataset(), small_arch(), quick_cfg())
        assert history.val_loss is None

    def test_history_csv_format(self, tmp_path):
        history = TrainHistory(train_loss=(1.5, 1.25), val_loss=(2.0, 1.75))
        path = tmp_path / "hist.csv"
        save_history_csv(history, path)
        assert path.read_text() == "epoch,train_loss,val_loss\n1,1.5,2.0\n2,1.25,1.75\n"

    def test_history_csv_with_empty_val_cells(self, tmp_path):
        path = tmp_path / "hist.csv"
        save_history_csv(TrainHistory(train_loss=(0.5,), val_loss=None), path)
        assert path.read_text() == "epoch,train_loss,val_loss\n1,0.5,\n"


class TestMseLossLeavesVarianceHeadAlone:
    def test_logvar_head_keeps_its_initialization(self):
        dataset = small_dataset()
        arch = small_arch(dropout_p=0.3)
        cfg = quick_cfg(loss="mse", epochs=2, seed=3)
        params, _ = train(dataset, arch, cfg)
        init = init_params(arch, cfg.seed)
        for trained, fresh in zip(params.head_w + params.head_b,
                                  init.head_w + init.head_b):
            assert np.array_equal(trained[1], fresh[1])
        # The score path must still have moved.
        assert any(
            not np.array_equal(t, f)
            for t, f in zip([w[0] for w in params.head_w] + params.trunk_w,
                            [w[0] for w in init.head_w] + init.trunk_w)
        )


@pytest.fixture(scope="module")
def recovery_run():
    """5000-sample homoscedastic run used by several slow assertions."""
    sigma = 0.1
    cfg = GenConfig(
        num_systems=10,
        samples_per_system=625,
        feature_dim=4,
        noise_model=Homoscedastic(sigma),
        seed=0,
    )
    train_split, val_split = split_dataset(gen_synthetic(cfg), (0.8, 0.2), seed=0)
    arch = ArchConfig(input_dim=4, trunk_dims=(16,), head_hidden_dim=16, dropout_p=0.0)
    params, history = train(
        train_split, arch, TrainConfig(epochs=50, seed=0), val_dataset=val_split
    )
    return sigma, val_split, params, history


class TestLearningBehavior:
    def test_beats_the_zero_predictor_baseline(self, recovery_run):
        """The baseline always answers N(0, 1); its NLL on the same split is
        mean(y^2) / 2 under the constant-free convention."""
        _, val_split, _, history = recovery_run
        baseline = float(np.mean(val_split.labels() ** 2)) / 2.0
        assert history.val_loss[-1] < baseline

    def test_recovers_homoscedastic_sigma_within_30_percent(self, recovery_run):
        sigma, val_split, params, _ = recovery_run
        _, s = predict_batch(params, val_split.features())
        mean_sigma_hat = float(np.mean(np.exp(0.5 * s)))
        assert abs(mean_sigma_hat - sigma) <= 0.3 * sigma

    def test_smoothed_training_loss_is_non_increasing(self, recovery_run):
        """Non-increasing up to the mini-batch jitter floor (~1e-3 nats);
        a run that actually regresses moves by the scale of the descent
        itself, orders of magnitude above this allowance."""
        _, _, _, history = recovery_run
        curve = np.array(history.train_loss)
        smooth = np.convolve(curve, np.ones(5) / 5.0, mode="valid")
        assert all(b <= a + 2e-3 for a, b in zip(smooth, smooth[1:]))


class TestCheckpointRoundTrip:
    def make_params(self):
        return init_params(small_arch(dropout_p=0.4), seed=11)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        save_checkpoint(self.make_params(), first, calibration_r=1.25)
        params, r = load_checkpoint(first)
        save_checkpoint(params, second, calibration_r=r)
        assert second.read_bytes() == first.read_bytes()

    def test_calibration_r_defaults_to_none(self, tmp_path):
        path = tmp_path / "raw.json"
        save_checkpoint(self.make_params(), path)
        _, r = load_checkpoint(path)
        assert r is None

    def test_loaded_params_predict_identically(self, tmp_path):
        params = self.make_params()
        path = tmp_path / "ck.json"
        save_checkpoint(params, path)
        loaded, _ = load_checkpoint(path)
        x = np.random.default_rng(0).normal(size=(6, 3))
        for a, b in zip(predict_batch(params, x), predict_batch(loaded, x)):
            assert np.array_equal(a, b)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.json")

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(self.make_params(), path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="line"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(self.make_params(), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(self.make_params(), path)
        doc = json.loads(path.read_text())
        del doc["weights"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="weights"):
            load_checkpoint(path)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(self.make_params(), path)
        doc = json.loads(path.read_text())
        doc["weights"]["trunk"][0] = [[1.0, 2.0], [3.0, 4.0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path)

    def test_non_finite_weight(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(self.make_params(), path)
        doc = json.loads(path.read_text().replace("0.", "0."))
        doc["biases"]["trunk"][0][0] = 1e400  # serializes as Infinity
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)

    def test_bad_calibration_r(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(self.make_params(), path)
        doc = json.loads(path.read_text())
        doc["calibration_r"] = -2.0
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="calibration_r"):
            load_checkpoint(path)

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(CheckpointError, match="object"):
            load_checkpoint(path)

    def edited(self, tmp_path, section, key, value):
        """A saved checkpoint with doc[section][key] (or doc[key] when
        section is None) replaced by value."""
        path = tmp_path / "ck.json"
        save_checkpoint(self.make_params(), path, calibration_r=1.25)
        doc = json.loads(path.read_text())
        (doc if section is None else doc[section])[key] = value
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("section, key, value", [
        (None, "rng_seed_used", "abc"),
        (None, "rng_seed_used", 1.5),
        (None, "rng_seed_used", True),
        (None, "rng_seed_used", None),
        (None, "calibration_r", "x"),
        (None, "calibration_r", True),
        ("arch", "input_dim", 2.7),
        ("arch", "input_dim", "3"),
        ("arch", "head_hidden_dim", True),
        ("arch", "trunk_dims", [4.5]),
        ("arch", "trunk_dims", "4"),
        ("arch", "dropout_p", "0.4"),
    ])
    def test_malformed_field_raises_checkpoint_error_naming_it(
        self, tmp_path, section, key, value
    ):
        path = self.edited(tmp_path, section, key, value)
        what = "arch section" if section else key
        with pytest.raises(CheckpointError, match=f"invalid {what}") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("value", [True, "0.5", 10**400])
    @pytest.mark.parametrize("section, key, index", [
        ("biases", "trunk", (0, 1)),
        ("weights", "score_head", (0, 2, 1)),
        ("weights", "logvar_head", (1, 0, 3)),
    ])
    def test_non_number_array_element_raises_checkpoint_error_naming_the_file(
        self, tmp_path, section, key, index, value
    ):
        """np.array(..., dtype=float) would turn true into 1.0 and "0.5" into
        0.5; a checkpoint element must be a JSON number."""
        path = tmp_path / "ck.json"
        save_checkpoint(self.make_params(), path)
        doc = json.loads(path.read_text())
        node = doc[section][key]
        for i in index[:-1]:
            node = node[i]
        node[index[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=f"{section}.{key}") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("key, section", [("calibration_r", None), ("dropout_p", "arch")])
    def test_integer_beyond_float_range_raises_checkpoint_error(self, tmp_path, key, section):
        path = self.edited(tmp_path, section, key, 10**400)
        with pytest.raises(CheckpointError, match="too large") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_integral_float_fields_load_as_integers(self, tmp_path):
        path = self.edited(tmp_path, "arch", "input_dim", 3.0)
        params, _ = load_checkpoint(path)
        assert params.arch.input_dim == 3 and isinstance(params.arch.input_dim, int)

    def test_every_group_lands_in_its_own_views(self, tmp_path):
        """The flat layout interleaves the two heads, so loading must fill each
        view from its own group rather than concatenate the groups."""
        params = init_params(ArchConfig(input_dim=3, trunk_dims=(5, 4), head_hidden_dim=2), 3)
        params.flat[...] = np.arange(params.flat.size, dtype=float)
        path = tmp_path / "ck.json"
        save_checkpoint(params, path)
        loaded, _ = load_checkpoint(path)
        assert np.array_equal(loaded.flat, params.flat)


GOLDEN_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v1.json"


class TestGoldenCheckpoint:
    """A checkpoint saved by an earlier layout of the parameter vector: trunk
    (5, 4) on 3 inputs, head width 2, flat = arange, r = 1.25. A save and a
    load that both swapped the two heads would still round-trip; this file
    pins where every parameter lands."""

    def test_loads_to_arange_and_its_calibration(self):
        params, r = load_checkpoint(GOLDEN_CHECKPOINT)
        assert params.arch == ArchConfig(input_dim=3, trunk_dims=(5, 4), head_hidden_dim=2)
        assert np.array_equal(params.flat, np.arange(params.flat.size, dtype=float))
        assert params.rng_seed_used == 7
        assert r == 1.25

    def test_saving_it_again_is_byte_identical(self, tmp_path):
        params, r = load_checkpoint(GOLDEN_CHECKPOINT)
        save_checkpoint(params, tmp_path / "again.json", calibration_r=r)
        assert (tmp_path / "again.json").read_bytes() == GOLDEN_CHECKPOINT.read_bytes()


class TestPredictBatch:
    def test_shapes(self):
        params = init_params(small_arch(), seed=0)
        y_hat, s = predict_batch(params, np.zeros((5, 3)))
        assert y_hat.shape == (5,)
        assert s.shape == (5,)

    def test_non_finite_row_rejected(self):
        params = init_params(small_arch(), seed=0)
        x = np.zeros((5, 3))
        x[3, 2] = np.inf
        with pytest.raises(InputError, match="features"):
            predict_batch(params, x)


class _PerArrayAdam:
    """Adam as it ran before the flat parameter vector: one update per array."""

    def __init__(self, arrays, lr):
        self.lr = lr
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.t = 0

    def step(self, arrays, grads):
        self.t += 1
        bc1 = 1.0 - trainer_module.ADAM_BETA1**self.t
        bc2 = 1.0 - trainer_module.ADAM_BETA2**self.t
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= trainer_module.ADAM_BETA1
            m += (1.0 - trainer_module.ADAM_BETA1) * g
            v *= trainer_module.ADAM_BETA2
            v += (1.0 - trainer_module.ADAM_BETA2) * (g * g)
            a -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + trainer_module.ADAM_EPS)


class _PerArraySGD:
    def __init__(self, arrays, lr):
        self.lr = lr

    def step(self, arrays, grads):
        for a, g in zip(arrays, grads):
            a -= self.lr * g


class TestFlatOptimizers:
    @pytest.mark.parametrize("flat_cls, reference_cls", [
        (trainer_module._Adam, _PerArrayAdam),
        (trainer_module._SGD, _PerArraySGD),
    ])
    @pytest.mark.parametrize("trunk_dims", [(), (8,), (6, 4)])
    def test_flat_step_matches_the_per_array_step_bit_for_bit(
        self, flat_cls, reference_cls, trunk_dims
    ):
        arch = ArchConfig(input_dim=3, trunk_dims=trunk_dims, head_hidden_dim=5)
        params = init_params(arch, seed=1)
        reference = [a.copy() for a in param_arrays(params)]
        flat_opt = flat_cls(params.flat, 3e-3)
        reference_opt = reference_cls(reference, 3e-3)
        rng = np.random.default_rng(5)
        for _ in range(6):
            grads = rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=params.flat.size)
            flat_opt.step(grads)
            per_array = [
                grads[slot.start : slot.stop].reshape(slot.shape).copy()
                for slot in param_layout(arch)
            ]
            reference_opt.step(reference, per_array)
            for got, want in zip(param_arrays(params), reference):
                assert np.array_equal(got, want)


def _per_batch_mask_train(dataset, arch, cfg, val_dataset=None):
    """train() as it ran before masks were drawn in chunks: one
    rng.random((2, B, H)) draw per batch and a running float loss sum."""
    x_all, y_all = dataset.features(), dataset.labels()
    n, p = len(dataset), arch.dropout_p
    params = init_params(arch, cfg.seed)
    grads = ModelParams(arch, np.empty_like(params.flat), params.rng_seed_used)
    optimizer_cls = trainer_module._Adam if cfg.optimizer == "adam" else trainer_module._SGD
    optimizer = optimizer_cls(params.flat, cfg.learning_rate)
    loss_batch = nll_loss_batch if cfg.loss == "nll" else mse_loss_batch
    shuffle_stream, dropout_stream = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_stream)
    dropout_rng = np.random.default_rng(dropout_stream)
    train_curve, val_curve = [], []
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        x_epoch, y_epoch = x_all[order], y_all[order]
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            xb = x_epoch[start : start + cfg.batch_size]
            yb = y_epoch[start : start + cfg.batch_size]
            mask = None
            if p > 0.0:
                u = dropout_rng.random((2, len(xb), arch.trunk_output_dim))
                mask = (u >= p) / (1.0 - p)
            y_hat, s, cache = forward_batch(params, xb, mask)
            values, d_y_hat, d_s = loss_batch(y_hat, s, yb)
            loss_sum += float(values.sum())
            backward_batch(cache, params, d_y_hat / len(xb), d_s / len(xb), out=grads)
            optimizer.step(grads.flat)
        train_curve.append(loss_sum / n)
        if val_dataset is not None:
            y_hat, s, _ = forward_batch(params, val_dataset.features())
            val_curve.append(float(loss_batch(y_hat, s, val_dataset.labels())[0].mean()))
    val_loss = tuple(val_curve) if val_dataset is not None else None
    return params, TrainHistory(tuple(train_curve), val_loss)


class TestChunkedMasks:
    """train() draws the dropout masks of many batches at once. Those are the
    same uniforms, in the same order, as one draw per batch, so training
    must match the per-batch loop bit for bit."""

    # (n_per, trunk_dims, dropout_p, batch_size, optimizer, loss, val, chunk_units);
    # a chunk_units of None keeps MASK_CHUNK_UNITS as it is.
    CASES = {
        "partial-last-batch": (25, (6, 4), 0.5, 7, "adam", "nll", True, 300),
        "three-chunks": (2600, (8,), 0.5, 8, "adam", "nll", False, None),
        "batch-wider-than-chunk": (25, (), 0.7, 16, "sgd", "mse", True, 50),
        "wide-batch-default-units": (550, (32,), 0.5, 1100, "adam", "mse", False, None),
        "p-zero": (25, (8,), 0.0, 5, "adam", "mse", True, 100),
        "batch-one": (25, (), 0.3, 1, "sgd", "nll", False, 20),
        "sgd-nll-val": (25, (6, 4), 0.5, 3, "sgd", "nll", True, 64),
        "adam-mse": (25, (8,), 0.3, 8, "adam", "mse", False, 200),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_per_batch_loop_bit_for_bit(self, case, monkeypatch, tmp_path):
        n_per, trunk_dims, p, batch, optimizer, loss, with_val, chunk_units = self.CASES[case]
        if chunk_units is not None:
            monkeypatch.setattr(trainer_module, "MASK_CHUNK_UNITS", chunk_units)
        units = trainer_module.MASK_CHUNK_UNITS
        dataset = small_dataset(n_per=n_per)
        arch = ArchConfig(input_dim=3, trunk_dims=trunk_dims, head_hidden_dim=5, dropout_p=p)
        batch_units = 2 * arch.trunk_output_dim * batch
        chunk_rows = max(1, units // batch_units) * batch
        if case == "three-chunks":
            assert len(dataset) > 2 * chunk_rows
        if case.startswith(("batch-wider", "wide-batch")):
            assert batch_units > units
        if case == "partial-last-batch":
            assert len(dataset) % batch and len(dataset) > 2 * chunk_rows
        cfg = quick_cfg(
            epochs=2, batch_size=batch, optimizer=optimizer, loss=loss,
            learning_rate=1e-3, seed=4,
        )
        val = small_dataset(seed=9) if with_val else None

        params, history = train(dataset, arch, cfg, val_dataset=val)
        want_params, want_history = _per_batch_mask_train(dataset, arch, cfg, val)
        assert params.flat.tobytes() == want_params.flat.tobytes()
        assert history == want_history
        assert (history.val_loss is None) == (not with_val)
        save_checkpoint(params, tmp_path / "chunked.json")
        save_checkpoint(want_params, tmp_path / "per-batch.json")
        assert (tmp_path / "chunked.json").read_bytes() == (
            tmp_path / "per-batch.json"
        ).read_bytes()

    def test_mask_draws_are_bounded_by_the_chunk_budget(self, monkeypatch):
        """Each draw covers whole batches of at most MASK_CHUNK_UNITS entries,
        however many rows there are, and the draws cover every row."""
        sizes = []

        def recording(rng, p, shape, out=None):
            sizes.append(shape)
            return net_dropout_mask(rng, p, shape, out=out)

        net_dropout_mask = trainer_module.dropout_mask
        monkeypatch.setattr(trainer_module, "dropout_mask", recording)
        dataset = small_dataset(n_per=2600)
        arch = ArchConfig(input_dim=3, trunk_dims=(8,), head_hidden_dim=5, dropout_p=0.5)
        train(dataset, arch, quick_cfg(epochs=2))
        assert max(sizes) <= trainer_module.MASK_CHUNK_UNITS
        assert all(size % (2 * 8) == 0 for size in sizes)
        assert sum(sizes) == 2 * len(dataset) * 2 * 8
        assert len(sizes) >= 6

    def test_dropout_holds_one_chunk_at_the_paper_preset(self):
        """Every chunk is drawn into one buffer that train() reuses, so
        dropout adds about one chunk to the traced peak, not two. The
        baseline is the same run at p = 0, which draws nothing."""
        data = gen_synthetic(GenConfig(
            num_systems=20, samples_per_system=350, feature_dim=2,
            noise_model=Heteroscedastic(), seed=0,
        ))
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=3e-4, seed=0)
        peaks = {}
        for p in (0.0, 0.5):
            arch = ArchConfig(input_dim=2, trunk_dims=(16,), head_hidden_dim=16, dropout_p=p)
            tracemalloc.start()
            try:
                train(data, arch, cfg)
                peaks[p] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        chunk_bytes = 8 * trainer_module.MASK_CHUNK_UNITS
        assert len(data) > 3 * trainer_module.MASK_CHUNK_UNITS // (2 * 16)
        assert peaks[0.5] - peaks[0.0] <= 1.2 * chunk_bytes


class TestEpochBuffers:
    def test_epochs_reuse_one_shuffled_copy_of_the_split(self):
        """Each epoch gathers its shuffled split into buffers that train()
        reuses, so a second epoch adds nothing to the traced peak: keeping
        the previous epoch's copy alive would add a whole copy (2.7 MB)."""
        data = gen_synthetic(GenConfig(
            num_systems=20, samples_per_system=1000, feature_dim=16,
            noise_model=Heteroscedastic(), seed=0,
        ))
        arch = ArchConfig(input_dim=16, trunk_dims=(8,), head_hidden_dim=4, dropout_p=0.0)
        peaks = {}
        for epochs in (1, 2):
            tracemalloc.start()
            try:
                train(data, arch, TrainConfig(epochs=epochs, batch_size=500, seed=0))
                peaks[epochs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        copy_bytes = len(data) * (16 + 1) * 8
        assert peaks[2] <= peaks[1] + 0.1 * copy_bytes
