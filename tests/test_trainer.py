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
from mosuq import net as net_module
from mosuq import trainer as trainer_module
from mosuq.net import (
    S_CLAMP,
    ArchConfig,
    ModelParams,
    Workspace,
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

    def test_equal_configs_of_numpy_numbers_train_alike(self):
        """Configs store plain Python numbers, so a float32 dropout rate
        trains exactly as the float it converts to (the mask scale 1 / (1 - p)
        used to be computed in float32)."""
        p = np.float32(0.1)
        cfg = TrainConfig(
            epochs=np.int64(2), batch_size=np.int32(7), learning_rate=np.float32(1e-3)
        )
        plain = TrainConfig(epochs=2, batch_size=7, learning_rate=float(np.float32(1e-3)))
        assert cfg == plain
        got = train(small_dataset(), small_arch(dropout_p=p), cfg)
        want = train(small_dataset(), small_arch(dropout_p=float(p)), plain)
        assert got[0].flat.tobytes() == want[0].flat.tobytes() and got[1] == want[1]


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
        for trained, fresh in zip(params.layers[-2:], init.layers[-2:]):
            for t, f in zip(trained, fresh):
                assert np.array_equal(t[1], f[1])
        # The score path must still have moved.
        assert any(
            not np.array_equal(t[0], f[0]) for (t, _), (f, _) in zip(params.layers, init.layers)
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
        with pytest.raises(CheckpointError, match=r"biases\.trunk: .* \(-inf, inf\), got inf"):
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
    pins where every parameter lands: the file's cells count up through the
    trunk weights, the trunk biases, then each head layer's weights and
    biases, both heads stacked, score head first."""

    def test_loads_to_arange_and_its_calibration(self):
        params, r = load_checkpoint(GOLDEN_CHECKPOINT)
        assert params.arch == ArchConfig(input_dim=3, trunk_dims=(5, 4), head_hidden_dim=2)
        cells = np.arange(70, dtype=float)
        # Each layer's (W, b) and the slices of arange(70) that the file puts there.
        landing = [((0, 15), (35, 40)), ((15, 35), (40, 44)), ((44, 60), (60, 64)),
                   ((64, 68), (68, 70))]
        assert params.flat.size == 70 and len(params.layers) == len(landing)
        for (w, b), (w_cells, b_cells) in zip(params.layers, landing):
            assert np.array_equal(w.ravel(), cells[slice(*w_cells)])
            assert np.array_equal(b.ravel(), cells[slice(*b_cells)])
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


@pytest.mark.bitwise
class TestBlockedPrediction:
    """predict_batch runs every pass over PREDICT_BLOCK_ROWS rows through one
    workspace, the last block zero-padded, so a row called alone must get the
    bits it gets inside any longer call (CI reruns this class under fewer numpy
    SIMD kernels and under OpenBLAS's Haswell and Prescott settings)."""

    BLOCK = trainer_module.PREDICT_BLOCK_ROWS
    LONG, FAR = 3000, 2077  # the long call's rows; a far offset inside it, mid-block

    @staticmethod
    def params(trunk_dims, activation, input_dim=5):
        arch = ArchConfig(input_dim=input_dim, trunk_dims=trunk_dims, head_hidden_dim=6,
                          activation=activation)
        params = init_params(arch, seed=1)
        params.flat[:] = np.random.default_rng(2).normal(0.0, 0.7, params.flat.shape)
        return params

    @pytest.mark.parametrize("offset", [0, FAR], ids=["offset-0", "far"])
    @pytest.mark.parametrize(
        "rows", [1, 2, 3, 7, 31, 100, 200, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 3]
    )
    @pytest.mark.parametrize("trunk_dims", [(), (16,), (9, 5)], ids=["no-trunk", "16", "9-5"])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_rows_alone_get_their_bits_inside_one_long_call(
        self, rows, offset, trunk_dims, activation
    ):
        params = self.params(trunk_dims, activation)
        x = np.random.default_rng(3).normal(0.0, 2.0, (self.LONG, 5))
        y_long, s_long = predict_batch(params, x)
        y_hat, s = predict_batch(params, x[offset : offset + rows])
        assert y_hat.tobytes() == y_long[offset : offset + rows].tobytes()
        assert s.tobytes() == s_long[offset : offset + rows].tobytes()

    def test_a_too_wide_matrix_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="width 5"):
            predict_batch(self.params((4,), "tanh"), np.zeros((3, 6)))

    @staticmethod
    def traced_peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_traced_peak_beyond_the_outputs_does_not_grow_with_the_rows(self):
        """At N and 10 N rows (N = 3 blocks + 5, paper widths) the peak less
        the two output vectors differs by less than one block's workspace; a
        whole-batch pass would add 9 N rows of workspace (about 3.6 MiB)."""
        params = self.params((32,), "tanh", input_dim=16)
        block_bytes = self.traced_peak(Workspace, params, self.BLOCK)
        beyond = {}
        for rows in (3 * self.BLOCK + 5, 10 * (3 * self.BLOCK + 5)):
            x = np.random.default_rng(0).normal(size=(rows, 16))
            beyond[rows] = self.traced_peak(predict_batch, params, x) - 2 * rows * 8
        small, large = beyond.values()
        assert abs(large - small) < block_bytes, (beyond, block_bytes)

    def test_the_validation_loss_holds_no_full_length_workspace(self):
        """train()'s validation loss is the loss of predict_batch's outputs: a
        validation split 10x longer adds its outputs and loss vectors (well
        under 120 B a row), not a full-length workspace (about 540 B a row)."""
        data = gen_synthetic(GenConfig(num_systems=4, samples_per_system=50, feature_dim=16))
        arch = ArchConfig(input_dim=16, trunk_dims=(32,), head_hidden_dim=16, dropout_p=0.0)
        peaks = {}
        for per in (400, 4000):
            val = gen_synthetic(GenConfig(num_systems=4, samples_per_system=per, feature_dim=16,
                                          seed=1))
            peaks[len(val)] = self.traced_peak(train, data, arch, quick_cfg(epochs=1), val)
        assert peaks[16000] - peaks[1600] < 120 * 14400, peaks


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


@pytest.mark.bitwise
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


def _plain_step(arrays, arch, xb, yb, mask, loss):
    """One training step as it ran before steps shared a workspace, in plain
    numpy expressions: (per-sample losses, gradients in flat-vector order)
    for arrays = [W, b of each trunk layer..., W0, b0, W1, b1], shaped as in
    param_layout: a trunk layer as a stack of one."""
    depth = len(arch.trunk_dims)
    trunk_w = [w[0] for w in arrays[: 2 * depth : 2]]
    trunk_b = [b[0, 0] for b in arrays[1 : 2 * depth : 2]]
    w0, b0, w1, b1 = arrays[2 * depth :]
    if arch.activation == "tanh":
        act, act_grad = np.tanh, lambda post: 1.0 - post * post
    else:
        act, act_grad = (lambda z: np.maximum(z, 0.0)), (lambda post: post > 0.0)
    a, trunk_post = xb, []
    for w, b in zip(trunk_w, trunk_b):
        a = act(a @ w.T + b)
        trunk_post.append(a)
    h_in = np.broadcast_to(a, (2, *a.shape)) if mask is None else a * mask
    hidden = act(np.matmul(h_in, w0.transpose(0, 2, 1)) + b0)
    out = np.matmul(hidden, w1.transpose(0, 2, 1)) + b1
    y_hat, s_raw = out[0, :, 0], out[1, :, 0]
    s = np.minimum(np.maximum(s_raw, -S_CLAMP), S_CLAMP)
    resid = yb - y_hat
    if loss == "nll":
        inv_var = np.exp(-s)
        half_norm_sq = 0.5 * resid * resid * inv_var
        values, d_y_hat, d_s = 0.5 * s + half_norm_sq, -resid * inv_var, 0.5 - half_norm_sq
    else:
        values, d_y_hat, d_s = resid * resid, -2.0 * resid, np.zeros_like(resid)
    # The batch loss is a mean, so the upstream derivatives carry the 1/B.
    d_y_hat, d_s = d_y_hat / len(xb), d_s / len(xb)
    d_out = np.stack([d_y_hat, d_s * (np.abs(s_raw) < S_CLAMP)])[:, :, None]
    g_w1, g_b1 = np.matmul(d_out.transpose(0, 2, 1), hidden), d_out.sum(axis=1, keepdims=True)
    d_hidden = np.matmul(d_out, w1) * act_grad(hidden)
    g_w0 = np.matmul(d_hidden.transpose(0, 2, 1), h_in)
    g_b0 = d_hidden.sum(axis=1, keepdims=True)
    d_h = np.matmul(d_hidden, w0)
    if mask is not None:
        d_h = d_h * mask
    d_a = d_h[0] + d_h[1]
    g_trunk_w, g_trunk_b = [None] * depth, [None] * depth
    for l in range(depth - 1, -1, -1):
        d_z = d_a * act_grad(trunk_post[l])
        g_trunk_w[l] = d_z.T @ (trunk_post[l - 1] if l > 0 else xb)
        g_trunk_b[l] = d_z.sum(axis=0)
        if l > 0:
            d_a = d_z @ trunk_w[l]
    g_trunk = [g for w, b in zip(g_trunk_w, g_trunk_b) for g in (w[None], b[None, None])]
    return values, g_trunk + [g_w0, g_b0, g_w1, g_b1]


def _per_batch_mask_train(dataset, arch, cfg, val_dataset=None):
    """train() as it ran before masks were drawn in chunks and before steps
    shared a workspace: one rng.random((2, B, H)) draw per batch, a running
    float loss sum, the step in plain numpy (_plain_step) and the per-array
    optimizers above. It calls none of forward_batch, the losses,
    backward_batch or the trainer's optimizers."""
    x_all, y_all = dataset.features(), dataset.labels()
    n, p = len(dataset), arch.dropout_p
    arrays = [a.copy() for a in param_arrays(init_params(arch, cfg.seed))]
    optimizer_cls = _PerArrayAdam if cfg.optimizer == "adam" else _PerArraySGD
    optimizer = optimizer_cls(arrays, cfg.learning_rate)
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
            values, grads = _plain_step(arrays, arch, xb, yb, mask, cfg.loss)
            loss_sum += float(values.sum())
            optimizer.step(arrays, grads)
        train_curve.append(loss_sum / n)
        if val_dataset is not None:
            values, _ = _plain_step(
                arrays, arch, val_dataset.features(), val_dataset.labels(), None, cfg.loss
            )
            val_curve.append(float(values.mean()))
    val_loss = tuple(val_curve) if val_dataset is not None else None
    flat = np.concatenate([a.ravel() for a in arrays])
    return ModelParams(arch, flat, cfg.seed), TrainHistory(tuple(train_curve), val_loss)


@pytest.mark.bitwise
class TestChunkedMasks:
    """train() draws the dropout masks of many batches at once. Those are the
    same uniforms, in the same order, as one draw per batch, so training
    must match the per-batch loop bit for bit. That loop is also the oracle
    for the step itself: it shares no code with forward_batch, the losses,
    backward_batch or the optimizers."""

    # (n_per, trunk_dims, dropout_p, batch_size, optimizer, loss, val, chunk_units,
    # activation); a chunk_units of None keeps MASK_CHUNK_UNITS as it is.
    CASES = {
        "partial-last-batch": (25, (6, 4), 0.5, 7, "adam", "nll", True, 300, "tanh"),
        "three-chunks": (2600, (8,), 0.5, 8, "adam", "nll", False, None, "tanh"),
        "batch-wider-than-chunk": (25, (), 0.7, 16, "sgd", "mse", True, 50, "tanh"),
        "wide-batch-default-units": (550, (32,), 0.5, 1100, "adam", "mse", False, None, "tanh"),
        "p-zero": (25, (8,), 0.0, 5, "adam", "mse", True, 100, "tanh"),
        "batch-one": (25, (), 0.3, 1, "sgd", "nll", False, 20, "tanh"),
        "sgd-nll-val": (25, (6, 4), 0.5, 3, "sgd", "nll", True, 64, "tanh"),
        "adam-mse": (25, (8,), 0.3, 8, "adam", "mse", False, 200, "tanh"),
        "relu-partial-last-batch": (25, (6, 4), 0.5, 7, "adam", "nll", True, 300, "relu"),
        "relu-p-zero-no-trunk": (25, (), 0.0, 8, "sgd", "mse", True, None, "relu"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_per_batch_loop_bit_for_bit(self, case, monkeypatch, tmp_path):
        n_per, trunk_dims, p, batch, optimizer, loss, with_val, chunk_units, act = self.CASES[case]
        if chunk_units is not None:
            monkeypatch.setattr(trainer_module, "MASK_CHUNK_UNITS", chunk_units)
        units = trainer_module.MASK_CHUNK_UNITS
        dataset = small_dataset(n_per=n_per)
        arch = ArchConfig(
            input_dim=3, trunk_dims=trunk_dims, head_hidden_dim=5, dropout_p=p, activation=act
        )
        batch_units = 2 * arch.trunk_output_dim * batch
        chunk_rows = max(1, units // batch_units) * batch
        if case == "three-chunks":
            assert len(dataset) > 2 * chunk_rows
        if case.startswith(("batch-wider", "wide-batch")):
            assert batch_units > units
        if case.endswith("partial-last-batch"):
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


class TestStepWorkspaces:
    """Training steps share one Workspace per batch length; predict_batch,
    and so each validation pass, makes one PREDICT_BLOCK_ROWS workspace a call."""

    @staticmethod
    def count_workspaces(monkeypatch):
        made = []

        class Counting(Workspace):
            def __init__(self, params, rows):
                made.append(rows)
                super().__init__(params, rows)

        monkeypatch.setattr(net_module, "Workspace", Counting)
        monkeypatch.setattr(trainer_module, "Workspace", Counting)
        return made

    @pytest.mark.parametrize("batch", [7, 10])
    def test_one_train_call_builds_at_most_two_workspaces(self, monkeypatch, batch):
        made = self.count_workspaces(monkeypatch)
        dataset = small_dataset()
        train(dataset, small_arch(dropout_p=0.5), quick_cfg(epochs=3, batch_size=batch))
        short = len(dataset) % batch
        assert made == ([batch, short] if short else [batch])

    def test_each_validation_pass_makes_one_block_workspace(self, monkeypatch):
        made = self.count_workspaces(monkeypatch)
        dataset, val = small_dataset(), small_dataset(seed=9)
        train(dataset, small_arch(dropout_p=0.5), quick_cfg(epochs=3, batch_size=7), val)
        assert made == [7, len(dataset) % 7] + [trainer_module.PREDICT_BLOCK_ROWS] * 3

    def test_predictions_are_not_overwritten_by_later_calls(self):
        params = init_params(small_arch(), seed=0)
        data = np.random.default_rng(2)
        first = predict_batch(params, data.normal(size=(5, 3)))
        kept = [a.copy() for a in first]
        second = predict_batch(params, data.normal(size=(5, 3)))
        for got, want, later in zip(first, kept, second):
            assert got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, later)


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


class TestChunkGather:
    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_shuffled_rows_do_not_grow_with_the_row_count(self, p):
        """Each mask chunk's shuffled rows are gathered into one chunk-sized
        buffer, so doubling the rows adds only the epoch's permutation (8 B a
        row) to the traced peak, not a shuffled copy of the split (136 B a
        row). Batch 7 gives chunks of 4,095 rows: both row counts end in a
        short chunk and a short batch."""
        arch = ArchConfig(input_dim=16, trunk_dims=(8,), head_hidden_dim=4, dropout_p=p)
        chunk_rows = trainer_module.MASK_CHUNK_UNITS // (2 * arch.trunk_output_dim * 7) * 7
        peaks = {}
        for per in (500, 1000):
            data = gen_synthetic(GenConfig(num_systems=10, samples_per_system=per,
                                           feature_dim=16, seed=0))
            assert len(data) % chunk_rows and len(data) % 7
            tracemalloc.start()
            try:
                train(data, arch, TrainConfig(epochs=1, batch_size=7, seed=0))
                peaks[len(data)] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        copy_bytes = 5000 * (16 + 1) * 8
        assert peaks[10000] - peaks[5000] < 0.25 * copy_bytes, peaks
