"""End-to-end command-line behavior: flags, files, exit codes."""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mosuq
from mosuq.cli import build_parser, main
from mosuq.calibrate import CalibrationScale
from mosuq.datagen import DOMAIN_OOD, GenConfig, gen_synthetic, load_dataset_csv, save_dataset_csv
from mosuq.metrics import EvalRecord, compute_report
from mosuq.net import ArchConfig, init_params
from mosuq.trainer import TrainConfig, load_checkpoint, predict_batch, save_checkpoint, train

from conftest import concat_datasets, dataset_of, param_arrays


def strict_json(text):
    """json.loads that rejects the NaN and Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small generated-trained-calibrated pipeline shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    gen_flags = [
        "--num-systems", "5",
        "--samples-per-system", "100",
        "--feature-dim", "3",
        "--seed", "3",
    ]
    assert main([
        "gen-data", *gen_flags,
        "--out", str(root / "base.csv"),
        "--split", "0.6,0.2,0.2",
    ]) == 0
    assert main(["gen-data", *gen_flags, "--out", str(root / "pool_in.csv")]) == 0
    assert main([
        "gen-data", *gen_flags, "--shift", "3.0", "--out", str(root / "pool_ood.csv")
    ]) == 0
    assert main([
        "train",
        "--data", str(root / "base.train.csv"),
        "--val", str(root / "base.val.csv"),
        "--out", str(root / "ck.json"),
        "--history", str(root / "history.csv"),
        "--epochs", "5",
        "--trunk-dims", "8",
        "--head-hidden-dim", "8",
        "--dropout-p", "0.5",
        "--seed", "0",
    ]) == 0
    assert main([
        "calibrate",
        "--checkpoint", str(root / "ck.json"),
        "--data", str(root / "base.val.csv"),
        "--out", str(root / "cal.json"),
    ]) == 0
    return root


class TestGenData:
    def test_same_seed_writes_identical_files(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            code = main([
                "gen-data", "--preset", "heteroscedastic", "--seed", "7",
                "--num-systems", "3", "--samples-per-system", "20",
                "--feature-dim", "3", "--out", str(tmp_path / name),
            ])
            assert code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_missing_out_is_a_usage_error(self, capsys):
        assert main(["gen-data", "--seed", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_split_writes_three_files_with_exact_proportions(self, workspace):
        sizes = {}
        for part in ("train", "val", "test"):
            sizes[part] = len(load_dataset_csv(workspace / f"base.{part}.csv"))
        assert sizes == {"train": 300, "val": 100, "test": 100}

    def test_bad_split_rejected(self, tmp_path):
        code = main([
            "gen-data", "--num-systems", "2", "--samples-per-system", "10",
            "--feature-dim", "2", "--out", str(tmp_path / "x.csv"),
            "--split", "0.5,0.5",
        ])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--shift", "nan"],
        ["--feature-noise", "inf"],
        ["--split", "0.5,nan,0.5"],
    ])
    def test_non_finite_numbers_are_a_usage_error(self, tmp_path, capsys, flags):
        """Rejected up front, so no artifact or config record gets a NaN."""
        code = main([
            "gen-data", "--num-systems", "2", "--samples-per-system", "10",
            "--feature-dim", "2", "--out", str(tmp_path / "x.csv"), *flags,
        ])
        assert code == 2
        assert "must" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_noise_preset_rejected(self, tmp_path, capsys):
        code = main([
            "gen-data", "--preset", "cauchy", "--out", str(tmp_path / "x.csv")
        ])
        capsys.readouterr()
        assert code == 2

    def test_rater_panel_oracle_column(self, tmp_path):
        out = tmp_path / "panel.csv"
        assert main([
            "gen-data", "--preset", "rater-panel", "--raters", "4",
            "--rater-sd", "0.8", "--num-systems", "2", "--samples-per-system", "10",
            "--feature-dim", "2", "--out", str(out),
        ]) == 0
        dataset = load_dataset_csv(out)
        assert all(s.true_noise_var == 0.8**2 / 4 for s in dataset)

    def test_shift_marks_every_sample_ood(self, workspace):
        dataset = load_dataset_csv(workspace / "pool_ood.csv")
        assert all(s.domain_tag == "ood" for s in dataset)

    def test_feature_noise_leaves_labels_alone(self, tmp_path):
        flags = [
            "--num-systems", "2", "--samples-per-system", "15",
            "--feature-dim", "3", "--seed", "5",
        ]
        clean = tmp_path / "clean.csv"
        noisy = tmp_path / "noisy.csv"
        assert main(["gen-data", *flags, "--out", str(clean)]) == 0
        assert main(["gen-data", *flags, "--feature-noise", "0.5", "--out", str(noisy)]) == 0
        a, b = load_dataset_csv(clean), load_dataset_csv(noisy)
        assert np.array_equal(a.labels(), b.labels())
        assert not np.array_equal(a.features(), b.features())
        assert all(s.domain_tag == "ood" for s in b)

    def test_defaults_are_the_library_defaults(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path / "cli.csv")]) == 0
        save_dataset_csv(gen_synthetic(GenConfig()), tmp_path / "lib.csv")
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()

    def test_resolved_config_is_recorded(self, workspace):
        doc = json.loads((workspace / "gen-data-config.json").read_text())
        assert doc["command"] == "gen-data"
        assert doc["num_systems"] == 5
        assert doc["seed"] == 3


class TestConfigFile:
    def run_gen(self, tmp_path, config=None, extra=()):
        argv = ["gen-data", "--out", str(tmp_path / "d.csv"),
                "--samples-per-system", "5", "--feature-dim", "2"]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        argv += list(extra)
        return main(argv)

    def test_config_file_supplies_settings(self, tmp_path):
        assert self.run_gen(tmp_path, config={"num_systems": 5}) == 0
        dataset = load_dataset_csv(tmp_path / "d.csv")
        assert len({s.system_id for s in dataset}) == 5

    def test_flags_override_the_config_file(self, tmp_path):
        code = self.run_gen(
            tmp_path, config={"num_systems": 5}, extra=("--num-systems", "3")
        )
        assert code == 0
        dataset = load_dataset_csv(tmp_path / "d.csv")
        assert len({s.system_id for s in dataset}) == 3
        recorded = json.loads((tmp_path / "gen-data-config.json").read_text())
        assert recorded["num_systems"] == 3

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        assert self.run_gen(tmp_path, config={"page_size": "a4"}) == 2
        assert "unknown settings" in capsys.readouterr().err

    def test_malformed_config_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        code = main([
            "gen-data", "--out", str(tmp_path / "d.csv"), "--config", str(path)
        ])
        assert code == 2


class TestTrain:
    def test_defaults_mirror_the_reference_settings(self, workspace):
        doc = json.loads((workspace / "train-config.json").read_text())
        assert doc["batch_size"] == 8
        assert doc["learning_rate"] == 3e-4
        assert doc["optimizer"] == "adam"

    def test_defaults_are_the_library_defaults(self, workspace, tmp_path):
        data = workspace / "base.train.csv"
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "cli.json")]) == 0
        dataset = load_dataset_csv(data)
        params, _ = train(dataset, ArchConfig(input_dim=dataset.feature_dim), TrainConfig())
        save_checkpoint(params, tmp_path / "lib.json")
        assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "lib.json").read_bytes()

    def test_history_csv_written(self, workspace):
        lines = (workspace / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 1 + 5

    def test_mse_loss_trains(self, workspace, tmp_path):
        code = main([
            "train", "--data", str(workspace / "base.train.csv"),
            "--out", str(tmp_path / "mse.json"), "--loss", "mse",
            "--epochs", "1", "--trunk-dims", "8", "--head-hidden-dim", "8",
        ])
        assert code == 0
        assert (tmp_path / "mse.json").exists()

    def test_nonexistent_data_path(self, tmp_path, capsys):
        code = main([
            "train", "--data", str(tmp_path / "missing.csv"),
            "--out", str(tmp_path / "ck.json"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_reruns_reproduce_the_checkpoint(self, workspace, tmp_path):
        argv = [
            "train", "--data", str(workspace / "base.train.csv"),
            "--epochs", "2", "--trunk-dims", "8", "--head-hidden-dim", "8",
            "--seed", "4",
        ]
        assert main(argv + ["--out", str(tmp_path / "one.json")]) == 0
        assert main(argv + ["--out", str(tmp_path / "two.json")]) == 0
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    def test_preset_values_and_flag_precedence(self, workspace, tmp_path):
        code = main([
            "train", "--data", str(workspace / "base.train.csv"),
            "--out", str(tmp_path / "p.json"), "--preset", "paper",
            "--epochs", "1", "--trunk-dims", "8", "--head-hidden-dim", "8",
            "--dropout-p", "0.0",
        ])
        assert code == 0
        doc = json.loads((tmp_path / "train-config.json").read_text())
        assert doc["batch_size"] == 8  # from the preset
        assert doc["dropout_p"] == 0.0  # explicit flag wins

    def test_non_finite_val_label_is_an_input_error(self, workspace, tmp_path, capsys):
        """A nan label in the validation CSV exits 2 before training, rather
        than 1 for a divergence after an epoch, and writes no checkpoint."""
        lines = (workspace / "base.val.csv").read_text().splitlines(keepends=True)
        header = lines[0].rstrip("\n").split(",")
        cells = lines[1].split(",")
        cells[header.index("y")] = "nan"
        lines[1] = ",".join(cells)
        (tmp_path / "val.csv").write_text("".join(lines))
        code = main([
            "train", "--data", str(workspace / "base.train.csv"),
            "--val", str(tmp_path / "val.csv"), "--out", str(tmp_path / "ck.json"),
            "--epochs", "1", "--trunk-dims", "8", "--head-hidden-dim", "8",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "validation labels" in err
        assert not (tmp_path / "ck.json").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergent_run_exits_1(self, workspace, tmp_path, capsys):
        code = main([
            "train", "--data", str(workspace / "base.train.csv"),
            "--out", str(tmp_path / "ck.json"), "--optimizer", "sgd",
            "--lr", "1e12", "--epochs", "2",
        ])
        capsys.readouterr()
        assert code == 1


class TestCalibrate:
    def test_output_differs_only_in_calibration_r(self, workspace):
        before = json.loads((workspace / "ck.json").read_text())
        after = json.loads((workspace / "cal.json").read_text())
        assert "calibration_r" not in before
        r = after.pop("calibration_r")
        assert r > 0
        assert after == before

    def test_recalibrating_on_the_same_data_is_a_fixed_point(self, workspace, tmp_path):
        out = tmp_path / "cal2.json"
        assert main([
            "calibrate", "--checkpoint", str(workspace / "cal.json"),
            "--data", str(workspace / "base.val.csv"), "--out", str(out),
        ]) == 0
        r1 = json.loads((workspace / "cal.json").read_text())["calibration_r"]
        r2 = json.loads(out.read_text())["calibration_r"]
        assert r2 / r1 == pytest.approx(1.0, abs=1e-9)

    def test_structurally_invalid_checkpoint(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1, "arch": {}}')
        code = main([
            "calibrate", "--checkpoint", str(bad),
            "--data", str(workspace / "base.val.csv"),
            "--out", str(tmp_path / "out.json"),
        ])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("key, value", [("rng_seed_used", "abc"), ("calibration_r", "x")])
    def test_malformed_checkpoint_field_exits_2(self, workspace, tmp_path, capsys, key, value):
        doc = json.loads((workspace / "cal.json").read_text())
        doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        code = main([
            "evaluate", "--checkpoint", str(bad),
            "--data", str(workspace / "base.test.csv"), "--report", str(report),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert key in err and "Traceback" not in err
        assert not report.exists()


    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_non_number_weight_element_exits_2(self, workspace, tmp_path, capsys, value):
        doc = json.loads((workspace / "cal.json").read_text())
        doc["biases"]["trunk"][0][0] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        code = main([
            "evaluate", "--checkpoint", str(bad),
            "--data", str(workspace / "base.test.csv"), "--report", str(report),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert str(bad) in err and "biases.trunk" in err and "Traceback" not in err
        assert not report.exists()


class TestEvaluate:
    def run_eval(self, workspace, report, extra=()):
        return main([
            "evaluate", "--checkpoint", str(workspace / "cal.json"),
            "--data", str(workspace / "base.test.csv"),
            "--report", str(report), *extra,
        ])

    def test_report_schema_with_null_auc(self, workspace, tmp_path):
        report = tmp_path / "report.json"
        assert self.run_eval(workspace, report) == 0
        doc = json.loads(report.read_text())
        assert sorted(doc) == ["auc", "mse", "nll", "sharpness", "srcc_system", "uce"]
        assert doc["auc"] is None
        assert all(isinstance(doc[k], float) for k in doc if k != "auc")

    def test_report_is_strict_json(self, workspace, tmp_path):
        report = tmp_path / "report.json"
        assert self.run_eval(workspace, report, ["--mc", "5", "0.5", "1"]) == 0
        doc = strict_json(report.read_text())
        assert all(isinstance(doc[k], float) for k in doc if k != "auc")

    def test_tied_system_means_give_a_null_srcc(self, tmp_path):
        """A zeroed network predicts the same score for every system, so the
        system rank correlation is undefined and is written as null."""
        arch = ArchConfig(input_dim=2, trunk_dims=(4,), head_hidden_dim=4)
        params = init_params(arch, seed=0)
        for a in param_arrays(params):
            a[:] = 0.0
        ck = tmp_path / "zero.json"
        save_checkpoint(params, ck)
        x = np.random.default_rng(1).normal(size=(6, 2))
        data = tmp_path / "tied.csv"
        save_dataset_csv(
            dataset_of([f"r{i}" for i in range(6)], [f"sys{i % 2}" for i in range(6)], x, range(6)),
            data,
        )
        report = tmp_path / "report.json"
        code = main([
            "evaluate", "--checkpoint", str(ck), "--data", str(data), "--report", str(report),
        ])
        assert code == 0
        doc = strict_json(report.read_text())
        assert doc["srcc_system"] is None
        assert doc["mse"] == float(np.mean(np.arange(6.0) ** 2))

    def test_auc_populated_on_a_mixed_domain_pool(self, workspace, tmp_path):
        pool = concat_datasets(
            load_dataset_csv(workspace / "pool_in.csv"),
            load_dataset_csv(workspace / "pool_ood.csv"),
        )
        pool_path = tmp_path / "pool.csv"
        save_dataset_csv(pool, pool_path)
        report = tmp_path / "report.json"
        code = main([
            "evaluate", "--checkpoint", str(workspace / "cal.json"),
            "--data", str(pool_path), "--report", str(report),
            "--mc", "10", "0.5", "0", "--uncertainty", "epi-dist",
        ])
        assert code == 0
        auc = json.loads(report.read_text())["auc"]
        assert 0.0 <= auc <= 1.0

    def test_report_equals_compute_report_over_records(self, workspace, tmp_path):
        """report.json is byte-identical to compute_report over EvalRecord
        rows built one per sample, with and without OOD rows in the data."""
        pool = tmp_path / "pool.csv"
        save_dataset_csv(concat_datasets(
            load_dataset_csv(workspace / "base.test.csv"),
            load_dataset_csv(workspace / "pool_ood.csv"),
        ), pool)
        params, r = load_checkpoint(workspace / "cal.json")
        for data in (workspace / "base.test.csv", pool):
            report = tmp_path / "report.json"
            assert main([
                "evaluate", "--checkpoint", str(workspace / "cal.json"),
                "--data", str(data), "--report", str(report),
            ]) == 0
            dataset = load_dataset_csv(data)
            y_pred, s = predict_batch(params, dataset.features())
            var_pred = np.exp(CalibrationScale.from_r(r).shift_log_variance(s))
            columns = (
                dataset.ids.tolist(), dataset.system_ids.tolist(), dataset.labels().tolist(),
                y_pred.tolist(), var_pred.tolist(),
                (dataset.domain_tags == DOMAIN_OOD).astype(int).tolist(),
            )
            records = [EvalRecord(*row) for row in zip(*columns)]
            assert report.read_text() == compute_report(records).to_json()
            assert (json.loads(report.read_text())["auc"] is None) == (data != pool)

    def test_mc_out_rows_of_a_short_file_are_those_of_a_long_one(self, tmp_path):
        """A row's --mc-out line, y_det included, does not depend on how many rows
        its file holds: the first 7 rows of a 1,050-row file (three systems of 3
        rows each, so the short file has a system correlation), evaluated alone,
        give the same bytes as inside the whole file (over four predict_batch
        blocks), at the paper widths."""
        ck, long_csv, short_csv = (tmp_path / name for name in ("ck.json", "long.csv", "short.csv"))
        save_checkpoint(init_params(ArchConfig(input_dim=2, trunk_dims=(16,)), seed=0), ck)
        assert main([
            "gen-data", "--num-systems", "350", "--samples-per-system", "3",
            "--feature-dim", "2", "--seed", "11", "--out", str(long_csv),
        ]) == 0
        lines = long_csv.read_bytes().splitlines(keepends=True)
        assert len(lines) == 1 + 1050
        short_csv.write_bytes(b"".join(lines[:8]))
        out = {}
        for data in (long_csv, short_csv):
            out[data] = tmp_path / f"{data.stem}.mc.csv"
            assert main([
                "evaluate", "--checkpoint", str(ck), "--data", str(data),
                "--report", str(tmp_path / f"{data.stem}.json"), "--mc", "5", "0.5", "0",
                "--mc-out", str(out[data]),
            ]) == 0
        long_rows, short_rows = (out[data].read_bytes().splitlines() for data in out)
        assert len(short_rows) == 1 + 7
        assert short_rows == long_rows[:8]

    def test_epistemic_uncertainty_requires_mc(self, workspace, tmp_path, capsys):
        code = self.run_eval(
            workspace, tmp_path / "r.json", extra=("--uncertainty", "epi-dist")
        )
        assert code == 2
        assert "--mc" in capsys.readouterr().err

    def test_mc_mean_point_requires_mc(self, workspace, tmp_path, capsys):
        code = self.run_eval(
            workspace, tmp_path / "r.json", extra=("--point", "mc-mean")
        )
        capsys.readouterr()
        assert code == 2

    def test_uncertainty_routing_changes_sharpness(self, workspace, tmp_path):
        values = {}
        for kind in ("aleatoric", "epi-pred"):
            report = tmp_path / f"{kind}.json"
            assert self.run_eval(
                workspace, report,
                extra=("--mc", "10", "0.5", "0", "--uncertainty", kind),
            ) == 0
            values[kind] = json.loads(report.read_text())["sharpness"]
        assert values["aleatoric"] != values["epi-pred"]

    def test_reruns_are_byte_identical(self, workspace, tmp_path):
        extra = ("--mc", "10", "0.5", "0")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert self.run_eval(workspace, a, extra=extra) == 0
        assert self.run_eval(workspace, b, extra=extra) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_curve_and_sweep_files(self, workspace, tmp_path):
        report = tmp_path / "r.json"
        curve = tmp_path / "curve.csv"
        sweep = tmp_path / "sweep.csv"
        code = self.run_eval(
            workspace, report,
            extra=(
                "--curve", str(curve), "--sweep", str(sweep),
                "--sweep-points", "8", "--bins", "5",
            ),
        )
        assert code == 0
        curve_lines = curve.read_text().splitlines()
        assert curve_lines[0] == "mean_uncert,mean_sq_err"
        assert len(curve_lines) == 1 + 5
        sweep_lines = sweep.read_text().splitlines()
        assert sweep_lines[0] == "threshold,retained_fraction,subset_mse"
        assert len(sweep_lines) == 1 + 8
        assert sweep_lines[-1].split(",")[1] == "1.0"

    def test_oracle_checkpoint_reports_zero_uce(self, tmp_path):
        """A zeroed network answers N(0, 1); labels of exactly +/-1 make
        every squared residual equal the predicted variance, so UCE must be
        identically zero and the curve must sit on the diagonal."""
        arch = ArchConfig(input_dim=2, trunk_dims=(4,), head_hidden_dim=4)
        params = init_params(arch, seed=0)
        for a in param_arrays(params):
            a[:] = 0.0
        ck = tmp_path / "zero.json"
        save_checkpoint(params, ck)
        x = np.random.default_rng(0).normal(size=(24, 2))
        data = tmp_path / "oracle.csv"
        save_dataset_csv(
            dataset_of(
                [f"r{i}" for i in range(24)], [f"sys{i % 3}" for i in range(24)], x,
                [1.0 if i % 2 == 0 else -1.0 for i in range(24)],
            ),
            data,
        )
        report = tmp_path / "report.json"
        curve = tmp_path / "curve.csv"
        code = main([
            "evaluate", "--checkpoint", str(ck), "--data", str(data),
            "--report", str(report), "--curve", str(curve), "--bins", "4",
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["uce"] == 0.0
        assert doc["mse"] == 1.0
        for line in curve.read_text().splitlines()[1:]:
            mean_uncert, mean_sq_err = line.split(",")
            assert float(mean_uncert) == 1.0
            assert float(mean_sq_err) == 1.0


class TestOodDetect:
    def test_identical_pools_score_near_half(self, workspace, tmp_path):
        report = tmp_path / "report.json"
        code = main([
            "ood-detect", "--checkpoint", str(workspace / "cal.json"),
            "--in-data", str(workspace / "pool_in.csv"),
            "--ood-data", str(workspace / "pool_in.csv"),
            "--report", str(report), "--mc", "15", "0.5", "0",
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["num_in_domain"] == 500
        assert doc["num_ood"] == 500
        assert abs(doc["auc"] - 0.5) <= 0.05

    def test_scores_csv_lists_every_sample(self, workspace, tmp_path):
        report = tmp_path / "report.json"
        scores = tmp_path / "scores.csv"
        code = main([
            "ood-detect", "--checkpoint", str(workspace / "cal.json"),
            "--in-data", str(workspace / "base.test.csv"),
            "--ood-data", str(workspace / "pool_ood.csv"),
            "--report", str(report), "--scores", str(scores),
            "--mc", "5", "0.5", "0",
        ])
        assert code == 0
        lines = scores.read_text().splitlines()
        assert lines[0] == "id,domain_label,score"
        assert len(lines) == 1 + 100 + 500
        labels = [line.split(",")[1] for line in lines[1:]]
        assert labels == ["0"] * 100 + ["1"] * 500

    def test_mismatched_feature_widths_rejected(self, workspace, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        assert main([
            "gen-data", "--num-systems", "2", "--samples-per-system", "10",
            "--feature-dim", "4", "--out", str(wide),
        ]) == 0
        code = main([
            "ood-detect", "--checkpoint", str(workspace / "cal.json"),
            "--in-data", str(workspace / "base.test.csv"),
            "--ood-data", str(wide),
            "--report", str(tmp_path / "r.json"), "--mc", "5", "0.5", "0",
        ])
        capsys.readouterr()
        assert code == 2


def test_cli_import_leaves_scipy_unloaded():
    """The CLI runs on numpy alone: a fresh interpreter importing it loads no scipy."""
    src = str(Path(mosuq.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import mosuq.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestExitCodes:
    def test_no_command_is_a_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("fault", ["undecodable", "long-field"])
    def test_an_unreadable_data_file_exits_2_naming_it(self, workspace, tmp_path, capsys, fault):
        text = (workspace / "base.test.csv").read_bytes()
        data = tmp_path / "bad.csv"
        if fault == "undecodable":
            data.write_bytes(text.replace(b"sys000-", b"sys\xe9-", 1))
        else:
            data.write_bytes(text.replace(b"sys000-", b"s" * (csv.field_size_limit() + 1), 1)
                             + b"x,sys000,bad_tag,3.0,0.1,0.5,0.5,0.5\n")
        report = tmp_path / "report.json"
        code = main([
            "evaluate", "--checkpoint", str(workspace / "cal.json"),
            "--data", str(data), "--report", str(report),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{data}: unreadable as CSV text" in err
        assert "Traceback" not in err
        assert not report.exists()

    def test_an_impossible_mc_pass_count_exits_2_naming_it(self, workspace, tmp_path):
        """--mc 100000000000 needs terabytes. The command runs under a 2 GiB
        address-space limit, so any attempt to allocate that would fail with
        numpy's MemoryError (exit 1, checked first); the setting is refused before."""
        resource = pytest.importorskip("resource")
        limit = 2 * 1024**3

        def capped(*argv):
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                p for p in (str(Path(mosuq.__file__).parent.parent), os.environ.get("PYTHONPATH"))
                if p))
            return subprocess.run(
                [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            )

        probe = capped("-c", "import numpy; numpy.empty(2**31)")
        assert probe.returncode == 1 and "MemoryError" in probe.stderr, probe.stderr
        report = tmp_path / "report.json"
        proc = capped("-m", "mosuq", "evaluate", "--checkpoint", str(workspace / "cal.json"),
                      "--data", str(workspace / "base.test.csv"), "--report", str(report),
                      "--mc", "100000000000", "0.5", "0")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: num_passes 100000000000 needs more memory")
        assert not report.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_metric_exits_1_naming_it(self, workspace, tmp_path, capsys):
        """A score-head bias of 1e200 makes the mse overflow to inf, which has
        no JSON form: the run fails with an error line and writes no report."""
        params, _ = load_checkpoint(workspace / "cal.json")
        param_arrays(params)[-1][0] = 1e200  # the score head's output bias
        checkpoint = tmp_path / "huge.json"
        save_checkpoint(params, checkpoint)
        report = tmp_path / "report.json"
        code = main([
            "evaluate", "--checkpoint", str(checkpoint),
            "--data", str(workspace / "base.test.csv"), "--report", str(report),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: metric mse is not finite")
        assert not report.exists()


def subcommand_options(command):
    """(option strings, dest) of every option a subcommand accepts."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(tuple(a.option_strings), a.dest) for a in sub.choices[command]._actions]


class TestFlagSurface:
    """The options, their spelling and the setting each one fills are part of
    the interface: recorded configs and scripts depend on them."""

    HELP = (("-h", "--help"), "help")
    CONFIG = (("--config",), "config")
    PRESET = (("--preset",), "preset")

    def expected(self, *options):
        return [self.HELP] + [((f,), f[2:].replace("-", "_")) for f in options]

    def test_gen_data(self):
        expected = self.expected(
            "--out", "--seed", "--num-systems", "--samples-per-system", "--feature-dim",
            "--preset", "--sigma", "--raters", "--rater-sd", "--shift", "--feature-noise",
            "--feature-noise-seed",
        ) + [
            (("--clip-labels", "--no-clip-labels"), "clip_labels"),
            (("--split",), "split"),
            self.CONFIG,
        ]
        assert subcommand_options("gen-data") == expected

    def test_train(self):
        expected = self.expected("--data", "--val", "--out", "--history", "--epochs",
                                 "--batch-size")
        expected += [(("--lr",), "learning_rate")]
        expected += self.expected(
            "--loss", "--optimizer", "--seed", "--trunk-dims", "--head-hidden-dim",
            "--dropout-p", "--activation",
        )[1:]
        assert subcommand_options("train") == expected + [self.CONFIG, self.PRESET]

    def test_calibrate(self):
        expected = self.expected("--checkpoint", "--data", "--out") + [self.CONFIG]
        assert subcommand_options("calibrate") == expected

    def test_evaluate(self):
        expected = self.expected(
            "--checkpoint", "--data", "--report", "--mc", "--uncertainty", "--point", "--bins",
        ) + [(("--nll-const", "--no-nll-const"), "nll_const")]
        expected += self.expected("--curve", "--sweep", "--sweep-points", "--mc-out")[1:]
        assert subcommand_options("evaluate") == expected + [self.CONFIG, self.PRESET]

    def test_ood_detect(self):
        expected = self.expected(
            "--checkpoint", "--in-data", "--ood-data", "--report", "--scores", "--mc",
            "--uncertainty",
        )
        assert subcommand_options("ood-detect") == expected + [self.CONFIG, self.PRESET]

    def test_choices_and_presets(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        choices = {
            (name, a.dest): tuple(a.choices)
            for name, p in sub.choices.items() for a in p._actions if a.choices
        }
        assert choices == {
            ("gen-data", "preset"): ("heteroscedastic", "homoscedastic", "rater-panel"),
            ("train", "loss"): ("nll", "mse"),
            ("train", "optimizer"): ("adam", "sgd"),
            ("train", "activation"): ("tanh", "relu"),
            ("train", "preset"): ("paper",),
            ("evaluate", "uncertainty"): ("aleatoric", "epi-pred", "epi-dist"),
            ("evaluate", "point"): ("det", "mc-mean"),
            ("evaluate", "preset"): ("paper",),
            ("ood-detect", "uncertainty"): ("aleatoric", "epi-pred", "epi-dist"),
            ("ood-detect", "preset"): ("paper",),
        }


def write_config(path, text):
    path.write_text(text)
    return str(path)


class TestRecordedConfigRoundTrip:
    """A run's recorded `<command>-config.json` passed back with --config, with
    only the output paths overridden, reproduces the primary outputs byte for
    byte and records the same settings."""

    def rerun(self, command, first, second, outputs, extra=()):
        recorded = first / f"{command}-config.json"
        flags = []
        for key, name in outputs.items():
            flags += [f"--{key.replace('_', '-')}", str(second / name)]
        assert main([command, "--config", str(recorded), *flags, *extra]) == 0
        for name in outputs.values():
            assert (second / name).read_bytes() == (first / name).read_bytes(), name
        before = json.loads(recorded.read_text())
        after = json.loads((second / f"{command}-config.json").read_text())
        for key in outputs:
            assert after.pop(key) != before.pop(key)
        assert after == before

    @pytest.fixture
    def dirs(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        return first, second

    def test_gen_data(self, dirs):
        first, second = dirs
        assert main([
            "gen-data", "--out", str(first / "d.csv"), "--seed", "5",
            "--num-systems", "3", "--samples-per-system", "10", "--feature-dim", "2",
            "--preset", "rater-panel", "--raters", "3", "--feature-noise", "0.3",
            "--feature-noise-seed", "2", "--clip-labels", "--split", "0.6,0.2,0.2",
        ]) == 0
        doc = json.loads((first / "gen-data-config.json").read_text())
        assert doc["command"] == "gen-data"
        assert doc["split"] == [0.6, 0.2, 0.2]
        assert doc["feature_noise_seed"] == 2
        recorded = first / "gen-data-config.json"
        assert main(["gen-data", "--config", str(recorded), "--out", str(second / "d.csv")]) == 0
        for part in ("train", "val", "test"):
            name = f"d.{part}.csv"
            assert (second / name).read_bytes() == (first / name).read_bytes()
        after = json.loads((second / "gen-data-config.json").read_text())
        assert after.pop("out") == str(second / "d.csv")
        doc.pop("out")
        assert after == doc

    def test_train(self, workspace, dirs):
        first, second = dirs
        assert main([
            "train", "--data", str(workspace / "base.train.csv"),
            "--val", str(workspace / "base.val.csv"), "--out", str(first / "ck.json"),
            "--history", str(first / "history.csv"), "--epochs", "2",
            "--trunk-dims", "8,4", "--head-hidden-dim", "4", "--lr", "0.001", "--seed", "3",
        ]) == 0
        doc = json.loads((first / "train-config.json").read_text())
        assert doc["trunk_dims"] == [8, 4]
        assert doc["learning_rate"] == 0.001
        self.rerun("train", first, second, {"out": "ck.json", "history": "history.csv"})

    def test_calibrate(self, workspace, dirs):
        first, second = dirs
        assert main([
            "calibrate", "--checkpoint", str(workspace / "ck.json"),
            "--data", str(workspace / "base.val.csv"), "--out", str(first / "cal.json"),
        ]) == 0
        self.rerun("calibrate", first, second, {"out": "cal.json"})

    def test_evaluate(self, workspace, dirs):
        first, second = dirs
        assert main([
            "evaluate", "--checkpoint", str(workspace / "cal.json"),
            "--data", str(workspace / "base.test.csv"), "--report", str(first / "r.json"),
            "--mc", "6", "0.4", "2", "--uncertainty", "epi-pred", "--point", "mc-mean",
            "--bins", "4", "--no-nll-const", "--curve", str(first / "curve.csv"),
            "--sweep", str(first / "sweep.csv"), "--sweep-points", "5",
            "--mc-out", str(first / "mc.csv"),
        ]) == 0
        doc = json.loads((first / "evaluate-config.json").read_text())
        assert doc["mc"] == [6, 0.4, 2]
        assert doc["nll_const"] is False
        outputs = {"report": "r.json", "curve": "curve.csv", "sweep": "sweep.csv",
                   "mc_out": "mc.csv"}
        self.rerun("evaluate", first, second, outputs)

    def test_ood_detect(self, workspace, dirs):
        first, second = dirs
        assert main([
            "ood-detect", "--checkpoint", str(workspace / "cal.json"),
            "--in-data", str(workspace / "base.test.csv"),
            "--ood-data", str(workspace / "pool_ood.csv"),
            "--report", str(first / "ood.json"), "--scores", str(first / "scores.csv"),
            "--mc", "4", "0.5", "1", "--uncertainty", "epi-pred",
        ]) == 0
        self.rerun("ood-detect", first, second, {"report": "ood.json", "scores": "scores.csv"})

    def test_preset_values_are_recorded(self, workspace, dirs):
        first, second = dirs
        assert main([
            "ood-detect", "--preset", "paper", "--checkpoint", str(workspace / "cal.json"),
            "--in-data", str(workspace / "base.test.csv"),
            "--ood-data", str(workspace / "pool_ood.csv"), "--report", str(first / "ood.json"),
        ]) == 0
        assert json.loads((first / "ood-detect-config.json").read_text())["mc"] == [25, 0.5, 0]
        self.rerun("ood-detect", first, second, {"report": "ood.json"})

    def test_config_recorded_for_another_command_is_rejected(self, workspace, tmp_path, capsys):
        code = main([
            "calibrate", "--config", str(workspace / "train-config.json"),
            "--out", str(tmp_path / "cal.json"),
        ])
        assert code == 2
        assert "recorded for command 'train'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_matching_command_entry_is_accepted(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", '{"command": "gen-data", "num_systems": 2}')
        assert main([
            "gen-data", "--config", config, "--out", str(tmp_path / "d.csv"),
            "--samples-per-system", "3", "--feature-dim", "2",
        ]) == 0
        assert len({s.system_id for s in load_dataset_csv(tmp_path / "d.csv")}) == 2


class TestFailBeforeWork:
    """A bad setting from any layer exits 2 with an error line, before any
    output file is written."""

    def assert_usage_error(self, argv, out_dir, capsys, config_name="cfg.json"):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
        assert sorted(p.name for p in out_dir.iterdir()) in ([], [config_name])

    def gen_argv(self, tmp_path, *extra):
        return [
            "gen-data", "--out", str(tmp_path / "d.csv"), "--num-systems", "2",
            "--samples-per-system", "5", "--feature-dim", "2", *extra,
        ]

    def test_negative_feature_noise_seed_flag(self, tmp_path, capsys):
        argv = self.gen_argv(tmp_path, "--feature-noise", "0.5", "--feature-noise-seed", "-1")
        self.assert_usage_error(argv, tmp_path, capsys)

    def test_non_integer_feature_noise_seed_in_config(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "cfg.json", '{"feature_noise": 0.5, "feature_noise_seed": "abc"}'
        )
        self.assert_usage_error(self.gen_argv(tmp_path, "--config", config), tmp_path, capsys)

    def test_nan_in_an_unused_setting(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", '{"sigma": NaN}')
        self.assert_usage_error(self.gen_argv(tmp_path, "--config", config), tmp_path, capsys)

    def test_integer_beyond_the_float_range_in_a_number_setting(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", '{"sigma": 1' + "0" * 400 + "}")
        self.assert_usage_error(self.gen_argv(tmp_path, "--config", config), tmp_path, capsys)

    @pytest.mark.parametrize("flag", ["--shift", "--feature-noise"])
    def test_negative_shift_or_noise_flag(self, tmp_path, capsys, flag):
        self.assert_usage_error(self.gen_argv(tmp_path, flag, "-1"), tmp_path, capsys)

    @pytest.mark.parametrize("key", ["shift", "feature_noise"])
    def test_negative_shift_or_noise_in_config(self, tmp_path, capsys, key):
        config = write_config(tmp_path / "cfg.json", f'{{"{key}": -0.5}}')
        self.assert_usage_error(self.gen_argv(tmp_path, "--config", config), tmp_path, capsys)

    @pytest.mark.parametrize("text", [
        '{"history": 5}',
        '{"epochs": 2.9}',
        '{"trunk_dims": [8.7]}',
        '{"epochs": true}',
        '{"seed": null}',
        '{"loss": "huber"}',
        '{"val": ""}',
    ])
    def test_bad_train_config_values(self, workspace, tmp_path, capsys, text):
        config = write_config(tmp_path / "cfg.json", text)
        argv = [
            "train", "--data", str(workspace / "base.train.csv"), "--config", config,
            "--out", str(tmp_path / "ck.json"), "--epochs", "1",
        ]
        if "epochs" in text:
            argv = argv[:-2]
        self.assert_usage_error(argv, tmp_path, capsys)

    def test_integral_json_numbers_are_accepted(self, workspace, tmp_path):
        config = write_config(tmp_path / "cfg.json", '{"epochs": 1.0, "trunk_dims": [4.0]}')
        assert main([
            "train", "--data", str(workspace / "base.train.csv"), "--config", config,
            "--out", str(tmp_path / "ck.json"), "--head-hidden-dim", "4",
        ]) == 0
        doc = json.loads((tmp_path / "train-config.json").read_text())
        assert doc["epochs"] == 1
        assert doc["trunk_dims"] == [4]

    def test_sweep_points_checked_before_the_report(self, workspace, tmp_path, capsys):
        argv = [
            "evaluate", "--checkpoint", str(workspace / "cal.json"),
            "--data", str(workspace / "base.test.csv"), "--report", str(tmp_path / "r.json"),
            "--sweep", str(tmp_path / "sweep.csv"), "--sweep-points", "0",
        ]
        self.assert_usage_error(argv, tmp_path, capsys)

    def test_split_with_an_empty_part_writes_nothing(self, tmp_path, capsys):
        argv = self.gen_argv(tmp_path, "--split", "1,0,0")
        self.assert_usage_error(argv, tmp_path, capsys)

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_bins_checked_before_the_data_is_read(
        self, workspace, tmp_path, capsys, monkeypatch, bins
    ):
        def load(path):
            raise AssertionError("the data was read before --bins was checked")

        monkeypatch.setattr(mosuq.cli, "load_dataset_csv", load)
        argv = [
            "evaluate", "--checkpoint", str(workspace / "cal.json"),
            "--data", str(workspace / "base.test.csv"), "--report", str(tmp_path / "r.json"),
            "--bins", bins,
        ]
        self.assert_usage_error(argv, tmp_path, capsys)

    def test_curve_with_more_bins_than_rows_writes_nothing(self, workspace, tmp_path, capsys):
        rows = len(load_dataset_csv(workspace / "base.test.csv"))
        argv = [
            "evaluate", "--checkpoint", str(workspace / "cal.json"),
            "--data", str(workspace / "base.test.csv"), "--report", str(tmp_path / "r.json"),
            "--curve", str(tmp_path / "curve.csv"), "--bins", str(rows + 1),
        ]
        self.assert_usage_error(argv, tmp_path, capsys)

    def test_more_sweep_points_than_rows_exits_2_before_any_prediction(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        """More points than rows add no kept set: a ConfigError naming both
        numbers, raised once the CSV is read and before any prediction, MC
        pass or output file. As many points as rows are accepted."""
        data = workspace / "base.test.csv"
        rows = len(load_dataset_csv(data))

        def evaluate(points, out):
            return main([
                "evaluate", "--checkpoint", str(workspace / "cal.json"), "--data", str(data),
                "--report", str(out / "r.json"), "--sweep", str(out / "sweep.csv"),
                "--sweep-points", str(points), "--mc", "3", "0.5", "0",
            ])

        assert evaluate(rows, tmp_path) == 0
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == rows + 1

        def predict(*args):
            raise AssertionError("a prediction ran before --sweep-points was checked")

        monkeypatch.setattr(mosuq.cli, "predict_batch", predict)
        monkeypatch.setattr(mosuq.cli, "mc_forward_dataset", predict)
        refused = tmp_path / "refused"
        refused.mkdir()
        assert evaluate(rows + 1, refused) == 2
        err = capsys.readouterr().err
        assert f"sweep_points {rows + 1} exceeds the {rows} rows" in err and "Traceback" not in err
        assert list(refused.iterdir()) == []

    def test_mc_out_without_mc(self, workspace, tmp_path, capsys):
        argv = [
            "evaluate", "--checkpoint", str(workspace / "cal.json"),
            "--data", str(workspace / "base.test.csv"), "--report", str(tmp_path / "r.json"),
            "--mc-out", str(tmp_path / "mc.csv"),
        ]
        self.assert_usage_error(argv, tmp_path, capsys)

    @pytest.mark.parametrize("text", ['{"mc": null}', '{"mc": [25, 0.5]}', '{"mc": [0, 0.5, 0]}'])
    def test_bad_ood_mc_settings(self, workspace, tmp_path, capsys, text):
        config = write_config(tmp_path / "cfg.json", text)
        argv = [
            "ood-detect", "--checkpoint", str(workspace / "cal.json"),
            "--in-data", str(workspace / "base.test.csv"),
            "--ood-data", str(workspace / "pool_ood.csv"), "--config", config,
            "--report", str(tmp_path / "ood.json"), "--scores", str(tmp_path / "s.csv"),
        ]
        self.assert_usage_error(argv, tmp_path, capsys)


class TestCsvQuoting:
    """An id holding a comma or a quote survives every per-row CSV output."""

    IDS = ['weird,id"x', 'plain', 'quote"only', 'comma,only']

    @pytest.fixture
    def odd_ids(self, tmp_path):
        ids = [self.IDS[i % 4] + str(i) for i in range(8)]
        x = np.random.default_rng(4).normal(size=(8, 3))
        path = tmp_path / "odd.csv"
        save_dataset_csv(dataset_of(ids, [f"s{i % 2}" for i in range(8)], x, range(8)), path)
        return path, ids

    def read_rows(self, path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def test_scores_csv(self, workspace, tmp_path, odd_ids):
        data, ids = odd_ids
        scores = tmp_path / "scores.csv"
        assert main([
            "ood-detect", "--checkpoint", str(workspace / "cal.json"),
            "--in-data", str(data), "--ood-data", str(data),
            "--report", str(tmp_path / "ood.json"), "--scores", str(scores),
            "--mc", "3", "0.5", "0",
        ]) == 0
        rows = self.read_rows(scores)
        assert rows[0] == ["id", "domain_label", "score"]
        assert all(len(row) == 3 for row in rows)
        assert [row[0] for row in rows[1:]] == ids + ids

    def test_mc_out_csv(self, workspace, tmp_path, odd_ids):
        data, ids = odd_ids
        mc_out = tmp_path / "mc.csv"
        assert main([
            "evaluate", "--checkpoint", str(workspace / "cal.json"), "--data", str(data),
            "--report", str(tmp_path / "r.json"), "--mc", "3", "0.5", "0",
            "--mc-out", str(mc_out),
        ]) == 0
        rows = self.read_rows(mc_out)
        assert all(len(row) == 6 for row in rows)
        assert [row[0] for row in rows[1:]] == ids


# Each number as a flag string and as a JSON value, and what each numeric
# setting kind makes of it: the parsed value, or None for exit 2. Flags always
# arrive as strings, so "2.0" is not an integer there, while the JSON number
# 2.0 is; a numeric JSON string is parsed as a flag would be.
NUMBER_INPUTS = [  # (flag text, JSON text)
    ("2", '"2"'), ("2.0", "2.0"), ("2.5", "2.5"), ("true", "true"),
    ("1e400", "1e400"), ("nan", '"nan"'), ("1e-3", '"1e-3"'),
]
NUMBER_OUTCOMES = {  # setting -> {route: outcome per NUMBER_INPUTS entry}
    "seed": {  # INT
        "flag": [2, None, None, None, None, None, None],
        "config": [2, 2, None, None, None, None, None],
    },
    "feature_noise_seed": {  # an integer >= 0, or null
        "flag": [2, None, None, None, None, None, None],
        "config": [2, 2, None, None, None, None, None],
    },
    "sigma": {  # FLOAT
        "flag": [2.0, 2.0, 2.5, None, None, None, 0.001],
        "config": [2.0, 2.0, 2.5, None, None, None, 0.001],
    },
    "shift": {  # a finite number >= 0
        "flag": [2.0, 2.0, 2.5, None, None, None, 0.001],
        "config": [2.0, 2.0, 2.5, None, None, None, 0.001],
    },
}


class TestNumberOutcomes:
    """What each numeric setting kind accepts, through a flag and through
    --config: the parsed value and its type, as recorded in the config file,
    or exit 2 with no file written."""

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("key", NUMBER_OUTCOMES)
    @pytest.mark.parametrize("index", range(len(NUMBER_INPUTS)), ids=[f for f, _ in NUMBER_INPUTS])
    def test_outcome(self, tmp_path, capsys, key, route, index):
        flag_text, json_text = NUMBER_INPUTS[index]
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = [
            "gen-data", "--out", str(out_dir / "d.csv"), "--num-systems", "2",
            "--samples-per-system", "3", "--feature-dim", "2",
        ]
        if route == "flag":
            argv += [f"--{key.replace('_', '-')}", flag_text]
        else:
            argv += ["--config", write_config(tmp_path / "cfg.json", f'{{"{key}": {json_text}}}')]
        want = NUMBER_OUTCOMES[key][route][index]
        code = main(argv)
        capsys.readouterr()
        if want is None:
            assert code == 2
            assert list(out_dir.iterdir()) == []
        else:
            assert code == 0
            got = json.loads((out_dir / "gen-data-config.json").read_text())[key]
            assert type(got) is type(want) and got == want
