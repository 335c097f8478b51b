"""Acceptance gate: ten pinned behavioral criteria, one test per criterion.

Criteria 3, 4, 5, 7, and 8 evaluate the shared five-seed trained bundle
from conftest (heteroscedastic data, N = 5000 train samples, 50 epochs).
Thresholds and tolerances below are pinned; they are the contract, not
tunable knobs.
"""

from __future__ import annotations

import math
import time
from time import perf_counter

import numpy as np
import pytest

from mosuq.calibrate import fit_scale
from mosuq.cli import main
from mosuq.datagen import (
    Dataset,
    add_feature_noise,
    feature_noise_analogue,
    gen_ood_shift,
    split_dataset,
)
from mosuq.loss import nll_loss
from mosuq.mcdropout import MCConfig, mc_forward, mc_forward_dataset, variance_of
from mosuq.metrics import (
    HALF_LOG_2PI,
    EvalRecord,
    mse,
    nll_metric,
    roc_auc,
    selective_sweep,
    srcc_system,
    uce,
)
from mosuq.net import (
    ArchConfig,
    HeteroPrediction,
    backward,
    forward,
    init_params,
    param_arrays,
)

from conftest import FIXTURE_MC, FIXTURE_SPLIT, fixture_gen_config

POOL_SIZE = 500
OOD_SHIFT = 3.0


def eval_records(run, split, calibrated):
    """EvalRecords for a split with raw or calibrated predicted variance."""
    y_hat, s = run.predictions(split)
    var = np.exp(s)
    if calibrated:
        var = var * run.scale.variance_multiplier
    return [
        EvalRecord(
            id=smp.id,
            system_id=smp.system_id,
            y_true=smp.y,
            y_pred=float(y),
            var_pred=float(v),
        )
        for smp, y, v in zip(split, y_hat, var)
    ]


@pytest.fixture(scope="module")
def mc_pools(hetero_runs):
    """Per seed: epi_dist_var scores for the in-domain pool, the 3-unit
    shifted pool, and four graded feature-noise pools (500 rows each),
    plus the wall-clock cost of computing all of them."""
    start = perf_counter()
    levels = [
        feature_noise_analogue(a) for a in (0.002, 0.005, 0.01, 0.02)
    ]  # 0.2, 0.5, 1.0, 2.0
    pools = []
    for run in hetero_runs:
        cfg = fixture_gen_config(run.seed)
        in_pool = Dataset(run.test_split.samples[:POOL_SIZE])
        ood_full = gen_ood_shift(cfg, OOD_SHIFT)
        _, _, ood_test = split_dataset(ood_full, FIXTURE_SPLIT, seed=run.seed)
        shift_pool = Dataset(ood_test.samples[:POOL_SIZE])

        def epi_dist(ds):
            results = mc_forward_dataset(run.params, ds.features(), FIXTURE_MC)
            return np.array([r.epi_dist_var for r in results])

        entry = {"in": epi_dist(in_pool), "shift": epi_dist(shift_pool)}
        for level in levels:
            entry[level] = epi_dist(add_feature_noise(in_pool, level, seed=run.seed))
        pools.append(entry)
    return tuple(pools), perf_counter() - start


def test_criterion_01_gradients_match_finite_differences():
    """Analytic backprop vs central differences (step 1e-5) on every
    parameter of an input-3 / trunk-[4] / head-4 network; max relative
    error < 1e-4 in under a second."""
    start = perf_counter()
    arch = ArchConfig(input_dim=3, trunk_dims=(4,), head_hidden_dim=4, dropout_p=0.0)
    params = init_params(arch, seed=5)
    x = np.random.default_rng(7).normal(size=3)
    y = 3.1
    step = 1e-5

    pred, cache = forward(params, x)
    lv = nll_loss(pred, y)
    analytic = param_arrays(backward(cache, params, lv.d_y_hat, lv.d_s))

    worst = 0.0
    for arr, grad in zip(param_arrays(params), analytic):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = arr[idx]
            arr[idx] = saved + step
            up = nll_loss(forward(params, x)[0], y).value
            arr[idx] = saved - step
            down = nll_loss(forward(params, x)[0], y).value
            arr[idx] = saved
            fd = (up - down) / (2.0 * step)
            denom = max(abs(fd), abs(float(grad[idx])), 1e-8)
            worst = max(worst, abs(fd - float(grad[idx])) / denom)

    assert worst < 1e-4
    assert perf_counter() - start < 1.0


def test_criterion_02_calibration_recovers_known_scale():
    """fit_scale on 10,000 predictions with labels y = y_hat + N(0, c^2
    sigma_hat^2) recovers c within 2% for c in {0.5, 1, 2}, under a second."""
    start = perf_counter()
    rng = np.random.default_rng(42)
    n = 10_000
    for c in (0.5, 1.0, 2.0):
        var = rng.uniform(0.5, 2.0, size=n)
        y_hat = rng.normal(size=n)
        labels = y_hat + rng.normal(size=n) * c * np.sqrt(var)
        preds = [
            HeteroPrediction(float(m), float(math.log(v))) for m, v in zip(y_hat, var)
        ]
        scale = fit_scale(preds, labels)
        assert abs(scale.r - c) <= 0.02 * c
    assert perf_counter() - start < 1.0


def test_criterion_03_calibration_improves_fit(hetero_runs):
    """Calibrated NLL <= uncalibrated NLL on the calibration split exactly
    (every seed); calibrated UCE <= uncalibrated UCE on the test split in
    >= 4 of 5 seeds; full five-seed build plus this evaluation < 2 min."""
    start = perf_counter()
    uce_improved = 0
    for run in hetero_runs:
        nll_before = nll_metric(eval_records(run, run.cal_split, calibrated=False))
        nll_after = nll_metric(eval_records(run, run.cal_split, calibrated=True))
        assert nll_after <= nll_before + 1e-12

        uce_before = uce(eval_records(run, run.test_split, calibrated=False))
        uce_after = uce(eval_records(run, run.test_split, calibrated=True))
        if uce_after <= uce_before:
            uce_improved += 1
    assert uce_improved >= 4
    total = sum(run.build_seconds for run in hetero_runs) + (perf_counter() - start)
    assert total < 120.0


def test_criterion_04_accuracy_invariant_under_calibration(hetero_runs):
    """MSE and system-level rank correlation are bit-identical before and
    after variance scaling on every seed's test split."""
    for run in hetero_runs:
        pre = eval_records(run, run.test_split, calibrated=False)
        post = eval_records(run, run.test_split, calibrated=True)
        assert mse(pre) == mse(post)
        assert srcc_system(pre) == srcc_system(post)


def test_criterion_05_selective_prediction(hetero_runs):
    """Keeping the less-uncertain ~50% of the test split beats the global
    MSE in >= 4 of 5 seeds; on an oracle where var_pred equals the squared
    residual, the sweep matches brute-force subset evaluation exactly and
    is monotone."""
    improved = 0
    for run in hetero_runs:
        records = eval_records(run, run.test_split, calibrated=True)
        var = np.array([r.var_pred for r in records])
        threshold = float(np.quantile(var, 0.5))
        ((_, fraction, subset_mse),) = selective_sweep(records, [threshold])
        assert 0.4 <= fraction <= 0.6
        if subset_mse < mse(records):
            improved += 1
    assert improved >= 4

    residuals = np.random.default_rng(3).normal(size=18)
    oracle = [
        EvalRecord(
            id=f"r{i}",
            system_id="sys0",
            y_true=float(r),
            y_pred=0.0,
            var_pred=float(r * r),
        )
        for i, r in enumerate(residuals)
    ]
    thresholds = sorted(rec.var_pred for rec in oracle)
    rows = selective_sweep(oracle, thresholds)
    previous = -math.inf
    for t, fraction, subset_mse in rows:
        kept = [rec for rec in oracle if rec.var_pred <= t]
        assert fraction == len(kept) / len(oracle)
        brute = sum((rec.y_true - rec.y_pred) ** 2 for rec in kept) / len(kept)
        assert subset_mse == pytest.approx(brute, abs=1e-12)
        assert subset_mse >= previous
        previous = subset_mse


def test_criterion_06_mc_dropout_basics():
    """p = 0 and T = 1 both give exactly zero epistemic variance; samples
    {1,2,3} give variance 2/3 exactly; a fixed seed reproduces the full
    MCResult bit for bit."""
    arch = ArchConfig(input_dim=3, trunk_dims=(4,), head_hidden_dim=4, dropout_p=0.5)
    params = init_params(arch, seed=1)
    x = np.array([0.3, -1.2, 0.8])

    no_dropout = mc_forward(params, x, MCConfig(num_passes=10, dropout_p=0.0, seed=0))
    assert no_dropout.epi_pred_var == 0.0
    assert no_dropout.epi_dist_var == 0.0

    single_pass = mc_forward(params, x, MCConfig(num_passes=1, dropout_p=0.5, seed=0))
    assert single_pass.epi_pred_var == 0.0
    assert single_pass.epi_dist_var == 0.0

    assert variance_of([1.0, 2.0, 3.0]) == 2.0 / 3.0

    cfg = MCConfig(num_passes=25, dropout_p=0.5, seed=99)
    assert mc_forward(params, x, cfg) == mc_forward(params, x, cfg)


def test_criterion_07_ood_detection(hetero_runs, mc_pools):
    """Epistemic distributional uncertainty separates 500 in-domain test
    samples from 500 three-unit-shifted samples: per-seed AUC > 0.7 in
    >= 4 of 5 seeds and on average; the stronger feature-noise level
    (0.02 analogue) outscores the weaker (0.005 analogue) in >= 4 of 5
    seeds; all within 2 minutes of scoring work."""
    pools, pool_seconds = mc_pools
    start = perf_counter()
    labels = [0] * POOL_SIZE + [1] * POOL_SIZE
    low, high = feature_noise_analogue(0.005), feature_noise_analogue(0.02)

    shift_aucs = []
    noise_ordered = 0
    for entry in pools:
        shift_aucs.append(
            roc_auc(np.concatenate([entry["in"], entry["shift"]]), labels)
        )
        auc_low = roc_auc(np.concatenate([entry["in"], entry[low]]), labels)
        auc_high = roc_auc(np.concatenate([entry["in"], entry[high]]), labels)
        if auc_high > auc_low:
            noise_ordered += 1

    assert sum(a > 0.7 for a in shift_aucs) >= 4
    assert float(np.mean(shift_aucs)) > 0.7
    assert noise_ordered >= 4
    assert pool_seconds + (perf_counter() - start) < 120.0


def test_criterion_08_uncertainty_rises_with_corruption(mc_pools):
    """Mean epistemic distributional uncertainty is non-decreasing across
    feature-noise levels {0, 0.002 analogue, 0.01 analogue} in >= 4 of 5
    seeds."""
    pools, _ = mc_pools
    lvl_a, lvl_b = feature_noise_analogue(0.002), feature_noise_analogue(0.01)
    monotone = 0
    for entry in pools:
        means = [
            float(entry["in"].mean()),
            float(entry[lvl_a].mean()),
            float(entry[lvl_b].mean()),
        ]
        if means[0] <= means[1] <= means[2]:
            monotone += 1
    assert monotone >= 4


def test_criterion_09_metric_hand_oracles():
    """Every hand-derived metric example reproduces to 1e-9; roc_auc also
    matches exhaustive pair enumeration on 100 random sets of size <= 50."""
    counter = iter(range(10_000))

    def rec(y_true, y_pred, var, system="sys0"):
        return EvalRecord(
            id=f"r{next(counter)}",
            system_id=system,
            y_true=y_true,
            y_pred=y_pred,
            var_pred=var,
        )

    # uce
    assert uce([rec(math.sqrt(0.9), 0.0, 0.5)]) == pytest.approx(0.4, abs=1e-9)
    assert uce(
        [rec(math.sqrt(0.1), 0.0, 0.2), rec(math.sqrt(0.9), 0.0, 0.4)], num_bins=1
    ) == pytest.approx(0.2, abs=1e-9)
    ideal = [rec(r, 0.0, r * r) for r in np.random.default_rng(1).normal(size=25)]
    for m in (1, 3, 10):
        assert uce(ideal, num_bins=m) == pytest.approx(0.0, abs=1e-9)

    # srcc_system
    def sys_recs(true_means, pred_means):
        return [
            rec(t, p, 1.0, system=f"sys{i}")
            for i, (t, p) in enumerate(zip(true_means, pred_means))
        ]

    assert srcc_system(sys_recs([1, 2, 3, 4], [2, 4, 6, 8])) == pytest.approx(
        1.0, abs=1e-9
    )
    assert srcc_system(sys_recs([1, 2, 3, 4], [4, 3, 2, 1])) == pytest.approx(
        -1.0, abs=1e-9
    )
    assert srcc_system(sys_recs([1, 2, 3, 4], [1, 3, 2, 4])) == pytest.approx(
        0.8, abs=1e-9
    )

    # nll_metric
    assert nll_metric([rec(0.0, 0.0, 1.0)]) == pytest.approx(HALF_LOG_2PI, abs=1e-9)
    assert nll_metric([rec(0.0, 0.0, 1.0)], include_const=False) == pytest.approx(
        0.0, abs=1e-9
    )
    assert nll_metric([rec(1.0, 0.0, 1.0)], include_const=False) == pytest.approx(
        0.5, abs=1e-9
    )

    # roc_auc
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == pytest.approx(1.0, abs=1e-9)
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == pytest.approx(0.5, abs=1e-9)
    assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(
        0.75, abs=1e-9
    )

    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        scores = np.round(rng.normal(size=n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum(
            1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg
        )
        assert roc_auc(scores, labels) == pytest.approx(
            wins / (len(pos) * len(neg)), abs=1e-9
        )


def test_criterion_10_pipeline_determinism_and_runtime(tmp_path):
    """gen-data -> train -> calibrate -> evaluate with the reference preset
    runs end-to-end twice in under 2 minutes and produces byte-identical
    metric reports."""
    start = time.perf_counter()
    reports = []
    for tag in ("first", "second"):
        root = tmp_path / tag
        root.mkdir()
        prefix = root / "data.csv"
        assert main([
            "gen-data", "--seed", "0", "--out", str(prefix),
            "--split", "0.7,0.15,0.15",
        ]) == 0
        assert main([
            "train", "--preset", "paper",
            "--data", str(root / "data.train.csv"),
            "--val", str(root / "data.val.csv"),
            "--out", str(root / "model.json"),
            "--seed", "0",
        ]) == 0
        assert main([
            "calibrate", "--checkpoint", str(root / "model.json"),
            "--data", str(root / "data.val.csv"),
            "--out", str(root / "calibrated.json"),
        ]) == 0
        assert main([
            "evaluate", "--preset", "paper",
            "--checkpoint", str(root / "calibrated.json"),
            "--data", str(root / "data.test.csv"),
            "--report", str(root / "report.json"),
        ]) == 0
        reports.append((root / "report.json").read_bytes())

    assert reports[0] == reports[1]
    assert time.perf_counter() - start < 120.0
