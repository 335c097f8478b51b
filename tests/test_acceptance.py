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

from mosuq.calibrate import CalibrationScale
from mosuq.cli import main
from mosuq.datagen import (
    add_feature_noise,
    feature_noise_analogue,
    gen_ood_shift,
    split_dataset,
)
from mosuq.loss import nll_loss_batch
from mosuq.mcdropout import MCConfig, mc_forward, mc_forward_dataset, variance_of
from mosuq.metrics import (
    HALF_LOG_2PI,
    mse,
    nll_metric,
    roc_auc,
    selective_sweep,
    srcc_system,
    uce,
)
from mosuq.net import (
    ArchConfig,
    backward_batch,
    forward_batch,
    init_params,
)

from conftest import FIXTURE_MC, FIXTURE_SPLIT, fixture_gen_config, head_rows, param_arrays

POOL_SIZE = 500
OOD_SHIFT = 3.0


def eval_columns(run, split, calibrated):
    """(y_true, y_pred, var_pred) columns for a split with raw or calibrated
    predicted variance."""
    y_hat, s = run.predictions(split)
    var = np.exp(s)
    if calibrated:
        var = var * run.scale.variance_multiplier
    return split.labels(), y_hat, var


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
        in_pool = head_rows(run.test_split, POOL_SIZE)
        ood_full = gen_ood_shift(cfg, OOD_SHIFT)
        _, _, ood_test = split_dataset(ood_full, FIXTURE_SPLIT, seed=run.seed)
        shift_pool = head_rows(ood_test, POOL_SIZE)

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
    x = np.random.default_rng(7).normal(size=(1, 3))
    y = np.array([3.1])
    step = 1e-5

    def nll() -> float:
        y_hat, s, _ = forward_batch(params, x)
        return float(nll_loss_batch(y_hat, s, y)[0][0])

    y_hat, s, cache = forward_batch(params, x)
    _, d_y_hat, d_s = nll_loss_batch(y_hat, s, y)
    analytic = param_arrays(backward_batch(cache, params, d_y_hat, d_s))

    worst = 0.0
    for arr, grad in zip(param_arrays(params), analytic):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = arr[idx]
            arr[idx] = saved + step
            up = nll()
            arr[idx] = saved - step
            down = nll()
            arr[idx] = saved
            fd = (up - down) / (2.0 * step)
            denom = max(abs(fd), abs(float(grad[idx])), 1e-8)
            worst = max(worst, abs(fd - float(grad[idx])) / denom)

    assert worst < 1e-4
    assert perf_counter() - start < 1.0


def test_criterion_02_calibration_recovers_known_scale():
    """CalibrationScale.fit on 10,000 predictions with labels
    y = y_hat + N(0, c^2 sigma_hat^2) recovers c within 2% for c in
    {0.5, 1, 2}, under a second."""
    start = perf_counter()
    rng = np.random.default_rng(42)
    n = 10_000
    for c in (0.5, 1.0, 2.0):
        var = rng.uniform(0.5, 2.0, size=n)
        y_hat = rng.normal(size=n)
        labels = y_hat + rng.normal(size=n) * c * np.sqrt(var)
        scale = CalibrationScale.fit(y_hat, [math.log(v) for v in var], labels)
        assert abs(scale.r - c) <= 0.02 * c
    assert perf_counter() - start < 1.0


def test_criterion_03_calibration_improves_fit(hetero_runs):
    """Calibrated NLL <= uncalibrated NLL on the calibration split exactly
    (every seed); calibrated UCE <= uncalibrated UCE on the test split in
    >= 4 of 5 seeds; full five-seed build plus this evaluation < 2 min."""
    start = perf_counter()
    uce_improved = 0
    for run in hetero_runs:
        nll_before = nll_metric(*eval_columns(run, run.cal_split, calibrated=False))
        nll_after = nll_metric(*eval_columns(run, run.cal_split, calibrated=True))
        assert nll_after <= nll_before + 1e-12

        uce_before = uce(*eval_columns(run, run.test_split, calibrated=False))
        uce_after = uce(*eval_columns(run, run.test_split, calibrated=True))
        if uce_after <= uce_before:
            uce_improved += 1
    assert uce_improved >= 4
    total = sum(run.build_seconds for run in hetero_runs) + (perf_counter() - start)
    assert total < 120.0


def test_criterion_04_accuracy_invariant_under_calibration(hetero_runs):
    """MSE and system-level rank correlation are bit-identical before and
    after variance scaling on every seed's test split."""
    for run in hetero_runs:
        systems = run.test_split.system_ids
        y_true, y_pre, _ = eval_columns(run, run.test_split, calibrated=False)
        _, y_post, _ = eval_columns(run, run.test_split, calibrated=True)
        assert mse(y_true, y_pre) == mse(y_true, y_post)
        assert srcc_system(systems, y_true, y_pre) == srcc_system(systems, y_true, y_post)


def test_criterion_05_selective_prediction(hetero_runs):
    """Keeping the less-uncertain ~50% of the test split beats the global
    MSE in >= 4 of 5 seeds; on an oracle where var_pred equals the squared
    residual, the sweep matches brute-force subset evaluation exactly and
    is monotone."""
    improved = 0
    for run in hetero_runs:
        y_true, y_pred, var = eval_columns(run, run.test_split, calibrated=True)
        threshold = float(np.quantile(var, 0.5))
        ((_, fraction, subset_mse),) = selective_sweep(y_true, y_pred, var, [threshold])
        assert 0.4 <= fraction <= 0.6
        if subset_mse < mse(y_true, y_pred):
            improved += 1
    assert improved >= 4

    residuals = np.random.default_rng(3).normal(size=18)
    # (y_true, y_pred, var_pred) per oracle row.
    oracle = [(float(r), 0.0, float(r * r)) for r in residuals]
    thresholds = sorted(var for _, _, var in oracle)
    rows = selective_sweep(*zip(*oracle), thresholds)
    previous = -math.inf
    for t, fraction, subset_mse in rows:
        kept = [row for row in oracle if row[2] <= t]
        assert fraction == len(kept) / len(oracle)
        brute = sum((y_true - y_pred) ** 2 for y_true, y_pred, _ in kept) / len(kept)
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
    seen = []
    for run, entry in zip(hetero_runs, pools):
        shift_aucs.append(
            roc_auc(np.concatenate([entry["in"], entry["shift"]]), labels)
        )
        auc_low = roc_auc(np.concatenate([entry["in"], entry[low]]), labels)
        auc_high = roc_auc(np.concatenate([entry["in"], entry[high]]), labels)
        if auc_high > auc_low:
            noise_ordered += 1
        seen.append(
            f"seed {run.seed}: shift AUC {shift_aucs[-1]:.6f}, "
            f"noise AUC {auc_low:.6f} (weak) vs {auc_high:.6f} (strong)"
        )
    seen = "; ".join(seen)

    assert sum(a > 0.7 for a in shift_aucs) >= 4, f"shift AUC <= 0.7 in 2+ seeds: {seen}"
    assert float(np.mean(shift_aucs)) > 0.7, f"mean shift AUC {np.mean(shift_aucs):.6f}: {seen}"
    assert noise_ordered >= 4, f"strong noise not above weak in 4 seeds: {seen}"
    assert pool_seconds + (perf_counter() - start) < 120.0


def test_criterion_08_uncertainty_rises_with_corruption(hetero_runs, mc_pools):
    """Mean epistemic distributional uncertainty is non-decreasing across
    feature-noise levels {0, 0.002 analogue, 0.01 analogue} in >= 4 of 5
    seeds."""
    pools, _ = mc_pools
    lvl_a, lvl_b = feature_noise_analogue(0.002), feature_noise_analogue(0.01)
    monotone = 0
    seen = []
    for run, entry in zip(hetero_runs, pools):
        means = [
            float(entry["in"].mean()),
            float(entry[lvl_a].mean()),
            float(entry[lvl_b].mean()),
        ]
        if means[0] <= means[1] <= means[2]:
            monotone += 1
        seen.append(f"seed {run.seed}: means " + ", ".join(f"{m:.6g}" for m in means))
    assert monotone >= 4, f"means not non-decreasing in 2+ seeds: {'; '.join(seen)}"


def test_criterion_09_metric_hand_oracles():
    """Every hand-derived metric example reproduces to 1e-9; roc_auc also
    matches exhaustive pair enumeration on 100 random sets of size <= 50."""
    # uce
    assert uce([math.sqrt(0.9)], [0.0], [0.5]) == pytest.approx(0.4, abs=1e-9)
    assert uce(
        [math.sqrt(0.1), math.sqrt(0.9)], [0.0, 0.0], [0.2, 0.4], num_bins=1
    ) == pytest.approx(0.2, abs=1e-9)
    ideal = np.random.default_rng(1).normal(size=25)
    for m in (1, 3, 10):
        assert uce(ideal, np.zeros(25), ideal * ideal, num_bins=m) == pytest.approx(0.0, abs=1e-9)

    # srcc_system
    systems = [f"sys{i}" for i in range(4)]
    assert srcc_system(systems, [1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(
        1.0, abs=1e-9
    )
    assert srcc_system(systems, [1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(
        -1.0, abs=1e-9
    )
    assert srcc_system(systems, [1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(
        0.8, abs=1e-9
    )

    # nll_metric
    assert nll_metric([0.0], [0.0], [1.0]) == pytest.approx(HALF_LOG_2PI, abs=1e-9)
    assert nll_metric([0.0], [0.0], [1.0], include_const=False) == pytest.approx(
        0.0, abs=1e-9
    )
    assert nll_metric([1.0], [0.0], [1.0], include_const=False) == pytest.approx(
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
