"""Smoke tests of the measurement tools under tools/: each runs end to end
on a tiny setting and prints what its docstring promises."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def strict_json(text):
    """json.loads that rejects the NaN and Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_stepbench_prints_one_strict_json_line_with_every_timing():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stepbench.py"), "--repeat", "1", "--number", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    report = strict_json(done.stdout.strip().splitlines()[-1])
    assert set(report["us"]) == {
        "forward_batch", "nll_loss_batch", "backward_batch", "adam_step", "step", "mc_forward",
        "train_epoch", "train_epoch_per_step",
    }
    assert all(isinstance(v, float) and v > 0 for v in report["us"].values())
    assert report["src"] == str(ROOT / "src")


def test_stepbench_against_a_tree_pools_pair_ratios_and_finds_its_outputs_bit_equal():
    """The working tree against itself, loaded twice: twelve tiny rounds in
    each of two processes, one per load order."""
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stepbench.py"), "--against", src,
         "--processes", "2", "--repeat", "1", "--number", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    report = strict_json(done.stdout.strip().splitlines()[-1])
    figures = {"forward_batch", "nll_loss_batch", "backward_batch", "adam_step", "step",
               "mc_forward"}
    assert report["src"] == report["against"] == src
    assert report["bit_equal"] == dict.fromkeys(figures, True)
    assert set(report["ratio_src_over_against"]) == figures
    for pooled in report["ratio_src_over_against"].values():
        assert pooled["rounds"] == 24 and 0 <= pooled["src_faster_rounds"] <= 24
        q1, q3 = pooled["quartiles"]
        assert 0 < q1 <= pooled["median"] <= q3
    assert [p["first"] for p in report["per_process_medians"]] == ["src", "against"]


def test_iobench_prints_one_strict_json_line_with_every_timing():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "iobench.py"), "--repeat", "1",
         "--rows-per-system", "10"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    report = strict_json(done.stdout.strip().splitlines()[-1])
    steps = {"gen_synthetic", "split_dataset", "save_dataset_csv", "load_dataset_csv",
             "split_write"}
    assert set(report["ms"]) == set(report["peak_mib"]) == steps
    for timing in report["ms"].values():
        assert set(timing) == {"best", "median"}
        assert all(isinstance(v, float) and v > 0 for v in timing.values())
    assert all(isinstance(v, float) and v > 0 for v in report["peak_mib"].values())
    assert report["rows"] == {"generated": 200, "csv": 140}
    assert report["src"] == str(ROOT / "src")


def test_iobench_commands_prints_each_cli_pipeline_commands_peak_memory():
    """The five cli-pipeline commands of one tree, once, at 10 rows a system."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "iobench.py"), "--commands",
         "--rows-per-system", "10"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    report = strict_json(done.stdout.strip().splitlines()[-1])
    commands = {"gen_data", "train", "calibrate", "evaluate", "ood_detect"}
    assert report["src"] == str(ROOT / "src") and report["against"] is None
    assert set(report["vmhwm_mb"]) == {"src"} and set(report["vmhwm_mb"]["src"]) == commands
    peaks = report["vmhwm_mb"]["src"].values()
    assert all(len(p) == 1 and isinstance(p[0], float) and p[0] > 0 for p in peaks)
    assert report["pipeline_peak_mb"] == {"src": [max(p[0] for p in peaks)]}
    assert report["outputs_identical"] is None
