"""Smoke tests of tools/layerbench.py: each group runs end to end on a tiny
setting and prints what its docstring promises, as one strict JSON line."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
# Each group's tiny setting, with only the flags that the group reads.
TIMED, ROWS = ["--repeat", "1", "--number", "1"], ["--rows-per-system", "10"]
TINY = {"step": TIMED, "io": TIMED + ROWS, "commands": ROWS}
FIGURES = {
    "step": {"forward_batch", "nll_loss_batch", "backward_batch", "adam_step", "step",
             "mc_forward"},
    "io": {"gen_synthetic", "split_dataset", "save_dataset_csv", "load_dataset_csv",
           "split_write"},
}


def layerbench(*argv) -> dict:
    """The report of one run, after checking that it is strict JSON (no NaN or
    Infinity tokens) and holds the fields that every group prints."""
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "layerbench.py"), *argv],
                          capture_output=True, text=True, check=True, timeout=120)

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    report = json.loads(done.stdout.strip().splitlines()[-1], parse_constant=reject)
    assert report["group"] == argv[0] and report["src"] == SRC
    assert report["nproc"] >= 1 and report["pinned_cpu"] >= 0 and report["numpy"]
    assert report["blas"].split()[0] not in ("", "None") and "openblas_coretype" in report
    assert set(report["threads"].values()) == {"1"}
    return report


@pytest.mark.parametrize("group", ["step", "io"])
def test_a_group_alone_prints_each_figures_best_median_and_traced_peak(group):
    report = layerbench(group, *TINY[group])
    epoch = {"train_epoch"} if group == "step" else set()
    assert set(report["peak_mib"]) == FIGURES[group] | epoch
    assert set(report["us"]) == FIGURES[group] | epoch | {f"{name}_per_step" for name in epoch}
    for timing in report["us"].values():
        assert set(timing) == {"best", "median"} and 0 < timing["best"] <= timing["median"]
    # A step figure's peak may round to 0.000 MiB; an io call traces tens of KB at least.
    assert all(isinstance(v, float) and v >= 0 for v in report["peak_mib"].values())
    if group == "io":
        assert all(report["peak_mib"][name] > 0 for name in FIGURES["io"])
        assert report["rows"] == {"generated": 200, "csv": 140} and report["features"] == 16


@pytest.mark.parametrize("group", ["step", "io"])
def test_a_tree_against_itself_pools_pair_ratios_and_finds_every_figure_bit_equal(group):
    """The working tree loaded twice: twelve tiny rounds in each of two processes,
    one per load order, through every output reader of the group."""
    report = layerbench(group, "--against", SRC, "--processes", "2", *TINY[group])
    assert report["against"] == SRC
    assert report["bit_equal"] == dict.fromkeys(FIGURES[group], True)
    assert set(report["ratio_src_over_against"]) == FIGURES[group]
    for pooled in report["ratio_src_over_against"].values():
        assert pooled["rounds"] == 24 and 0 <= pooled["src_faster_rounds"] <= 24
        q1, q3 = pooled["quartiles"]
        assert 0 < q1 <= pooled["median"] <= q3
    assert [p["first"] for p in report["per_process_medians"]] == ["src", "against"]


def test_commands_prints_each_cli_pipeline_commands_peak_memory():
    """The five cli-pipeline commands of one tree, once, at 10 rows a system."""
    report = layerbench("commands", *TINY["commands"])
    commands = {"gen_data", "train", "calibrate", "evaluate", "ood_detect"}
    assert report["against"] is None and report["outputs_identical"] is None
    assert set(report["vmhwm_mb"]) == {"src"} and set(report["vmhwm_mb"]["src"]) == commands
    peaks = report["vmhwm_mb"]["src"].values()
    assert all(len(p) == 1 and isinstance(p[0], float) and p[0] > 0 for p in peaks)
    assert report["pipeline_peak_mb"] == {"src": [max(p[0] for p in peaks)]}


@pytest.mark.parametrize("argv", [["step", *ROWS], ["commands", *TIMED]])
def test_a_flag_that_the_group_does_not_read_is_refused(argv):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "layerbench.py"), *argv],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "does not read --" in done.stderr and not done.stdout
