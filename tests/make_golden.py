"""Regenerate tests/data/golden_v1.json, the values that tests/test_golden.py pins.

    PYTHONPATH=src python tests/make_golden.py

The file holds a small run at full repr: the generated labels and true noise
variances, then, for a tanh and a relu network trained two epochs with a
validation split, the trained flat parameter vector, the loss histories, the
predict_batch outputs on a mixed in-domain and OOD test set, the calibration r,
the evaluation report and the MC epi_dist_var. Beside them it records the
environment the values were made in (see environment()), which decides whether
the test compares bit for bit or to a relative bound. Regenerate only in a
change that moves the numbers on purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
from pathlib import Path

import numpy as np

from mosuq import (
    ArchConfig, CalibrationScale, GenConfig, MCConfig, MetricsReport, TrainConfig,
    gen_ood_shift, gen_synthetic, mc_forward_dataset, split_dataset, train,
)
from mosuq.datagen import DOMAIN_OOD
from mosuq.ioutils import atomic_write_text, canonical_json
from mosuq.net import ACTIVATIONS
from mosuq.trainer import predict_batch

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_v1.json"

# Symbols that name the OpenBLAS kernel chosen at run time, by library build.
_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename")


def _blas_core() -> str | None:
    """The kernel core type of the OpenBLAS bundled with numpy, or None where
    it cannot be read (another BLAS, or one linked from the system)."""
    root = os.path.dirname(os.path.dirname(np.__file__))
    for lib in sorted(glob.glob(os.path.join(root, "numpy*libs", "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in _CORENAME_SYMBOLS:
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_char_p
                return getter().decode()
    return None


def environment() -> dict:
    """What the bits depend on: the Python and numpy versions, the SIMD targets
    numpy dispatches to on this CPU (NPY_DISABLE_CPU_FEATURES narrows them), and
    the BLAS library, version and run-time core type."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 prints its config only
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_dispatch": [n for n in umath.__cpu_dispatch__ if umath.__cpu_features__.get(n)],
        "blas": blas,
        "blas_core": _blas_core(),
    }


def golden_values() -> dict:
    """The pinned values of one small run, as plain JSON types."""
    data = gen_synthetic(GenConfig(num_systems=6, samples_per_system=50, feature_dim=2, seed=0))
    train_split, val_split, test_split = split_dataset(data, (0.6, 0.2, 0.2), seed=0)
    ood = gen_ood_shift(GenConfig(num_systems=6, samples_per_system=10, feature_dim=2, seed=1), 3.0)
    x_test = np.vstack([test_split.features(), ood.features()])
    y_test = np.concatenate([test_split.labels(), ood.labels()])
    systems = np.concatenate([test_split.system_ids, ood.system_ids])
    domains = np.concatenate([test_split.domain_tags, ood.domain_tags]) == DOMAIN_OOD
    values = {"labels": data.labels().tolist(), "true_noise_var": data.true_noise_var.tolist()}
    for activation in ACTIVATIONS:
        arch = ArchConfig(input_dim=2, trunk_dims=(8,), head_hidden_dim=8, dropout_p=0.5,
                          activation=activation)
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=1e-2, seed=3)
        params, history = train(train_split, arch, cfg, val_split)
        scale = CalibrationScale.fit(*predict_batch(params, val_split.features()),
                                     val_split.labels())
        y_hat, s = predict_batch(params, x_test)
        var = np.exp(scale.shift_log_variance(s))
        report = MetricsReport.of(systems, y_test, y_hat, var, domain_labels=domains)
        mc = mc_forward_dataset(params, x_test, MCConfig(num_passes=5, dropout_p=0.5, seed=4),
                                scale)
        values[activation] = {
            "flat": params.flat.tolist(),
            "train_loss": list(history.train_loss),
            "val_loss": list(history.val_loss),
            "y_hat": y_hat.tolist(),
            "s": s.tolist(),
            "calibration_r": scale.r,
            "report": report.to_dict(),
            "epi_dist_var": mc.epi_dist_var.tolist(),
        }
    return json.loads(canonical_json(values))


def main() -> None:
    atomic_write_text(GOLDEN, canonical_json(
        {"environment": environment(), "values": golden_values()}
    ))
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
