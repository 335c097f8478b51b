"""Command-line pipeline: gen-data, train, calibrate, evaluate, ood-detect.

Every command resolves its settings in four layers (lowest priority
first): built-in defaults, the named --preset if one was given, the JSON
file passed via --config, and finally explicit command-line flags. The
fully resolved settings are recorded next to the primary output as
`<command>-config.json`, and all outputs are written atomically, so any
run can be reproduced and audited after the fact.

Exit codes: 0 on success, 1 on runtime failures (divergence, violated
invariants), 2 on usage, configuration, or file errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .calibrate import CalibrationScale, fit_scale
from .datagen import (
    Dataset,
    GenConfig,
    Heteroscedastic,
    Homoscedastic,
    RaterPanel,
    add_feature_noise,
    gen_ood_shift,
    gen_synthetic,
    load_dataset_csv,
    save_dataset_csv,
    split_dataset,
)
from .errors import CheckpointError, ConfigError, InputError, MosuqError, ShapeError
from .ioutils import atomic_write_text, canonical_json
from .mcdropout import MCConfig, mc_forward_dataset
from .metrics import (
    EvalRecord,
    compute_report,
    error_uncertainty_curve,
    roc_auc,
    selective_sweep,
)
from .net import ArchConfig, HeteroPrediction
from .trainer import (
    TrainConfig,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
    save_history_csv,
    train,
)

__all__ = ["main", "build_parser"]

UNCERTAINTY_KINDS = ("aleatoric", "epi-pred", "epi-dist")
POINT_KINDS = ("det", "mc-mean")
NOISE_PRESETS = ("heteroscedastic", "homoscedastic", "rater-panel")

GEN_DATA_DEFAULTS = {
    "out": None,
    "seed": 0,
    "num_systems": 12,
    "samples_per_system": 150,
    "feature_dim": 16,
    "preset": "heteroscedastic",
    "sigma": 0.1,
    "raters": 4,
    "rater_sd": 0.8,
    "shift": 0.0,
    "feature_noise": 0.0,
    "feature_noise_seed": None,
    "clip_labels": False,
    "split": None,
}

TRAIN_DEFAULTS = {
    "data": None,
    "val": None,
    "out": None,
    "history": None,
    "epochs": 30,
    "batch_size": 8,
    "learning_rate": 3e-4,
    "loss": "nll",
    "optimizer": "adam",
    "seed": 0,
    "trunk_dims": [32],
    "head_hidden_dim": 16,
    "dropout_p": 0.5,
    "activation": "tanh",
}

CALIBRATE_DEFAULTS = {
    "checkpoint": None,
    "data": None,
    "out": None,
}

EVALUATE_DEFAULTS = {
    "checkpoint": None,
    "data": None,
    "report": None,
    "mc": None,
    "uncertainty": "aleatoric",
    "point": "det",
    "bins": 10,
    "nll_const": True,
    "curve": None,
    "sweep": None,
    "sweep_points": 20,
    "mc_out": None,
}

OOD_DETECT_DEFAULTS = {
    "checkpoint": None,
    "in_data": None,
    "ood_data": None,
    "report": None,
    "scores": None,
    "mc": [25, 0.5, 0],
    "uncertainty": "epi-dist",
}

# The "paper" preset pins the reference hyperparameters: batch size 8,
# learning rate 3e-4, dropout probability 0.5, 25 MC passes, 10 bins.
TRAIN_PRESETS = {
    "paper": {"batch_size": 8, "learning_rate": 3e-4, "dropout_p": 0.5}
}
EVALUATE_PRESETS = {
    "paper": {"mc": [25, 0.5, 0], "bins": 10}
}
OOD_DETECT_PRESETS = {
    "paper": {"mc": [25, 0.5, 0]}
}


def _ival(cfg: dict, key: str) -> int:
    v = cfg[key]
    if isinstance(v, bool) or v is None:
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    try:
        return int(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {v!r}") from None


def _fval(cfg: dict, key: str) -> float:
    v = cfg[key]
    if isinstance(v, bool) or v is None:
        raise ConfigError(f"{key} must be a number, got {v!r}")
    try:
        number = float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {v!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {v!r}")
    return number


def _bval(cfg: dict, key: str) -> bool:
    v = cfg[key]
    if not isinstance(v, bool):
        raise ConfigError(f"{key} must be true or false, got {v!r}")
    return v


def _path(cfg: dict, key: str, required: bool = True) -> Path | None:
    v = cfg[key]
    if v is None:
        if required:
            raise ConfigError(f"missing required setting: {key}")
        return None
    return Path(str(v))


def _choice(cfg: dict, key: str, choices: tuple[str, ...]) -> str:
    v = cfg[key]
    if v not in choices:
        raise ConfigError(f"{key} must be one of {choices}, got {v!r}")
    return v


def _int_list(value, key: str) -> list[int]:
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip() != ""]
    try:
        return [int(v) for v in value]
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a comma list of integers, got {value!r}") from None


def _float_list(value, key: str) -> list[float]:
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip() != ""]
    try:
        numbers = [float(v) for v in value]
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a comma list of numbers, got {value!r}") from None
    if not all(math.isfinite(v) for v in numbers):
        raise ConfigError(f"{key} must hold finite numbers, got {value!r}")
    return numbers


def _mc_triple(value) -> tuple[int, float, int] | None:
    """Normalise MC settings given as (passes, dropout_p, seed)."""
    if value is None:
        return None
    if isinstance(value, (list, tuple)) and len(value) == 3:
        try:
            return int(value[0]), float(value[1]), int(value[2])
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"mc must be three values: passes dropout_p seed, got {value!r}")


def _resolve(args: argparse.Namespace, defaults: dict, presets: dict | None) -> dict:
    """Layer defaults, preset, config file, then explicit flags."""
    resolved = dict(defaults)
    if presets is not None and getattr(args, "preset", None) is not None:
        resolved.update(presets[args.preset])
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{config_path}: invalid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{config_path}: config root must be an object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ConfigError(f"{config_path}: unknown settings {unknown}")
        resolved.update(loaded)
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    return resolved


def _record_config(command: str, primary_output: Path, resolved: dict) -> None:
    doc = {"command": command}
    doc.update(resolved)
    for key, value in doc.items():
        if isinstance(value, Path):
            doc[key] = str(value)
    atomic_write_text(
        primary_output.parent / f"{command}-config.json", canonical_json(doc)
    )


def _domain_label(tag: str) -> int:
    return 1 if tag == "ood" else 0


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("")
            elif isinstance(cell, float):
                cells.append(repr(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = _resolve(args, GEN_DATA_DEFAULTS, presets=None)
    out = _path(cfg, "out")
    noise_kind = _choice(cfg, "preset", NOISE_PRESETS)
    if noise_kind == "homoscedastic":
        noise = Homoscedastic(sigma=_fval(cfg, "sigma"))
    elif noise_kind == "rater-panel":
        noise = RaterPanel(num_raters=_ival(cfg, "raters"), rater_sd=_fval(cfg, "rater_sd"))
    else:
        noise = Heteroscedastic()
    gen_cfg = GenConfig(
        num_systems=_ival(cfg, "num_systems"),
        samples_per_system=_ival(cfg, "samples_per_system"),
        feature_dim=_ival(cfg, "feature_dim"),
        noise_model=noise,
        seed=_ival(cfg, "seed"),
        clip_labels=_bval(cfg, "clip_labels"),
    )
    shift = _fval(cfg, "shift")
    dataset = gen_ood_shift(gen_cfg, shift) if shift > 0.0 else gen_synthetic(gen_cfg)
    level = _fval(cfg, "feature_noise")
    if level > 0.0:
        noise_seed = cfg["feature_noise_seed"]
        noise_seed = gen_cfg.seed if noise_seed is None else int(noise_seed)
        dataset = add_feature_noise(dataset, level, noise_seed)

    if cfg["split"] is not None:
        fractions = _float_list(cfg["split"], "split")
        if len(fractions) != 3:
            raise ConfigError(
                f"split needs exactly three fractions (train,val,test), got {fractions}"
            )
        parts = split_dataset(dataset, fractions, gen_cfg.seed)
        base = str(out)
        if base.endswith(".csv"):
            base = base[: -len(".csv")]
        paths = [Path(f"{base}.{name}.csv") for name in ("train", "val", "test")]
        for part, path in zip(parts, paths):
            save_dataset_csv(part, path)
        written = ", ".join(str(p) for p in paths)
        print(f"wrote {len(dataset)} samples across {written}")
    else:
        save_dataset_csv(dataset, out)
        print(f"wrote {len(dataset)} samples to {out}")
    _record_config("gen-data", out, cfg)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args, TRAIN_DEFAULTS, TRAIN_PRESETS)
    data_path = _path(cfg, "data")
    out = _path(cfg, "out")
    dataset = load_dataset_csv(data_path)
    val_path = _path(cfg, "val", required=False)
    val_dataset = load_dataset_csv(val_path) if val_path is not None else None

    arch = ArchConfig(
        input_dim=dataset.feature_dim,
        trunk_dims=tuple(_int_list(cfg["trunk_dims"], "trunk_dims")),
        head_hidden_dim=_ival(cfg, "head_hidden_dim"),
        dropout_p=_fval(cfg, "dropout_p"),
        activation=_choice(cfg, "activation", ("tanh", "relu")),
    )
    train_cfg = TrainConfig(
        epochs=_ival(cfg, "epochs"),
        batch_size=_ival(cfg, "batch_size"),
        learning_rate=_fval(cfg, "learning_rate"),
        loss=str(cfg["loss"]),
        optimizer=str(cfg["optimizer"]),
        seed=_ival(cfg, "seed"),
    )
    params, history = train(dataset, arch, train_cfg, val_dataset)
    save_checkpoint(params, out)
    history_path = _path(cfg, "history", required=False)
    if history_path is not None:
        save_history_csv(history, history_path)
    _record_config("train", out, cfg)
    final_val = f", final val loss {history.val_loss[-1]:.6f}" if history.val_loss else ""
    print(
        f"trained {train_cfg.epochs} epochs on {len(dataset)} samples; "
        f"final train loss {history.train_loss[-1]:.6f}{final_val}; checkpoint {out}"
    )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = _resolve(args, CALIBRATE_DEFAULTS, presets=None)
    checkpoint_path = _path(cfg, "checkpoint")
    data_path = _path(cfg, "data")
    out = _path(cfg, "out")
    params, existing_r = load_checkpoint(checkpoint_path)
    dataset = load_dataset_csv(data_path)
    y_hat, s = predict_batch(params, dataset.features())
    if existing_r is not None:
        s = s + 2.0 * math.log(existing_r)
    preds = [HeteroPrediction(float(y), float(si)) for y, si in zip(y_hat, s)]
    scale = fit_scale(preds, dataset.labels())
    composite = (existing_r if existing_r is not None else 1.0) * scale.r
    save_checkpoint(params, out, calibration_r=composite)
    _record_config("calibrate", out, cfg)
    print(
        f"fitted scale r={scale.r:.6f} on {scale.num_samples_used} samples; "
        f"stored calibration_r={composite:.6f} in {out}"
    )
    return 0


def _prediction_columns(
    params, scale: CalibrationScale | None, dataset: Dataset, cfg: dict
) -> tuple[np.ndarray, np.ndarray, list | None]:
    """Deterministic predictions plus optional MC results for a dataset."""
    y_det, s_det = predict_batch(params, dataset.features())
    if scale is not None:
        s_det = s_det + 2.0 * math.log(scale.r)
    mc = _mc_triple(cfg["mc"])
    results = None
    if mc is not None:
        passes, dropout_p, seed = mc
        results = mc_forward_dataset(
            params, dataset.features(), MCConfig(passes, dropout_p, seed), scale
        )
    return y_det, s_det, results


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve(args, EVALUATE_DEFAULTS, EVALUATE_PRESETS)
    checkpoint_path = _path(cfg, "checkpoint")
    data_path = _path(cfg, "data")
    report_path = _path(cfg, "report")
    uncertainty = _choice(cfg, "uncertainty", UNCERTAINTY_KINDS)
    point = _choice(cfg, "point", POINT_KINDS)
    bins = _ival(cfg, "bins")

    params, r = load_checkpoint(checkpoint_path)
    scale = CalibrationScale.from_r(r) if r is not None else None
    dataset = load_dataset_csv(data_path)
    y_det, s_det, results = _prediction_columns(params, scale, dataset, cfg)

    if results is None and uncertainty in ("epi-pred", "epi-dist"):
        raise ConfigError(f"--uncertainty {uncertainty} requires MC sampling (--mc)")
    if results is None and point == "mc-mean":
        raise ConfigError("--point mc-mean requires MC sampling (--mc)")

    if uncertainty == "aleatoric":
        var_pred = (
            np.array([res.aleatoric_var for res in results])
            if results is not None
            else np.exp(s_det)
        )
    elif uncertainty == "epi-pred":
        var_pred = np.array([res.epi_pred_var for res in results])
    else:
        var_pred = np.array([res.epi_dist_var for res in results])
    y_pred = (
        np.array([res.y_mean for res in results]) if point == "mc-mean" else y_det
    )

    records = [
        EvalRecord(
            id=sample.id,
            system_id=sample.system_id,
            y_true=sample.y,
            y_pred=float(y_pred[i]),
            var_pred=float(var_pred[i]),
            domain_label=_domain_label(sample.domain_tag),
        )
        for i, sample in enumerate(dataset)
    ]
    report = compute_report(records, num_bins=bins, include_const=_bval(cfg, "nll_const"))
    atomic_write_text(report_path, report.to_json())

    curve_path = _path(cfg, "curve", required=False)
    if curve_path is not None:
        points = error_uncertainty_curve(records, num_bins=bins)
        _write_csv(curve_path, ["mean_uncert", "mean_sq_err"], [list(p) for p in points])

    sweep_path = _path(cfg, "sweep", required=False)
    if sweep_path is not None:
        k = _ival(cfg, "sweep_points")
        if k < 1:
            raise ConfigError(f"sweep_points must be >= 1, got {k}")
        thresholds = np.quantile(var_pred, np.linspace(1.0 / k, 1.0, k))
        rows = selective_sweep(records, [float(t) for t in thresholds])
        _write_csv(
            sweep_path,
            ["threshold", "retained_fraction", "subset_mse"],
            [list(row) for row in rows],
        )

    mc_out_path = _path(cfg, "mc_out", required=False)
    if mc_out_path is not None:
        if results is None:
            raise ConfigError("--mc-out requires MC sampling (--mc)")
        rows = [
            [
                sample.id,
                res.y_mean,
                float(y_det[i]),
                res.aleatoric_var,
                res.epi_pred_var,
                res.epi_dist_var,
            ]
            for i, (sample, res) in enumerate(zip(dataset, results))
        ]
        _write_csv(
            mc_out_path,
            ["id", "y_mean", "y_det", "aleatoric_var", "epi_pred_var", "epi_dist_var"],
            rows,
        )

    _record_config("evaluate", report_path, cfg)
    auc_text = "n/a" if report.auc is None else f"{report.auc:.4f}"
    print(
        f"evaluated {len(records)} samples: mse {report.mse:.4f}, "
        f"srcc_system {report.srcc_system:.4f}, nll {report.nll:.4f}, "
        f"uce {report.uce:.4f}, sharpness {report.sharpness:.6f}, auc {auc_text}"
    )
    return 0


def _cmd_ood_detect(args: argparse.Namespace) -> int:
    cfg = _resolve(args, OOD_DETECT_DEFAULTS, OOD_DETECT_PRESETS)
    checkpoint_path = _path(cfg, "checkpoint")
    in_path = _path(cfg, "in_data")
    ood_path = _path(cfg, "ood_data")
    report_path = _path(cfg, "report")
    uncertainty = _choice(cfg, "uncertainty", UNCERTAINTY_KINDS)
    mc = _mc_triple(cfg["mc"])
    if mc is None:
        raise ConfigError("ood-detect requires MC settings")

    params, r = load_checkpoint(checkpoint_path)
    scale = CalibrationScale.from_r(r) if r is not None else None
    ds_in = load_dataset_csv(in_path)
    ds_ood = load_dataset_csv(ood_path)
    if ds_in.feature_dim != ds_ood.feature_dim:
        raise InputError(
            f"feature widths differ: {ds_in.feature_dim} (in-domain) vs "
            f"{ds_ood.feature_dim} (ood)"
        )

    features = np.vstack([ds_in.features(), ds_ood.features()])
    passes, dropout_p, seed = mc
    results = mc_forward_dataset(params, features, MCConfig(passes, dropout_p, seed), scale)
    field = {
        "aleatoric": "aleatoric_var",
        "epi-pred": "epi_pred_var",
        "epi-dist": "epi_dist_var",
    }[uncertainty]
    scores = [getattr(res, field) for res in results]
    labels = [0] * len(ds_in) + [1] * len(ds_ood)
    auc = roc_auc(scores, labels)

    report = {
        "auc": auc,
        "uncertainty": uncertainty,
        "num_in_domain": len(ds_in),
        "num_ood": len(ds_ood),
    }
    atomic_write_text(report_path, canonical_json(report))

    scores_path = _path(cfg, "scores", required=False)
    if scores_path is not None:
        ids = [s.id for s in ds_in] + [s.id for s in ds_ood]
        rows = [[ids[i], labels[i], float(scores[i])] for i in range(len(ids))]
        _write_csv(scores_path, ["id", "domain_label", "score"], rows)

    _record_config("ood-detect", report_path, cfg)
    print(
        f"ood-detect on {len(ds_in)}+{len(ds_ood)} samples via {uncertainty}: "
        f"auc {auc:.4f}"
    )
    return 0


def _add_common(parser: argparse.ArgumentParser, presets: dict | None) -> None:
    parser.add_argument(
        "--config", default=None, metavar="JSON",
        help="JSON file with settings; explicit flags override it",
    )
    if presets is not None:
        parser.add_argument(
            "--preset", choices=sorted(presets), default=None,
            help="named hyperparameter preset applied beneath config and flags",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mosuq",
        description="Quality-score regression with calibrated uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    g.add_argument("--out", default=None, help="output CSV path (or prefix with --split)")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--num-systems", type=int, default=None)
    g.add_argument("--samples-per-system", type=int, default=None)
    g.add_argument("--feature-dim", type=int, default=None)
    g.add_argument(
        "--preset", choices=NOISE_PRESETS, default=None, help="label noise model"
    )
    g.add_argument("--sigma", type=float, default=None, help="homoscedastic noise std")
    g.add_argument("--raters", type=int, default=None, help="rater panel size")
    g.add_argument("--rater-sd", type=float, default=None, help="per-rater noise std")
    g.add_argument(
        "--shift", type=float, default=None,
        help="translate all cluster centers this far along a seed-derived direction",
    )
    g.add_argument(
        "--feature-noise", type=float, default=None,
        help="additive feature noise level in units of the global feature std",
    )
    g.add_argument("--feature-noise-seed", type=int, default=None)
    g.add_argument(
        "--clip-labels", action=argparse.BooleanOptionalAction, default=None,
        help="clip labels into the clean score range",
    )
    g.add_argument(
        "--split", default=None, metavar="TRAIN,VAL,TEST",
        help="write three CSVs with these fractions instead of one",
    )
    _add_common(g, presets=None)
    g.set_defaults(func=_cmd_gen_data)

    t = sub.add_parser("train", help="train a model on a dataset CSV")
    t.add_argument("--data", default=None, help="training CSV")
    t.add_argument("--val", default=None, help="optional validation CSV")
    t.add_argument("--out", default=None, help="checkpoint JSON path")
    t.add_argument("--history", default=None, help="optional per-epoch loss CSV")
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--batch-size", type=int, default=None)
    t.add_argument("--lr", dest="learning_rate", type=float, default=None)
    t.add_argument("--loss", choices=("nll", "mse"), default=None)
    t.add_argument("--optimizer", choices=("adam", "sgd"), default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument(
        "--trunk-dims", default=None, metavar="W1,W2,...", help="trunk hidden widths"
    )
    t.add_argument("--head-hidden-dim", type=int, default=None)
    t.add_argument("--dropout-p", type=float, default=None)
    t.add_argument("--activation", choices=("tanh", "relu"), default=None)
    _add_common(t, TRAIN_PRESETS)
    t.set_defaults(func=_cmd_train)

    c = sub.add_parser(
        "calibrate", help="fit the variance scale on held-out data"
    )
    c.add_argument("--checkpoint", default=None, help="input checkpoint JSON")
    c.add_argument("--data", default=None, help="calibration CSV")
    c.add_argument("--out", default=None, help="output checkpoint JSON")
    _add_common(c, presets=None)
    c.set_defaults(func=_cmd_calibrate)

    e = sub.add_parser("evaluate", help="score a checkpoint on a dataset CSV")
    e.add_argument("--checkpoint", default=None)
    e.add_argument("--data", default=None, help="evaluation CSV")
    e.add_argument("--report", default=None, help="metrics report JSON path")
    e.add_argument(
        "--mc", nargs=3, default=None, metavar=("PASSES", "P", "SEED"),
        help="enable MC sampling: number of passes, dropout probability, seed",
    )
    e.add_argument("--uncertainty", choices=UNCERTAINTY_KINDS, default=None)
    e.add_argument(
        "--point", choices=POINT_KINDS, default=None,
        help="point prediction: deterministic pass or MC mean",
    )
    e.add_argument("--bins", type=int, default=None, help="calibration/curve bins")
    e.add_argument(
        "--nll-const", action=argparse.BooleanOptionalAction, default=None,
        help="include the Gaussian 1/2 log(2 pi) constant in the NLL metric",
    )
    e.add_argument("--curve", default=None, help="error-uncertainty curve CSV path")
    e.add_argument("--sweep", default=None, help="selective prediction sweep CSV path")
    e.add_argument("--sweep-points", type=int, default=None)
    e.add_argument("--mc-out", default=None, help="per-sample MC summary CSV path")
    _add_common(e, EVALUATE_PRESETS)
    e.set_defaults(func=_cmd_evaluate)

    o = sub.add_parser(
        "ood-detect", help="separate two datasets by predicted uncertainty"
    )
    o.add_argument("--checkpoint", default=None)
    o.add_argument("--in-data", default=None, help="in-domain CSV")
    o.add_argument("--ood-data", default=None, help="out-of-distribution CSV")
    o.add_argument("--report", default=None, help="AUC report JSON path")
    o.add_argument("--scores", default=None, help="per-sample score CSV path")
    o.add_argument(
        "--mc", nargs=3, default=None, metavar=("PASSES", "P", "SEED"),
        help="MC sampling settings",
    )
    o.add_argument("--uncertainty", choices=UNCERTAINTY_KINDS, default=None)
    _add_common(o, OOD_DETECT_PRESETS)
    o.set_defaults(func=_cmd_ood_detect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (ConfigError, InputError, ShapeError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MosuqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
