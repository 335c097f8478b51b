"""Command-line pipeline: gen-data, train, calibrate, evaluate, ood-detect.

Each command's settings are declared once, in its table below: config key,
kind, default and help text, from which the flags are built. A setting
that feeds a library config (GenConfig, TrainConfig, ArchConfig, MCConfig)
takes its default from that class and its choices from the library's
constants, and `_config` builds the first three from the settings of the
same name. Settings resolve in four layers (lowest priority first): the
library's defaults, the named --preset if one was given, the JSON file
passed via --config, and finally explicit command-line flags. Every
resolved value is checked against its kind before any work starts, and
the config classes check their own ranges. The checked settings are recorded
next to the primary output as `<command>-config.json`, which --config
accepts back, and all outputs are written atomically, so any run can be
reproduced and audited after the fact.

Exit codes: 0 on success, 1 on runtime failures (divergence, violated
invariants), 2 on usage, configuration, or file errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .calibrate import CalibrationScale
from .datagen import (
    DOMAIN_OOD,
    GenConfig,
    Heteroscedastic,
    Homoscedastic,
    RaterPanel,
    add_feature_noise,
    gen_ood_shift,
    gen_synthetic,
    load_dataset_csv,
    save_dataset_csv,
    split_rows,
)
from .errors import CheckpointError, ConfigError, InputError, MosuqError, ShapeError
from .errors import MAX_SIZE, check_float, check_int
from .ioutils import atomic_write_text, canonical_json, read_json_object, write_csv
from .loss import LOSSES
from .mcdropout import MCConfig, mc_forward_dataset
from .metrics import MetricsReport, error_uncertainty_curve, roc_auc, selective_sweep
from .net import ACTIVATIONS, ArchConfig
from .trainer import (
    OPTIMIZERS,
    TrainConfig,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
    save_history_csv,
    train,
)

__all__ = ["main", "build_parser"]

# --uncertainty choice -> the MCSamples column it reads.
UNCERTAINTY_FIELDS = {
    "aleatoric": "aleatoric_var",
    "epi-pred": "epi_pred_var",
    "epi-dist": "epi_dist_var",
}


class Kind(NamedTuple):
    """How a setting is parsed and checked, and the argparse keywords of its flag.

    `parse` takes a flag string or a JSON value and raises TypeError or
    ValueError when it is not one of `noun`; None passes only when
    `optional` is set.
    """

    noun: str
    parse: Callable
    arg: dict = {}
    optional: bool = False


def _int(value, low: float = -math.inf, high: int | None = None) -> int:
    """A flag string or JSON number (an integral float too) as an integer >= low (<= high)."""
    if isinstance(value, str) or (type(value) is float and value.is_integer()):
        value = int(value)
    return check_int("value", value, low, high)


def _float(value, low: float = -math.inf) -> float:
    """A flag string or JSON number as a finite number >= low."""
    return check_float("value", float(value) if isinstance(value, str) else value, low,
                       math.inf, low_open=low == -math.inf)


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(value)
    return value


def _path(value) -> Path:
    """A flag's or a JSON string's path, named by its UTF-8 bytes in any locale
    (the inverse of _record_config's text)."""
    if not isinstance(value, str) or value == "" or "\0" in value:
        raise ValueError(value)
    return Path(os.fsdecode(value.encode("utf-8", "surrogateescape")))


def _items(value) -> list:
    """A flag's comma list, or a JSON array, as a list of items."""
    if isinstance(value, str):
        return [p for p in value.split(",") if p.strip() != ""]
    return list(value)


def _fixed(*parsers: Callable) -> Callable:
    def parse(value) -> tuple:
        items = _items(value)
        if len(items) != len(parsers):
            raise ValueError(value)
        return tuple(p(v) for p, v in zip(parsers, items))

    return parse


def _at_least(low: int) -> Kind:
    return Kind(f"an integer >= {low}", lambda value: _int(value, low))


def _choice(*options: str) -> Kind:
    def parse(value) -> str:
        if value not in options:
            raise ValueError(value)
        return value

    return Kind(f"one of {options}", parse, {"choices": options})


def _optional(kind: Kind) -> Kind:
    return kind._replace(noun=f"{kind.noun} or null", optional=True)


INT = Kind("an integer", _int)
FLOAT = Kind("a finite number", _float)
NON_NEGATIVE = Kind("a finite number >= 0", lambda value: _float(value, 0.0))
BOOL = Kind("true or false", _bool, {"action": argparse.BooleanOptionalAction})
PATH = Kind("a path without NUL bytes or lone surrogates", _path)
SIZE = Kind(f"an integer in [1, {MAX_SIZE}]", lambda value: _int(value, 1, MAX_SIZE))
INT_LIST = Kind(
    "a comma list of integers", lambda v: tuple(_int(x) for x in _items(v)),
    {"metavar": "W1,W2,..."},
)
FRACTIONS = Kind(
    "three comma-separated fractions (train,val,test)", _fixed(_float, _float, _float),
    {"metavar": "TRAIN,VAL,TEST"},
)
MC = Kind(
    "three values: passes dropout_p seed", _fixed(_int, _float, _int),
    {"nargs": 3, "metavar": ("PASSES", "P", "SEED")},
)


class Setting(NamedTuple):
    """One row of a command's table. The flag is `--key` with dashes unless
    `flag` says otherwise; flags default to None, meaning "not given"."""

    key: str
    kind: Kind
    default: object = None
    help: str | None = None
    flag: str | None = None


S = Setting

GEN_DATA_SETTINGS = (
    S("out", PATH, None, "output CSV path (or prefix with --split)"),
    S("seed", INT, GenConfig.seed),
    S("num_systems", INT, GenConfig.num_systems),
    S("samples_per_system", INT, GenConfig.samples_per_system),
    S("feature_dim", INT, GenConfig.feature_dim),
    S("preset", _choice("heteroscedastic", "homoscedastic", "rater-panel"),
      "heteroscedastic", "label noise model"),
    S("sigma", FLOAT, Homoscedastic.sigma, "homoscedastic noise std"),
    S("raters", INT, RaterPanel.num_raters, "rater panel size"),
    S("rater_sd", FLOAT, RaterPanel.rater_sd, "per-rater noise std"),
    S("shift", NON_NEGATIVE, 0.0,
      "translate all cluster centers this far along a seed-derived direction"),
    S("feature_noise", NON_NEGATIVE, 0.0,
      "additive feature noise level in units of the global feature std"),
    S("feature_noise_seed", _optional(_at_least(0))),
    S("clip_labels", BOOL, GenConfig.clip_labels, "clip labels into the clean score range"),
    S("split", _optional(FRACTIONS), None,
      "write three CSVs with these fractions instead of one"),
)

TRAIN_SETTINGS = (
    S("data", PATH, None, "training CSV"),
    S("val", _optional(PATH), None, "optional validation CSV"),
    S("out", PATH, None, "checkpoint JSON path"),
    S("history", _optional(PATH), None, "optional per-epoch loss CSV"),
    S("epochs", INT, TrainConfig.epochs),
    S("batch_size", INT, TrainConfig.batch_size),
    S("learning_rate", FLOAT, TrainConfig.learning_rate, flag="--lr"),
    S("loss", _choice(*LOSSES), TrainConfig.loss),
    S("optimizer", _choice(*OPTIMIZERS), TrainConfig.optimizer),
    S("seed", INT, TrainConfig.seed),
    S("trunk_dims", INT_LIST, ArchConfig.trunk_dims, "trunk hidden widths"),
    S("head_hidden_dim", INT, ArchConfig.head_hidden_dim),
    S("dropout_p", FLOAT, ArchConfig.dropout_p),
    S("activation", _choice(*ACTIVATIONS), ArchConfig.activation),
)

CALIBRATE_SETTINGS = (
    S("checkpoint", PATH, None, "input checkpoint JSON"),
    S("data", PATH, None, "calibration CSV"),
    S("out", PATH, None, "output checkpoint JSON"),
)

EVALUATE_SETTINGS = (
    S("checkpoint", PATH),
    S("data", PATH, None, "evaluation CSV"),
    S("report", PATH, None, "metrics report JSON path"),
    S("mc", _optional(MC), None,
      "enable MC sampling: number of passes, dropout probability, seed"),
    S("uncertainty", _choice(*UNCERTAINTY_FIELDS), "aleatoric"),
    S("point", _choice("det", "mc-mean"), "det",
      "point prediction: deterministic pass or MC mean"),
    S("bins", _at_least(1), 10, "calibration/curve bins"),
    S("nll_const", BOOL, True,
      "include the Gaussian 1/2 log(2 pi) constant in the NLL metric"),
    S("curve", _optional(PATH), None, "error-uncertainty curve CSV path"),
    S("sweep", _optional(PATH), None, "selective prediction sweep CSV path"),
    S("sweep_points", SIZE, 20),
    S("mc_out", _optional(PATH), None, "per-sample MC summary CSV path"),
)

OOD_DETECT_SETTINGS = (
    S("checkpoint", PATH),
    S("in_data", PATH, None, "in-domain CSV"),
    S("ood_data", PATH, None, "out-of-distribution CSV"),
    S("report", PATH, None, "AUC report JSON path"),
    S("scores", _optional(PATH), None, "per-sample score CSV path"),
    S("mc", MC, dataclasses.astuple(MCConfig()), "MC sampling settings"),
    S("uncertainty", _choice(*UNCERTAINTY_FIELDS), "epi-dist"),
)

# The "paper" preset pins the reference hyperparameters: batch size 8,
# learning rate 3e-4, dropout probability 0.5, 25 MC passes, 10 bins.
TRAIN_PRESETS = {"paper": {"batch_size": 8, "learning_rate": 3e-4, "dropout_p": 0.5}}
EVALUATE_PRESETS = {"paper": {"mc": [25, 0.5, 0], "bins": 10}}
OOD_DETECT_PRESETS = {"paper": {"mc": [25, 0.5, 0]}}


class Command(NamedTuple):
    name: str
    help: str
    settings: tuple[Setting, ...]
    run: Callable[[SimpleNamespace], int]
    presets: dict | None = None


def _check(setting: Setting, value):
    if value is None:
        if setting.kind.optional:
            return None
        raise ConfigError(f"missing required setting: {setting.key}")
    try:
        return setting.kind.parse(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{setting.key} must be {setting.kind.noun}, got {value!r}") from None


def _read_config(path: Path, command: Command) -> dict:
    loaded = read_json_object(path, ConfigError)
    recorded_for = loaded.pop("command", command.name)
    if recorded_for != command.name:
        raise ConfigError(
            f"{path}: recorded for command {recorded_for!r}, not {command.name!r}"
        )
    unknown = sorted(set(loaded) - {s.key for s in command.settings})
    if unknown:
        raise ConfigError(f"{path}: unknown settings {unknown}")
    return loaded


def _settings(command: Command, args: argparse.Namespace) -> SimpleNamespace:
    """Layer defaults, preset, config file, then explicit flags, and check
    every value against its kind."""
    raw = {s.key: s.default for s in command.settings}
    if command.presets is not None and args.preset is not None:
        raw.update(command.presets[args.preset])
    if args.config is not None:
        raw.update(_read_config(Path(args.config), command))
    for s in command.settings:
        flag_value = getattr(args, s.key)
        if flag_value is not None:
            raw[s.key] = flag_value
    return SimpleNamespace(**{s.key: _check(s, raw[s.key]) for s in command.settings})


def _record_config(command: str, primary_output: Path, cfg: SimpleNamespace) -> None:
    """Write <command>-config.json. A path is recorded as its file-system bytes
    read as UTF-8 (surrogate escapes for others), the same text in any locale."""
    doc = {"command": command}
    for key, value in vars(cfg).items():
        is_path = isinstance(value, Path)
        doc[key] = os.fsencode(value).decode("utf-8", "surrogateescape") if is_path else value
    atomic_write_text(primary_output.parent / f"{command}-config.json", canonical_json(doc))


def _config(cls, cfg: SimpleNamespace, **given):
    """A library config built from the settings named like its fields;
    `given` supplies the fields that no setting is named after."""
    names = [f.name for f in dataclasses.fields(cls) if f.name not in given]
    return cls(**{name: getattr(cfg, name) for name in names}, **given)


def _cmd_gen_data(cfg: SimpleNamespace) -> int:
    if cfg.preset == "homoscedastic":
        noise = Homoscedastic(sigma=cfg.sigma)
    elif cfg.preset == "rater-panel":
        noise = RaterPanel(num_raters=cfg.raters, rater_sd=cfg.rater_sd)
    else:
        noise = Heteroscedastic()
    gen_cfg = _config(GenConfig, cfg, noise_model=noise)
    dataset = gen_ood_shift(gen_cfg, cfg.shift) if cfg.shift > 0.0 else gen_synthetic(gen_cfg)
    if cfg.feature_noise > 0.0:
        seed = gen_cfg.seed if cfg.feature_noise_seed is None else cfg.feature_noise_seed
        dataset = add_feature_noise(dataset, cfg.feature_noise, seed)

    if cfg.split is not None:
        parts = split_rows(dataset, list(cfg.split), gen_cfg.seed)
        if min(len(rows) for rows in parts) == 0:
            raise ConfigError(f"split {cfg.split} of {len(dataset)} samples leaves a part empty")
        base = str(cfg.out).removesuffix(".csv")
        paths = [Path(f"{base}.{name}.csv") for name in ("train", "val", "test")]
        # Each part is written straight from the generated table, so it is held once.
        for rows, path in zip(parts, paths):
            save_dataset_csv(dataset, path, rows)
        written = ", ".join(str(p) for p in paths)
        print(f"wrote {len(dataset)} samples across {written}")
    else:
        save_dataset_csv(dataset, cfg.out)
        print(f"wrote {len(dataset)} samples to {cfg.out}")
    _record_config("gen-data", cfg.out, cfg)
    return 0


def _cmd_train(cfg: SimpleNamespace) -> int:
    train_cfg = _config(TrainConfig, cfg)
    dataset = load_dataset_csv(cfg.data)
    val_dataset = load_dataset_csv(cfg.val) if cfg.val is not None else None
    arch = _config(ArchConfig, cfg, input_dim=dataset.feature_dim)
    params, history = train(dataset, arch, train_cfg, val_dataset)
    save_checkpoint(params, cfg.out)
    if cfg.history is not None:
        save_history_csv(history, cfg.history)
    _record_config("train", cfg.out, cfg)
    final_val = f", final val loss {history.val_loss[-1]:.6f}" if history.val_loss else ""
    print(
        f"trained {train_cfg.epochs} epochs on {len(dataset)} samples; "
        f"final train loss {history.train_loss[-1]:.6f}{final_val}; checkpoint {cfg.out}"
    )
    return 0


def _load_model(path: Path):
    params, r = load_checkpoint(path)
    return params, (CalibrationScale.from_r(r) if r is not None else None)


def _cmd_calibrate(cfg: SimpleNamespace) -> int:
    params, existing = _load_model(cfg.checkpoint)
    dataset = load_dataset_csv(cfg.data)
    y_hat, s = predict_batch(params, dataset.features())
    if existing is not None:
        s = existing.shift_log_variance(s)
    scale = CalibrationScale.fit(y_hat, s, dataset.labels())
    composite = (existing.r if existing is not None else 1.0) * scale.r
    save_checkpoint(params, cfg.out, calibration_r=composite)
    _record_config("calibrate", cfg.out, cfg)
    print(
        f"fitted scale r={scale.r:.6f} on {scale.num_samples_used} samples; "
        f"stored calibration_r={composite:.6f} in {cfg.out}"
    )
    return 0


def _cmd_evaluate(cfg: SimpleNamespace) -> int:
    mc = MCConfig(*cfg.mc) if cfg.mc is not None else None
    if mc is None:
        if cfg.uncertainty != "aleatoric":
            raise ConfigError(f"--uncertainty {cfg.uncertainty} requires MC sampling (--mc)")
        if cfg.point == "mc-mean":
            raise ConfigError("--point mc-mean requires MC sampling (--mc)")
        if cfg.mc_out is not None:
            raise ConfigError("--mc-out requires MC sampling (--mc)")

    params, scale = _load_model(cfg.checkpoint)
    dataset = load_dataset_csv(cfg.data)
    if cfg.sweep is not None and cfg.sweep_points > len(dataset):  # adds no kept set
        raise ConfigError(f"sweep_points {cfg.sweep_points} exceeds the {len(dataset)} rows")
    y_det, s_det = predict_batch(params, dataset.features())
    if scale is not None:
        s_det = scale.shift_log_variance(s_det)
    if mc is None:
        var_pred = np.exp(s_det)
        y_pred = y_det
    else:
        results = mc_forward_dataset(params, dataset.features(), mc, scale)
        var_pred = getattr(results, UNCERTAINTY_FIELDS[cfg.uncertainty])
        y_pred = results.y_mean if cfg.point == "mc-mean" else y_det

    scored = (dataset.labels(), y_pred, var_pred)
    # Every output is computed before the first file is written, so a
    # failure (such as more curve bins than rows) leaves no partial output.
    report = MetricsReport.of(
        dataset.system_ids, *scored, domain_labels=dataset.domain_tags == DOMAIN_OOD,
        num_bins=cfg.bins, include_const=cfg.nll_const,
    )
    tables = []  # (path, header, columns)
    if cfg.curve is not None:
        points = error_uncertainty_curve(*scored, num_bins=cfg.bins)
        tables.append((cfg.curve, ["mean_uncert", "mean_sq_err"], list(zip(*points))))
    if cfg.sweep is not None:
        k = cfg.sweep_points
        rows = selective_sweep(*scored, np.quantile(var_pred, np.linspace(1.0 / k, 1.0, k)))
        header = ["threshold", "retained_fraction", "subset_mse"]
        tables.append((cfg.sweep, header, list(zip(*rows))))
    if cfg.mc_out is not None:
        variances = (results.aleatoric_var, results.epi_pred_var, results.epi_dist_var)
        header = ["id", "y_mean", "y_det", "aleatoric_var", "epi_pred_var", "epi_dist_var"]
        tables.append((cfg.mc_out, header, [dataset.ids, results.y_mean, y_det, *variances]))

    atomic_write_text(cfg.report, report.to_json())
    for path, header, columns in tables:
        write_csv(path, header, columns)

    _record_config("evaluate", cfg.report, cfg)
    auc_text = "n/a" if report.auc is None else f"{report.auc:.4f}"
    print(
        f"evaluated {len(dataset)} samples: mse {report.mse:.4f}, "
        f"srcc_system {report.srcc_system:.4f}, nll {report.nll:.4f}, "
        f"uce {report.uce:.4f}, sharpness {report.sharpness:.6f}, auc {auc_text}"
    )
    return 0


def _cmd_ood_detect(cfg: SimpleNamespace) -> int:
    mc = MCConfig(*cfg.mc)
    params, scale = _load_model(cfg.checkpoint)
    ds_in = load_dataset_csv(cfg.in_data)
    ds_ood = load_dataset_csv(cfg.ood_data)
    if ds_in.feature_dim != ds_ood.feature_dim:
        raise InputError(
            f"feature widths differ: {ds_in.feature_dim} (in-domain) vs "
            f"{ds_ood.feature_dim} (ood)"
        )

    features = np.vstack([ds_in.features(), ds_ood.features()])
    results = mc_forward_dataset(params, features, mc, scale)
    scores = getattr(results, UNCERTAINTY_FIELDS[cfg.uncertainty])
    labels = [0] * len(ds_in) + [1] * len(ds_ood)
    auc = roc_auc(scores, labels)

    report = {
        "auc": auc,
        "uncertainty": cfg.uncertainty,
        "num_in_domain": len(ds_in),
        "num_ood": len(ds_ood),
    }
    atomic_write_text(cfg.report, canonical_json(report))

    if cfg.scores is not None:
        ids = np.concatenate([ds_in.ids, ds_ood.ids])
        write_csv(cfg.scores, ["id", "domain_label", "score"], [ids, labels, scores])

    _record_config("ood-detect", cfg.report, cfg)
    print(
        f"ood-detect on {len(ds_in)}+{len(ds_ood)} samples via {cfg.uncertainty}: "
        f"auc {auc:.4f}"
    )
    return 0


COMMANDS = {
    c.name: c
    for c in (
        Command("gen-data", "generate a synthetic dataset CSV", GEN_DATA_SETTINGS,
                _cmd_gen_data),
        Command("train", "train a model on a dataset CSV", TRAIN_SETTINGS, _cmd_train,
                TRAIN_PRESETS),
        Command("calibrate", "fit the variance scale on held-out data",
                CALIBRATE_SETTINGS, _cmd_calibrate),
        Command("evaluate", "score a checkpoint on a dataset CSV", EVALUATE_SETTINGS,
                _cmd_evaluate, EVALUATE_PRESETS),
        Command("ood-detect", "separate two datasets by predicted uncertainty",
                OOD_DETECT_SETTINGS, _cmd_ood_detect, OOD_DETECT_PRESETS),
    )
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mosuq",
        description="Quality-score regression with calibrated uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        p = sub.add_parser(command.name, help=command.help)
        for s in command.settings:
            p.add_argument(
                s.flag or "--" + s.key.replace("_", "-"),
                dest=s.key, default=None, help=s.help, **s.kind.arg,
            )
        p.add_argument(
            "--config", default=None, metavar="JSON",
            help="JSON file with settings; explicit flags override it",
        )
        if command.presets is not None:
            p.add_argument(
                "--preset", choices=sorted(command.presets), default=None,
                help="named hyperparameter preset applied beneath config and flags",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    command = COMMANDS[args.command]
    try:
        return command.run(_settings(command, args))
    except (ConfigError, InputError, ShapeError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MosuqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
