"""The input boundary gate.

Malformed values go to every array, number and flag argument of the names
that ``mosuq/__init__.py`` exports, and to every field of its configs:
ragged, text, complex, object, bool, numpy scalars, nan or inf, integers
beyond numpy's sizes, empty and wrong-rank values. Whatever a call makes of
one, it either returns or raises a ``MosuqError``; any other exception, and
any warning (numpy's ``ComplexWarning`` among them), fails the gate. The documented
``DegenerateCalibrationWarning`` is the one warning let through. Result
types (``MCSamples``, ``TrainHistory``) are not fuzzed.

The same values, where JSON can hold them, go into each CLI command's
``--config`` file, one setting at a time, with valid inputs for the rest:
each run must exit 2 and write no file. So do sizes beyond ``np.intp`` and
paths holding a NUL byte.

The file section gives malformed files (not UTF-8, an integer beyond
Python's digit limit, nesting beyond the recursion limit, a root that is
not an object, truncated, empty, a directory) to ``load_checkpoint``, which
must raise ``CheckpointError``, and to every command that reads them, as
``--config`` or ``--checkpoint``: exit 2, one error line naming the file, no
output. A hand-written CSV with non-ASCII ids runs through a chain of
commands under an ASCII locale and must give the default locale's bytes.
"""

from __future__ import annotations

import codecs
import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mosuq
from mosuq.calibrate import DegenerateCalibrationWarning
from mosuq import cli
from mosuq.cli import BOOL, COMMANDS, FRACTIONS, INT_LIST, MC, PATH, main
from mosuq.errors import MosuqError

MALFORMED = [
    [[1.0, 2.0], [3.0]], [1.0, [2.0], 3.0],  # ragged
    "abc", "1.5", "", ["a", "b", "c"],  # text
    1j, [1j, 2.0, 3.0], np.array([[1 + 1j, 2.0], [3.0, 4.0], [5.0, 6.0]]),  # complex
    object(), None, {}, [object(), 1.0, 2.0], [None, 1.0, 2.0],  # objects
    True, [True, False, True],  # bools
    np.float32(0.5), np.int64(2), np.complex128(1j), np.str_("1"), np.bool_(True),
    np.datetime64("2020-01-01"),  # numpy scalars
    math.nan, math.inf, -math.inf, [math.nan, 1.0, 2.0], [[math.inf, 0.0]] * 3,  # nan, inf
    [], np.empty(0), np.empty((0, 2)), np.empty((3, 0)),  # empty
    np.zeros((3, 2, 1)), np.float64(1.0), np.zeros(3), np.zeros((3, 3)),  # wrong rank
    -1, 2.5, 10**400, -(10**400), 2**64,  # beyond every numpy size
]

# Random arrays of each malformed kind, of rank 0 to 3.
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
GENERATED = st.one_of(
    hnp.arrays(np.complex128, _SHAPES, elements=st.complex_numbers(max_magnitude=4, allow_nan=False)),
    hnp.arrays("U2", _SHAPES),
    hnp.arrays(bool, _SHAPES),
    hnp.arrays(np.float64, _SHAPES, elements=st.sampled_from([0.5, -1.0, math.nan, math.inf])),
    hnp.arrays(np.float32, _SHAPES, elements=st.sampled_from([0.25, 2.0])),
    st.lists(st.lists(st.integers(-2, 2), max_size=3), min_size=2, max_size=3),
)

ARCH = mosuq.ArchConfig(input_dim=2, trunk_dims=(3,), head_hidden_dim=3)
PARAMS = mosuq.init_params(ARCH, 0)
X = np.array([[0.1, 0.2], [0.3, -0.4], [1.0, 0.0]])
COL, VAR, LABELS = [1.0, 2.0, 3.5], [0.5, 1.0, 2.0], [0, 1, 1]
SYSTEMS = ["s1", "s2", "s1"]
DATASET = mosuq.Dataset(["a", "b", "c"], SYSTEMS, ["in_domain"] * 3, COL, [math.nan] * 3, X)
GEN = mosuq.GenConfig(num_systems=2, samples_per_system=3, feature_dim=2)
MCCFG = mosuq.MCConfig(num_passes=2)


def _fields(cls, valid: dict):
    """One slot per field of a config class: the config built with the value
    in that field, and the valid values in the others."""
    return {
        f"{cls.__name__}.{name}": (lambda v, name=name: cls(**{**valid, name: v}))
        for name in cls.__dataclass_fields__
    }


def _backward(d_y_hat, d_s):
    work = mosuq.forward_batch(PARAMS, X)[2]
    return mosuq.backward_batch(work, PARAMS, d_y_hat, d_s)


def _columns(name: str, fn, count: int, valid: list):
    """One slot per array argument of fn, the first count positions of valid."""
    return {
        f"{name}[{i}]": (lambda v, i=i: fn(*valid[:i], v, *valid[i + 1 :]))
        for i in range(count)
    }


SLOTS = {
    **_fields(mosuq.ArchConfig, {"input_dim": 2}),
    **_fields(mosuq.TrainConfig, {}),
    **_fields(mosuq.MCConfig, {}),
    **_fields(mosuq.GenConfig, {"num_systems": 2, "samples_per_system": 3, "feature_dim": 2}),
    **_fields(mosuq.Homoscedastic, {}),
    **_fields(mosuq.RaterPanel, {}),
    "GenConfig.noise_model in gen_synthetic": lambda v: mosuq.gen_synthetic(
        mosuq.GenConfig(num_systems=2, samples_per_system=3, feature_dim=2, noise_model=v)
    ),
    "GenConfig.clip_labels in gen_synthetic": lambda v: mosuq.gen_synthetic(
        mosuq.GenConfig(num_systems=2, samples_per_system=3, feature_dim=2, clip_labels=v)
    ),
    "CalibrationScale.r": lambda v: mosuq.CalibrationScale(v, 0, 1.0),
    "CalibrationScale.from_r": mosuq.CalibrationScale.from_r,
    **_columns("CalibrationScale.fit", mosuq.CalibrationScale.fit, 3, [COL, VAR, COL]),
    **_columns("Dataset", mosuq.Dataset, 6,
               [["a", "b", "c"], SYSTEMS, ["in_domain"] * 3, COL, [math.nan] * 3, X]),
    "gen_ood_shift.shift": lambda v: mosuq.gen_ood_shift(GEN, v),
    "add_feature_noise.level": lambda v: mosuq.add_feature_noise(DATASET, v, 0),
    "add_feature_noise.seed": lambda v: mosuq.add_feature_noise(DATASET, 0.5, v),
    "split_dataset.fractions": lambda v: mosuq.split_dataset(DATASET, v, 0),
    "split_dataset.seed": lambda v: mosuq.split_dataset(DATASET, (0.5, 0.5), v),
    "split_rows.fractions": lambda v: mosuq.split_rows(DATASET, v, 0),
    "split_rows.seed": lambda v: mosuq.split_rows(DATASET, (0.5, 0.5), v),
    "save_dataset_csv.rows": lambda v: mosuq.save_dataset_csv(DATASET, SCRATCH / "d.csv", v),
    "init_params.seed": lambda v: mosuq.init_params(ARCH, v),
    "ModelParams.flat": lambda v: mosuq.ModelParams(ARCH, v, 0),
    "Workspace.rows": lambda v: mosuq.Workspace(PARAMS, v),
    "forward_batch.x": lambda v: mosuq.forward_batch(PARAMS, v),
    "forward_batch.mask": lambda v: mosuq.forward_batch(PARAMS, X, v),
    "backward_batch.d_y_hat": lambda v: _backward(v, VAR),
    "backward_batch.d_s": lambda v: _backward(VAR, v),
    **_columns("nll_loss_batch", mosuq.nll_loss_batch, 3, [COL, VAR, COL]),
    **_columns("mse_loss_batch", mosuq.mse_loss_batch, 3, [COL, VAR, COL]),
    "mc_forward.x": lambda v: mosuq.mc_forward(PARAMS, v, MCCFG),
    "mc_forward_dataset.features": lambda v: mosuq.mc_forward_dataset(PARAMS, v, MCCFG),
    "variance_of": mosuq.variance_of,
    "save_checkpoint.calibration_r": lambda v: mosuq.save_checkpoint(PARAMS, SCRATCH / "c", v),
    **_columns("mse", mosuq.mse, 2, [COL, COL]),
    **_columns("srcc_system", mosuq.srcc_system, 3, [SYSTEMS, COL, COL]),
    **_columns("nll_metric", mosuq.nll_metric, 4, [COL, COL, VAR, True]),
    **_columns("uce", mosuq.uce, 4, [COL, COL, VAR, 2]),
    **_columns("sharpness", mosuq.sharpness, 1, [VAR]),
    **_columns("roc_auc", mosuq.roc_auc, 2, [VAR, LABELS]),
    **_columns("error_uncertainty_curve", mosuq.error_uncertainty_curve, 4, [COL, COL, VAR, 2]),
    **_columns("selective_sweep", mosuq.selective_sweep, 4, [COL, COL, VAR, [0.5, 1.0]]),
    **_columns("MetricsReport.of", mosuq.MetricsReport.of, 7,
               [SYSTEMS, COL, COL, VAR, LABELS, 2, True]),
}


SCRATCH = Path()  # a temporary directory, set for each test


@pytest.fixture(autouse=True)
def _scratch(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "SCRATCH", tmp_path)


def _gate(call, value) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", DegenerateCalibrationWarning)
        try:
            call(value)
        except MosuqError:
            pass


@pytest.mark.parametrize("slot", SLOTS)
def test_every_malformed_value_gives_only_package_errors(slot):
    for value in MALFORMED:
        _gate(SLOTS[slot], value)


@settings(
    derandomize=True, database=None, max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(slot=st.sampled_from(sorted(SLOTS)), value=GENERATED)
def test_generated_malformed_arrays_give_only_package_errors(slot, value):
    _gate(SLOTS[slot], value)


@pytest.mark.parametrize("rows", [2**62, 2**63 - 1])
def test_workspace_rows_numpy_cannot_size_are_a_config_error(rows):
    """Sizes within np.intp whose buffers numpy refuses before allocating
    anything: check_int bounds rows by the widest buffer's bytes a row."""
    with pytest.raises(mosuq.errors.ConfigError, match="rows must be an integer in"):
        mosuq.Workspace(PARAMS, rows)


def test_every_exported_array_or_config_name_has_a_slot():
    covered = {name.split(".")[0].split("[")[0] for name in SLOTS}
    skipped = {  # paths, results, no fields, and names that take only checked configs
        "load_dataset_csv", "load_checkpoint", "MCSamples",
        "TrainHistory", "Heteroscedastic", "gen_synthetic", "train",
    }
    exported = {
        name for name, value in vars(mosuq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported - skipped == covered


def _json_form(value) -> bool:
    try:
        return json.loads(json.dumps(value)) is not None
    except TypeError:
        return False


# The values of MALFORMED that JSON holds, for the CLI, but for numeric text
# and finite numbers, which a setting may accept ("1.5" is a number).
JSON_VALUES = [
    v for v in MALFORMED
    if type(v) in (list, str, bool, float, dict) and _json_form(v) and v != "1.5"
    and not (type(v) is float and math.isfinite(v))
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny dataset and checkpoint, so every command's other inputs are valid."""
    root = tmp_path_factory.mktemp("gate")
    data = mosuq.gen_synthetic(mosuq.GenConfig(num_systems=2, samples_per_system=6, feature_dim=2))
    mosuq.save_dataset_csv(data, root / "d.csv")
    arch = mosuq.ArchConfig(input_dim=2, trunk_dims=(3,), head_hidden_dim=3)
    params, _ = mosuq.train(data, arch, mosuq.TrainConfig(epochs=1, batch_size=4))
    mosuq.save_checkpoint(params, root / "ck.json", calibration_r=1.5)
    return root


def _valid_settings(command: str, root, out) -> dict:
    data, ck = str(root / "d.csv"), str(root / "ck.json")
    return {
        "gen-data": {"out": str(out / "g.csv"), "num_systems": 2, "samples_per_system": 3,
                     "feature_dim": 2},
        "train": {"data": data, "out": str(out / "ck.json"), "epochs": 1, "batch_size": 4},
        "calibrate": {"checkpoint": ck, "data": data, "out": str(out / "ck.json")},
        "evaluate": {"checkpoint": ck, "data": data, "report": str(out / "r.json"),
                     "mc": [2, 0.5, 0]},
        "ood-detect": {"checkpoint": ck, "in_data": data, "ood_data": data,
                       "report": str(out / "r.json"), "mc": [2, 0.5, 0]},
    }[command]


def _placed(kind, value):
    """value where a setting of this kind reads a number: in place of the first
    item of a list kind, or as the whole value; None where it would be valid."""
    if kind.parse in (INT_LIST.parse, FRACTIONS.parse, MC.parse):
        return [value, *{INT_LIST.parse: [], FRACTIONS.parse: [0.5, 0.5],
                         MC.parse: [0.5, 0]}[kind.parse]]
    if (kind.parse is PATH.parse and isinstance(value, str)) or (
        kind.parse is BOOL.parse and isinstance(value, bool)
    ):
        return None
    return value


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_config_values_exit_2_without_writing(command, inputs, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))  # for speed
    config, ok, out = tmp_path / "cfg.json", tmp_path / "ok", tmp_path / "out"
    ok.mkdir()
    out.mkdir()
    config.write_text(json.dumps(_valid_settings(command, inputs, ok)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", str(config)]) == 0  # the valid settings alone run
    valid, checked = _valid_settings(command, inputs, out), 0
    for setting in COMMANDS[command].settings:
        for value in JSON_VALUES:
            placed = _placed(setting.kind, value)
            if placed is None:
                continue
            config.write_text(json.dumps({**valid, setting.key: placed}))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([command, "--config", str(config)])
            assert code == 2, (setting.key, placed, err.getvalue())
            assert list(out.iterdir()) == [], (setting.key, placed)
            checked += 1
    assert checked > 0


def _flags(settings: dict) -> list[str]:
    """settings as command-line flags (a list value gives one argument per item)."""
    argv = []
    for key, value in settings.items():
        argv += [f"--{key.replace('_', '-')}", *map(str, value if type(value) is list else [value])]
    return argv


def _run(argv: list[str]) -> tuple[int, str]:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, err.getvalue()


def test_cli_sizes_beyond_np_intp_exit_2_before_the_data_is_read(inputs, tmp_path, monkeypatch):
    def load(path):
        raise AssertionError("the data was read before --sweep-points was checked")

    monkeypatch.setattr(cli, "load_dataset_csv", load)
    config, out = tmp_path / "cfg.json", tmp_path / "out"
    out.mkdir()
    valid = {**_valid_settings("evaluate", inputs, out), "sweep": str(out / "s.csv")}
    for points in [mosuq.errors.MAX_SIZE + 1, 2**64, 10**30]:
        config.write_text(json.dumps({**valid, "sweep_points": points}))
        for argv in (["--config", str(config)], [*_flags(valid), "--sweep-points", str(points)]):
            code, err = _run(["evaluate", *argv])
            assert code == 2 and "sweep_points must be an integer in" in err, (argv, err)
            assert list(out.iterdir()) == [], argv


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_paths_with_a_nul_byte_exit_2_without_writing(command, inputs, tmp_path):
    config, out = tmp_path / "cfg.json", tmp_path / "out"
    out.mkdir()
    valid = _valid_settings(command, inputs, out)
    paths = [s.key for s in COMMANDS[command].settings if s.kind.parse is PATH.parse]
    for key in paths:
        config.write_text(json.dumps({**valid, key: str(out / "a\0b.csv")}))
        code, err = _run([command, "--config", str(config)])
        assert code == 2 and f"{key} must be a path" in err, (key, err)
        assert list(out.iterdir()) == [], key
    assert paths


# The file section: malformed files where a JSON file is read. None is a directory.
MALFORMED_FILES = {
    "non-utf8": b'{"seed": "caf\xe9"}',
    "long-integer": b'{"seed": ' + b"7" * 5000 + b"}",
    "deep-array": b"[" * 100_000 + b"]" * 100_000,
    "non-object": b"[1, 2, 3]\n",
    "truncated": b'{"format_version": 1, "arch": {',
    "empty": b"",
    "directory": None,
}


@pytest.fixture(params=MALFORMED_FILES)
def malformed_file(request, tmp_path) -> Path:
    path = tmp_path / f"{request.param}.json"
    content = MALFORMED_FILES[request.param]
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    return path


def test_every_malformed_file_is_a_checkpoint_error(malformed_file):
    with pytest.raises(mosuq.errors.CheckpointError, match=re.escape(str(malformed_file))):
        mosuq.load_checkpoint(malformed_file)


def test_every_malformed_file_exits_2_naming_it(malformed_file, inputs, tmp_path, monkeypatch):
    """Given as --config to every command, and as --checkpoint to every command
    that reads one: one error line naming the file, no traceback, no output."""
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))  # for speed
    out = tmp_path / "out"
    out.mkdir()
    runs = []
    for command in COMMANDS:
        valid = _valid_settings(command, inputs, out)
        runs.append([command, *_flags(valid), "--config", str(malformed_file)])
        if "checkpoint" in valid:
            runs.append([command, *_flags({**valid, "checkpoint": str(malformed_file)})])
    for argv in runs:
        code, err = _run(argv)
        assert code == 2, (argv, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(malformed_file) in err and "Traceback" not in err, err
        assert list(out.iterdir()) == [], argv
    assert len(runs) == 8


# The text of a hand-written dataset: quoted ids, CRLF line ends, a non-ASCII id.
HAND_CSV = "\r\n".join([
    "id,system_id,domain_tag,y,true_noise_var,f0,f1",
    '"a,1",sys000,in_domain,3.1,0.04,0.5,-0.2',
    '"b ""2""",sys000,ood,2.7,,1.5,0.3',
    '"c\r\nd",sys001,in_domain,3.9,0.09,-0.4,0.1',
    "café,sys001,ood,2.2,,2.5,1.25",
    "é2,sys002,in_domain,3.3,0.01,0.1,0.7",
    "f,sys002,ood,2.9,,-1.0,0.2",
    "",
])
ASCII_LOCALE = {"LC_ALL": "POSIX", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def _chain(root: Path, env: dict) -> dict[str, bytes]:
    """The files written by train, calibrate, evaluate and ood-detect over
    hand.csv, run as separate processes in root."""
    root.mkdir()
    (root / "hand.csv").write_bytes(HAND_CSV.encode())
    for argv in (
        ["train", "--data", "hand.csv", "--out", "ck.json", "--epochs", "2", "--batch-size", "2"],
        ["calibrate", "--checkpoint", "ck.json", "--data", "hand.csv", "--out", "cal.json"],
        ["evaluate", "--checkpoint", "cal.json", "--data", "hand.csv", "--report", "r.json",
         "--mc", "2", "0.5", "0", "--mc-out", "mc.csv"],
        ["ood-detect", "--checkpoint", "cal.json", "--in-data", "hand.csv", "--ood-data",
         "hand.csv", "--report", "ood.json", "--mc", "2", "0.5", "0", "--scores", "s.csv"],
    ):
        proc = subprocess.run([sys.executable, "-m", "mosuq", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def _locale_envs() -> tuple[dict, dict]:
    """The environment of a subprocess that imports this mosuq, under the
    default locale and under an ASCII one."""
    src = str(Path(mosuq.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    ascii_env = {**env, **ASCII_LOCALE}
    probe = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
        env=ascii_env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert codecs.lookup(probe.stdout.strip()).name != "utf-8"  # the locale really is not UTF-8
    return env, ascii_env


def test_a_non_ascii_chain_writes_the_same_bytes_under_an_ascii_locale(tmp_path):
    env, ascii_env = _locale_envs()
    default = _chain(tmp_path / "default", env)
    assert "café".encode() in default["mc.csv"] and "café".encode() in default["s.csv"]
    assert _chain(tmp_path / "ascii", ascii_env) == default


@pytest.mark.parametrize("given", ["flag", "config"])
def test_a_non_ascii_path_is_recorded_as_the_same_text_in_any_locale(tmp_path, given):
    """<command>-config.json records a path's file-system bytes read as UTF-8,
    not the locale's surrogate escapes of them, and a config file's path
    names the file by its UTF-8 bytes under either locale."""
    records = []
    for name, env in zip(("default", "ascii"), _locale_envs()):
        root = tmp_path / name
        root.mkdir()
        (root / "hand.csv").write_bytes(HAND_CSV.encode())
        (root / "cfg.json").write_text('{"out": "ck-\\u00e9.json"}', encoding="ascii")
        out = ["--out", "ck-é.json"] if given == "flag" else ["--config", "cfg.json"]
        argv = ["train", "--data", "hand.csv", *out, "--epochs", "1", "--batch-size", "2"]
        proc = subprocess.run([sys.executable, "-m", "mosuq", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (root / "ck-é.json").is_file()
        records.append((root / "train-config.json").read_bytes())
    assert records[0] == records[1]
    assert json.loads(records[0])["out"] == "ck-é.json"
