"""The benchmark's three workloads and the correctness checks on their outputs.

Each workload has a set-up step (timed as setup_s) and a pass that the runner
repeats for the run's duration: ``measure`` runs the timed phase (wall_s) and
``check`` verifies its outputs untimed and untraced. Every call into the
program goes through a module attribute (``trainer.train``, ``cli.main``) so
that the traced run can wrap it; see TRACED_NAMES.

Workloads, and why each was chosen:

* train-paper - train() at the paper preset (batch 8, Adam, NLL, lr 3e-4,
  dropout 0.5) for 50 epochs, then predict_batch, fit_scale and
  compute_report on the test split. About 30k batch-8 steps, so per-step
  overhead in net, loss and trainer is nearly all of the time.
* mc-ood - a checkpoint trained in set-up at the same configuration scores
  in-domain and 3-unit-shifted test rows with 25-pass MC dropout, computes
  the OOD AUC, then makes one-row mc_forward calls with the per-row seeds the
  dataset call uses. mcdropout and one-row net.forward do nearly all the work.
* cli-pipeline - the README walkthrough as separate ``python -m mosuq``
  processes on 50k rows with one training epoch, so interpreter start,
  imports, CSV and JSON I/O, record building and large-batch prediction
  dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from mosuq import calibrate, cli, datagen, mcdropout, metrics, net, trainer

from gauge import SAMPLER, clock
from spans import all_finite_nonnegative, strict_json

BENCH_DIR = Path(__file__).resolve().parent
SPLIT = (0.7, 0.15, 0.15)
OOD_SHIFT = 3.0
MC_PASSES = 25
MC_DROPOUT = 0.5
PAPER_EPOCHS = 50

# The acceptance-suite data: 20 systems x 350 rows with two features.
PAPER_SYSTEMS = 20
PAPER_ROWS_PER_SYSTEM = 350
PAPER_FEATURES = 2

# cli-pipeline: 50k rows of 16 features, one epoch, and a small in/OOD pair.
CLI_SYSTEMS = 20
CLI_ROWS_PER_SYSTEM = 2500
CLI_FEATURES = 16
CLI_OOD_ROWS_PER_SYSTEM = 15

CHECKPOINT_KEYS = {"format_version", "arch", "weights", "biases", "rng_seed_used"}
REPORT_KEYS = {"mse", "srcc_system", "nll", "uce", "sharpness", "auc"}
OOD_REPORT_KEYS = {"auc", "uncertainty", "num_in_domain", "num_ood"}

# Program names the traced run wraps, by the module that calls them. A name
# listed under its own defining module is one the benchmark itself calls.
TRACED_NAMES = {
    "mosuq.cli": (
        "main", "gen_synthetic", "gen_ood_shift", "split_dataset", "save_dataset_csv",
        "load_dataset_csv", "train", "predict_batch", "save_checkpoint",
        "load_checkpoint", "fit_scale", "mc_forward_dataset", "compute_report",
        "error_uncertainty_curve", "selective_sweep", "roc_auc", "atomic_write_text",
    ),
    "mosuq.trainer": (
        "train", "predict_batch", "save_checkpoint", "load_checkpoint", "forward_batch",
        "backward_batch", "nll_loss_batch", "mse_loss_batch", "atomic_write_text",
    ),
    "mosuq.datagen": (
        "gen_synthetic", "gen_ood_shift", "split_dataset", "save_dataset_csv",
        "atomic_write_text",
    ),
    "mosuq.mcdropout": ("mc_forward_dataset", "mc_forward", "forward"),
    "mosuq.calibrate": ("fit_scale",),
    "mosuq.metrics": ("compute_report", "roc_auc"),
}


def _count_csv_save(tracer, args, kwargs, result):
    tracer.counts["datagen.csv_rows"] += len(args[0])
    tracer.counts["datagen.csv_bytes"] += Path(args[1]).stat().st_size


def _count_csv_load(tracer, args, kwargs, result):
    tracer.counts["datagen.csv_rows"] += len(result)
    tracer.counts["datagen.csv_bytes"] += Path(args[0]).stat().st_size


def _count_write(tracer, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.counts["ioutils.write_bytes"] += len(text.encode())


def _count_checkpoint(tracer, args, kwargs, result):
    tracer.counts["trainer.checkpoint_bytes"] += Path(args[1]).stat().st_size


def _count_mc_dataset(tracer, args, kwargs, result):
    tracer.counts["mcdropout.rows"] += len(args[1])
    tracer.counts["mcdropout.passes"] = max(tracer.counts["mcdropout.passes"], args[2].num_passes)


def _count_mc_row(tracer, args, kwargs, result):
    # Rows scored inside mc_forward_dataset are counted by that call.
    if not (tracer.parent_name() or "").startswith("mcdropout."):
        tracer.counts["mcdropout.rows"] += 1
        tracer.counts["mcdropout.passes"] = max(
            tracer.counts["mcdropout.passes"], args[2].num_passes
        )


# function name -> (span name, counter run after each call)
SPAN_OF = {
    "main": ("cli.main", None),
    "gen_synthetic": ("datagen.generate", None),
    "gen_ood_shift": ("datagen.generate", None),
    "split_dataset": ("datagen.split", None),
    "save_dataset_csv": ("datagen.save_csv", _count_csv_save),
    "load_dataset_csv": ("datagen.load_csv", _count_csv_load),
    "atomic_write_text": ("ioutils.write", _count_write),
    "forward_batch": ("net.forward_batch", None),
    "backward_batch": ("net.backward_batch", None),
    "forward": ("net.forward", None),
    "nll_loss_batch": ("loss.batch", None),
    "mse_loss_batch": ("loss.batch", None),
    "train": ("trainer.train", None),
    "predict_batch": ("trainer.predict_batch", None),
    "save_checkpoint": ("trainer.save_checkpoint", _count_checkpoint),
    "load_checkpoint": ("trainer.load_checkpoint", None),
    "fit_scale": ("calibrate.fit_scale", None),
    "mc_forward_dataset": ("mcdropout.mc_forward_dataset", _count_mc_dataset),
    "mc_forward": ("mcdropout.mc_forward", _count_mc_row),
    "compute_report": ("metrics.compute_report", None),
    "roc_auc": ("metrics.roc_auc", None),
    "error_uncertainty_curve": ("metrics.curve", None),
    "selective_sweep": ("metrics.sweep", None),
}


def install_tracing(tracer) -> None:
    for module_name, names in TRACED_NAMES.items():
        for name in names:
            span_name, count = SPAN_OF[name]
            tracer.wrap(module_name, name, span_name, count)


class PassFailed(Exception):
    """An operation of the pass failed, so its remaining steps cannot run."""


class Ledger:
    """Operations and correctness checks attempted, and those that failed, by layer."""

    def __init__(self):
        self.attempted = 0
        self.failed: Counter = Counter()

    @contextlib.contextmanager
    def op(self, layer: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:
            self.failed[layer] += 1
            raise PassFailed(f"{layer}: {exc!r}") from exc

    def check(self, layer: str, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed[layer] += 1
            print(f"check failed [{layer}]: {what}", file=sys.stderr)
        return ok

    def check_json(self, layer: str, path: Path, keys: set) -> dict | None:
        try:
            doc = strict_json(path.read_text())
        except ValueError as exc:
            self.check(layer, False, f"{path.name} is not strict JSON: {exc}")
            return None
        found = doc.keys() if isinstance(doc, dict) else set()
        ok = self.check(layer, keys <= found, f"{path.name} lacks keys {sorted(keys - found)}")
        return doc if ok else None

    def check_checkpoint_roundtrip(self, path: Path) -> bytes:
        """save -> load -> save must reproduce the checkpoint file byte for byte."""
        first = path.read_bytes()
        params, r = trainer.load_checkpoint(path)
        again = path.with_name(path.name + ".again")
        trainer.save_checkpoint(params, again, calibration_r=r)
        self.check("trainer", again.read_bytes() == first, f"{path.name} save/load/save differs")
        again.unlink()
        return first


@dataclass
class PassResult:
    wall_s: float
    rows_per_s: float
    digest: str
    shown: dict = field(default_factory=dict)  # name -> (value, unit), printed only
    latencies_ms: list = field(default_factory=list)
    process_s: dict = field(default_factory=dict)
    peak_rss_mb: float | None = None


def digest(parts: list[tuple[str, bytes]]) -> str:
    h = hashlib.sha256()
    for name, data in parts:
        h.update(name.encode())
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def floats(values) -> bytes:
    return np.asarray(list(values), dtype="<f8").tobytes()


def paper_gen(seed: int) -> datagen.GenConfig:
    return datagen.GenConfig(
        num_systems=PAPER_SYSTEMS,
        samples_per_system=PAPER_ROWS_PER_SYSTEM,
        feature_dim=PAPER_FEATURES,
        noise_model=datagen.Heteroscedastic(),
        seed=seed,
    )


PAPER_ARCH = net.ArchConfig(
    input_dim=PAPER_FEATURES, trunk_dims=(16,), head_hidden_dim=16, dropout_p=0.5,
    activation="tanh",
)


def paper_train(seed: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        epochs=PAPER_EPOCHS, batch_size=8, learning_rate=3e-4, loss="nll",
        optimizer="adam", seed=seed,
    )


def eval_records(split, y_pred, var_pred) -> list:
    return [
        metrics.EvalRecord(
            id=s.id, system_id=s.system_id, y_true=s.y,
            y_pred=float(y_pred[i]), var_pred=float(var_pred[i]),
        )
        for i, s in enumerate(split)
    ]


class TrainPaper:
    layer = "trainer"
    spawns = False
    setups_per_pass = 3

    def setup(self, seed: int, work: Path):
        return datagen.split_dataset(datagen.gen_synthetic(paper_gen(seed)), SPLIT, seed)

    def measure(self, state, seed: int, work: Path, ledger: Ledger, in_process=False):
        tr, va, te = state
        t0 = clock()
        with ledger.op("trainer"):
            params, history = trainer.train(tr, PAPER_ARCH, paper_train(seed), va)
        train_s = clock() - t0
        with ledger.op("trainer"):
            y_va, s_va = trainer.predict_batch(params, va.features())
        with ledger.op("calibrate"):
            preds = [net.HeteroPrediction(float(y), float(s)) for y, s in zip(y_va, s_va)]
            scale = calibrate.fit_scale(preds, va.labels())
        with ledger.op("trainer"):
            y_te, s_te = trainer.predict_batch(params, te.features())
        with ledger.op("metrics"):
            var_te = np.exp(s_te)
            report = metrics.compute_report(
                eval_records(te, y_te, var_te * scale.variance_multiplier)
            )
        return SimpleNamespace(
            wall_s=clock() - t0, train_s=train_s, params=params, history=history,
            scale=scale, y_te=y_te, var_te=var_te, report=report,
        )

    def check(self, state, seed: int, work: Path, ledger: Ledger, out) -> PassResult:
        tr, va, te = state
        report, history, var_te = out.report, out.history, out.var_te
        ledger.check(
            "trainer",
            len(history.train_loss) == PAPER_EPOCHS
            and all(math.isfinite(v) for v in history.train_loss + history.val_loss),
            "loss history is incomplete or non-finite",
        )
        report_path = work / "report.json"
        report_path.write_text(report.to_json())
        ledger.check_json("metrics", report_path, REPORT_KEYS)
        uncalibrated = metrics.compute_report(eval_records(te, out.y_te, var_te))
        ledger.check(
            "calibrate",
            uncalibrated.mse == report.mse and uncalibrated.srcc_system == report.srcc_system,
            "calibration changed mse or srcc_system",
        )
        checkpoint = work / "model.json"
        trainer.save_checkpoint(out.params, checkpoint, calibration_r=out.scale.r)
        checkpoint_bytes = ledger.check_checkpoint_roundtrip(checkpoint)
        rows_per_s = len(tr) * PAPER_EPOCHS / out.train_s
        return PassResult(
            wall_s=out.wall_s,
            rows_per_s=rows_per_s,
            digest=digest([("checkpoint", checkpoint_bytes), ("report", report_path.read_bytes())]),
            shown={
                "train_rows_per_s": (rows_per_s, "1/s"),
                "test_nll": (report.nll, "nats"),
            },
        )


@dataclass
class McState:
    params: net.ModelParams
    features: np.ndarray
    labels: list
    checkpoint: Path


class McOod:
    layer = "mcdropout"
    spawns = False
    # Its one set-up trains for 50 epochs; repeating it would double the run.
    setups_per_pass = 0

    def setup(self, seed: int, work: Path) -> McState:
        gen = paper_gen(seed)
        tr, va, te = datagen.split_dataset(datagen.gen_synthetic(gen), SPLIT, seed)
        ood = datagen.split_dataset(datagen.gen_ood_shift(gen, OOD_SHIFT), SPLIT, seed)[2]
        params, _ = trainer.train(tr, PAPER_ARCH, paper_train(seed), va)
        checkpoint = work / "model.json"
        trainer.save_checkpoint(params, checkpoint)
        params, _ = trainer.load_checkpoint(checkpoint)
        features = np.vstack([te.features(), ood.features()])
        return McState(params, features, [0] * len(te) + [1] * len(ood), checkpoint)

    def measure(self, st: McState, seed: int, work: Path, ledger: Ledger, in_process=False):
        n = len(st.features)
        cfg = mcdropout.MCConfig(num_passes=MC_PASSES, dropout_p=MC_DROPOUT, seed=seed)
        t0 = clock()
        with ledger.op("mcdropout"):
            results = mcdropout.mc_forward_dataset(st.params, st.features, cfg)
        mc_s = clock() - t0
        with ledger.op("metrics"):
            auc = metrics.roc_auc([r.epi_dist_var for r in results], st.labels)
        latencies, singles = [], []
        for i in range(0, n, 2):
            row_cfg = mcdropout.MCConfig(MC_PASSES, MC_DROPOUT, mcdropout.row_seed(seed, i))
            with ledger.op("mcdropout"):
                start = clock()
                single = mcdropout.mc_forward(st.params, st.features[i], row_cfg)
                latencies.append((clock() - start) * 1e3)
            singles.append((i, single))
        return SimpleNamespace(
            wall_s=clock() - t0, mc_s=mc_s, results=results, auc=auc,
            latencies=latencies, singles=singles,
        )

    def check(self, st: McState, seed: int, work: Path, ledger: Ledger, out) -> PassResult:
        n, results, auc, mc_s = len(st.features), out.results, out.auc, out.mc_s
        ledger.check("mcdropout", len(results) == n, f"{len(results)} MC results for {n} rows")
        ledger.check(
            "mcdropout",
            all(
                all_finite_nonnegative((r.epi_pred_var, r.epi_dist_var, r.aleatoric_var))
                for r in results
            ),
            "MC variances must be finite and non-negative",
        )
        ledger.check(
            "mcdropout",
            all(results[i] == single for i, single in out.singles),
            "one-row mc_forward differs from the mc_forward_dataset row",
        )
        ledger.check("metrics", 0.0 <= auc <= 1.0, f"AUC {auc} outside [0, 1]")
        checkpoint_bytes = ledger.check_checkpoint_roundtrip(st.checkpoint)
        return PassResult(
            wall_s=out.wall_s,
            rows_per_s=n / mc_s,
            digest=digest([
                ("checkpoint", checkpoint_bytes),
                ("y_mean", floats(r.y_mean for r in results)),
                ("epi_dist_var", floats(r.epi_dist_var for r in results)),
            ]),
            shown={"mc_rows_per_s": (n / mc_s, "1/s"), "ood_auc": (auc, "1")},
            latencies_ms=out.latencies,
        )


# Runs a command exactly as ``python -m mosuq`` does, with the speed gauge
# sampling when the parent's sampler runs, then writes as JSON the peak resident
# memory of its own address space (a child's rusage maxrss would also include
# the parent's peak, which exec carries over on Linux), the gauge readings and
# the time spent taking them.
_CHILD = """\
import json, runpy, sys
out_path, bench_dir, sample = sys.argv[1:4]
del sys.argv[1:4]
sys.path.insert(0, bench_dir)
from gauge import SAMPLER
if sample == "1":
    SAMPLER.start()
sys.argv[0] = "mosuq"
try:
    runpy.run_module("mosuq", run_name="__main__", alter_sys=True)
finally:
    SAMPLER.stop()
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(out_path, "w") as fh:
        readings, stolen_s = SAMPLER.readings, SAMPLER.stolen_s
        json.dump({"rss_kb": int(kb), "readings": readings, "stolen_s": stolen_s}, fh)
"""


class CliPipeline:
    layer = "cli"
    spawns = True  # runs the program as child processes
    setups_per_pass = 3

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline

    def setup(self, seed: int, work: Path) -> None:
        gen = datagen.GenConfig(
            num_systems=CLI_SYSTEMS, samples_per_system=CLI_OOD_ROWS_PER_SYSTEM,
            feature_dim=CLI_FEATURES, noise_model=datagen.Heteroscedastic(), seed=seed,
        )
        datagen.save_dataset_csv(datagen.gen_synthetic(gen), work / "in.csv")
        datagen.save_dataset_csv(datagen.gen_ood_shift(gen, OOD_SHIFT), work / "ood.csv")

    @staticmethod
    def commands(seed: int, work: Path, out: Path) -> list[tuple[str, list[str]]]:
        s = str(seed)
        return [
            ("gen_data", [
                "gen-data", "--out", f"{out}/data.csv", "--seed", s,
                "--num-systems", str(CLI_SYSTEMS),
                "--samples-per-system", str(CLI_ROWS_PER_SYSTEM),
                "--feature-dim", str(CLI_FEATURES), "--split", "0.7,0.15,0.15",
            ]),
            ("train", [
                "train", "--preset", "paper", "--data", f"{out}/data.train.csv",
                "--val", f"{out}/data.val.csv", "--out", f"{out}/model.json",
                "--epochs", "1", "--seed", s,
            ]),
            ("calibrate", [
                "calibrate", "--checkpoint", f"{out}/model.json",
                "--data", f"{out}/data.val.csv", "--out", f"{out}/calibrated.json",
            ]),
            ("evaluate", [
                "evaluate", "--checkpoint", f"{out}/calibrated.json",
                "--data", f"{out}/data.test.csv", "--report", f"{out}/report.json",
                "--curve", f"{out}/curve.csv", "--sweep", f"{out}/sweep.csv",
            ]),
            ("ood_detect", [
                "ood-detect", "--preset", "paper", "--checkpoint", f"{out}/calibrated.json",
                "--in-data", f"{work}/in.csv", "--ood-data", f"{work}/ood.csv",
                "--report", f"{out}/ood.json", "--scores", f"{out}/scores.csv",
            ]),
        ]

    def _spawn(self, argv: list[str], out_path: Path) -> tuple[int, str]:
        sample = "1" if SAMPLER.running else "0"
        with SAMPLER.paused():  # the child samples for itself
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD, str(out_path), str(BENCH_DIR), sample, *argv],
                env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, self.deadline - time.perf_counter()),
            )
        return proc.returncode, proc.stderr

    def measure(self, state, seed: int, work: Path, ledger: Ledger, in_process=False):
        out = work / "pass"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        process_s, peaks = {}, []
        for label, argv in self.commands(seed, work, out):
            start = clock()
            if in_process:
                with contextlib.redirect_stdout(io.StringIO()):
                    code, err = cli.main(argv), ""
            else:
                code, err = self._spawn(argv, out / f"{label}.child.json")
            process_s[label] = clock() - start
            if not ledger.check("cli", code == 0, f"{label} exited {code}: {err.strip()}"):
                raise PassFailed(label)
            if not in_process:
                child = json.loads((out / f"{label}.child.json").read_text())
                peaks.append(child["rss_kb"] / 1024.0)
                SAMPLER.readings.extend(child["readings"])
                process_s[label] -= child["stolen_s"]
        return SimpleNamespace(
            wall_s=sum(process_s.values()), dir=out, process_s=process_s,
            peak_rss_mb=max(peaks, default=None),
        )

    def check(self, state, seed: int, work: Path, ledger: Ledger, measured) -> PassResult:
        out = measured.dir
        for name in ("model.json", "calibrated.json"):
            ledger.check_json("trainer", out / name, CHECKPOINT_KEYS)
        report = ledger.check_json("metrics", out / "report.json", REPORT_KEYS)
        ood = ledger.check_json("cli", out / "ood.json", OOD_REPORT_KEYS)
        ledger.check_checkpoint_roundtrip(out / "calibrated.json")

        lines = (out / "scores.csv").read_text().splitlines()[1:]
        scores = [float(line.rsplit(",", 1)[1]) for line in lines]
        expected = CLI_SYSTEMS * CLI_OOD_ROWS_PER_SYSTEM * 2
        ledger.check("mcdropout", len(scores) == expected, f"{len(scores)} scores, expected {expected}")
        ledger.check("mcdropout", all_finite_nonnegative(scores), "MC scores must be finite and >= 0")

        # The uncalibrated checkpoint must give the same mse and srcc_system.
        uncal = out / "report-uncalibrated.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "evaluate", "--checkpoint", f"{out}/model.json",
                "--data", f"{out}/data.test.csv", "--report", str(uncal),
            ])
        before = ledger.check_json("metrics", uncal, REPORT_KEYS) if code == 0 else None
        ledger.check(
            "calibrate",
            report is not None and before is not None
            and (before["mse"], before["srcc_system"]) == (report["mse"], report["srcc_system"]),
            "calibration changed mse or srcc_system",
        )

        names = ("model.json", "calibrated.json", "report.json", "curve.csv", "sweep.csv",
                 "ood.json", "scores.csv")
        result = PassResult(
            wall_s=measured.wall_s,
            rows_per_s=CLI_SYSTEMS * CLI_ROWS_PER_SYSTEM / measured.wall_s,
            digest=digest([(name, (out / name).read_bytes()) for name in names]),
            shown={
                "test_nll": (report["nll"] if report else float("nan"), "nats"),
                "ood_auc": (ood["auc"] if ood else float("nan"), "1"),
            },
            process_s=measured.process_s,
            peak_rss_mb=measured.peak_rss_mb,
        )
        shutil.rmtree(out)
        return result

    def import_seconds(self, repeats: int = 3) -> float:
        """Median wall time of a fresh interpreter running ``import mosuq``."""
        times = []
        for _ in range(repeats):
            start = clock()
            subprocess.run(
                [sys.executable, "-c", "import mosuq"], env=self.env, check=True,
                timeout=max(1.0, self.deadline - time.perf_counter()),
            )
            times.append(clock() - start)
        return statistics.median(times)
