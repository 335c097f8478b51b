"""Run one mosuq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports ``mosuq`` from ``src/``.
With ``--trace 0`` it sets up the workload, repeats the timed pass for
``--seconds`` seconds (at least once), checks every output, and reports the
end-to-end metrics as medians over set-ups and passes, each scaled to the
reference speed of the gauge sampled while it ran (see gauge.py; the raw
medians are printed too). With ``--trace 1`` it
sets up once under tracing, runs one traced pass between two untraced ones, and
reports the per-layer metrics of the traced pass plus the tracing overhead.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}``.
Lines before it give the same metrics for reading, the workload-specific
figures, the output digest and the machine metadata. Spans of a traced run are
written to ``.perfbench/trace-<workload>-<seed>.json``. Exit status is 2 when
the checkout has no ``src/mosuq``, 1 when no pass completed, else 0.
"""

from __future__ import annotations

import os

# One BLAS thread for this process and its children, so the figures measure
# the program rather than the scheduler. Set before numpy is imported.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from gauge import REF_S, SAMPLER, clock  # noqa: E402
from spans import Tracer, count_children, summarize, tail_percentile  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-paper", "mc-ood", "cli-pipeline")
LAYERS = ("cli", "datagen", "net", "loss", "trainer", "calibrate", "mcdropout", "metrics", "ioutils")
# The cores this process may use before it pins itself to one of them.
ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))
# A run must end within 180 s; later passes are skipped rather than overrun.
BUDGET_S = 165.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_metadata() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(ALLOWED_CPUS),
        "pinned_cpu": max(ALLOWED_CPUS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_VARS,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def self_peak_rss_mb() -> float:
    """High-water resident memory of this process's own address space."""
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    return float(kb) / 1024.0


def end_to_end(setups, passes) -> dict:
    """Medians over set-ups and passes, each scaled to the gauge's reference speed.

    setups holds (seconds, first, last) and passes (PassResult, first, last),
    first and last bounding the gauge readings taken while each one ran.
    """
    peaks = [p.peak_rss_mb for p, _, _ in passes if p.peak_rss_mb is not None]
    return {
        "setup_s": metric(
            statistics.median(s * SAMPLER.factor(i, j) for s, i, j in setups), "s"
        ),
        "wall_s": metric(
            statistics.median(p.wall_s * SAMPLER.factor(i, j) for p, i, j in passes), "s"
        ),
        "rows_per_s": metric(
            statistics.median(p.rows_per_s / SAMPLER.factor(i, j) for p, i, j in passes), "1/s"
        ),
        "peak_rss_mb": metric(max(peaks) if peaks else self_peak_rss_mb(), "MB"),
    }


def raw_lines(setups, passes) -> list[str]:
    """The unscaled medians and the gauge readings behind the scale factors."""
    readings = SAMPLER.readings
    return [
        f"raw_setup_s {statistics.median(s for s, _, _ in setups)!r} s",
        f"raw_wall_s {statistics.median(p.wall_s for p, _, _ in passes)!r} s",
        f"raw_rows_per_s {statistics.median(p.rows_per_s for p, _, _ in passes)!r} 1/s",
        f"gauge_s mean {statistics.fmean(readings)!r} median {statistics.median(readings)!r} "
        f"n={len(readings)} ref {REF_S!r}",
        "gauge_factors " + " ".join(f"{SAMPLER.factor(i, j):.4f}" for _, i, j in passes),
    ]


def shown_lines(passes, ledger) -> list[str]:
    """The workload-specific figures, medians over passes."""
    lines = []
    for name, (_, unit) in passes[0].shown.items():
        lines.append(f"{name} {statistics.median(p.shown[name][0] for p in passes)!r} {unit}")
    latencies = sorted(x for p in passes for x in p.latencies_ms)
    if latencies:
        tail = tail_percentile(len(latencies))
        lines.append(f"mc_row_ms_p50 {float(np.percentile(latencies, 50))!r} ms n={len(latencies)}")
        lines.append(
            f"mc_row_ms_p{tail:g} {float(np.percentile(latencies, tail))!r} ms n={len(latencies)}"
        )
    failed = sum(ledger.failed.values())
    lines.append(f"error_rate {failed / ledger.attempted!r} ({failed}/{ledger.attempted})")
    return lines


def under_tracing(tracer, span_name, fn, *args):
    """Call fn inside a root span with every traced program name wrapped."""
    import workloads  # imports mosuq, so only after main() has put src/ on the path

    workloads.install_tracing(tracer)
    try:
        with tracer.span(span_name):
            return fn(*args)
    finally:
        tracer.restore()


def run_pass(wl, state, seed, work, ledger, in_process=False, tracer=None):
    """One timed pass; checks run afterwards with every traced name restored."""
    args = (state, seed, work, ledger, in_process)
    if tracer is None:
        out = wl.measure(*args)
    else:
        out = under_tracing(tracer, "bench.pass", wl.measure, *args)
    return wl.check(state, seed, work, ledger, out)


def sampled(fn, *args):
    """Call fn; return its result, its seconds and the gauge readings it spanned."""
    first, start = len(SAMPLER.readings), clock()
    out = fn(*args)
    return out, clock() - start, first, len(SAMPLER.readings)


def untraced(wl, seed, seconds, work, ledger, deadline):
    # Cheap set-ups are repeated before every pass, so that their median
    # samples the machine at several moments of the run, not one.
    setups, passes = [], []
    SAMPLER.start()
    try:
        state, *timing = sampled(wl.setup, seed, work)
        setups.append(timing)
        start = time.perf_counter()
        while True:
            for _ in range(wl.setups_per_pass):
                state, *timing = sampled(wl.setup, seed, work)
                setups.append(timing)
            try:
                result, _, first, last = sampled(run_pass, wl, state, seed, work, ledger)
                passes.append((result, first, last))
            except Exception as exc:
                if not passes:
                    raise
                traceback.print_exc()
                ledger.check(wl.layer, False, f"pass {len(passes) + 1} did not complete: {exc!r}")
                break
            now = time.perf_counter()
            if now - start >= seconds or now + 1.5 * result.wall_s > deadline:
                break
    finally:
        SAMPLER.stop()
    digests = {p.digest for p, _, _ in passes}
    ledger.check(wl.layer, len(digests) == 1, f"repeat passes gave {len(digests)} digests")
    return end_to_end(setups, passes), [p for p, _, _ in passes], raw_lines(setups, passes)


def traced(wl, seed, work, ledger):
    tracer = Tracer()
    state = under_tracing(tracer, "bench.setup", wl.setup, seed, work)
    normal = run_pass(wl, state, seed, work, ledger)
    # The CLI's traced pass runs in process, so its baselines must too. The
    # overhead compares the traced pass with the untraced passes either side.
    before = run_pass(wl, state, seed, work, ledger, True) if wl.spawns else normal
    result = run_pass(wl, state, seed, work, ledger, True, tracer)
    after = run_pass(wl, state, seed, work, ledger, True)
    ledger.check(
        wl.layer, len({p.digest for p in (normal, before, result, after)}) == 1,
        "traced and untraced passes gave different outputs",
    )
    overhead_s = result.wall_s - (before.wall_s + after.wall_s) / 2
    import_s = wl.import_seconds() if wl.spawns else 0.0
    return layer_metrics(tracer, ledger, normal, overhead_s, import_s), [normal], tracer, []


def layer_metrics(tracer, ledger, normal, overhead_s, import_s) -> dict:
    spans, counts = tracer.spans, tracer.counts
    calls, total, own = summarize(spans)
    steps = count_children(spans, "net.backward_batch", "trainer.train")
    rows = counts["mcdropout.rows"]
    latencies = normal.latencies_ms
    if latencies and tail_percentile(len(latencies)) < 99.0:
        raise RuntimeError(f"{len(latencies)} latency samples are too few for a p99")

    def pct(q):
        return float(np.percentile(latencies, q)) if latencies else 0.0

    m = {
        "net.forward_batch_calls": metric(calls["net.forward_batch"], "count"),
        "net.forward_batch_s": metric(total["net.forward_batch"], "s"),
        "net.backward_batch_calls": metric(calls["net.backward_batch"], "count"),
        "net.backward_batch_s": metric(total["net.backward_batch"], "s"),
        "net.forward_calls": metric(calls["net.forward"], "count"),
        "net.forward_s": metric(total["net.forward"], "s"),
        "loss.batch_calls": metric(calls["loss.batch"], "count"),
        "loss.batch_s": metric(total["loss.batch"], "s"),
        "trainer.steps": metric(steps, "count"),
        "trainer.self_s": metric(own["trainer"], "s"),
        "trainer.step_us": metric(total["trainer.train"] / steps * 1e6 if steps else 0.0, "us"),
        "trainer.predict_batch_s": metric(total["trainer.predict_batch"], "s"),
        "trainer.save_checkpoint_s": metric(total["trainer.save_checkpoint"], "s"),
        "trainer.load_checkpoint_s": metric(total["trainer.load_checkpoint"], "s"),
        "trainer.checkpoint_bytes": metric(counts["trainer.checkpoint_bytes"], "B"),
        "calibrate.fit_scale_s": metric(total["calibrate.fit_scale"], "s"),
        "mcdropout.rows": metric(rows, "count"),
        "mcdropout.passes": metric(counts["mcdropout.passes"], "count"),
        "mcdropout.forward_calls_per_row": metric(
            count_children(spans, "net.forward", "mcdropout.") / rows if rows else 0.0, "count"
        ),
        "mcdropout.self_s": metric(own["mcdropout"], "s"),
        "mcdropout.row_ms_p50": metric(pct(50), "ms"),
        "mcdropout.row_ms_p99": metric(pct(99), "ms"),
        "mcdropout.row_samples": metric(len(latencies), "count"),
        "metrics.compute_report_s": metric(total["metrics.compute_report"], "s"),
        "metrics.roc_auc_s": metric(total["metrics.roc_auc"], "s"),
        "metrics.curve_s": metric(total["metrics.curve"], "s"),
        "metrics.sweep_s": metric(total["metrics.sweep"], "s"),
        "datagen.generate_s": metric(total["datagen.generate"], "s"),
        "datagen.split_s": metric(total["datagen.split"], "s"),
        "datagen.save_csv_s": metric(total["datagen.save_csv"], "s"),
        "datagen.load_csv_s": metric(total["datagen.load_csv"], "s"),
        "datagen.csv_rows": metric(counts["datagen.csv_rows"], "count"),
        "datagen.csv_bytes": metric(counts["datagen.csv_bytes"], "B"),
        "ioutils.write_calls": metric(calls["ioutils.write"], "count"),
        "ioutils.write_bytes": metric(counts["ioutils.write_bytes"], "B"),
        "ioutils.write_s": metric(total["ioutils.write"], "s"),
        "cli.import_s": metric(import_s, "s"),
    }
    for label in ("gen_data", "train", "calibrate", "evaluate", "ood_detect"):
        m[f"cli.{label}_s"] = metric(normal.process_s.get(label, 0.0), "s")
    m["cli.self_s"] = metric(own["cli"], "s")
    for layer in LAYERS:
        m[f"{layer}.failed"] = metric(ledger.failed[layer] + counts[f"{layer}.failed"], "count")
    m["trace.overhead_s"] = metric(overhead_s, "s")
    m["trace.spans"] = metric(len(spans), "count")
    if tracer.missing:
        print(f"traced names absent: {' '.join(sorted(set(tracer.missing)))}")
    return m


def write_trace(tracer, workload: str, seed: int) -> Path:
    path = ROOT / ".perfbench" / f"trace-{workload}-{seed}.json"
    with open(path, "w") as fh:
        json.dump({
            "layout": ["name", "start", "end", "parent"],
            "spans": tracer.spans,
            "counts": tracer.counts,
        }, fh)
    return path


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mosuq" / "__init__.py").is_file():
        print(f"error: {src} holds no mosuq package; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One core for this process and its children, which inherit it, so that
    # the gauge readings and the timed work share a core. The highest-numbered
    # one, as core 0 usually takes the device interrupts.
    os.sched_setaffinity(0, {max(ALLOWED_CPUS)})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)

    import workloads

    deadline = start + BUDGET_S
    ledger = workloads.Ledger()
    wl = {
        "train-paper": workloads.TrainPaper,
        "mc-ood": workloads.McOod,
        "cli-pipeline": lambda: workloads.CliPipeline(env, deadline),
    }[args.workload]()
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, passes, tracer, extra = traced(wl, args.seed, work, ledger)
        else:
            metrics, passes, extra = untraced(wl, args.seed, args.seconds, work, ledger, deadline)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} passes {len(passes)}")
    print("pass_wall_s " + " ".join(repr(p.wall_s) for p in passes))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for line in extra + shown_lines(passes, ledger):
        print(line)
    print(f"digest sha256:{passes[0].digest}")
    if args.trace:
        print(f"spans {write_trace(tracer, args.workload, args.seed).relative_to(ROOT)}")
    print("meta " + json.dumps(machine_metadata(), sort_keys=True))
    failed = sum(ledger.failed.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
