"""Time dataset generation, splitting and CSV I/O at the cli-pipeline shape, in process.

    python3 tools/iobench.py                    # the mosuq in this checkout's src/
    python3 tools/iobench.py --src OTHER/src    # another checkout, e.g. a parent commit

Prints one JSON object: the machine (core count, pinned core, numpy version,
thread settings), the shape, and, in milliseconds, the best and the median of
--repeat timings of gen_synthetic (20 systems x 2,500 rows x 16 features,
heteroscedastic, seed 1, as perfbench's cli-pipeline gen-data), split_dataset
(0.7, 0.15, 0.15), save_dataset_csv of the 35,000-row train split,
load_dataset_csv of that file and split_write, gen-data's --split write of the
generated table to three CSVs, each called as the CLI calls it. Under
"peak_mib" it prints the tracemalloc peak of each, in MiB, from one more call
made after the timed ones, so the timings run untraced; the generated table
and the train split exist before any call and are not counted. It sets one
BLAS thread and pins itself to the highest-numbered core it may use, as
perfbench/run.py does; files go to a temporary directory. Run two checkouts
alternately, a few times each: the host's speed drifts between runs.

    python3 tools/iobench.py --commands                        # one round, this tree
    python3 tools/iobench.py --commands --against OTHER/src    # 4 rounds, both trees

--commands instead prints each cli-pipeline command's peak resident memory
(VmHWM, in MB) as perfbench measures it: perfbench/workloads.py's CliPipeline
makes the input files (workload seed 411) and spawns each of its commands
through the workload's own child script, with perfbench's speed gauge sampling
in the child, as in a timed pass. --rows-per-system then sets gen-data's
--samples-per-system (the workload's own 2,500 by default). With --against,
each of COMMAND_ROUNDS rounds runs the five commands in both trees, the first
tree alternating by round, in the same output directory; "outputs_identical"
says whether the two trees wrote the same bytes in every round (the exit
status is 1 if not). "pipeline_peak_mb" is each round's largest VmHWM, the
workload's peak_rss_mb.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import timeit
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)
COMMAND_SEED, COMMAND_ROUNDS = 411, 4  # --commands: the workload seed; rounds with --against


def commands(args) -> dict:
    """The --commands report: per tree and command, its VmHWM in each round."""
    sys.path[:0] = [str(ROOT / "perfbench")]
    import workloads
    from gauge import SAMPLER

    trees = {"src": args.src, **({"against": args.against} if args.against else {})}
    vmhwm, identical = {side: {} for side in trees}, []
    with tempfile.TemporaryDirectory() as tmp:
        work, out = Path(tmp), Path(tmp) / "pass"
        workloads.CliPipeline({}, 0.0).setup(COMMAND_SEED, work)
        SAMPLER.start()  # so that each child samples, as in a timed pass
        try:
            for r in range(COMMAND_ROUNDS if args.against else 1):
                written = set()
                for side in list(trees)[:: 1 if r % 2 == 0 else -1]:
                    env = {**os.environ, "PYTHONPATH": trees[side]}
                    pipeline = workloads.CliPipeline(env, time.perf_counter() + 600.0)
                    out.mkdir()
                    for label, argv in pipeline.commands(COMMAND_SEED, work, out):
                        if label == "gen_data":
                            argv[argv.index("--samples-per-system") + 1] = str(args.rows_per_system)
                        child = out / f"{label}.child.json"
                        code, err = pipeline._spawn(argv, child)
                        if code:
                            raise SystemExit(f"{trees[side]}: {label} exited {code}: {err}")
                        peak = json.loads(child.read_text())["rss_kb"] / 1024.0
                        vmhwm[side].setdefault(label, []).append(round(peak, 2))
                        child.unlink()
                    written.add(hashlib.sha256(b"".join(
                        path.name.encode() + path.read_bytes() for path in sorted(out.iterdir())
                    )).hexdigest())
                    shutil.rmtree(out)
                identical.append(len(written) == 1)
        finally:
            SAMPLER.stop()
    return {
        "against": args.against,
        "seed": COMMAND_SEED,
        "rows_per_system": args.rows_per_system,
        "vmhwm_mb": vmhwm,
        "pipeline_peak_mb": {
            side: [max(peaks) for peaks in zip(*labels.values())] for side, labels in vmhwm.items()
        },
        "outputs_identical": all(identical) if args.against else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--repeat", type=int, default=7, help="timings per figure")
    parser.add_argument("--rows-per-system", type=int, default=2500, help="of 20 systems")
    parser.add_argument("--commands", action="store_true",
                        help="each cli-pipeline command's VmHWM instead of in-process timings")
    parser.add_argument("--against", help="with --commands: another tree's src/, run in turn")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})

    import numpy as np

    if args.commands:
        report = commands(args)
        print(json.dumps({"src": args.src, **machine(cpus, np), **report}))
        return 0 if report["outputs_identical"] is not False else 1

    from mosuq import datagen

    cfg = datagen.GenConfig(
        num_systems=20, samples_per_system=args.rows_per_system, feature_dim=16,
        noise_model=datagen.Heteroscedastic(), seed=1,
    )
    dataset = datagen.gen_synthetic(cfg)
    train_split = datagen.split_dataset(dataset, (0.7, 0.15, 0.15), 1)[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "train.csv"
        datagen.save_dataset_csv(train_split, path)

        def split_write():
            names = [Path(tmp) / f"split.{name}.csv" for name in ("train", "val", "test")]
            for rows, out in zip(datagen.split_rows(dataset, (0.7, 0.15, 0.15), 1), names):
                datagen.save_dataset_csv(dataset, out, rows)

        steps = {
            "gen_synthetic": lambda: datagen.gen_synthetic(cfg),
            "split_dataset": lambda: datagen.split_dataset(dataset, (0.7, 0.15, 0.15), 1),
            "save_dataset_csv": lambda: datagen.save_dataset_csv(train_split, path),
            "load_dataset_csv": lambda: datagen.load_dataset_csv(path),
            "split_write": split_write,
        }
        ms, peak_mib = {}, {}
        for name, fn in steps.items():
            times = [t * 1e3 for t in timeit.repeat(fn, number=1, repeat=args.repeat)]
            ms[name] = {"best": round(min(times), 3), "median": round(statistics.median(times), 3)}
            tracemalloc.start()
            try:
                fn()
                peak_mib[name] = round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
            finally:
                tracemalloc.stop()
        csv_bytes = path.stat().st_size

    print(json.dumps({
        "src": args.src,
        **machine(cpus, np),
        "rows": {"generated": len(dataset), "csv": len(train_split)},
        "features": cfg.feature_dim,
        "csv_bytes": csv_bytes,
        "ms": ms,
        "peak_mib": peak_mib,
    }))
    return 0


def machine(cpus, np) -> dict:
    return {"nproc": len(cpus), "pinned_cpu": max(cpus), "numpy": np.__version__,
            "threads": THREAD_VARS}


if __name__ == "__main__":
    sys.exit(main())
