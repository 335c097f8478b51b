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
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import timeit
import tracemalloc
from pathlib import Path

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--repeat", type=int, default=7, help="timings per figure")
    parser.add_argument("--rows-per-system", type=int, default=2500, help="of 20 systems")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})

    import numpy as np

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
        "nproc": len(cpus),
        "pinned_cpu": max(cpus),
        "numpy": np.__version__,
        "threads": THREAD_VARS,
        "rows": {"generated": len(dataset), "csv": len(train_split)},
        "features": cfg.feature_dim,
        "csv_bytes": csv_bytes,
        "ms": ms,
        "peak_mib": peak_mib,
    }))


if __name__ == "__main__":
    main()
