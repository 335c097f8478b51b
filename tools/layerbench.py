"""Time mosuq's layers in process, alone or in pairs against another tree, or the CLI's memory.

    python3 tools/layerbench.py step                        # this checkout's src/, alone
    python3 tools/layerbench.py io --src OTHER/src          # another checkout, e.g. a parent
    python3 tools/layerbench.py step --against OTHER/src    # --src against another tree, in pairs
    python3 tools/layerbench.py commands --against OTHER/src

step_figures, io_figures and commands say what each GROUP measures. It prints one
JSON object: the group, --src, the machine (core count, pinned core, numpy, the
BLAS name and version, OPENBLAS_CORETYPE and the thread settings) and the report.
It runs one BLAS thread on the highest-numbered core it may use, as perfbench does,
and imports each tree's mosuq from its src/ as a package named by load order
(mosuq_0, then mosuq_1): named by side, one tree read 0.5% slower against itself
in pairs, in every process. Alone, step and io print timings (see timings); with
--against, they time two trees in pairs (see child and against), and the exit
status is 1 where a figure's outputs differ between the trees.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)
import numpy as np  # noqa: E402 (after the thread settings, which numpy reads on import)

ROUNDS = 12  # per child process of --against
COMMAND_SEED, COMMAND_ROUNDS = 411, 4  # commands: the workload seed; rounds with --against
PAPER_ARCH = {"input_dim": 2, "trunk_dims": (16,), "head_hidden_dim": 16, "dropout_p": 0.5}


def load_tree(src: str, name: str):
    """The mosuq package under src, imported as the package name."""
    package = Path(src) / "mosuq"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def arrays(*objects) -> list:
    """The fields of dataclass instances (datasets, MC samples), as arrays in order."""
    return [np.asarray(value) for obj in objects for value in vars(obj).values()]


def step_figures(mosuq, tmp: Path, rows_per_system: int) -> tuple[dict, dict]:
    """The training step's figures, each called as the library calls it at the paper
    preset on fixed inputs: forward_batch, the NLL loss, backward_batch and the Adam
    step on 8 rows, as train() calls them; "step", those four in a row; and one-row
    mc_forward at 25 passes (seed 7), as mc-ood calls it. The readers give parameters
    in layer order, so that trees that lay out flat otherwise still compare."""
    net, trainer, mcdropout, loss = mosuq.net, mosuq.trainer, mosuq.mcdropout, mosuq.loss
    arch = net.ArchConfig(**PAPER_ARCH)
    rng = np.random.default_rng(0)
    params = net.init_params(arch, seed=0)
    x, y = rng.normal(size=(8, 2)), rng.normal(size=8)
    mask = net.dropout_mask(rng, 0.5, (2, 8, 16))
    grads = net.ModelParams(arch, np.empty_like(params.flat), 0)
    adam = trainer._Adam(params.flat.copy(), 3e-4)  # a copy, so params stay as they are
    work = net.Workspace(params, 8).for_training()
    mc_cfg = mcdropout.MCConfig(num_passes=25, dropout_p=0.5, seed=7)

    def layered(*each):
        return [a.copy() for p in each for layer in p.layers for a in layer]

    def step():
        y_hat, s, _ = net.forward_batch(params, x, mask, work)
        _, d_y_hat, d_s = loss.nll_loss_batch(y_hat, s, y, work.loss_out)
        net.backward_batch(work, params, d_y_hat, d_s, out=grads)
        adam.step(grads.flat)

    net.forward_batch(params, x, mask, work)
    return {
        "forward_batch": (lambda: net.forward_batch(params, x, mask, work),
                          lambda result: [a.copy() for a in result[:2]]),
        "nll_loss_batch": (lambda: loss.nll_loss_batch(work.y_hat, work.s, y, work.loss_out),
                           lambda result: [a.copy() for a in result]),
        "backward_batch": (lambda: net.backward_batch(work, params, work.d_y_hat, work.d_s, grads),
                           lambda result: layered(grads)),
        "adam_step": (lambda: adam.step(grads.flat),
                      lambda result: layered(net.ModelParams(arch, adam.flat, 0))),
        "step": (step, lambda result: layered(grads, net.ModelParams(arch, adam.flat, 0))),
        "mc_forward": (lambda: mcdropout.mc_forward(params, x[0], mc_cfg), arrays),
    }, {}


def io_figures(mosuq, tmp: Path, rows_per_system: int) -> tuple[dict, dict]:
    """The CSV layers' figures, writing under tmp, each called as the CLI calls it, and
    their shape: gen_synthetic (20 systems x rows_per_system rows x 16 features,
    heteroscedastic, seed 1, as cli-pipeline's gen-data), split_dataset (0.7, 0.15,
    0.15), save_dataset_csv of the train split, load_dataset_csv of that file and
    split_write, gen-data's --split write of the table to three CSVs. The readers
    give the dataset columns and the files' bytes."""
    datagen, fractions = mosuq.datagen, (0.7, 0.15, 0.15)
    cfg = datagen.GenConfig(
        num_systems=20, samples_per_system=rows_per_system, feature_dim=16,
        noise_model=datagen.Heteroscedastic(), seed=1,
    )
    dataset = datagen.gen_synthetic(cfg)
    train_split = datagen.split_dataset(dataset, fractions, 1)[0]
    path = tmp / "train.csv"
    datagen.save_dataset_csv(train_split, path)
    parts = [tmp / f"split.{name}.csv" for name in ("train", "val", "test")]

    def split_write():
        for rows, out in zip(datagen.split_rows(dataset, fractions, 1), parts):
            datagen.save_dataset_csv(dataset, out, rows)

    def files(*paths):
        return [np.frombuffer(p.read_bytes(), np.uint8) for p in paths]

    return {
        "gen_synthetic": (lambda: datagen.gen_synthetic(cfg), arrays),
        "split_dataset": (lambda: datagen.split_dataset(dataset, fractions, 1),
                          lambda result: arrays(*result)),
        "save_dataset_csv": (lambda: datagen.save_dataset_csv(train_split, path),
                             lambda result: files(path)),
        "load_dataset_csv": (lambda: datagen.load_dataset_csv(path), arrays),
        "split_write": (split_write, lambda result: files(*parts)),
    }, {"rows": {"generated": len(dataset), "csv": len(train_split)},
        "features": cfg.feature_dim, "csv_bytes": path.stat().st_size}


# Per in-process group: its figures, and the default (--repeat, --number) alone and in pairs.
GROUPS = {"step": (step_figures, (25, 2000), (10, 300)), "io": (io_figures, (7, 1), (1, 1))}
# Per group, the flags that it does not read, which it refuses; alone, no group reads --processes.
UNREAD = {"step": ("rows_per_system",), "io": (), "commands": ("repeat", "number", "processes")}


def machine(cpus) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(cpus),
        "pinned_cpu": max(cpus),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        "threads": THREAD_VARS,
    }


def timings(fn, repeat: int, number: int) -> tuple[dict, float]:
    """The best and the median, in µs a call, of repeat timings of number calls,
    and the tracemalloc peak, in MiB, of one more call made after them."""
    us = [t / number * 1e6 for t in timeit.repeat(fn, number=number, repeat=repeat)]
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return {"best": round(min(us), 3), "median": round(statistics.median(us), 3)}, round(peak, 3)


def alone(args) -> dict:
    """The timings and traced peaks of the group's figures for --src. With step, one
    train() epoch (613 steps) on the 4,900-row training split of train-paper at seed
    301 too, one call a timing, and that per step."""
    mosuq = load_tree(args.src, "mosuq_0")
    us, peak_mib = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        figures, shape = GROUPS[args.group][0](mosuq, Path(tmp), args.rows_per_system)
        for name, (fn, _) in figures.items():
            us[name], peak_mib[name] = timings(fn, args.repeat, args.number)
    if args.group == "step":
        datagen, trainer = mosuq.datagen, mosuq.trainer
        gen = datagen.GenConfig(num_systems=20, samples_per_system=350, feature_dim=2,
                                noise_model=datagen.Heteroscedastic(), seed=301)
        train_split = datagen.split_dataset(datagen.gen_synthetic(gen), (0.7, 0.15, 0.15), 301)[0]
        arch = mosuq.net.ArchConfig(**PAPER_ARCH)
        cfg = trainer.TrainConfig(epochs=1, batch_size=8, learning_rate=3e-4, seed=301)
        epoch, steps = lambda: trainer.train(train_split, arch, cfg), -(-len(train_split) // 8)
        us["train_epoch"], peak_mib["train_epoch"] = timings(epoch, args.repeat, 1)
        us["train_epoch_per_step"] = {k: round(v / steps, 3) for k, v in us["train_epoch"].items()}
    return {**shape, "us": us, "peak_mib": peak_mib}


def child(args) -> dict:
    """One process of --against. It loads both trees, --src first in every other
    process so that a bias of the load order cancels, each writing into a directory
    of its own, and compares every figure's outputs bit for bit. Each of ROUNDS
    rounds then times each figure --repeat times per tree, alternating the trees
    (and the first tree by round), --number calls each, and records the ratio of the
    trees' best timings, --src over --against (below 1: --src is faster)."""
    order = ("src", "against") if args.child_first == "src" else ("against", "src")
    calls = {}
    with tempfile.TemporaryDirectory() as tmp:
        for k, side in enumerate(order):
            mosuq, own = load_tree(getattr(args, side), f"mosuq_{k}"), Path(tmp, side)
            own.mkdir()
            calls[side], shape = GROUPS[args.group][0](mosuq, own, args.rows_per_system)
        bit_equal = {}
        for name in calls["src"]:
            got = [read(fn()) for fn, read in (calls[side][name] for side in order)]
            bit_equal[name] = len(got[0]) == len(got[1]) and all(
                a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(*got)
            )
        ratios = {name: [] for name in calls["src"]}
        for r in range(ROUNDS):
            sides = order if r % 2 == 0 else order[::-1]
            for name in ratios:
                times = {side: [] for side in sides}
                for _ in range(args.repeat):
                    for side in sides:
                        times[side].append(timeit.timeit(calls[side][name][0], number=args.number))
                ratios[name].append(min(times["src"]) / min(times["against"]))
    return {"first": args.child_first, "shape": shape, "bit_equal": bit_equal, "ratios": ratios}


def against(args, argv: list[str]) -> dict:
    """Run --processes children on the same arguments one after another, alternating
    the first tree, and pool each figure's ratios: the median, the quartiles and the
    rounds --src won. One run of one tree cannot tell a 1% change: the host's speed
    drifts between processes, and the layout of one process alone can read 1% apart."""
    children = []
    for k in range(args.processes):
        command = [sys.executable, __file__, *argv, "--child-first", ("src", "against")[k % 2]]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
        children.append(json.loads(done.stdout.strip().splitlines()[-1]))

    def summary(values):
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return {"median": round(median, 4), "quartiles": [round(q1, 4), round(q3, 4)],
                "src_faster_rounds": sum(v < 1.0 for v in values), "rounds": len(values)}

    names = list(children[0]["ratios"])
    pooled = {name: [v for c in children for v in c["ratios"][name]] for name in names}
    return {
        **children[0]["shape"],
        "against": args.against,
        "method": {"processes": args.processes, "rounds": ROUNDS,
                   "repeat": args.repeat, "number": args.number},
        "bit_equal": {name: all(c["bit_equal"][name] for c in children) for name in names},
        "ratio_src_over_against": {name: summary(pooled[name]) for name in names},
        "per_process_medians": [
            {"first": c["first"],
             **{name: round(statistics.median(c["ratios"][name]), 4) for name in names}}
            for c in children
        ],
    }


def commands(args) -> dict:
    """Each cli-pipeline command's peak resident memory (VmHWM, in MB) per tree and
    round, as perfbench measures it: perfbench/workloads.py's CliPipeline makes the
    inputs (workload seed 411) and spawns each command (gen-data at
    --rows-per-system) through the workload's own child script, with the speed
    gauge sampling in the child. One round alone; with --against, COMMAND_ROUNDS
    rounds alternate the first tree, and "outputs_identical" says whether the two
    trees wrote the same bytes in every round (the exit status is 1 if not).
    "pipeline_peak_mb" is each round's largest VmHWM, the workload's peak_rss_mb."""
    load_tree(args.src, "mosuq")  # the package perfbench's workloads.py imports
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
                        child = work / f"{label}.child.json"  # outside the compared outputs
                        code, err = pipeline._spawn(argv, child)
                        if code:
                            raise SystemExit(f"{trees[side]}: {label} exited {code}: {err}")
                        peak = json.loads(child.read_text())["rss_kb"] / 1024.0
                        vmhwm[side].setdefault(label, []).append(round(peak, 2))
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
    parser.add_argument("group", choices=("step", "io", "commands"))
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--against", help="another tree's src/, run in pairs against --src")
    parser.add_argument("--repeat", type=int, help="timings per figure (default: GROUPS)")
    parser.add_argument("--number", type=int, help="calls per timing (default: GROUPS)")
    parser.add_argument("--processes", type=int, help="child processes in pairs (default: 10)")
    parser.add_argument("--rows-per-system", type=int,
                        help="io and commands: rows of each of the 20 systems (default: 2,500)")
    parser.add_argument("--child-first", choices=("src", "against"), help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    pairs = args.against is not None
    unread = UNREAD[args.group] + (() if pairs or args.group == "commands" else ("processes",))
    given = ["--" + name.replace("_", "-") for name in unread if getattr(args, name) is not None]
    if given:
        parser.error(f"{args.group}{'' if pairs else ' alone'} does not read {', '.join(given)}")
    repeat, number = GROUPS[args.group][1 + pairs] if args.group in GROUPS else (None, None)
    defaults = {"repeat": repeat, "number": number, "processes": 10, "rows_per_system": 2500}
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})

    if args.child_first:
        print(json.dumps(child(args)))
        return 0
    if args.group == "commands":
        report = commands(args)
    else:
        report = alone(args) if args.against is None else against(args, argv)
    print(json.dumps({"group": args.group, "src": args.src, **machine(cpus), **report}))
    ok = report.get("outputs_identical") is not False and all(report.get("bit_equal", {}).values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
