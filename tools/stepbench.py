"""Time the parts of one training step and a one-row MC call, in process.

    python3 tools/stepbench.py                    # the mosuq in this checkout's src/
    python3 tools/stepbench.py --src OTHER/src    # another checkout, e.g. a parent commit
    python3 tools/stepbench.py --against OTHER/src   # --src against another tree, in pairs

Prints one JSON object: the machine (core count, pinned core, numpy and BLAS
versions, thread settings) and the figures, each called as the library calls
it at the paper preset (2 features, trunk 16, head 16, dropout 0.5):
forward_batch, the NLL loss, backward_batch and the Adam step on a batch of 8
rows, as trainer.train calls them; "step", those four in a row; and one-row
mc_forward at 25 passes, as mc-ood calls it. It sets one BLAS thread and pins
itself to the highest-numbered core it may use, as perfbench/run.py does.

Alone, it prints the best of --repeat timings of each figure, in microseconds,
and of one train() epoch (613 steps) on the 4,900-row training split of
train-paper at seed 301.

With --against, it runs --processes child processes (default 10) one after
another. Each loads both trees as separate packages, named by load order
(mosuq_0, then mosuq_1), --src first in every other process, so that a bias of
the load order or of the package name cancels: loaded as mosuq_src against
mosuq_against, one tree read about 0.5% slower against itself in every process.
A child runs 12 rounds; a round times each figure --repeat times per tree,
alternating the trees (the first tree alternating by round), --number calls
each, and records the pair ratio of the two trees' best timings, --src over
--against (below 1: --src is faster). The report pools every round's ratio per
figure: the median, the quartiles and the rounds --src won. Each child also
runs every figure once on fresh inputs in both trees and compares the outputs
bit for bit; bit_equal says whether they matched in every child, and the exit
status is 1 where one did not. A single run of one tree is not enough to tell a
1% change: the host's speed drifts between processes, and the layout of one
process alone can read 1% apart.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

FIGURES = ("forward_batch", "nll_loss_batch", "backward_batch", "adam_step", "step", "mc_forward")
ROUNDS = 12  # per child process of --against


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


def figures(mosuq) -> dict:
    """Each figure's call on fixed inputs, for one mosuq package, and for each
    a function that reads its outputs (parameters in layer order, so that
    trees that lay out flat otherwise still compare)."""
    import numpy as np

    net, trainer, mcdropout = mosuq.net, mosuq.trainer, mosuq.mcdropout
    nll_loss_batch = mosuq.loss.nll_loss_batch
    arch = net.ArchConfig(input_dim=2, trunk_dims=(16,), head_hidden_dim=16, dropout_p=0.5)
    rng = np.random.default_rng(0)
    params = net.init_params(arch, seed=0)
    x, y = rng.normal(size=(8, 2)), rng.normal(size=8)
    mask = net.dropout_mask(rng, 0.5, (2, 8, 16))
    grads = net.ModelParams(arch, np.empty_like(params.flat), 0)
    adam = trainer._Adam(params.flat.copy(), 3e-4)  # a copy, so params stay as they are
    work = net.Workspace(params, 8).for_training()
    mc_cfg = mcdropout.MCConfig(num_passes=25, dropout_p=0.5, seed=7)

    def layered(p):
        return [a.copy() for layer in p.layers for a in layer]

    def step():
        y_hat, s, _ = net.forward_batch(params, x, mask, work)
        _, d_y_hat, d_s = nll_loss_batch(y_hat, s, y, work.loss_out)
        net.backward_batch(work, params, d_y_hat, d_s, out=grads)
        adam.step(grads.flat)

    net.forward_batch(params, x, mask, work)
    calls = {
        "forward_batch": lambda: net.forward_batch(params, x, mask, work),
        "nll_loss_batch": lambda: nll_loss_batch(work.y_hat, work.s, y, work.loss_out),
        "backward_batch": lambda: net.backward_batch(work, params, work.d_y_hat, work.d_s, grads),
        "adam_step": lambda: adam.step(grads.flat),
        "step": step,
        "mc_forward": lambda: mcdropout.mc_forward(params, x[0], mc_cfg),
    }
    outputs = {
        "forward_batch": lambda result: [a.copy() for a in result[:2]],
        "nll_loss_batch": lambda result: [a.copy() for a in result],
        "backward_batch": lambda result: layered(grads),
        "adam_step": lambda result: layered(net.ModelParams(arch, adam.flat, 0)),
        "step": lambda result: layered(grads) + layered(net.ModelParams(arch, adam.flat, 0)),
        "mc_forward": lambda result: [np.asarray(a) for a in vars(result).values()],
    }
    return {name: (calls[name], outputs[name]) for name in FIGURES}


def machine(cpus) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(cpus),
        "pinned_cpu": max(cpus),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        "threads": THREAD_VARS,
    }


def alone(args) -> dict:
    """The best of --repeat timings of every figure and of one train() epoch."""
    mosuq = load_tree(args.src, "mosuq_src")
    us = {}
    for name, (fn, _) in figures(mosuq).items():
        best = min(timeit.repeat(fn, number=args.number, repeat=args.repeat))
        us[name] = round(best / args.number * 1e6, 3)
    datagen, trainer = mosuq.datagen, mosuq.trainer
    arch = mosuq.net.ArchConfig(input_dim=2, trunk_dims=(16,), head_hidden_dim=16, dropout_p=0.5)
    cfg = trainer.TrainConfig(epochs=1, batch_size=8, learning_rate=3e-4, seed=301)
    gen = datagen.GenConfig(
        num_systems=20, samples_per_system=350, feature_dim=2,
        noise_model=datagen.Heteroscedastic(), seed=301,
    )
    train_split = datagen.split_dataset(datagen.gen_synthetic(gen), (0.7, 0.15, 0.15), 301)[0]
    epoch = min(timeit.repeat(lambda: trainer.train(train_split, arch, cfg), number=1, repeat=5))
    us["train_epoch"] = round(epoch * 1e6, 1)
    us["train_epoch_per_step"] = round(epoch * 1e6 / -(-len(train_split) // 8), 3)
    return {"us": us}


def child(args) -> dict:
    """One process of --against: bit-equality and the rounds' pair ratios."""
    import numpy as np

    order = ("src", "against") if args.child_first == "src" else ("against", "src")
    trees = {side: load_tree(getattr(args, side), f"mosuq_{k}") for k, side in enumerate(order)}
    calls = {side: figures(trees[side]) for side in order}
    bit_equal = {}
    for name in FIGURES:
        got = {}
        for side in order:
            fn, read = calls[side][name]
            got[side] = read(fn())
        bit_equal[name] = len(got["src"]) == len(got["against"]) and all(
            a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in zip(got["src"], got["against"])
        )
    ratios = {name: [] for name in FIGURES}
    for r in range(ROUNDS):
        sides = order if r % 2 == 0 else order[::-1]
        for name in FIGURES:
            best = {side: np.inf for side in sides}
            for _ in range(args.repeat):
                for side in sides:
                    fn = calls[side][name][0]
                    best[side] = min(best[side], timeit.timeit(fn, number=args.number))
            ratios[name].append(best["src"] / best["against"])
    return {"first": args.child_first, "bit_equal": bit_equal, "ratios": ratios}


def against(args) -> dict:
    """Run --processes children, alternating the first tree, and pool their ratios."""
    children = []
    for k in range(args.processes):
        command = [
            sys.executable, __file__, "--src", args.src, "--against", args.against,
            "--child-first", ("src", "against")[k % 2],
            "--repeat", str(args.repeat), "--number", str(args.number),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
        children.append(json.loads(done.stdout.strip().splitlines()[-1]))

    def summary(values):
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return {"median": round(median, 4), "quartiles": [round(q1, 4), round(q3, 4)],
                "src_faster_rounds": sum(v < 1.0 for v in values), "rounds": len(values)}

    pooled = {name: [v for c in children for v in c["ratios"][name]] for name in FIGURES}
    return {
        "against": args.against,
        "method": {"processes": args.processes, "rounds": ROUNDS,
                   "repeat": args.repeat, "number": args.number},
        "bit_equal": {name: all(c["bit_equal"][name] for c in children) for name in FIGURES},
        "ratio_src_over_against": {name: summary(pooled[name]) for name in FIGURES},
        "per_process_medians": [
            {"first": c["first"],
             **{name: round(statistics.median(c["ratios"][name]), 4) for name in FIGURES}}
            for c in children
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--against", help="another tree's src/, timed in pairs against --src")
    parser.add_argument("--repeat", type=int, default=None,
                        help="timings per figure (alone: 25, the best is kept; in pairs: 10 "
                             "per tree per round)")
    parser.add_argument("--number", type=int, default=None,
                        help="calls per timing (alone: 2000; in pairs: 300)")
    parser.add_argument("--processes", type=int, default=10, help="child processes in pairs")
    parser.add_argument("--child-first", choices=("src", "against"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    paired = args.against is not None
    args.repeat = args.repeat or (10 if paired else 25)
    args.number = args.number or (300 if paired else 2000)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})

    if args.child_first:
        print(json.dumps(child(args)))
        return 0
    report = against(args) if paired else alone(args)
    print(json.dumps({"src": args.src, **machine(cpus), **report}))
    return 0 if all(report.get("bit_equal", {}).values()) else 1


if __name__ == "__main__":
    sys.exit(main())
