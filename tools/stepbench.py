"""Time the parts of one training step at the train-paper shapes, in process.

    python3 tools/stepbench.py                    # the mosuq in this checkout's src/
    python3 tools/stepbench.py --src OTHER/src    # another checkout, e.g. a parent commit

Prints one JSON object: the machine (core count, pinned core, numpy and BLAS
versions, thread settings) and, in microseconds, the best of --repeat timings
of forward_batch, the NLL loss, backward_batch and the Adam step on a batch of
8 rows at the paper preset (2 features, trunk 16, head 16, dropout 0.5), each
called as trainer.train calls it, and of one train() epoch (613 steps) on the
4,900-row training split of train-paper at seed 301. It sets one BLAS thread
and pins itself to the highest-numbered core it may use, as perfbench/run.py
does. To compare two checkouts on one machine, run them alternately, a few
times each: the host's speed drifts between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import timeit
from pathlib import Path

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--repeat", type=int, default=25, help="timings per figure (best is kept)")
    parser.add_argument("--number", type=int, default=2000, help="calls per step timing")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})

    import numpy as np

    from mosuq import datagen, net, trainer
    from mosuq.loss import nll_loss_batch

    arch = net.ArchConfig(input_dim=2, trunk_dims=(16,), head_hidden_dim=16, dropout_p=0.5)
    cfg = trainer.TrainConfig(epochs=1, batch_size=8, learning_rate=3e-4, seed=301)
    gen = datagen.GenConfig(
        num_systems=20, samples_per_system=350, feature_dim=2,
        noise_model=datagen.Heteroscedastic(), seed=301,
    )
    train_split = datagen.split_dataset(datagen.gen_synthetic(gen), (0.7, 0.15, 0.15), 301)[0]

    rng = np.random.default_rng(0)
    params = net.init_params(arch, seed=0)
    x, y = rng.normal(size=(8, 2)), rng.normal(size=8)
    mask = net.dropout_mask(rng, 0.5, (2, 8, 16))
    grads = net.ModelParams(arch, np.empty_like(params.flat), 0)
    adam = trainer._Adam(params.flat.copy(), 3e-4)  # a copy, so params stay as they are
    work = net.Workspace(params, 8).for_training()
    y_hat, s, _ = net.forward_batch(params, x, mask, work)
    _, d_y_hat, d_s = nll_loss_batch(y_hat, s, y, work.loss_out)
    steps = {
        "forward_batch": lambda: net.forward_batch(params, x, mask, work),
        "nll_loss_batch": lambda: nll_loss_batch(y_hat, s, y, work.loss_out),
        "backward_batch": lambda: net.backward_batch(work, params, d_y_hat, d_s, out=grads),
        "adam_step": lambda: adam.step(grads.flat),
    }

    us = {}
    for name, fn in steps.items():
        best = min(timeit.repeat(fn, number=args.number, repeat=args.repeat))
        us[name] = round(best / args.number * 1e6, 3)
    epoch = min(timeit.repeat(lambda: trainer.train(train_split, arch, cfg), number=1, repeat=5))
    us["train_epoch"] = round(epoch * 1e6, 1)
    us["train_epoch_per_step"] = round(epoch * 1e6 / -(-len(train_split) // 8), 3)

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    print(json.dumps({
        "src": args.src,
        "nproc": len(cpus),
        "pinned_cpu": max(cpus),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_VARS,
        "us": us,
    }))


if __name__ == "__main__":
    main()
