#!/usr/bin/env python3
"""Convergence sweep: how the six tuned defaults move with the iteration count.

``fit`` is deterministic and its k-th iteration does not depend on ``iters``,
so a fit with ``iters=k`` returns the k-th iterate. Two markdown tables are
printed for a synthetic problem:

1. mean cross-validated AUC of each default, under its own scheme, for each
   iteration count in ``--iters``;
2. the relative change of the completed matrix X on fold 0 of the seed-0
   entries split: the last step of the paper's 10 iterations, the last step
   of 100, and the distance between the two.

    PYTHONPATH=src python scripts/iteration_sweep.py
"""

import argparse
from dataclasses import replace

import numpy as np

from grdmf.cli import DEFAULT_HYPERPARAMS
from grdmf.evaluation import run_cv, split_folds
from grdmf.graphs import build_laplacian
from grdmf.solver import HyperParams, fit
from grdmf.synthetic import make_synthetic_problem


def _short(value: float) -> str:
    """Two significant digits: ``0.24`` from 0.1 up, ``6.7e-3`` below."""
    if value >= 0.1:
        return f"{value:.2f}"
    mantissa, exponent = f"{value:.1e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--drugs", type=int, default=86)
    parser.add_argument("--viruses", type=int, default=23)
    parser.add_argument("--seeds", type=int, default=2, help="cv repeats, seeds 0..N-1")
    parser.add_argument("--folds", type=int, default=10)
    parser.add_argument("--iters", default="1,2,5,10,20,50,100",
                        help="iteration counts of the AUC table")
    args = parser.parse_args()
    counts = [int(k) for k in args.iters.split(",")]

    problem = make_synthetic_problem(m=args.drugs, n=args.viruses, rank=5, seed=0)
    dataset = problem.dataset

    def laplacians(p: int):
        return build_laplacian([problem.drug_sim], p), build_laplacian([problem.virus_sim], p)

    defaults = {
        f"{scheme}-{layers}": HyperParams(**params)
        for (scheme, layers), params in DEFAULT_HYPERPARAMS.items()
    }

    print(f"Mean AUC, {args.seeds} seed(s) x {args.folds} folds, by iterations:\n")
    print("| default | " + " | ".join(f"**{k}**" if k == 10 else str(k) for k in counts) + " |")
    print("|---" * (len(counts) + 1) + "|")
    for name, hp in defaults.items():
        scheme = name.split("-")[0]
        l_d, l_v = laplacians(hp.p)
        cells = []
        for k in counts:
            report = run_cv(dataset, l_d, l_v, scheme, replace(hp, iters=k),
                            seeds=range(args.seeds), folds=args.folds)
            cells.append(f"**{report.auc:.3f}**" if k == 10 else f"{report.auc:.3f}")
        print(f"| {name} | " + " | ".join(cells) + " |")

    y = dataset.y
    hidden = split_folds(y.shape, "entries", args.folds, 0)[0]
    mask = np.where(hidden, 0.0, 1.0)
    print("\nRelative change of X, fold 0 of the seed-0 entries split:\n")
    print("| default | ‖X10 − X9‖ / ‖X10‖ | ‖X101 − X100‖ / ‖X101‖ | ‖X10 − X100‖ / ‖X100‖ |")
    print("|---|---|---|---|")
    for name, hp in defaults.items():
        l_d, l_v = laplacians(hp.p)
        x = {k: fit(y * mask, mask, l_d, l_v, replace(hp, iters=k)).x for k in (9, 10, 100, 101)}
        # ‖X_a − X_b‖ / ‖X_a‖
        changes = [np.linalg.norm(x[a] - x[b]) / np.linalg.norm(x[a])
                   for a, b in ((10, 9), (101, 100), (100, 10))]
        print(f"| {name} | " + " | ".join(map(_short, changes)) + " |")


if __name__ == "__main__":
    main()
