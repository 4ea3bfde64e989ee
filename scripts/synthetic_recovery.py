#!/usr/bin/env python3
"""Planted-structure recovery experiment.

For each seed: plant a rank-r nonnegative matrix, binarize it, hide a random
fraction of cells, complete the matrix from the remaining cells plus the
latent-factor similarity graphs, and score the hidden cells by AUC/AUPR.
Prints a per-seed table and the means. This is the desk-scale stand-in for
benchmark validation when the real association files are not on disk.
"""

import argparse

import numpy as np

from grdmf.evaluation import auc, aupr, split_folds
from grdmf.graphs import build_laplacian
from grdmf.solver import HyperParams, fit
from grdmf.synthetic import make_synthetic_problem


def run_seed(seed: int, args) -> tuple[float, float, float]:
    problem = make_synthetic_problem(
        m=args.drugs, n=args.viruses, rank=args.rank,
        seed=seed, percentile=args.percentile,
    )
    y = problem.dataset.y
    hp = HyperParams(
        mu=args.mu, theta=args.theta, alpha=args.alpha,
        dims=tuple(int(d) for d in args.dims.split(",")),
        p=args.p, iters=args.iters,
    )
    l_d = build_laplacian([problem.drug_sim], hp.p)
    l_v = build_laplacian([problem.virus_sim], hp.p)
    hidden = split_folds(y.shape, "entries", round(1 / args.hide), seed)[0]
    mask = np.where(hidden, 0.0, 1.0)
    result = fit(y * mask, mask, l_d, l_v, hp)
    scores, labels = result.x[hidden], y[hidden]
    return auc(scores, labels), aupr(scores, labels), result.trace.wall_time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds")
    parser.add_argument("--drugs", type=int, default=40)
    parser.add_argument("--viruses", type=int, default=20)
    parser.add_argument("--rank", type=int, default=3)
    parser.add_argument("--percentile", type=float, default=70.0)
    parser.add_argument("--hide", type=float, default=0.1,
                        help="fraction of cells hidden per seed, as one fold of "
                        "round(1/hide)")
    parser.add_argument("--mu", type=float, default=1.0)
    parser.add_argument("--theta", type=float, default=1.0)
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--dims", default="5,3")
    parser.add_argument("--iters", type=int, default=10)
    args = parser.parse_args()
    if not 0.0 < args.hide <= 2 / 3:  # round(1 / hide) >= 2 folds
        parser.error(f"--hide must lie in (0, 2/3], got {args.hide}")

    print(f"{'seed':>4}  {'AUC':>7}  {'AUPR':>7}  {'fit s':>6}")
    aucs, auprs = [], []
    for seed in range(args.seeds):
        a, p, t = run_seed(seed, args)
        aucs.append(a)
        auprs.append(p)
        print(f"{seed:>4}  {a:7.4f}  {p:7.4f}  {t:6.3f}")
    print("-" * 30)
    print(
        f"mean  {np.mean(aucs):7.4f}  {np.mean(auprs):7.4f}   "
        f"(std {np.std(aucs):.4f} / {np.std(auprs):.4f})"
    )


if __name__ == "__main__":
    main()
