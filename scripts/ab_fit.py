#!/usr/bin/env python3
"""Time ``fit`` of two source trees against each other, in one process.

    mkdir -p /tmp/parent && git archive HEAD~1 src | tar -x -C /tmp/parent
    python scripts/ab_fit.py /tmp/parent/src src --pairs 30

OLD_SRC and NEW_SRC each hold a ``grdmf`` package (a checkout's ``src``).
Each package is copied under its own name, ``grdmf_old`` and ``grdmf_new``,
and both are imported into this process, so the two sides share one
interpreter, one BLAS and one machine state. Every pair times one ``fit`` of
each side on the same inputs, and pairs alternate which side runs first.

Two problems are fitted, built by NEW_SRC's synthetic generator:

- 86x23 (the paper's scale) with ``cv``'s entries defaults at depth 2, a
  tenth of the cells hidden, as in one entries fold;
- 200x50 with ``loo``'s depth-3 defaults, the first virus hidden, as in one
  leave-one-virus-out fold.

For each problem the script prints each side's median and quartiles, the
ratio of the medians (new / old), the pairs the new side won, and the largest
difference of the completed X and of the trace losses. A ratio moves by a
few percent between runs of the same code; the count of wins is steadier.
The exit status is 1 when X or a loss differs at all, and 0 otherwise.
"""

import argparse
import importlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

#: (label, drugs, viruses, planted rank, defaults key, hidden cells)
PROBLEMS = [
    ("86x23 entries-2", 86, 23, 5, ("entries", 2), "cells"),
    ("200x50 loo-3", 200, 50, 5, ("entries", 3), "column"),
]


def _import_tree(src: Path, name: str, into: Path):
    """The ``grdmf`` package under ``src``, copied to ``into/name`` and imported."""
    package = src / "grdmf"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"{src} holds no grdmf package")
    shutil.copytree(package, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    for module in ("cli", "synthetic"):  # the package root imports neither
        importlib.import_module(f"{name}.{module}")
    return importlib.import_module(name)


def _problem(new, m: int, n: int, rank: int, key: tuple[str, int], hidden: str):
    """(y, mask, l_d, l_v, hyperparameter dict) of one synthetic fold."""
    prob = new.synthetic.make_synthetic_problem(m=m, n=n, rank=rank, seed=0)
    mask = np.ones((m, n))
    if hidden == "cells":
        rng = np.random.default_rng(0)
        mask.flat[rng.permutation(m * n)[: m * n // 10]] = 0.0
    else:
        mask[:, 0] = 0.0
    defaults = dict(new.cli.DEFAULT_HYPERPARAMS[key])
    p = defaults["p"]
    l_d = new.graphs.build_laplacian([prob.drug_sim], p)
    l_v = new.graphs.build_laplacian([prob.virus_sim], p)
    return prob.dataset.y * mask, mask, l_d, l_v, defaults


def _timed(side, args, defaults) -> tuple[float, object]:
    hp = side.solver.HyperParams(**defaults)
    start = time.perf_counter()
    result = side.solver.fit(*args, hp)
    return time.perf_counter() - start, result


def _quartiles(samples) -> str:
    q1, q2, q3 = np.percentile(samples, [25, 50, 75]) * 1e3
    return f"{q2:.3f} ms [{q1:.3f}, {q3:.3f}]"


def compare(old, new, pairs: int) -> bool:
    """Print one block per problem; True when every X and loss is identical."""
    identical = True
    for label, m, n, rank, key, hidden in PROBLEMS:
        *args, defaults = _problem(new, m, n, rank, key, hidden)
        _, ref_old = _timed(old, args, defaults)  # warm-up, and the outputs compared
        _, ref_new = _timed(new, args, defaults)
        times = {"old": [], "new": []}
        for i in range(pairs):
            order = [("old", old), ("new", new)]
            for name, side in order if i % 2 == 0 else order[::-1]:
                times[name].append(_timed(side, args, defaults)[0])
        old_t, new_t = np.array(times["old"]), np.array(times["new"])
        dx = float(np.abs(ref_new.x - ref_old.x).max())
        loss_old, loss_new = ref_old.trace.loss, ref_new.trace.loss
        dloss = (
            float(np.abs(np.subtract(loss_new, loss_old)).max())
            if len(loss_old) == len(loss_new) else float("inf")
        )
        same = np.array_equal(ref_new.x, ref_old.x) and loss_new == loss_old
        identical = identical and same
        print(f"{label}, {pairs} pairs")
        print(f"  old  {_quartiles(old_t)}")
        print(f"  new  {_quartiles(new_t)}")
        print(f"  ratio {np.median(new_t) / np.median(old_t):.3f}, "
              f"new faster in {int(np.sum(new_t < old_t))}/{pairs}")
        print(f"  max|dX| {dx:.3e}, max|dloss| {dloss:.3e}"
              + ("" if same else "  OUTPUTS DIFFER"))
    return identical


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path, help="directory holding the old grdmf package")
    parser.add_argument("new_src", type=Path, help="directory holding the new grdmf package")
    parser.add_argument("--pairs", type=int, default=30, help="timed pairs per problem")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            old = _import_tree(args.old_src, "grdmf_old", Path(tmp))
            new = _import_tree(args.new_src, "grdmf_new", Path(tmp))
        finally:
            sys.path.remove(tmp)
        return 0 if compare(old, new, args.pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
