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
difference of the completed X and of the trace losses, the latter also
relative to the old loss, so that a move at rounding level reads as one.

The graph step is timed the same way: ``build_laplacian`` at p = 2 on the
1000x1000 drug similarity of a 1000x200 rank-8 synthetic problem, the drug
side of the benchmark's wide fit. Its last line gives the largest difference
of the two Laplacians.

A ratio moves by a few percent between runs of the same code; the count of
wins is steadier. The exit status is 1 when X, a loss or a byte of the
Laplacian differs, and 0 otherwise.
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

#: (label, drugs, viruses, planted rank, p) of the graph step
GRAPH = ("1000x1000 graph p=2", 1000, 200, 8, 2)


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


def _fit(side, args, defaults):
    return side.solver.fit(*args, side.solver.HyperParams(**defaults))


def _quartiles(samples) -> str:
    q1, q2, q3 = np.percentile(samples, [25, 50, 75]) * 1e3
    return f"{q2:.3f} ms [{q1:.3f}, {q3:.3f}]"


def _block(label: str, old, new, pairs: int, run, *args) -> tuple[object, object]:
    """Time ``run(side, *args)`` for both sides in alternating pairs, print the
    timing lines, and return each side's result of one untimed warm-up call."""
    ref_old, ref_new = run(old, *args), run(new, *args)
    times = {"old": [], "new": []}
    for i in range(pairs):
        order = [("old", old), ("new", new)]
        for name, side in order if i % 2 == 0 else order[::-1]:
            start = time.perf_counter()
            run(side, *args)
            times[name].append(time.perf_counter() - start)
    old_t, new_t = np.array(times["old"]), np.array(times["new"])
    print(f"{label}, {pairs} pairs")
    print(f"  old  {_quartiles(old_t)}")
    print(f"  new  {_quartiles(new_t)}")
    print(f"  ratio {np.median(new_t) / np.median(old_t):.3f}, "
          f"new faster in {int(np.sum(new_t < old_t))}/{pairs}")
    return ref_old, ref_new


def compare(old, new, pairs: int) -> bool:
    """Print one block per problem, then the graph step's; True when every X,
    loss and Laplacian is identical."""
    identical = True
    for label, m, n, rank, key, hidden in PROBLEMS:
        *args, defaults = _problem(new, m, n, rank, key, hidden)
        ref_old, ref_new = _block(label, old, new, pairs, _fit, args, defaults)
        dx = float(np.abs(ref_new.x - ref_old.x).max())
        loss_old, loss_new = ref_old.trace.loss, ref_new.trace.loss
        if len(loss_old) == len(loss_new):
            diff = np.abs(np.subtract(loss_new, loss_old))
            scale = np.maximum(np.abs(loss_old), np.finfo(float).tiny)
            dloss, rel = float(diff.max()), float((diff / scale).max())
        else:
            dloss = rel = float("inf")
        same = np.array_equal(ref_new.x, ref_old.x) and loss_new == loss_old
        identical = identical and same
        print(f"  max|dX| {dx:.3e}, max|dloss| {dloss:.3e}, relative {rel:.3e}"
              + ("" if same else "  OUTPUTS DIFFER"))
    label, m, n, rank, p = GRAPH
    sim = new.synthetic.make_synthetic_problem(m=m, n=n, rank=rank, seed=0).drug_sim
    lap_old, lap_new = _block(
        label, old, new, pairs, lambda side: side.graphs.build_laplacian([sim], p)
    )
    same = lap_old.tobytes() == lap_new.tobytes()
    print(f"  max|dL| {float(np.abs(lap_new - lap_old).max()):.3e}"
          + ("" if same else "  OUTPUTS DIFFER"))
    return identical and same


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
