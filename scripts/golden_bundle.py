#!/usr/bin/env python3
"""Write a fixed synthetic bundle and every command's artifacts for it.

The bundle is ``make_synthetic_problem(m=30, n=12, rank=3, seed=7)`` with
both similarities and both binary profiles. A fixed list of ``fit``,
``predict``, ``cv`` and ``ablation`` runs then goes through ``grdmf.cli.main``
from inside OUT, with every path relative to OUT, so the configs embedded in
the artifacts do not depend on where the script runs. Comparing the output of
two checkouts is the golden check:

    PYTHONPATH=src python scripts/golden_bundle.py /tmp/golden-new
    (cd ../other-checkout && PYTHONPATH=src python scripts/golden_bundle.py /tmp/golden-old)
    diff -r /tmp/golden-old /tmp/golden-new
"""

import argparse
import os
import sys
from pathlib import Path

from grdmf.cli import main as cli_main
from grdmf.synthetic import make_synthetic_problem, write_synthetic_csvs

INPUTS = [
    "--association", "association.csv",
    "--drug-sim", "drug_sim.csv",
    "--virus-sim", "virus_sim.csv",
    "--drug-profile", "drug_profile.csv",
    "--virus-profile", "virus_profile.csv",
    "--mu", "1", "--p", "3", "--iters", "4",
]
DEPTH2 = ["--dims", "5,3"]
DEPTH3 = ["--dims", "5,4,3"]
CV = ["--folds", "3", "--repeats", "2"]

#: output directory -> arguments after the subcommand's inputs
RUNS = {
    "fit-2": ["fit", *DEPTH2],
    "fit-3": ["fit", *DEPTH3],
    "predict": ["predict", *DEPTH2, "--virus", "virus007", "--k", "5"],
    "cv-entries": ["cv", *DEPTH2, "--scheme", "entries", *CV],
    "cv-viruses": ["cv", *DEPTH2, "--scheme", "viruses", *CV],
    "cv-drugs": ["cv", *DEPTH2, "--scheme", "drugs", *CV],
    "cv-loo": ["cv", *DEPTH2, "--scheme", "loo"],
    "cv-loo-3": ["cv", *DEPTH3, "--scheme", "loo", "--layers", "3"],
    "ablation": ["ablation", *DEPTH2, *CV],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="output directory")
    args = parser.parse_args()

    problem = make_synthetic_problem(m=30, n=12, rank=3, seed=7)
    write_synthetic_csvs(problem, args.out)
    os.chdir(args.out)
    for name, (command, *rest) in RUNS.items():
        if cli_main([command, *INPUTS, *rest, "--out", name]) != 0:
            print(f"golden run {name} failed", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
