"""The scripts under ``scripts/``, run as a user runs them, at tiny sizes."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from grdmf.cli import main
from grdmf.data import load_association_csv, write_matrix_csv

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "manifest.json"


def _run(*argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


def _blas() -> str:
    """Name and version of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 has no "dicts" mode
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def golden_manifest(out: Path) -> dict:
    """The numpy and BLAS in use, and the SHA-256 of every file under ``out``."""
    return {
        "numpy": np.__version__,
        "blas": _blas(),
        "sha256": {
            p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()
        },
    }


def _csv_shape(path):
    """(data rows, data columns) of a matrix CSV, row names and header aside."""
    with path.open(newline="") as handle:
        rows = [row for row in csv.reader(handle) if row and not row[0].startswith("#")]
    return len(rows) - 1, len(rows[0]) - 1


def test_make_synthetic_data_writes_a_bundle_the_cli_reads(tmp_path):
    proc = _run(
        "make_synthetic_data.py", "--out", "bundle", "--drugs", "10",
        "--viruses", "6", "--rank", "2", "--seed", "3", cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("10 drugs x 6 viruses, rank 2")
    names = {"association", "drug_sim", "virus_sim", "drug_profile", "virus_profile"}
    assert {p.stem for p in (tmp_path / "bundle").iterdir()} == names
    bundle = tmp_path / "bundle"
    argv = [
        "fit", "--association", str(bundle / "association.csv"),
        "--drug-sim", str(bundle / "drug_sim.csv"),
        "--virus-sim", str(bundle / "virus_sim.csv"),
        "--dims", "3,2", "--iters", "2", "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == 0


def test_synthetic_recovery_prints_one_row_per_seed_and_the_means(tmp_path):
    proc = _run(
        "synthetic_recovery.py", "--seeds", "1", "--drugs", "12", "--viruses", "6",
        "--rank", "2", "--p", "2", "--dims", "3,2", "--iters", "2", cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["seed", "AUC", "AUPR", "fit", "s"]
    seed, auc, aupr, _ = lines[1].split()
    assert seed == "0" and 0.0 <= float(auc) <= 1.0 and 0.0 <= float(aupr) <= 1.0
    assert lines[-1].startswith("mean")


def test_synthetic_recovery_rejects_a_hidden_fraction_leaving_one_fold(tmp_path):
    # 0.7 hides one fold of round(1/0.7) = 1: there would be nothing to train on
    proc = _run("synthetic_recovery.py", "--hide", "0.7", cwd=tmp_path)
    assert proc.returncode == 2
    assert "--hide must lie in (0, 2/3], got 0.7" in proc.stderr


def test_golden_bundle_writes_every_artifact_with_relative_paths(tmp_path):
    proc = _run("golden_bundle.py", "golden", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "golden"
    written = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    expected = {"predict/recommendations.csv", "ablation/ablation.json"}
    expected |= {f"cv-{s}/metrics.json" for s in ("entries", "viruses", "drugs", "loo", "loo-3")}
    for run, factors in (("fit-2", ["u1", "u2", "v"]), ("fit-3", ["u1", "u2", "u3", "v"])):
        names = ["completed", "trace", *(f"factor_{f}" for f in factors)]
        expected |= {f"{run}/{name}.csv" for name in names}
    assert expected <= written
    config = json.loads((out / "cv-loo-3" / "metrics.json").read_text())["config"]
    assert config["association"] == "association.csv" and config["out"] == "cv-loo-3"
    assert config["hyperparams"]["dims"] == [5, 4, 3]
    ablation = json.loads((out / "ablation" / "ablation.json").read_text())
    assert len(ablation["combos"]) == 5  # four single pairs, then everything combined

    # each run prints, in run order: fit its completed matrix, predict one row
    # per recommendation as recommendations.csv lists them, cv and ablation
    # their report
    lines = proc.stdout.splitlines()
    assert len(lines) == 13
    assert lines[:2] == ["fit-2/completed.csv", "fit-3/completed.csv"]
    drugs = load_association_csv(out / "association.csv").drugs
    with (out / "predict" / "recommendations.csv").open(newline="") as handle:
        rows = [row for row in csv.reader(handle) if not row[0].startswith("#")][1:]
    assert [int(rank) for rank, *_ in rows] == [1, 2, 3, 4, 5]
    for line, (rank, drug, score, known) in zip(lines[2:7], rows, strict=True):
        assert drug in drugs
        assert line == f"{int(rank):3d} {'*' if known == '1' else ' '} {drug}  {float(score):.6f}"
    reports = [f"cv-{s}/metrics.json" for s in ("entries", "viruses", "drugs", "loo", "loo-3")]
    assert lines[7:] == [*reports, "ablation/ablation.json"]

    # the factor files chain: each file's columns are the next file's rows, at
    # the live widths (dims capped at the rank k_last = 3 of the outer split)
    for run, factors, widths in (
        ("fit-2", ["u1", "u2", "v"], [3, 3]),
        ("fit-3", ["u1", "u2", "u3", "v"], [3, 3, 3]),
    ):
        shapes = [_csv_shape(out / run / f"factor_{f}.csv") for f in factors]
        assert [rows for rows, _ in shapes[1:]] == [cols for _, cols in shapes[:-1]]
        assert [cols for _, cols in shapes[:-1]] == widths

    # every artifact, inputs included, is byte-identical to the committed
    # manifest; the bytes are only pinned for the numpy and BLAS it was made on
    want, have = json.loads(GOLDEN.read_text()), golden_manifest(out)
    if (want["numpy"], want["blas"]) != (have["numpy"], have["blas"]):
        pytest.skip(
            f"golden digests were made under numpy {want['numpy']} with {want['blas']}; "
            f"this is numpy {have['numpy']} with {have['blas']}"
        )
    files = want["sha256"].keys() | have["sha256"].keys()
    changed = sorted(f for f in files if want["sha256"].get(f) != have["sha256"].get(f))
    assert not changed, f"golden artifacts differ from {GOLDEN.name}: {changed}"


def test_compare_golden_reports_exactly_what_moved(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    (old / "fit").mkdir(parents=True)
    (old / "cv").mkdir()
    x = np.random.default_rng(0).random((4, 3))
    drugs, viruses = [f"d{i}" for i in range(4)], [f"v{j}" for j in range(3)]
    write_matrix_csv(old / "fit" / "completed.csv", drugs, viruses, x, ['config {"out": "fit"}'])
    folds = [
        {"fold": f, "seed": 0, "name": None, "auc": 0.75, "aupr": 0.5,
         "pre_at_k": None, "rec_at_k": None}
        for f in range(3)
    ]
    report = {"config": {"out": "cv"}, "folds": folds, "mean": {"auc": 0.75, "aupr": 0.5}}
    (old / "cv" / "metrics.json").write_text(json.dumps(report))
    shutil.copytree(old, new)
    proc = _run("compare_golden.py", "old", "new", cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "no file differs\n", "")

    # one cell and one fold metric move; the report's embedded config changes
    # too, and is not a difference
    before = x[2, 1]
    x[2, 1] += 0.5
    write_matrix_csv(new / "fit" / "completed.csv", drugs, viruses, x, ['config {"out": "fit"}'])
    folds[1]["auc"] = 1.0
    report["config"]["out"] = "elsewhere"
    (new / "cv" / "metrics.json").write_text(json.dumps(report))
    proc = _run("compare_golden.py", "old", "new", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    moved = x[2, 1] - before
    assert proc.stdout.splitlines() == [
        "cv/metrics.json: bytes differ",
        "  fold 1 of seed 0: auc 0.75 -> 1.0 (d +2.500e-01)",
        "fit/completed.csv: bytes differ",
        f"  1 numeric cells moved: max |d| {moved:.3e}, max relative |d| {moved / x[2, 1]:.3e}",
    ]


def test_iteration_sweep_prints_both_tables_for_the_six_defaults(tmp_path):
    proc = _run(
        "iteration_sweep.py", "--drugs", "24", "--viruses", "16", "--seeds", "1",
        "--folds", "2", "--iters", "1,2", cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("|")[1:-1] for line in proc.stdout.splitlines() if line.startswith("| ")]
    defaults = ["entries-2", "viruses-2", "drugs-2", "entries-3", "viruses-3", "drugs-3"]
    auc_rows, change_rows = rows[1:7], rows[8:]
    assert [cell.strip() for cell in rows[0]] == ["default", "1", "2"]
    assert [row[0].strip() for row in auc_rows] == defaults
    assert all(0.0 <= float(cell) <= 1.0 for row in auc_rows for cell in row[1:])
    assert [cell.strip() for cell in rows[7]][1:] == [
        "‖X10 − X9‖ / ‖X10‖", "‖X101 − X100‖ / ‖X101‖", "‖X10 − X100‖ / ‖X100‖"
    ]
    assert [row[0].strip() for row in change_rows] == defaults
    assert all(float(cell) > 0.0 for row in change_rows for cell in row[1:])


if __name__ == "__main__":
    # rewrite the manifest from a fresh golden run, after an output change
    # made by design: PYTHONPATH=src python tests/test_scripts.py
    with tempfile.TemporaryDirectory() as tmp:
        proc = _run("golden_bundle.py", "golden", cwd=tmp)
        if proc.returncode != 0:
            sys.exit(proc.stderr)
        manifest = golden_manifest(Path(tmp) / "golden")
    GOLDEN.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(manifest['sha256'])} digests to {GOLDEN}")
