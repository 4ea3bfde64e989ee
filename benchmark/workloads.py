"""Workload definitions, input generation and output checks.

A workload is one CLI invocation shape on synthetic CSV bundles generated
from the benchmark seed. Each one stresses the layers differently; README.md
in this directory says why each was chosen.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape.

    command  -- subcommand and flags placed before the input flags
    size     -- (drugs, viruses, planted rank) of the generated bundle
    smoke    -- tiny size used by ``--smoke``
    smoke_args -- extra flags used by ``--smoke`` to cut the fit count
    profiles -- also pass the binary profile CSVs (cosine-similarity path)
    bundles  -- CSV bundles generated per seed; the invocations cycle over
                them, which averages out how much one bundle's AUC and
                loss depend on its seed
    """

    name: str
    command: tuple[str, ...]
    size: tuple[int, int, int]
    smoke: tuple[int, int, int]
    smoke_args: tuple[str, ...] = ()
    profiles: bool = False
    bundles: int = 1

    @property
    def artifact_kind(self) -> str:
        return "fit" if self.command[0] == "fit" else "cv"


WORKLOADS = {
    w.name: w
    for w in (
        # 100 tiny fits at the paper's scale: per-call overhead, repeated
        # graph-side eigendecompositions and scoring dominate. At 86x23 the
        # mean AUPR of one bundle moves by ~18% (quartile spread) between
        # seeds, hence four bundles per seed.
        Workload(
            name="paper-cv",
            command=("cv", "--scheme", "entries"),
            size=(86, 23, 5),
            smoke=(24, 16, 3),
            smoke_args=("--repeats", "1", "--folds", "2"),
            bundles=4,
        ),
        # One large fit: the 1000x1000 eigh inside update_u1, a 19 MB
        # similarity CSV to parse and hash, and large CSVs to write.
        Workload(
            name="wide-fit",
            command=("fit",),
            size=(1000, 200, 8),
            smoke=(40, 16, 3),
        ),
        # One three-layer fit per virus: two middle factors (spd_inverse and
        # flooring), whole-column hiding, top-k metrics and the profile path.
        Workload(
            name="loo-3layer",
            command=("cv", "--scheme", "loo", "--layers", "3"),
            size=(200, 50, 5),
            smoke=(24, 8, 3),
            profiles=True,
        ),
    )
}


def make_bundles(workload: Workload, seed: int, smoke: bool, work: Path) -> list[dict]:
    """Generate the workload's CSV bundles from ``seed`` under ``work``.

    Returns, per bundle, the CLI arguments, the output directory and the
    association CSV the outputs are checked against.
    """
    from grdmf.synthetic import make_synthetic_problem, write_synthetic_csvs

    m, n, rank = workload.smoke if smoke else workload.size
    bundles = []
    for i in range(workload.bundles):
        problem = make_synthetic_problem(m=m, n=n, rank=rank, seed=seed * workload.bundles + i)
        inputs = write_synthetic_csvs(problem, work / f"inputs{i}")
        argv = [
            *workload.command,
            "--association", str(inputs["association"]),
            "--drug-sim", str(inputs["drug_sim"]),
            "--virus-sim", str(inputs["virus_sim"]),
        ]
        if workload.profiles:
            argv += [
                "--drug-profile", str(inputs["drug_profile"]),
                "--virus-profile", str(inputs["virus_profile"]),
            ]
        if smoke:
            argv += list(workload.smoke_args)
        out = work / f"out{i}"
        bundles.append({
            "argv": argv + ["--out", str(out)],
            "out": str(out),
            "association": str(inputs["association"]),
        })
    return bundles


def artifact_names(kind: str) -> list[str]:
    if kind == "fit":
        return ["completed.csv", "factor_u1.csv", "factor_u2.csv", "factor_v.csv", "trace.csv"]
    return ["metrics.json"]


class CheckError(Exception):
    """An invocation's artifacts break the output contract."""


def _config_line(path: Path) -> dict:
    first = path.read_text().splitlines()[0]
    if not first.startswith("# config "):
        raise CheckError(f"{path.name}: first line carries no resolved config")
    return json.loads(first[len("# config "):])


def read_matrix_csv(path: Path) -> np.ndarray:
    """Body of a header-row/name-column CSV as a float matrix."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    if len(lines) < 2:
        raise CheckError(f"{path.name}: no data rows")
    width = len(lines[0].split(","))
    try:
        body = np.loadtxt(lines[1:], delimiter=",", usecols=range(1, width), ndmin=2)
    except ValueError as exc:
        raise CheckError(f"{path.name}: {exc}") from exc
    return body


def _check_unit_interval(value, what: str) -> None:
    if value is None or not 0.0 <= value <= 1.0:
        raise CheckError(f"{what} = {value!r} is not in [0, 1]")


def check_fit(out: Path, y: np.ndarray) -> dict:
    """Validate ``fit`` artifacts; returns the quality figures they carry."""
    m, n = y.shape
    completed = read_matrix_csv(out / "completed.csv")
    if completed.shape != (m, n):
        raise CheckError(f"completed.csv is {completed.shape}, expected {(m, n)}")
    if not np.all(np.isfinite(completed)) or completed.min() < 0.0:
        raise CheckError("completed.csv has non-finite or negative entries")
    rows = m
    for name in ("u1", "u2", "v"):
        factor = read_matrix_csv(out / f"factor_{name}.csv")
        if factor.shape[0] != rows or not np.all(np.isfinite(factor)):
            raise CheckError(f"factor_{name}.csv has shape {factor.shape} after {rows} columns")
        rows = factor.shape[1]
    if rows != n:
        raise CheckError(f"factor chain ends with {rows} columns, expected {n}")
    iters = _config_line(out / "trace.csv")["hyperparams"]["iters"]
    trace = read_matrix_csv(out / "trace.csv").ravel()
    if trace.size != iters + 1 or not np.all(np.isfinite(trace)):
        raise CheckError(f"trace.csv has {trace.size} finite losses, expected {iters + 1}")
    from grdmf.evaluation import auc, aupr

    # In-sample ranking quality of the completed matrix against the known
    # associations: what `predict` ranks drugs by.
    return {"auc": auc(completed, y), "aupr": aupr(completed, y), "folds": 1}


def check_cv(out: Path, y: np.ndarray) -> dict:
    """Validate ``cv`` artifacts; returns the quality figures they carry."""
    payload = json.loads((out / "metrics.json").read_text())
    config = payload["config"]
    expected = y.shape[1] if config["scheme"] == "loo" else config["repeats"] * config["folds"]
    folds = payload["folds"]
    if len(folds) != expected:
        raise CheckError(f"metrics.json has {len(folds)} folds, expected {expected}")
    for fold in folds:
        for key in ("auc", "aupr"):
            if fold[key] is not None:
                _check_unit_interval(fold[key], f"fold {fold['fold']} {key}")
    mean = payload["mean"]
    _check_unit_interval(mean["auc"], "mean auc")
    _check_unit_interval(mean["aupr"], "mean aupr")
    return {"auc": mean["auc"], "aupr": mean["aupr"], "folds": len(folds)}


def check_outputs(kind: str, out: Path, y: np.ndarray) -> tuple[dict, str]:
    """Check one invocation's artifacts; returns (quality, digest).

    The digest covers the artifacts that must be byte-identical between
    repeated invocations. Raises :class:`CheckError` on any broken contract.
    """
    missing = [name for name in artifact_names(kind) if not (out / name).is_file()]
    if missing:
        raise CheckError(f"missing artifacts {missing}")
    try:
        quality = check_fit(out, y) if kind == "fit" else check_cv(out, y)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"unparseable artifact: {exc!r}") from exc
    digest = hashlib.sha256()
    for name in artifact_names(kind):
        digest.update((out / name).read_bytes())
    return quality, digest.hexdigest()
