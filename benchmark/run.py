#!/usr/bin/env python3
"""Benchmark of the grdmf CLI on generated workloads.

    python3 benchmark/run.py --workload paper-cv --seed 0 --seconds 30 --trace 0

Generates the workload's CSV bundle from ``--seed``, times a fresh
interpreter importing ``grdmf.cli`` (set-up), then starts a measuring process
(``measure.py``) that runs one cold invocation of ``grdmf.cli.main`` and
then warm invocations in a closed loop for ``--seconds``, checking the
artifacts of every one. ``--trace 1`` alternates untraced and traced
invocations and reports per-layer metrics instead of end-to-end ones;
``--smoke`` shrinks every workload to a few seconds.

Prints a table of the metrics, an ``environment`` line, and as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The metric names and units are those of ``BENCHMARK.json`` at the repository
root. Everything is written under ``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: fresh-interpreter imports per set-up measurement; the median is reported
SETUP_REPEATS = 7
#: warm invocations made even when ``--seconds`` runs out first
MIN_WARM = 3
#: wall-clock limit of one benchmark run
RUN_LIMIT_S = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="input seed, >= 0")
    parser.add_argument("--seconds", type=int, required=True, help="measuring time, >= 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one repetition")
    args = parser.parse_args(argv)
    if args.seconds < 0 or args.seed < 0:
        parser.error("--seconds and --seed must be >= 0")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing ``grdmf.cli``."""
    command = [sys.executable, "-c", "import grdmf.cli"]
    env = child_env()
    subprocess.run(command, env=env, check=True, timeout=60)  # compiles bytecode once
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return median(times)


def source_identity() -> dict:
    """The commit measured, and a digest of the package sources for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, count).

    With fewer than eleven samples no percentile qualifies; the lowest sample
    is returned then, and the count shows how many lie beyond it.
    """
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def end_to_end(result: dict, setup_s: float) -> tuple[dict, list[str]]:
    samples = result["untraced_s"] or [float("nan")]
    quality = result["quality"]
    run_s = median(samples)
    fits = quality.get("folds", float("nan"))
    values = {
        "run_s": run_s,
        "fits_per_s": fits / run_s,
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "auc": quality.get("auc"),
        "aupr": quality.get("aupr"),
        "final_loss": quality.get("final_loss"),
    }
    tail_s, pct, beyond = tail(samples)
    failed, attempted = result["failed"], result["attempted"]
    notes = [
        f"run_s: median of {len(result['untraced_s'])} warm invocations;"
        f" fits_per_s: {fits:g} fits per invocation",
        f"run_s_tail {tail_s:.6g} s: p{pct:.0f} of {len(result['untraced_s'])} warm samples,"
        f" {beyond} beyond it",
        f"fail_frac {failed / attempted:.4g} ratio: {failed} of {attempted} invocations failed",
    ]
    return values, notes


def per_layer(result: dict) -> tuple[dict, list[str]]:
    values = dict(result["layers"])
    warm = median(result["untraced_s"]) if result["untraced_s"] else float("nan")
    traced = median(result["traced_s"]) if result["traced_s"] else float("nan")
    values["cli.cold_extra_s"] = (result["cold_s"] or float("nan")) - warm
    values["trace.overhead_s"] = traced - warm
    notes = [
        f"{len(result['traced_s'])} traced and {len(result['untraced_s'])} untraced"
        f" warm invocations; traced run_s {traced:.6g} s, untraced {warm:.6g} s",
    ]
    return values, notes


def emit(section: list[dict], values: dict) -> dict:
    """Metrics of one BENCHMARK.json section, in its order and units."""
    metrics = {}
    for spec in section:
        value = values[spec["name"]]
        if value is None or value != value:  # no successful sample
            value = 0.0
        metrics[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
    return metrics


def main(argv=None) -> int:
    if not (SRC / "grdmf" / "__init__.py").is_file():
        print(f"benchmark: no grdmf sources under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"benchmark: {spec_path} not found", file=sys.stderr)
        return 2
    started = time.perf_counter()
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, make_bundles

    workload = WORKLOADS[args.workload]
    work = WORK / (workload.name + ("-smoke" if args.smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    bundles = make_bundles(workload, args.seed, args.smoke, work)
    setup_s = setup_seconds(1 if args.smoke else SETUP_REPEATS)

    job = {
        "kind": workload.artifact_kind,
        # one bundle when tracing, so the counts repeat exactly for a seed
        "bundles": bundles[:1] if args.trace else bundles,
        "seconds": args.seconds,
        "min_warm": 1 if args.smoke else MIN_WARM,
        "trace": bool(args.trace),
        "spans": str(work / "spans.csv"),
        "result": str(work / "result.json"),
    }
    (work / "job.json").write_text(json.dumps(job, indent=2))
    limit = RUN_LIMIT_S - (time.perf_counter() - started)
    with open(work / "measure.log", "w") as log:
        child = subprocess.Popen(
            [sys.executable, str(HERE / "measure.py"), str(work / "job.json")],
            env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            code = child.wait(timeout=limit)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"benchmark: measuring exceeded {limit:.0f} s; see {log.name}", file=sys.stderr)
            return 1
    if code != 0:
        print(f"benchmark: measuring process exited {code}; see {work / 'measure.log'}",
              file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text())

    spec = json.loads(spec_path.read_text())
    if args.trace:
        values, notes = per_layer(result)
        metrics = emit(spec["per_layer"], values)
    else:
        values, notes = end_to_end(result, setup_s)
        metrics = emit(spec["end_to_end"], values)
    correct = result["failed"] == 0
    environment = {
        **source_identity(), **result["environment"],
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": environment,
        "notes": notes, "cold_s": result["cold_s"], "warm_s": result["untraced_s"],
        "traced_s": result["traced_s"], "errors": result["errors"], "correct": correct,
        "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (results / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")

    for error in result["errors"]:
        print(error, file=sys.stderr)
    for key, metric in metrics.items():
        print(f"{key:32s} {metric['value']:>16.6g} {metric['unit']}")
    for note in notes:
        print(f"# {note}")
    print("environment " + json.dumps(environment, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
