"""Measuring process: runs one workload's invocations of ``grdmf.cli.main``.

Started by ``run.py`` in a fresh interpreter, so that the first invocation
is a real cold one and the peak resident memory belongs to the workload
alone. Usage: ``python3 measure.py JOB.json``; the job names the CLI
arguments, the measuring time and whether to trace, and the result is
written to the job's ``result`` path as JSON.

Closed loop, one caller: each invocation starts when the previous one and
its output check have finished. With tracing, untraced and traced
invocations alternate, so the tracing overhead is measured under the same
conditions as the run it is subtracted from.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np

import grdmf.cli
from grdmf.data import load_association_csv
from grdmf.solver import fit as _solver_fit

from tracing import Tracer, patch_everywhere, restore
from workloads import CheckError, artifact_names, check_outputs


class Loop:
    """Runs, checks and times invocations of one workload's bundles."""

    def __init__(self, kind: str, bundles: list[dict]):
        self.kind = kind
        self.bundles = bundles
        self.ys: dict[int, np.ndarray] = {}
        self.references: dict[int, str] = {}
        self.attempted = 0
        self.errors: list[str] = []

    def invoke(self, index: int, around=contextlib.nullcontext()) -> tuple[float, dict] | None:
        """One checked invocation on bundle ``index``, timed inside ``around``.

        Returns (seconds, quality), or None when the invocation failed.
        """
        bundle = self.bundles[index]
        out = Path(bundle["out"])
        for name in artifact_names(self.kind):
            (out / name).unlink(missing_ok=True)
        self.attempted += 1
        gc.collect()  # start every invocation from the same collector state
        try:
            with around:
                start = time.perf_counter()
                code = grdmf.cli.main(bundle["argv"])
                seconds = time.perf_counter() - start
            if code != 0:
                raise CheckError(f"exit code {code}")
            if index not in self.ys:
                self.ys[index] = load_association_csv(bundle["association"]).y
            quality, digest = check_outputs(self.kind, out, self.ys[index])
            if self.references.setdefault(index, digest) != digest:
                raise CheckError("artifacts differ from the bundle's first invocation")
        except Exception:  # every failure is counted, none stops the run
            self.errors.append(traceback.format_exc(limit=-3))
            return None
        return seconds, quality


@contextlib.contextmanager
def recording_final_losses(losses: list[float]):
    """Record the final objective of every fit made inside the block."""

    def recording_fit(*args, **kwargs):
        result = _solver_fit(*args, **kwargs)
        losses.append(result.trace.loss[-1])
        return result

    patches = patch_everywhere(_solver_fit, recording_fit)
    try:
        yield
    finally:
        restore(patches)


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None where it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def reference_pass(loop: Loop) -> tuple[float | None, dict]:
    """One invocation per bundle, recording every fit's final objective.

    The first is the cold invocation of the process; its time is returned.
    Quality figures are averaged over the bundles.
    """
    cold = None
    per_bundle = []
    for index in range(len(loop.bundles)):
        losses: list[float] = []
        done = loop.invoke(index, recording_final_losses(losses))
        if index == 0 and done:
            cold = done[0]
        if done and losses:
            per_bundle.append({**done[1], "final_loss": float(np.mean(losses))})
    if len(per_bundle) < len(loop.bundles):
        return cold, {}
    return cold, {key: float(np.mean([q[key] for q in per_bundle])) for key in per_bundle[0]}


def measure(job: dict) -> dict:
    loop = Loop(job["kind"], job["bundles"])
    seconds, min_warm, traced = job["seconds"], job["min_warm"], job["trace"]
    tracer = Tracer()
    cold, quality = reference_pass(loop)

    untraced: list[float] = []
    traced_s: list[float] = []
    layers: list[dict] = []
    deadline = time.perf_counter() + seconds
    warm = 0
    while warm < min_warm or time.perf_counter() < deadline:
        index = warm % len(loop.bundles)
        warm += 1
        done = loop.invoke(index)
        if done:
            untraced.append(done[0])
        if not traced:
            continue
        done = loop.invoke(index, tracer)
        if done:
            traced_s.append(done[0])
            layers.append(tracer.invocation_metrics(tracer.invocation, done[0]))
    if traced:
        tracer.write_spans(job["spans"])

    return {
        "cold_s": cold,
        "untraced_s": untraced,
        "traced_s": traced_s,
        "layers": {key: median(d[key] for d in layers) for key in layers[0]} if layers else {},
        "quality": quality,
        "attempted": loop.attempted,
        "failed": len(loop.errors),
        "errors": loop.errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    for bundle in job["bundles"]:
        Path(bundle["out"]).mkdir(parents=True, exist_ok=True)
    result = measure(job)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
