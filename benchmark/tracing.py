"""Span tracing of the grdmf layers from outside the package.

Each public layer function is replaced, in every ``grdmf`` module that binds
it, by a wrapper that records a span (name, start, end, parent span,
invocation) and a few counts. Nothing under ``src/`` is modified; the
wrappers are installed around traced invocations and removed afterwards.

A span's self time is its duration minus the time its child spans cover, so
the self times of one invocation sum to the root span ``cli.main``.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time
from collections import Counter, defaultdict
from statistics import median

import numpy as np

#: (defining module, function, span name). The span name's prefix is the layer.
TRACED = [
    ("grdmf.cli", "main", "cli.main"),
    ("grdmf.cli", "resolve_config", "cli.resolve_config"),
    ("grdmf.data", "load_association_csv", "data.load"),
    ("grdmf.data", "load_similarity_csv", "data.load"),
    ("grdmf.data", "load_profile_csv", "data.load"),
    ("grdmf.data", "write_matrix_csv", "data.write"),
    ("grdmf.graphs", "build_laplacian", "graphs.build_laplacian"),
    ("grdmf.graphs", "cosine_similarity", "graphs.cosine_similarity"),
    ("grdmf.evaluation", "run_cv", "evaluation.protocol"),
    ("grdmf.evaluation", "run_loocv", "evaluation.protocol"),
    ("grdmf.evaluation", "auc", "evaluation.score"),
    ("grdmf.evaluation", "aupr", "evaluation.score"),
    ("grdmf.evaluation", "topk_metrics", "evaluation.score"),
    ("grdmf.solver", "fit", "solver.fit"),
    ("grdmf.solver", "init_factors", "solver.init"),
    ("grdmf.solver", "update_x", "solver.update_x"),
    ("grdmf.solver", "update_u1", "solver.update_u1"),
    ("grdmf.solver", "update_middle", "solver.update_middle"),
    ("grdmf.solver", "update_v", "solver.update_v"),
    ("grdmf.solver", "objective", "solver.objective"),
    ("grdmf.linalg", "sym_eigen", "linalg.eigh"),
    ("grdmf.linalg", "solve_sylvester_sym", "linalg.sylvester"),
    ("grdmf.linalg", "truncated_svd", "linalg.svd"),
    ("grdmf.linalg", "spd_inverse", "linalg.spd_inverse"),
]

#: self-time metric of each span name; together they partition the traced run
SELF_METRICS = {
    "cli.main": "cli.self_s",
    "cli.resolve_config": "cli.resolve_s",
    "data.load": "data.load_s",
    "data.write": "data.write_s",
    "graphs.build_laplacian": "graphs.build_s",
    "graphs.cosine_similarity": "graphs.cosine_s",
    "evaluation.protocol": "evaluation.protocol_s",
    "evaluation.score": "evaluation.score_s",
    "solver.fit": "solver.fit_self_s",
    "solver.init": "solver.init_s",
    "solver.update_x": "solver.update_x_s",
    "solver.update_u1": "solver.update_u1_s",
    "solver.update_middle": "solver.update_middle_s",
    "solver.update_v": "solver.update_v_s",
    "solver.objective": "solver.objective_s",
    "linalg.eigh": "linalg.eigh_s",
    "linalg.sylvester": "linalg.sylvester_s",
    "linalg.svd": "linalg.svd_s",
    "linalg.spd_inverse": "linalg.spd_inverse_s",
    "trace.fingerprint": "trace.fingerprint_s",
}

#: call-count metric of each span name
CALL_METRICS = {
    "data.load": "data.load_calls",
    "graphs.build_laplacian": "graphs.build_calls",
    "evaluation.score": "evaluation.score_calls",
    "solver.fit": "solver.fit_calls",
    "linalg.eigh": "linalg.eigh_calls",
    "linalg.sylvester": "linalg.sylvester_calls",
    "linalg.svd": "linalg.svd_calls",
    "linalg.spd_inverse": "linalg.spd_inverse_calls",
}

#: model flop count of a symmetric eigendecomposition with eigenvectors
#: (tridiagonal reduction plus implicit QR, Golub & Van Loan, 4th ed. 8.3)
EIGH_FLOPS_PER_N3 = 9.0


def _modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "grdmf" or name.startswith("grdmf.")) and mod is not None]


class Tracer:
    """Records spans and counts for every invocation while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, invocation]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.seen: dict[tuple[int, str], set] = defaultdict(set)
        self.invocation = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.fingerprint = self.wrap("trace.fingerprint", _digest)

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before``/``after`` run outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self.invocation])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count(self, key: str, amount=1) -> None:
        self.counts[self.invocation][key] += amount

    def first_time(self, kind: str, digest: str) -> bool:
        """True unless ``digest`` was already seen for ``kind`` in this invocation."""
        seen = self.seen[(self.invocation, kind)]
        if digest in seen:
            return False
        seen.add(digest)
        return True

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every grdmf module binding of each traced function."""
        for module_name, attr, span in TRACED:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                print(f"tracing: {module_name}.{attr} not found; not traced", file=sys.stderr)
                continue
            before, after = self._hooks(span)
            self._patches += patch_everywhere(original, self.wrap(span, original, before, after))

    def uninstall(self) -> None:
        restore(self._patches)
        self._patches.clear()

    def __enter__(self):
        self.invocation += 1
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _hooks(self, span: str):
        if span == "linalg.eigh":
            def before(args, kwargs):
                a = np.asarray(args[0] if args else kwargs["a"])
                self.count("eigh_flops", EIGH_FLOPS_PER_N3 * float(a.shape[0]) ** 3)
                if not self.first_time("eigh", self.fingerprint(a)):
                    self.count("eigh_repeats")
            return before, None
        if span == "graphs.build_laplacian":
            def before(args, kwargs):
                sims = args[0] if args else kwargs["similarities"]
                p = args[1] if len(args) > 1 else kwargs["p"]
                digest = "/".join(self.fingerprint(s) for s in sims) + f"/p={p}"
                if self.first_time("graphs", digest):
                    self.count("graphs_distinct")
            return before, None
        if span == "data.load":
            def before(args, kwargs):
                self.count("bytes_read", os.path.getsize(args[0] if args else kwargs["path"]))
            return before, None
        if span == "data.write":
            def after(args, kwargs, result):
                self.count("bytes_written", os.path.getsize(args[0] if args else kwargs["path"]))
            return None, after
        if span == "solver.fit":
            def after(args, kwargs, result):
                self.count("floor_events", result.trace.floor_events)
            return None, after
        if span == "evaluation.protocol":
            def after(args, kwargs, result):
                self.count("folds", len(result.per_fold))
                self.count("skipped_folds", sum(f.auc is None for f in result.per_fold))
            return None, after
        return None, None

    # -- reduction -----------------------------------------------------------

    def invocation_metrics(self, invocation: int, run_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced invocation that took ``run_s``."""
        own = self_times(self.spans)
        picked = [(s, t) for s, t in zip(self.spans, own) if s[4] == invocation]
        return layer_metrics(picked, self.counts[invocation], run_s)

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("invocation,name,start,end,parent\n")
            for name, start, end, parent, invocation in self.spans:
                handle.write(f"{invocation},{name},{start!r},{end!r},{parent}\n")


def patch_everywhere(original, replacement) -> list[tuple[object, str, object]]:
    """Rebind ``original`` to ``replacement`` in every grdmf module; returns the undo list."""
    patches = []
    for module in _modules():
        for key, value in list(vars(module).items()):
            if value is original:
                patches.append((module, key, original))
                setattr(module, key, replacement)
    return patches


def restore(patches) -> None:
    for module, key, original in reversed(patches):
        setattr(module, key, original)


def _digest(a) -> str:
    a = np.ascontiguousarray(a, dtype=float)
    h = hashlib.blake2b(repr(a.shape).encode(), digest_size=16)
    h.update(a)
    return h.hexdigest()


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, counts: Counter, run_s: float) -> dict[str, float]:
    """Reduce (span, self time) pairs and counts of one invocation to metrics."""
    values = dict.fromkeys([*SELF_METRICS.values(), *CALL_METRICS.values()], 0.0)
    fit_durations = []
    for span, own in spans:
        name = span[0]
        values[SELF_METRICS[name]] += own
        if name in CALL_METRICS:
            values[CALL_METRICS[name]] += 1
        if name == "solver.fit":
            fit_durations.append(span[2] - span[1])
    values["trace.unattributed_s"] = run_s - sum(values[m] for m in SELF_METRICS.values())
    values["solver.fit_s"] = median(fit_durations) if fit_durations else 0.0
    values["solver.floor_events"] = counts["floor_events"]
    values["linalg.eigh_computed_flops"] = counts["eigh_flops"]
    values["linalg.eigh_repeat_ratio"] = _ratio(
        counts["eigh_repeats"], values["linalg.eigh_calls"]
    )
    values["graphs.build_useful_ratio"] = _ratio(
        counts["graphs_distinct"], values["graphs.build_calls"]
    )
    values["data.bytes_read"] = counts["bytes_read"]
    values["data.bytes_written"] = counts["bytes_written"]
    values["data.read_mb_per_s"] = _ratio(counts["bytes_read"] / 1e6, values["data.load_s"])
    values["evaluation.folds"] = counts["folds"]
    values["evaluation.skipped_folds"] = counts["skipped_folds"]
    return values


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
