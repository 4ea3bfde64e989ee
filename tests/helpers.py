"""Shared instance generators and brute-force oracles for the test suite.

Everything here is deliberately independent of the library internals: the
oracles re-derive each quantity from its definition (pairwise loops, Kronecker
lifts, explicit products) so that agreement with the fast implementations is
evidence, not tautology.
"""

import csv
import math
from functools import reduce

import numpy as np

from grdmf.exceptions import ParseError, RegistryError
from grdmf.graphs import build_laplacian
from grdmf.solver import (
    HyperParams,
    _graph_coefficient,
    init_factors,
    objective,
    update_middle,
    update_u1,
    update_v,
    update_x,
)
from grdmf.synthetic import make_synthetic_problem


# ---------------------------------------------------------------------------
# planted solver instances
#
# The descent suite is a fixed family of planted low-rank problems. The graph
# weight is kept in [0.05, 0.2]: strong enough to anchor the factor blocks,
# weak enough that the relaxed completion step cannot drag the recorded
# objective back up after the initial plunge (the X step's fixed point solves
# an alpha-reweighted data term, so monotonicity of the trace is a property of
# the instance family, not of the iteration in general).


def descent_instance(seed: int):
    """One planted solver instance: returns (y, mask, l_d, l_v, hp).

    ``y`` already has the hidden cells zeroed, matching what ``fit`` expects.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(8, 21))
    n = int(rng.integers(5, 13))
    rank = int(rng.integers(2, 4))
    pct = float(rng.uniform(60.0, 80.0))
    prob = make_synthetic_problem(m=m, n=n, rank=rank, seed=seed, percentile=pct)
    y = prob.dataset.y
    k2 = min(rank, min(m, n))
    k1 = min(k2 + 2, min(m, n))
    mask = (rng.random(y.shape) >= rng.uniform(0.05, 0.15)).astype(float)
    p = min(3, n - 1)
    l_d = build_laplacian([prob.drug_sim], p)
    l_v = build_laplacian([prob.virus_sim], p)
    mu = float(rng.uniform(0.05, 0.2))
    theta = float(rng.uniform(0.8, 1.5))
    hp = HyperParams(mu=mu, theta=theta, alpha=0.5, dims=(k1, k2), p=p, iters=10)
    return y * mask, mask, l_d, l_v, hp


def pad_chain(chain, dims):
    """The factor list ``chain`` zero-padded to the configured widths
    ``dims``: U1 gains zero columns, each middle zero rows and columns, V zero
    rows. A padded chain has the same product, and its zero widths make the
    middle update's Gram matrix singular, so its eigenvalues are floored."""
    shapes = zip((chain[0].shape[0], *dims), (*dims, chain[-1].shape[1]))
    return [
        np.pad(f, ((0, rows - f.shape[0]), (0, cols - f.shape[1])))
        for f, (rows, cols) in zip(chain, shapes)
    ]


def block_walk(y, mask, l_d, l_v, hp, init):
    """Re-run the block iteration by hand, recording every factor update.

    Yields one record per U1/middle/V update: (label, f_before, f_after,
    delta_sq) where delta_sq is the squared Frobenius norm of the block's
    move and the objective values bracket that single update. The X update
    happens between iterations exactly as in ``fit`` but is not a record: the
    descent inequality under test is the one the proximal factor steps obey.
    As in ``fit``, the graph-side coefficients are made once, from the
    Laplacians' own eigendecompositions.
    """
    coef_d = _graph_coefficient(l_d, "l_d", hp.mu)
    coef_v = _graph_coefficient(l_v, "l_v", hp.mu)
    u1, *middles, v = (f.copy() for f in init)
    x = y.copy()

    def f(x_, u1_, middles_, v_):
        return objective(x_, [u1_, *middles_, v_], y, mask, l_d, l_v, hp.mu, hp.theta)

    for _ in range(hp.iters):
        product = reduce(np.matmul, [u1, *middles, v])
        x = update_x(x, product, y, mask, hp.alpha, hp.theta)

        before = f(x, u1, middles, v)
        tail = reduce(np.matmul, [*middles, v])
        u1_new = update_u1(x, u1, tail, coef_d, hp.theta)
        after = f(x, u1_new, middles, v)
        yield "u1", before, after, float(np.sum((u1_new - u1) ** 2))
        u1 = u1_new

        for i in range(len(middles)):
            before = f(x, u1, middles, v)
            left = reduce(np.matmul, [u1, *middles[:i]])
            right = reduce(np.matmul, [*middles[i + 1 :], v])
            mid_new, _ = update_middle(x, middles[i], left, right, hp.theta)
            trial = list(middles)
            trial[i] = mid_new
            after = f(x, u1, trial, v)
            yield (
                f"middle{i}",
                before,
                after,
                float(np.sum((mid_new - middles[i]) ** 2)),
            )
            middles[i] = mid_new

        before = f(x, u1, middles, v)
        head = reduce(np.matmul, [u1, *middles])
        v_new = update_v(x, v, head, coef_v, hp.theta)
        after = f(x, u1, middles, v_new)
        yield "v", before, after, float(np.sum((v_new - v) ** 2))
        v = v_new


# ---------------------------------------------------------------------------
# brute-force metric oracles


def auc_oracle(scores, labels) -> float:
    """Pairwise Mann-Whitney count: ties between classes count one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


def aupr_oracle(scores, labels) -> float:
    """Average precision by explicit walk down the ranking (stable ties)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    order = np.argsort(-scores, kind="stable")
    hits = labels[order]
    seen = 0.0
    precisions = []
    for rank, h in enumerate(hits, start=1):
        seen += h
        if h == 1.0:
            precisions.append(seen / rank)
    return float(np.mean(precisions))


def topk_oracle(scores, labels, k: int) -> tuple[float, float]:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    k = min(k, scores.size)
    order = np.argsort(-scores, kind="stable")[:k]
    hits = float(labels[order].sum())
    return hits / k, hits / float(labels.sum())


def random_scores_labels(rng, size: int, quantize: bool):
    """A random scored binary vector with both classes present.

    ``quantize=True`` snaps scores to a coarse grid so ties actually occur.
    """
    scores = rng.random(size)
    if quantize:
        scores = np.round(scores * 5.0) / 5.0
    labels = (rng.random(size) < 0.4).astype(float)
    if labels.sum() == 0:
        labels[int(rng.integers(size))] = 1.0
    if labels.sum() == size:
        labels[int(rng.integers(size))] = 0.0
    return scores, labels


# ---------------------------------------------------------------------------
# matrix CSV oracle


def _first_bad_name(names, what: str, path) -> None:
    for i, name in enumerate(names):
        if not name:
            raise RegistryError(f"empty {what} name in {path} ({what} {i + 1} of {len(names)})")
        if name.startswith("#"):
            raise RegistryError(
                f"{what} name {name!r} in {path} starts with '#' ({what} {i + 1} of {len(names)})"
            )
        if name in names[:i]:
            raise RegistryError(f"duplicate {what} name {name!r} in {path}")


def csv_table_oracle(path, binary: bool):
    """The matrix CSV contract from its definition: every ``csv`` row read
    first, then checked in file order with ``float()`` per cell.

    Returns (row names, column names, values), or raises the ParseError or
    RegistryError, with its text, that the loader must raise. A file needs a
    header row and at least one data row.
    """
    with open(path, newline="") as handle:
        records = [
            (lineno, row)
            for lineno, row in enumerate(csv.reader(handle), start=1)
            if row and not row[0].startswith("#")
        ]
    if not records:
        raise ParseError(f"{path} contains no data rows")
    (header_line, header), body = records[0], records[1:]
    cols = [h.strip() for h in header[1:]]
    if not cols:
        raise ParseError(f"{path}:{header_line}: header row names no columns")
    _first_bad_name(cols, "column", path)
    expected = "0 or 1" if binary else "a finite nonnegative number"
    values = []
    for lineno, row in body:
        if len(row) != len(cols) + 1:
            raise ParseError(
                f"{path}:{lineno}: expected {len(cols) + 1} fields, got {len(row)}"
            )
        parsed = []
        for col, text in enumerate(row[1:], start=2):
            where = f"{path}:{lineno}: column {col}"
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"{where}: cannot parse {text!r} as a number") from None
            ok = value in (0.0, 1.0) if binary else math.isfinite(value) and value >= 0.0
            if not ok:
                raise ParseError(f"{where}: expected {expected}, got {text!r}")
            parsed.append(value)
        values.append(parsed)
    if not values:
        raise ParseError(f"{path} contains no data rows")
    names = [row[0].strip() for _, row in body]
    _first_bad_name(names, "row", path)
    return tuple(names), tuple(cols), np.array(values, dtype=float)


# ---------------------------------------------------------------------------
# dense Sylvester oracle


def kron_solve(a, b, c) -> np.ndarray:
    """Solve a @ x + x @ b = c by lifting to the Kronecker normal equations."""
    n = a.shape[0]
    k = b.shape[0]
    big = np.kron(np.eye(k), a) + np.kron(b.T, np.eye(n))
    return np.linalg.solve(big, c.flatten(order="F")).reshape((n, k), order="F")


def reference_fit(y, mask, l_d, l_v, hp) -> np.ndarray:
    """The completed X of ``fit``, re-derived from the block equations.

    From ``init_factors``, each iteration takes the X step, then solves every
    factor F of the chain U1, middles..., V in turn, with L the (fresh)
    product to its left and R the (stale) product to its right, from

        theta*L.T@L@F@R@R.T + F [+ 2*mu*L_d@F] [+ 2*mu*F@L_v]
            = theta*L.T@X@R.T + F_prev

    (the graph terms for U1 and V only) as one dense solve of the vectorized
    system, vec(A@F@B) = kron(B.T, A) @ vec(F). No eigenvalue is floored.
    """
    m, n = y.shape
    chain = init_factors(y, hp.dims)
    x = y.copy()
    for _ in range(hp.iters):
        product = reduce(np.matmul, chain)
        b = x + hp.alpha * mask * (y - mask * x)
        x = np.maximum((b + hp.theta * product) / (1.0 + hp.theta), 0.0)
        for i, prev in enumerate(chain):
            left = reduce(np.matmul, [np.eye(m), *chain[:i]])
            right = reduce(np.matmul, [*chain[i + 1 :], np.eye(n)])
            rows, cols = prev.shape
            lhs = hp.theta * np.kron((right @ right.T).T, left.T @ left) + np.eye(rows * cols)
            if i == 0:
                lhs += 2.0 * hp.mu * np.kron(np.eye(cols), l_d)
            if i == len(chain) - 1:
                lhs += 2.0 * hp.mu * np.kron(l_v.T, np.eye(rows))
            rhs = hp.theta * (left.T @ x @ right.T) + prev
            vec = np.linalg.solve(lhs, rhs.flatten(order="F"))
            chain[i] = vec.reshape((rows, cols), order="F")
    return x


def random_spd(rng, size: int, lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    """Symmetric positive-definite matrix with spectrum in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    values = rng.uniform(lo, hi, size)
    return (q * values) @ q.T
