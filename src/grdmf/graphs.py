"""Similarity graphs and the Laplacians that regularize the factor matrices.

The pipeline is: binary feature profiles -> cosine similarity -> p-nearest
neighbour sparsification -> graph Laplacian -> entrywise sum over graphs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exceptions import DimensionError, ParameterError
from .linalg import _as_matrix, _integer, _require_symmetric

__all__ = [
    "cosine_similarity",
    "sparsify_pnn",
    "laplacian",
    "combine_laplacians",
    "build_laplacian",
]


def cosine_similarity(indicator) -> np.ndarray:
    """Pairwise cosine similarity of the rows of a finite nonnegative matrix.

    Binary profiles are checked where they load, and all-zero rows are
    warned of there; any nonnegative rows work. Rows with no features get
    similarity 0 to everything else and 1 to themselves. The result is
    exactly symmetric by construction.
    """
    indicator = _as_matrix(indicator, "indicator")
    if (indicator < 0.0).any():
        raise ParameterError("indicator matrix must be nonnegative")
    norms = np.sqrt((indicator * indicator).sum(axis=1))
    zero_rows = np.flatnonzero(norms == 0.0)
    safe = np.where(norms == 0.0, 1.0, norms)
    # on one contiguous operand numpy forms a @ a.T with syrk, which fills
    # one triangle and mirrors it, so the ratio is exactly symmetric
    indicator = np.ascontiguousarray(indicator)
    sim = (indicator @ indicator.T) / np.outer(safe, safe)
    sim[zero_rows, :] = 0.0
    sim[:, zero_rows] = 0.0
    np.clip(sim, 0.0, 1.0, out=sim)
    np.fill_diagonal(sim, 1.0)
    return sim


def sparsify_pnn(s, p: int) -> np.ndarray:
    """Keep, per row, only the ``p`` largest off-diagonal entries of ``s``.

    An off-diagonal entry survives if either of its two rows selects it
    (OR rule), so the output stays symmetric; ties are broken toward the
    lower column index and the diagonal is left untouched.
    """
    s = _as_matrix(s, "similarity")
    _require_symmetric(s, "similarity")
    n = s.shape[0]
    p = _integer(p, "p")
    if not 1 <= p <= n - 1:
        raise ParameterError(f"p={p} out of range [1, {n - 1}] for {n} entities")
    sym = 0.5 * (s + s.T)
    ranked = sym.copy()
    np.fill_diagonal(ranked, -np.inf)
    # stable argsort of the negated row: descending value, ties toward lower column
    top = np.argsort(-ranked, axis=1, kind="stable")[:, :p]
    keep = np.zeros((n, n), dtype=bool)
    np.put_along_axis(keep, top, True, axis=1)
    keep |= keep.T
    out = np.where(keep, sym, 0.0)
    np.fill_diagonal(out, np.diagonal(sym))
    return out


def laplacian(s) -> np.ndarray:
    """Graph Laplacian ``L = D - S`` with degrees ``D_ii = sum_j S_ij``.

    The degree sum runs over every column including the diagonal, so row sums
    of ``L`` vanish and ``x.T @ L @ x == 0.5 * sum_ij S_ij (x_i - x_j)^2``.
    ``s`` is trusted to be symmetric, as :func:`sparsify_pnn` returns it.
    """
    s = np.asarray(s, dtype=float)
    return np.diag(s.sum(axis=1)) - s


def combine_laplacians(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Entrywise sum of Laplacians over several graphs on the same entities.

    A single Laplacian is returned as it is, not copied.
    """
    if len(parts) == 0:
        raise ParameterError("need at least one Laplacian to combine")
    mats = [np.asarray(p, dtype=float) for p in parts]
    shape = mats[0].shape
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise DimensionError(
                f"laplacian {i} has shape {m.shape}, expected {shape}"
            )
    return sum(mats[1:], mats[0])


def build_laplacian(similarities: Sequence[np.ndarray], p: int) -> np.ndarray:
    """Sparsify each similarity with ``p`` neighbours, then sum the Laplacians.

    Every weight must be nonnegative: a negative one makes the Laplacian
    indefinite, and the solver would fail on it only inside an iteration.
    :func:`sparsify_pnn` is the one check of the rest: 2-D, finite, symmetric.
    """
    parts = []
    for i, s in enumerate(similarities):
        s = np.asarray(s, dtype=float)
        if (s < 0.0).any():
            raise ParameterError(
                f"similarity {i} has a negative weight ({np.nanmin(s):g}); "
                "graph weights must be nonnegative"
            )
        parts.append(laplacian(sparsify_pnn(s, p)))
    return combine_laplacians(parts)
