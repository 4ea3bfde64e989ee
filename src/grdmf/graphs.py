"""Similarity graphs and the Laplacians that regularize the factor matrices.

The pipeline is: binary feature profiles -> cosine similarity -> p-nearest
neighbour sparsification -> one graph Laplacian per similarity, summed
entrywise. :func:`build_laplacian` runs it from the similarities on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exceptions import DimensionError, ParameterError
from .linalg import _as_matrix, _integer, _require_symmetric, _symmetrized

__all__ = [
    "cosine_similarity",
    "sparsify_pnn",
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
    safe = np.where(norms == 0.0, 1.0, norms)
    # on one contiguous operand numpy forms a @ a.T with syrk, which fills
    # one triangle and mirrors it, so the ratio is exactly symmetric; a zero
    # row's products are exactly 0, so it is 0 to every other row
    indicator = np.ascontiguousarray(indicator)
    sim = (indicator @ indicator.T) / np.outer(safe, safe)
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
    sym = _symmetrized(s)
    # each row's p-th largest off-diagonal value, by selection (introselect),
    # not a sort: the diagonal ranks below every weight
    ranked = sym.copy()
    np.fill_diagonal(ranked, -np.inf)
    ranked.partition(n - p, axis=1)
    cut = ranked[:, n - p, None].copy()
    del ranked
    # every entry above the cut, then the lowest-index entries equal to it up
    # to p: the stable descending sort's choice, ties toward lower column
    keep = sym > cut
    tied = sym == cut
    np.fill_diagonal(keep, False)
    np.fill_diagonal(tied, False)
    room = p - keep.sum(axis=1, keepdims=True)
    keep |= tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= room)
    keep |= keep.T
    out = np.where(keep, sym, 0.0)
    np.fill_diagonal(out, np.diagonal(sym))
    return out


def build_laplacian(similarities: Sequence[np.ndarray], p: int) -> np.ndarray:
    """Sum of the graph Laplacians of the similarities, each kept to ``p`` neighbours.

    Each similarity is sparsified by :func:`sparsify_pnn`, and its Laplacian is
    ``L = D - S`` with degrees ``D_ii = sum_j S_ij`` over every column, the
    diagonal included. So the rows of each ``L`` sum to 0 and
    ``x.T @ L @ x == 0.5 * sum_ij S_ij (x_i - x_j)^2``. The sum runs left to
    right, starting from the first Laplacian itself; one similarity gives its
    Laplacian as it is.

    Every weight must be nonnegative: a negative one makes the Laplacian
    indefinite, and the solver would fail on it only inside an iteration.
    :func:`sparsify_pnn` is the one check of the rest: 2-D, finite, symmetric.
    There must be at least one similarity, and all must have one size. A
    similarity whose degrees, or whose sum with the earlier Laplacians, pass
    the float range is refused with its index.
    """
    total = None
    for i, s in enumerate(similarities):
        s = np.asarray(s, dtype=float)
        if (s < 0.0).any():
            raise ParameterError(
                f"similarity {i} has a negative weight ({np.nanmin(s):g}); "
                "graph weights must be nonnegative"
            )
        s = sparsify_pnn(s, p)
        if total is not None and s.shape != total.shape:
            raise DimensionError(f"similarity {i} has shape {s.shape}, expected {total.shape}")
        with np.errstate(over="ignore"):
            lap = np.diag(s.sum(axis=1)) - s
            if total is None:
                total = lap
            else:
                total += lap
        # the diagonal is >= 0 and the rest <= 0, so an overflow is an inf, never a NaN
        if np.isinf(total.max()) or np.isinf(total.min()):
            raise ParameterError(
                f"similarity {i} is too large: its degrees or the summed Laplacian overflow"
            )
    if total is None:
        raise ParameterError("need at least one similarity to build a Laplacian from")
    return total
