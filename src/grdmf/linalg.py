"""Dense symmetric linear-algebra kernels.

Everything here operates on plain 2-D float64 ndarrays and is pure: inputs are
never modified, outputs are freshly allocated. Scales of interest are small
(tens of rows), so clarity wins over cleverness throughout.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exceptions import (
    DimensionError,
    ParameterError,
    SingularSystemError,
    SymmetryError,
)

__all__ = [
    "SymEigen",
    "TruncatedSvd",
    "sym_eigen",
    "truncated_svd",
    "solve_sylvester_sym",
    "spd_inverse",
]

#: relative tolerance for symmetry checks on inputs
SYMMETRY_RTOL = 1e-8

#: eigenvalue sums below this threshold make a Sylvester system singular
MIN_EIGSUM = 1e-12

#: singular values below this fraction of the largest are treated as zero
SINGULAR_CUTOFF = 1e-12

#: spd_inverse floors eigenvalues at this fraction of the largest
FLOOR_RATIO = 1e-10


class SymEigen(NamedTuple):
    """Eigendecomposition ``a = vectors @ diag(values) @ vectors.T``.

    ``values`` is ascending; ``vectors`` has orthonormal columns.
    """

    vectors: np.ndarray
    values: np.ndarray


class TruncatedSvd(NamedTuple):
    """Rank-r factorization ``a ~= left @ diag(singular) @ right.T``.

    ``left`` is (m, r) and ``right`` is (n, r), both with orthonormal columns;
    ``singular`` is nonnegative and descending.
    """

    left: np.ndarray
    singular: np.ndarray
    right: np.ndarray


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got {a.ndim}-D")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _require_symmetric(a: np.ndarray, name: str = "matrix") -> None:
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    gap = np.linalg.norm(a - a.T)
    if gap > SYMMETRY_RTOL * (1.0 + np.linalg.norm(a)):
        raise SymmetryError(
            f"{name} is not symmetric: ||a - a.T||_F = {gap:.3e} beyond tolerance"
        )


def sym_eigen(a) -> SymEigen:
    """Full eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    a = _as_matrix(a, "a")
    _require_symmetric(a, "a")
    values, vectors = np.linalg.eigh(a)
    return SymEigen(vectors=vectors, values=values)


def truncated_svd(a, r: int) -> TruncatedSvd:
    """Best rank-``r`` factorization of ``a`` in the Frobenius sense.

    Singular values smaller than ``SINGULAR_CUTOFF`` times the largest are
    zeroed; the corresponding singular vectors stay orthonormal, so the
    factorization remains usable for rank-deficient input.
    """
    a = _as_matrix(a, "a")
    m, n = a.shape
    if not isinstance(r, (int, np.integer)):
        raise ParameterError(f"rank must be an integer, got {r!r}")
    if not 1 <= r <= min(m, n):
        raise ParameterError(f"rank {r} out of range [1, {min(m, n)}] for shape {a.shape}")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    s = s[:r].copy()
    if s[0] > 0.0:
        s[s < SINGULAR_CUTOFF * s[0]] = 0.0
    return TruncatedSvd(left=u[:, :r].copy(), singular=s, right=vh[:r].T.copy())


def solve_sylvester_sym(a, b, c) -> np.ndarray:
    """Solve ``a @ x + x @ b = c`` for symmetric ``a`` (n, n) and ``b`` (k, k).

    Both coefficient matrices are diagonalized and the transformed right-hand
    side is divided entrywise by the eigenvalue sums, so the cost is two
    symmetric eigendecompositions plus a few products. Raises
    :class:`SingularSystemError` when any eigenvalue sum falls below
    ``MIN_EIGSUM``.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    c = _as_matrix(c, "c")
    _require_symmetric(a, "a")
    _require_symmetric(b, "b")
    if c.shape != (a.shape[0], b.shape[0]):
        raise DimensionError(
            f"c must have shape {(a.shape[0], b.shape[0])}, got {c.shape}"
        )
    eig_a = sym_eigen(a)
    eig_b = sym_eigen(b)
    denom = eig_a.values[:, None] + eig_b.values[None, :]
    smallest = float(denom.min())
    if smallest < MIN_EIGSUM:
        raise SingularSystemError(
            f"eigenvalue sum {smallest:.3e} below {MIN_EIGSUM:.0e}; system is singular"
        )
    c_t = eig_a.vectors.T @ c @ eig_b.vectors
    return eig_a.vectors @ (c_t / denom) @ eig_b.vectors.T


def spd_inverse(a, return_floor_count: bool = False):
    """Inverse of a symmetric positive (semi-)definite matrix.

    Eigenvalues below ``FLOOR_RATIO`` times the largest eigenvalue are raised
    to that floor before inverting, which keeps near-singular Gram matrices
    usable. With ``return_floor_count=True`` the number of floored eigenvalues
    is returned alongside the inverse.
    """
    a = _as_matrix(a, "a")
    _require_symmetric(a, "a")
    eig = sym_eigen(a)
    lam_max = float(eig.values[-1])
    floor = FLOOR_RATIO * lam_max if lam_max > 0.0 else FLOOR_RATIO
    floored = int(np.count_nonzero(eig.values < floor))
    values = np.maximum(eig.values, floor)
    inv = (eig.vectors / values) @ eig.vectors.T
    inv = 0.5 * (inv + inv.T)
    if return_floor_count:
        return inv, floored
    return inv
