"""Dense symmetric linear-algebra kernels.

Everything here operates on plain 2-D float64 ndarrays (a Sylvester solve
takes its two coefficients as eigendecompositions) and is pure: inputs are
never modified, outputs are freshly allocated. Matrices are dense and range
from tens of rows at the paper's 86x23 scale to the 1000x1000 Laplacian of a
1000-drug problem; clarity wins over cleverness throughout.
"""

from __future__ import annotations

import math
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
        raise ParameterError(f"{name} contains non-finite entries")
    return a


def _integer(value, what: str = "value") -> int:
    """``value`` as an int: an integer, an integral float or a digit string
    such as ``"3"``. Anything else, a bool, ``2.5`` or ``"2.0"`` included, is
    a :class:`ParameterError` naming ``what``, not truncated."""
    try:
        if not isinstance(value, (bool, np.bool_)) and float(value).is_integer():
            return int(value)
    except (TypeError, ValueError):
        pass
    raise ParameterError(f"{what} must be an integer, got {value!r}")


def _real(value, what: str = "value") -> float:
    """``value`` as a float; a bool, or a value ``float()`` cannot read, is a
    :class:`ParameterError` naming ``what``."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ParameterError(f"{what} must be a real number, got {value!r}")


def _require_symmetric(a: np.ndarray, name: str = "matrix") -> None:
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    scale = 1.0
    with np.errstate(over="ignore"):
        gap, size = np.linalg.norm(a - a.T), np.linalg.norm(a)
    if not math.isfinite(gap + size):
        # a norm overflowed, which would pass any asymmetry: measure both in
        # units of the largest entry instead
        scale = float(np.abs(a).max())
        b = a / scale
        gap, size = np.linalg.norm(b - b.T), np.linalg.norm(b)
    if gap > SYMMETRY_RTOL * (1.0 / scale + size):
        raise SymmetryError(
            f"{name} is not symmetric: ||M - M.T||_F = {gap * scale:.3e} beyond tolerance"
        )


def _symmetrized(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(a + a.T) / 2``, into ``out`` if given, without overflow: a pair whose
    sum passes the float range is halved before it is added, and every other
    cell is ``0.5 * (a + a.T)`` to the bit."""
    with np.errstate(over="ignore"):
        avg = np.add(a, a.T, out=out)
    avg *= 0.5
    if np.isinf(avg.max()) or np.isinf(avg.min()):
        over = np.isinf(avg)
        avg[over] = 0.5 * a[over] + 0.5 * a.T[over]
    return avg


def sym_eigen(a) -> SymEigen:
    """Full eigendecomposition of a symmetric matrix, eigenvalues ascending.

    The one check of every symmetric operand: 2-D, finite, square, symmetric."""
    a = _as_matrix(a)
    _require_symmetric(a)
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
    r = _integer(r, "rank")
    if not 1 <= r <= min(m, n):
        raise ParameterError(f"rank {r} out of range [1, {min(m, n)}] for shape {a.shape}")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    s = s[:r].copy()
    if s[0] > 0.0:
        s[s < SINGULAR_CUTOFF * s[0]] = 0.0
    return TruncatedSvd(left=u[:, :r].copy(), singular=s, right=vh[:r].T.copy())


def solve_sylvester_sym(eig_a: SymEigen, eig_b: SymEigen, c) -> np.ndarray:
    """Solve ``a @ x + x @ b = c`` given the eigendecompositions of symmetric
    ``a`` (n, n) and ``b`` (k, k), as :func:`sym_eigen` returns them.

    The right-hand side is transformed into both eigenbases and divided
    entrywise by the eigenvalue sums, so the cost is a few products. Raises
    :class:`SingularSystemError` when any eigenvalue sum falls below
    ``MIN_EIGSUM``.
    """
    c = _as_matrix(c, "c")
    if c.shape != (eig_a.values.size, eig_b.values.size):
        raise DimensionError(
            f"c must have shape {(eig_a.values.size, eig_b.values.size)}, got {c.shape}"
        )
    denom = eig_a.values[:, None] + eig_b.values[None, :]
    smallest = float(denom.min())
    if smallest < MIN_EIGSUM:
        raise SingularSystemError(
            f"eigenvalue sum {smallest:.3e} below {MIN_EIGSUM:.0e}; system is singular"
        )
    c_t = eig_a.vectors.T @ c @ eig_b.vectors
    return eig_a.vectors @ (c_t / denom) @ eig_b.vectors.T


def spd_inverse(a) -> tuple[SymEigen, int]:
    """Inverse of a symmetric positive (semi-)definite matrix, and a count.

    Eigenvalues below ``FLOOR_RATIO`` times the largest eigenvalue are raised
    to that floor before inverting, which keeps near-singular Gram matrices
    usable. Returns ``(inverse, floored)``: the inverse as a :class:`SymEigen`
    (the eigenvectors of ``a``, the reciprocals of its floored eigenvalues),
    and the number of eigenvalues that were raised. ``a`` is checked by
    :func:`sym_eigen`.
    """
    eig = sym_eigen(a)
    lam_max = float(eig.values[-1])
    floor = FLOOR_RATIO * lam_max if lam_max > 0.0 else FLOOR_RATIO
    floored = int(np.count_nonzero(eig.values < floor))
    values = np.maximum(eig.values, floor)
    return SymEigen(vectors=eig.vectors[:, ::-1], values=1.0 / values[::-1]), floored
