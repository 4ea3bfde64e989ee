"""Deep matrix factorization with multi-graph regularization.

The model completes a binary association matrix Y (drugs x viruses) through a
relaxed completion variable X tied to a deep nonnegative-rank factorization
U1 @ U2 @ ... @ V. The objective is

    F(X, U1, ..., V) = ||Y - M.X||_F^2 + theta * ||X - U1...V||_F^2
                       + 2*mu*tr(U1.T @ L_d @ U1) + 2*mu*tr(V @ L_v @ V.T)

with X >= 0, where M is the binary observation mask (``.`` is the Hadamard
product) and L_d, L_v are graph Laplacians over drugs and viruses. Each outer
iteration performs one proximal block update per variable: a hybrid
gradient/proximal step on X followed by exact Sylvester solves for U1, the
middle factors and V, each tethered to its previous value by a unit proximal
weight. X stays feasible by cropping at zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .exceptions import DimensionError, ParameterError, SolverError
from .linalg import (
    SymEigen,
    _as_matrix,
    _integer,
    _real,
    _require_symmetric,
    solve_sylvester_sym,
    spd_inverse,
    sym_eigen,
    truncated_svd,
)

__all__ = [
    "HyperParams",
    "SolveTrace",
    "FitResult",
    "objective",
    "init_factors",
    "update_x",
    "update_u1",
    "update_middle",
    "update_v",
    "fit",
]


@dataclass(frozen=True)
class HyperParams:
    """Solver hyperparameters.

    mu     -- graph regularization weight, finite and >= 0
    theta  -- coupling weight between X and the factor product, finite and > 0
    alpha  -- relaxation step for the X update, in the open interval (0, 2)
    dims   -- inner factor dimensions (k1, k2) or (k1, k2, k3)
    p      -- nearest-neighbour count used when sparsifying similarity graphs
    iters  -- number of outer iterations
    """

    mu: float
    theta: float
    alpha: float
    dims: tuple[int, ...]
    p: int = 2
    iters: int = 10

    def __post_init__(self):
        for key in ("mu", "theta", "alpha"):
            object.__setattr__(self, key, _real(getattr(self, key), key))
        for key, value in (("mu", self.mu), ("theta", self.theta)):
            if not np.isfinite(value):
                raise ParameterError(f"{key} must be finite, got {value}")
        if self.mu < 0:
            raise ParameterError(f"mu must be >= 0, got {self.mu}")
        if self.theta <= 0:
            raise ParameterError(f"theta must be > 0, got {self.theta}")
        if not 0.0 < self.alpha < 2.0:
            raise ParameterError(f"alpha must lie in (0, 2), got {self.alpha}")
        dims = tuple(_integer(d, "a factor dimension") for d in self.dims)
        if len(dims) not in (2, 3):
            raise ParameterError(f"dims must have 2 or 3 entries, got {self.dims}")
        if any(d < 1 for d in dims):
            raise ParameterError(f"factor dimensions must be >= 1, got {self.dims}")
        object.__setattr__(self, "dims", dims)
        for key in ("p", "iters"):
            value = _integer(getattr(self, key), key)
            if value < 1:
                raise ParameterError(f"{key} must be >= 1, got {value}")
            object.__setattr__(self, key, value)


@dataclass
class SolveTrace:
    """Per-fit diagnostics: objective values, flooring count, wall time."""

    loss: list[float]
    floor_events: int
    wall_time: float


@dataclass
class FitResult:
    x: np.ndarray
    factors: list[np.ndarray]  # the chain [U1, middles..., V]
    trace: SolveTrace


def objective(
    x, factors: Sequence[np.ndarray], y, mask, l_d, l_v, mu: float, theta: float
) -> float:
    """Evaluate F at the given point, ``factors`` being the chain
    [U1, middles..., V]; see the module docstring for the formula.

    Only shapes are checked; a non-finite F is a ``ValueError`` giving each term."""
    if x.shape != y.shape or mask.shape != y.shape:
        raise DimensionError(
            f"x {x.shape}, y {y.shape} and mask {mask.shape} must share one shape"
        )
    _check_chain(factors, y.shape, "chain")
    prod = reduce(np.matmul, factors)
    if l_d.shape != (y.shape[0], y.shape[0]):
        raise DimensionError(f"l_d must be {y.shape[0]}x{y.shape[0]}, got {l_d.shape}")
    if l_v.shape != (y.shape[1], y.shape[1]):
        raise DimensionError(f"l_v must be {y.shape[1]}x{y.shape[1]}, got {l_v.shape}")
    data = float(np.sum((y - mask * x) ** 2))
    couple = theta * float(np.sum((x - prod) ** 2))
    reg = 2.0 * mu * (
        float(np.vdot(factors[0], l_d @ factors[0]))
        + float(np.vdot(factors[-1], factors[-1] @ l_v))
    )
    total = data + couple + reg
    if not np.isfinite(total):
        raise ValueError(
            f"objective is not finite: data term {data!r}, "
            f"coupling term {couple!r}, graph term {reg!r}"
        )
    return total


def _check_chain(chain: Sequence[np.ndarray], shape: tuple[int, int], name: str) -> None:
    """Check that ``chain`` holds two or more factors whose widths chain from
    m to n; a break is a :class:`DimensionError` naming ``name`` and the
    factor's index."""
    if len(chain) < 2:
        raise DimensionError(f"{name} must hold at least two factors, got {len(chain)}")
    rows = shape[0]
    for i, f in enumerate(chain):
        if f.shape[0] != rows:
            raise DimensionError(f"{name} factor {i} has {f.shape[0]} rows, expected {rows}")
        rows = f.shape[1]
    if rows != shape[1]:
        raise DimensionError(
            f"{name} factor {len(chain) - 1} has {rows} columns, expected {shape[1]}"
        )


def _factor_pair(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Split ``a`` (rows, cols) into (rows, r) @ (r, cols) via a truncated SVD,
    with r = min(k, rows, cols): the widest split ``a`` can carry."""
    svd = truncated_svd(a, min(k, *a.shape))
    root = np.sqrt(svd.singular)
    return svd.left * root, root[:, None] * svd.right.T


def init_factors(y, dims: Sequence[int]) -> list[np.ndarray]:
    """SVD-based initialization of the factor chain [U1, middles..., V].

    A rank-k_last truncated SVD of Y supplies the outermost split
    A = U @ sqrt(S), V0 = sqrt(S) @ Vt; the left block A is then split
    recursively, left to right, one truncated SVD per remaining dimension.
    Each width is capped at what its block can carry, never above m, k_last
    or an earlier width, so no width is padded with zero columns: dims
    (23, 10, 7) start, and stay, at widths (7, 7, 7). For non-increasing dims
    the telescoped product reproduces the rank-k_last reconstruction of Y
    exactly.
    """
    y = _as_matrix(y, "y")
    m, n = y.shape
    dims = tuple(_integer(d, "a factor dimension") for d in dims)
    if len(dims) < 2:
        raise ParameterError(f"need at least two factor dimensions, got {dims}")
    if any(d < 1 for d in dims):
        raise ParameterError(f"factor dimensions must be >= 1, got {dims}")
    k_last = dims[-1]
    if k_last > min(m, n):
        raise ParameterError(
            f"the last of dims {dims}, {k_last}, exceeds min(m, n) = {min(m, n)}"
        )
    block, v = _factor_pair(y, k_last)
    chain: list[np.ndarray] = []
    for k in dims[:-1]:
        head, block = _factor_pair(block, k)
        chain.append(head)
    return [*chain, block, v]


def _gram_eigen(a) -> SymEigen:
    """:func:`sym_eigen` of a Gram matrix with its eigenvalues clamped at 0: a
    Gram matrix is positive semidefinite, and rounding must not make a
    Sylvester denominator smaller than its graph or proximal side."""
    eig = sym_eigen(a)
    return SymEigen(vectors=eig.vectors, values=np.maximum(eig.values, 0.0))


def _graph_coefficient(lap: np.ndarray, side: str, mu: float) -> SymEigen:
    """The eigendecomposition of 2*mu*lap + I, made from ``lap``'s own and
    checked as :func:`fit` describes; each refusal names ``side``."""
    _require_symmetric(lap, side)
    eig = sym_eigen(lap)
    lam_max = float(eig.values[-1])
    tol = lap.shape[0] * np.finfo(float).eps * max(lam_max, 0.0)
    if eig.values[0] < -tol:
        raise ParameterError(
            f"{side} is not positive semidefinite: eigenvalue {eig.values[0]:.3e} "
            f"below -m*eps*lambda_max = {-tol:.3e}"
        )
    # on Python floats an overflow is inf, not a numpy RuntimeWarning
    peak = float(max(lap.max(initial=0.0), -lap.min(initial=0.0)))
    for what, value in ((f"max|{side}|", peak), (f"lambda_max({side})", lam_max)):
        if not np.isfinite(2.0 * mu * value):
            raise ParameterError(
                f"mu {mu!r} is too large for {side}: 2*mu*{what} is not finite "
                f"({what} = {value!r})"
            )
    values = np.where(eig.values < tol, 0.0, eig.values)
    return SymEigen(vectors=eig.vectors, values=1.0 + 2.0 * mu * values)


def update_x(x, product, y, mask, alpha: float, theta: float) -> np.ndarray:
    """Hybrid gradient/proximal update of the completion variable.

    B = X + alpha * (M . (Y - M . X)), then the proximal step
    X+ = max((B + theta * P) / (1 + theta), 0) with P the factor product.
    Only shapes, alpha and theta are checked here; :func:`fit` checks y and mask.
    """
    if not (x.shape == product.shape == y.shape == mask.shape):
        raise DimensionError("x, product, y and mask must share one shape")
    if not 0.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
    if theta <= 0:
        raise ParameterError(f"theta must be > 0, got {theta}")
    b = x + alpha * (mask * (y - mask * x))
    return np.maximum((b + theta * product) / (1.0 + theta), 0.0)


def update_u1(x, u1_prev, tail_product, coef_d: SymEigen, theta: float) -> np.ndarray:
    """Proximal update of the leftmost factor.

    Solves (2*mu*L_d + I) @ U1 + U1 @ (theta*T@T.T) = theta*X@T.T + U1_prev
    where T is the product of every factor to the right of U1 and ``coef_d``
    is the :class:`SymEigen` of the constant left coefficient 2*mu*L_d + I.
    The Gram matrix's eigenvalues are clamped at 0.
    Only shapes are checked here; :func:`sym_eigen` rejects a non-finite Gram
    matrix, and the solve a non-finite right-hand side.
    """
    tail = tail_product
    m = x.shape[0]
    if (
        u1_prev.shape[0] != m
        or coef_d.values.size != m
        or tail.shape != (u1_prev.shape[1], x.shape[1])
    ):
        raise DimensionError(
            f"inconsistent shapes: x {x.shape}, u1_prev {u1_prev.shape}, "
            f"tail {tail.shape}, coefficient {coef_d.values.size}x{coef_d.values.size}"
        )
    b = theta * (tail @ tail.T)
    c = theta * (x @ tail.T) + u1_prev
    return solve_sylvester_sym(coef_d, _gram_eigen(b), c)


def update_middle(
    x, factor_prev, left_product, right_product, theta: float
) -> tuple[np.ndarray, int]:
    """Proximal update of one middle factor; returns ``(factor, floored)``.

    With G = (L.T @ L)^-1 for the fresh left product L and R the stale right
    product, solves G @ F + F @ (theta*R@R.T) = G @ (theta*L.T@X@R.T + F_prev).
    Near-singular L.T @ L is handled by eigenvalue flooring inside
    :func:`spd_inverse`, which returns G diagonalized, so the right-hand side
    is formed in G's eigenbasis; ``floored`` counts the floored eigenvalues.
    The eigenvalues of theta*R@R.T are clamped at 0.
    Only shapes are checked here; the solves reject a non-finite input.
    """
    left, right = left_product, right_product
    if left.shape != (x.shape[0], factor_prev.shape[0]):
        raise DimensionError(
            f"left product must be {(x.shape[0], factor_prev.shape[0])}, got {left.shape}"
        )
    if right.shape != (factor_prev.shape[1], x.shape[1]):
        raise DimensionError(
            f"right product must be {(factor_prev.shape[1], x.shape[1])}, got {right.shape}"
        )
    g, floored = spd_inverse(left.T @ left)
    b = theta * (right @ right.T)
    r = theta * ((left.T @ x) @ right.T) + factor_prev
    c = g.vectors @ (g.values[:, None] * (g.vectors.T @ r))
    return solve_sylvester_sym(g, _gram_eigen(b), c), floored


def update_v(x, v_prev, head_product, coef_v: SymEigen, theta: float) -> np.ndarray:
    """Proximal update of the rightmost factor.

    Solves (theta*H.T@H) @ V + V @ (2*mu*L_v + I) = theta*H.T@X + V_prev
    where H is the product of every factor to the left of V and ``coef_v`` is
    the :class:`SymEigen` of the constant right coefficient 2*mu*L_v + I.
    The Gram matrix's eigenvalues are clamped at 0.
    Only shapes are checked here; :func:`sym_eigen` rejects a non-finite Gram
    matrix, and the solve a non-finite right-hand side.
    """
    head = head_product
    n = x.shape[1]
    if (
        v_prev.shape[1] != n
        or coef_v.values.size != n
        or head.shape != (x.shape[0], v_prev.shape[0])
    ):
        raise DimensionError(
            f"inconsistent shapes: x {x.shape}, v_prev {v_prev.shape}, "
            f"head {head.shape}, coefficient {coef_v.values.size}x{coef_v.values.size}"
        )
    a = theta * (head.T @ head)
    c = theta * (head.T @ x) + v_prev
    return solve_sylvester_sym(_gram_eigen(a), coef_v, c)


def fit(
    y, mask, l_d, l_v, hp: HyperParams, init: Optional[Sequence[np.ndarray]] = None
) -> FitResult:
    """Run the block-coordinate solver for ``hp.iters`` outer iterations.

    y     -- (m, n) observed association matrix, hidden cells zeroed
    mask  -- (m, n) binary observation mask, zeros where cells are hidden
    l_d   -- (m, m) summed drug-side graph Laplacian
    l_v   -- (n, n) summed virus-side graph Laplacian
    hp    -- hyperparameters; ``hp.dims`` sets the factor chain depth
    init  -- optional starting chain [U1, middles..., V], copied; defaults to
             the SVD initialization

    X starts at Y; each iteration updates X, then U1, then the middle factors
    left to right, then V, every block consuming the freshest values of the
    others. The returned trace holds ``iters + 1`` objective values (the
    initial point included), the count of eigenvalue-flooring events and the
    wall-clock time.

    ``fit`` is the boundary: y, mask (binary), l_d and l_v (symmetric and
    positive semidefinite, with 2*mu*max|L| and 2*mu*lambda_max finite, else a
    :class:`ParameterError` naming the side, and mu when it is too large) and
    a custom init (two or more finite factors whose widths chain from m to n)
    are checked here, once. A later failure, a non-finite objective included,
    is a :class:`SolverError` naming the iteration (0 for the starting point).

    The graph side is each Laplacian's own eigendecomposition L = Q diag(lam)
    Q.T, made once per fit, at the boundary: eigenvalues below m*eps*lam_max
    are set to 0, and one below -m*eps*lam_max refuses L as not positive
    semidefinite. Every U1 and V update reuses Q with the coefficient
    eigenvalues 1 + 2*mu*lam, so the m x m matrix 2*mu*L + I is never formed.
    The factor-side Gram eigenvalues are clamped at 0 in each update, so every
    U1 and V Sylvester denominator is at least 1.
    """
    start = time.perf_counter()
    y = _as_matrix(y, "y")
    mask = _as_matrix(mask, "mask")
    if mask.shape != y.shape:
        raise DimensionError(f"mask shape {mask.shape} != y shape {y.shape}")
    if not np.isin(mask, (0.0, 1.0)).all():
        raise ParameterError("mask must be binary (0/1 entries)")
    l_d = _as_matrix(l_d, "l_d")
    l_v = _as_matrix(l_v, "l_v")
    m, n = y.shape
    if l_d.shape != (m, m):
        raise DimensionError(f"l_d must be {m}x{m}, got {l_d.shape}")
    if l_v.shape != (n, n):
        raise DimensionError(f"l_v must be {n}x{n}, got {l_v.shape}")
    coef_d = _graph_coefficient(l_d, "l_d", hp.mu)
    coef_v = _graph_coefficient(l_v, "l_v", hp.mu)

    if init is None:
        chain = init_factors(y, hp.dims)
    else:
        chain = [_as_matrix(f, f"init factor {i}").copy() for i, f in enumerate(init)]
        _check_chain(chain, y.shape, "init")
    x = y.copy()

    loss: list[float] = []
    floor_events = 0
    for it in range(hp.iters + 1):  # iteration 0 only scores the start
        try:
            if it > 0:
                x = update_x(x, reduce(np.matmul, chain), y, mask, hp.alpha, hp.theta)
                tail = reduce(np.matmul, chain[1:])
                chain[0] = update_u1(x, chain[0], tail, coef_d, hp.theta)
                for i in range(1, len(chain) - 1):
                    left = reduce(np.matmul, chain[:i])
                    right = reduce(np.matmul, chain[i + 1 :])
                    chain[i], floored = update_middle(x, chain[i], left, right, hp.theta)
                    floor_events += floored
                head = reduce(np.matmul, chain[:-1])
                chain[-1] = update_v(x, chain[-1], head, coef_v, hp.theta)
            loss.append(objective(x, chain, y, mask, l_d, l_v, hp.mu, hp.theta))
        except Exception as exc:
            raise SolverError(f"iteration {it} failed: {exc}") from exc

    trace = SolveTrace(
        loss=loss,
        floor_events=floor_events,
        wall_time=time.perf_counter() - start,
    )
    return FitResult(x=x, factors=chain, trace=trace)
