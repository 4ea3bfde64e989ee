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

The trace's objective values come from the solves themselves: U1 and V are
solved in the eigenbases of their coefficients, and there each graph term is
a sum of squares weighted by 2*mu times the Laplacian's clamped eigenvalues,
so it is >= 0 by construction. ``objective`` is the reference form, evaluated
in the original basis. ``update_u1`` and ``update_v`` return ``(factor,
graph_term)`` pairs, as ``update_middle`` returns ``(factor, floored)``.
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
    _eigsum_solve,
    _integer,
    _real,
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
    """Per-fit diagnostics: objective values, each one's (data, coupling,
    graph) terms, flooring count, wall time."""

    loss: list[float]
    terms: list[tuple[float, float, float]]
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

    The reference form: the graph terms are taken in the original basis, as
    the formula writes them. Only shapes are checked; a non-finite F is a
    ``ValueError`` giving each term."""
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
    reg = 2.0 * mu * (
        float(np.vdot(factors[0], l_d @ factors[0]))
        + float(np.vdot(factors[-1], factors[-1] @ l_v))
    )
    return sum(_loss_terms(x, prod, y, mask, theta, reg))


def _loss_terms(x, product, y, mask, theta: float, graph: float) -> tuple[float, float, float]:
    """The data, coupling and graph terms of F at ``x`` and the factor
    ``product``, given the graph term; a non-finite sum is a ``ValueError``
    giving each term."""
    r = y - mask * x
    data = float(np.vdot(r, r))
    r = np.subtract(x, product, out=r)
    couple = theta * float(np.vdot(r, r))
    if not np.isfinite(data + couple + graph):
        raise ValueError(
            f"objective is not finite: data term {data!r}, "
            f"coupling term {couple!r}, graph term {graph!r}"
        )
    return data, couple, graph


def _graph_term(coef: SymEigen, t: np.ndarray) -> float:
    """The graph term 2*mu*tr(U.T @ L @ U) of a factor U from ``t``, U with
    its rows in the eigenbasis of ``coef`` = 2*mu*L + I (V is scored as V.T):
    each coefficient eigenvalue less 1 weighs the squared entries of its row
    of ``t``. On a clamped spectrum (see :func:`fit`) every weight, and so the
    term, is >= 0."""
    return float(np.vdot(t, t * (coef.values - 1.0)[:, None]))


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
    eig = sym_eigen(lap, side)
    lam_max = float(eig.values[-1])
    tol = lap.shape[0] * np.finfo(float).eps * max(lam_max, 0.0)
    if eig.values[0] < -tol:
        raise ParameterError(
            f"{side} is not positive semidefinite: eigenvalue {eig.values[0]:.3e} "
            f"below -m*eps*lambda_max = {-tol:.3e}"
        )
    # L is positive semidefinite, so max|L_ij| <= lambda_max bounds every
    # mu-scaled value; on Python floats an overflow is inf, not a warning
    if not np.isfinite(2.0 * mu * lam_max):
        raise ParameterError(
            f"mu {mu!r} is too large for {side}: 2*mu*lambda_max is not finite "
            f"(lambda_max = {lam_max!r})"
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
    out = mask * x
    np.subtract(y, out, out=out)
    out *= mask
    out *= alpha
    out += x  # B
    out += theta * product
    out /= 1.0 + theta
    return np.maximum(out, 0.0, out=out)


def update_u1(
    x, u1_prev, tail_product, coef_d: SymEigen, theta: float
) -> tuple[np.ndarray, float]:
    """Proximal update of the leftmost factor; returns ``(factor, graph_term)``.

    Solves (2*mu*L_d + I) @ U1 + U1 @ (theta*T@T.T) = theta*X@T.T + U1_prev
    where T is the product of every factor to the right of U1 and ``coef_d``
    is the :class:`SymEigen` of the constant left coefficient 2*mu*L_d + I.
    The Gram matrix's eigenvalues are clamped at 0. ``graph_term`` is
    2*mu*tr(U1.T @ L_d @ U1) of the new factor, taken from the solution in
    the coefficients' eigenbases. :func:`update_v` is this solve on the
    transposed problem.
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
            f"inconsistent shapes: x {x.shape}, factor {u1_prev.shape}, product {tail.shape}, "
            f"coefficient {coef_d.values.size}x{coef_d.values.size}"
        )
    gram = _gram_eigen(theta * (tail @ tail.T))
    c = theta * (x @ tail.T) + u1_prev
    t = _eigsum_solve(coef_d, gram, coef_d.vectors.T @ c @ gram.vectors)
    return coef_d.vectors @ t @ gram.vectors.T, _graph_term(coef_d, t)


def update_middle(
    x, factor_prev, left_product, right_product, theta: float
) -> tuple[np.ndarray, int]:
    """Proximal update of one middle factor; returns ``(factor, floored)``.

    With G = (L.T @ L)^-1 for the fresh left product L and R the stale right
    product, solves G @ F + F @ (theta*R@R.T) = G @ (theta*L.T@X@R.T + F_prev).
    Near-singular L.T @ L is handled by eigenvalue flooring inside
    :func:`spd_inverse`, which returns G diagonalized, so the equation is
    solved in G's eigenbasis, where G's part of the right-hand side is a
    scaling of rows; ``floored`` counts the floored eigenvalues.
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
    gram = _gram_eigen(theta * (right @ right.T))
    r = theta * ((left.T @ x) @ right.T) + factor_prev
    c_t = (g.values[:, None] * (g.vectors.T @ r)) @ gram.vectors
    return g.vectors @ _eigsum_solve(g, gram, c_t) @ gram.vectors.T, floored


def update_v(
    x, v_prev, head_product, coef_v: SymEigen, theta: float
) -> tuple[np.ndarray, float]:
    """Proximal update of the rightmost factor; returns ``(factor, graph_term)``.

    Solves (theta*H.T@H) @ V + V @ (2*mu*L_v + I) = theta*H.T@X + V_prev
    where H is the product of every factor to the left of V and ``coef_v`` is
    the :class:`SymEigen` of the constant right coefficient 2*mu*L_v + I.
    Transposed, this is :func:`update_u1`'s equation in V.T, X.T and H.T,
    and is solved by it: ``graph_term`` is 2*mu*tr(V @ L_v @ V.T) of the new
    factor, and a shape error reports the transposed shapes.
    """
    v_t, graph = update_u1(x.T, v_prev.T, head_product.T, coef_v, theta)
    return v_t.T, graph


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
    initial point included) with their (data, coupling, graph) terms, the
    count of eigenvalue-flooring events and the wall-clock time. Each value is
    made from quantities the iteration already holds: the data and coupling
    terms from X and the factor product carried into the next X update, the
    graph terms from the U1 and V solves (at iteration 0, from U1 and V
    transformed into the Laplacians' eigenbases); it equals :func:`objective`
    up to rounding and the clamped eigenvalues below.

    ``fit`` is the boundary: y, mask (binary), l_d and l_v (symmetric, positive
    semidefinite and with 2*mu*lambda_max finite, else a :class:`ParameterError`
    naming the side, and mu when it is too large) and a custom init (two or
    more finite factors whose widths chain from m to n) are checked here, once.
    A later failure, a non-finite objective included, is a
    :class:`SolverError` naming the iteration (0 for the starting point).

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
    if not ((mask == 0.0) | (mask == 1.0)).all():
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
    terms: list[tuple[float, float, float]] = []
    floor_events = 0
    for it in range(hp.iters + 1):  # iteration 0 only scores the start
        try:
            if it == 0:
                product = reduce(np.matmul, chain)
                graph_d = _graph_term(coef_d, coef_d.vectors.T @ chain[0])
                graph_v = _graph_term(coef_v, coef_v.vectors.T @ chain[-1].T)
            else:
                x = update_x(x, product, y, mask, hp.alpha, hp.theta)
                tail = reduce(np.matmul, chain[1:])
                chain[0], graph_d = update_u1(x, chain[0], tail, coef_d, hp.theta)
                for i in range(1, len(chain) - 1):
                    left = reduce(np.matmul, chain[:i])
                    right = reduce(np.matmul, chain[i + 1 :])
                    chain[i], floored = update_middle(x, chain[i], left, right, hp.theta)
                    floor_events += floored
                head = reduce(np.matmul, chain[:-1])
                chain[-1], graph_v = update_v(x, chain[-1], head, coef_v, hp.theta)
                # the chain's product, associated from the left as reduce
                # forms it, for the next iteration's X update
                product = head @ chain[-1]
            terms.append(_loss_terms(x, product, y, mask, hp.theta, graph_d + graph_v))
            loss.append(sum(terms[-1]))
        except Exception as exc:
            raise SolverError(f"iteration {it} failed: {exc}") from exc

    trace = SolveTrace(
        loss=loss,
        terms=terms,
        floor_events=floor_events,
        wall_time=time.perf_counter() - start,
    )
    return FitResult(x=x, factors=chain, trace=trace)
