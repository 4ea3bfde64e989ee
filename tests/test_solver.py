"""Solver tests: objective, initialization, block updates, full iteration.

Each proximal block update is checked against its own optimality condition by
central finite differences — the update must be a stationary point of the
block's prox objective, computed without reusing the solver's algebra.
"""

from dataclasses import replace
from functools import reduce

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grdmf.linalg
import grdmf.solver
from grdmf.cli import DEFAULT_HYPERPARAMS
from grdmf.exceptions import (
    DimensionError,
    GrdmfError,
    ParameterError,
    SolverError,
    SymmetryError,
)
from grdmf.data import load_association_csv, load_profile_csv, load_similarity_csv
from grdmf.graphs import build_laplacian, cosine_similarity
from grdmf.linalg import FLOOR_RATIO, sym_eigen, truncated_svd
from grdmf.solver import (
    HyperParams,
    fit,
    init_factors,
    objective,
    update_middle,
    update_u1,
    update_v,
    update_x,
)
from grdmf.synthetic import make_synthetic_problem, write_synthetic_csvs
from helpers import block_walk, descent_instance, kron_solve, pad_chain, reference_fit

# ---------------------------------------------------------------------------
# HyperParams


def test_hyperparams_validation():
    good = dict(mu=1.0, theta=1.0, alpha=0.5, dims=(4, 2))
    HyperParams(**good)
    with pytest.raises(ParameterError):
        HyperParams(**{**good, "mu": -0.1})
    with pytest.raises(ParameterError):
        HyperParams(**{**good, "theta": 0.0})
    with pytest.raises(ParameterError):
        HyperParams(**{**good, "alpha": 0.0})
    with pytest.raises(ParameterError):
        HyperParams(**{**good, "alpha": 2.0})
    with pytest.raises(ParameterError):
        HyperParams(**{**good, "dims": (4,)})
    with pytest.raises(ParameterError):
        HyperParams(**{**good, "dims": (4, 2, 2, 1)})
    with pytest.raises(ParameterError):
        HyperParams(**{**good, "dims": (4, 0)})
    with pytest.raises(ParameterError):
        HyperParams(**good, p=0)
    with pytest.raises(ParameterError):
        HyperParams(**good, iters=0)
    # a bool or a non-integral count is rejected, not truncated
    for bad in (
        {"dims": (4.7, 2.9)},
        {"dims": (4, True)},
        {"p": 2.5},
        {"p": True},
        {"iters": True},
        {"iters": np.bool_(True)},
        {"iters": 1.5},
        {"iters": np.nan},
    ):
        with pytest.raises(ParameterError, match="must be an integer"):
            HyperParams(**{**good, **bad})
    # a value int() cannot read exactly is refused the same way, naming its
    # key: "2.0" as the CLI refuses it, not a bare ValueError or TypeError
    for field, bad, message in (
        ("p", "2.0", "p must be an integer, got '2.0'"),
        ("iters", "3.0", "iters must be an integer, got '3.0'"),
        ("dims", ("4.0", 2), "a factor dimension must be an integer, got '4.0'"),
        ("p", None, "p must be an integer, got None"),
        ("p", "x", "p must be an integer, got 'x'"),
    ):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            HyperParams(**{**good, field: bad})
    hp = HyperParams(**{**good, "dims": (4.0, np.int32(2))}, p=np.int64(3), iters=2.0)
    assert (hp.dims, hp.p, hp.iters) == ((4, 2), 3, 2)
    assert all(type(v) is int for v in (*hp.dims, hp.p, hp.iters))
    assert HyperParams(**good, p="3").p == 3
    # a bool or a value float() cannot read is rejected, naming its key; the
    # weights are stored as floats
    for key in ("mu", "theta", "alpha"):
        for bad in (True, np.bool_(True), "high", None, [1.0, 2.0]):
            with pytest.raises(ParameterError, match=f"^{key} must be a real number"):
                HyperParams(**{**good, key: bad})
    hp = HyperParams(mu="1", theta=np.float32(2), alpha=1, dims=(4, 2))
    assert (hp.mu, hp.theta, hp.alpha) == (1.0, 2.0, 1.0)
    assert all(type(v) is float for v in (hp.mu, hp.theta, hp.alpha))


@pytest.mark.parametrize("key", ["mu", "theta"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_hyperparams_reject_nonfinite_weights(key, value):
    # nan passes `< 0` and `<= 0`, and inf passes both range checks: without a
    # finiteness check these reach fit and fail only inside iteration 0
    good = dict(mu=1.0, theta=1.0, alpha=0.5, dims=(4, 2))
    with pytest.raises(ParameterError, match=f"^{key} must be finite"):
        HyperParams(**{**good, key: value})


def test_hyperparams_coercion():
    hp = HyperParams(mu=1.0, theta=2.0, alpha=0.5, dims=[np.int64(4), np.int64(2)])
    assert hp.dims == (4, 2)
    assert all(isinstance(d, int) for d in hp.dims)


# ---------------------------------------------------------------------------
# objective


def _objective_oracle(x, fs, y, mask, l_d, l_v, mu, theta):
    u1, *middles, v = fs
    prod = u1
    for mid in middles:
        prod = prod @ mid
    prod = prod @ v
    val = float(np.sum((y - mask * x) ** 2))
    val += theta * float(np.sum((x - prod) ** 2))
    val += 2.0 * mu * float(np.trace(u1.T @ l_d @ u1))
    val += 2.0 * mu * float(np.trace(v @ l_v @ v.T))
    return val


def test_objective_matches_termwise_oracle():
    rng = np.random.default_rng(10)
    for _ in range(10):
        m, n, k1, k2 = 6, 5, 4, 3
        y = (rng.random((m, n)) < 0.4).astype(float)
        mask = (rng.random((m, n)) < 0.8).astype(float)
        x = rng.random((m, n))
        fs = [
            rng.standard_normal((m, k1)),
            rng.standard_normal((k1, k2)),
            rng.standard_normal((k2, n)),
        ]
        l_d = rng.random((m, m))
        l_d = 0.5 * (l_d + l_d.T)
        l_v = rng.random((n, n))
        l_v = 0.5 * (l_v + l_v.T)
        mu, theta = float(rng.uniform(0, 3)), float(rng.uniform(0.1, 3))
        got = objective(x, fs, y, mask, l_d, l_v, mu, theta)
        want = _objective_oracle(x, fs, y, mask, l_d, l_v, mu, theta)
        assert got == pytest.approx(want, rel=1e-12)


def test_objective_shape_checks():
    fs = [np.ones((3, 2)), np.ones((2, 2)), np.ones((2, 4))]
    y = np.zeros((3, 4))
    with pytest.raises(DimensionError):
        objective(np.zeros((3, 3)), fs, y, np.ones_like(y), np.eye(3), np.eye(4), 1, 1)
    with pytest.raises(DimensionError):
        objective(y, fs, y, np.ones_like(y), np.eye(4), np.eye(4), 1, 1)
    # a chain whose widths break, or a single factor, is named by index, not
    # left to numpy's bare matmul error or scored as both U1 and V
    x = np.zeros((12, 7))
    args = (x, x, np.eye(12), np.eye(7), 1, 1)
    with pytest.raises(DimensionError, match="^chain factor 1 has 3 rows, expected 4$"):
        objective(x, [np.ones((12, 4)), np.ones((3, 2)), np.ones((2, 7))], *args)
    with pytest.raises(DimensionError, match="^chain must hold at least two factors, got 1$"):
        objective(x, [np.ones((12, 7))], *args)
    with pytest.raises(DimensionError, match="^chain factor 1 has 6 columns, expected 7$"):
        objective(x, [np.ones((12, 4)), np.ones((4, 6))], *args)


def test_objective_checks_the_virus_laplacian_shape():
    fs = [np.ones((3, 2)), np.ones((2, 4))]
    y = np.zeros((3, 4))
    with pytest.raises(DimensionError, match=r"^l_v must be 4x4, got \(3, 3\)$"):
        objective(y, fs, y, np.ones_like(y), np.eye(3), np.eye(3), 1, 1)


# ---------------------------------------------------------------------------
# initialization


def test_init_product_equals_truncated_reconstruction():
    # each width is capped at the rank k_last its block carries
    rng = np.random.default_rng(11)
    y = rng.random((9, 7))
    for dims, widths in (((5, 3), (3, 3)), ((6, 4, 3), (3, 3, 3)), ((5, 5), (5, 5))):
        fs = init_factors(y, dims)
        svd = truncated_svd(y, dims[-1])
        recon = (svd.left * svd.singular) @ svd.right.T
        assert np.allclose(reduce(np.matmul, fs), recon, atol=1e-10)
        shapes = [f.shape for f in fs]
        assert shapes == list(zip((9, *widths), (*widths, 7)))


def test_init_caps_oversized_interior_dims():
    # an interior width above the rank budget is legal; it is capped at that
    # budget and the product stays exact
    rng = np.random.default_rng(12)
    y = rng.random((5, 4))
    fs = init_factors(y, (6, 3))
    svd = truncated_svd(y, 3)
    recon = (svd.left * svd.singular) @ svd.right.T
    assert fs[0].shape == (5, 3)
    assert np.allclose(reduce(np.matmul, fs), recon, atol=1e-10)


def test_init_rejects_oversized_last_dim():
    # the refusal names dims, the key a CLI user sets
    with pytest.raises(
        ParameterError, match=r"^the last of dims \(3, 5\), 5, exceeds min\(m, n\) = 4$"
    ):
        init_factors(np.ones((5, 4)), (3, 5))


def test_init_rejects_non_integral_dims():
    # HyperParams refuses these dims, so init_factors must not run them as (4, 2)
    with pytest.raises(ParameterError, match="^a factor dimension must be an integer, got 4.7$"):
        init_factors(np.ones((5, 4)), (4.7, 2.9))


@pytest.mark.parametrize("dims", [(3, 0), (0, 2), (-1, 2)])
def test_init_rejects_dims_below_one(dims):
    message = f"factor dimensions must be >= 1, got {dims}"
    with pytest.raises(ParameterError) as exc:
        init_factors(np.ones((5, 4)), dims)
    assert str(exc.value) == message


def test_init_needs_two_factor_dimensions():
    with pytest.raises(ParameterError, match=r"^need at least two factor dimensions, got \(3,\)$"):
        init_factors(np.ones((5, 4)), (3,))


def test_init_is_deterministic():
    rng = np.random.default_rng(13)
    y = rng.random((8, 6))
    a = init_factors(y, (4, 2))
    b = init_factors(y, (4, 2))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[-1], b[-1])


# ---------------------------------------------------------------------------
# X update


def test_update_x_formula_and_crop():
    rng = np.random.default_rng(14)
    m, n = 5, 4
    x = rng.random((m, n))
    y = (rng.random((m, n)) < 0.5).astype(float)
    mask = (rng.random((m, n)) < 0.7).astype(float)
    product = rng.standard_normal((m, n)) * 2.0  # negative entries exercise the crop
    alpha, theta = 0.7, 1.3
    out = update_x(x, product, y, mask, alpha, theta)
    b = x + alpha * (mask * (y - mask * x))
    expected = np.maximum((b + theta * product) / (1.0 + theta), 0.0)
    assert np.array_equal(out, expected)
    assert out.min() >= 0.0


def test_update_x_fixed_point_fully_observed():
    # with every cell observed and alpha = 1 the map fixes the blend of data
    # and product in one application
    rng = np.random.default_rng(15)
    y = (rng.random((4, 3)) < 0.5).astype(float)
    product = rng.random((4, 3))
    theta = 2.0
    star = (y + theta * product) / (1.0 + theta)
    out = update_x(star, product, y, np.ones_like(y), 1.0, theta)
    assert np.allclose(out, star, atol=1e-12)


def test_update_x_validates():
    x = np.zeros((2, 2))
    with pytest.raises(ParameterError):
        update_x(x, x, x, np.ones_like(x), 0.0, 1.0)
    with pytest.raises(ParameterError):
        update_x(x, x, x, np.ones_like(x), 0.5, 0.0)
    with pytest.raises(DimensionError):
        update_x(x, np.zeros((2, 3)), x, np.ones_like(x), 0.5, 1.0)


def test_update_x_trusts_its_inputs(monkeypatch):
    # fit checks y and mask once; the X step, run every iteration, only
    # compares shapes
    names = []
    original = grdmf.solver._as_matrix

    def counting(a, name="matrix"):
        names.append(name)
        return original(a, name)

    monkeypatch.setattr(grdmf.solver, "_as_matrix", counting)
    x = np.zeros((2, 2))
    update_x(x, x, x, np.ones_like(x), 0.5, 1.0)
    assert names == []


# ---------------------------------------------------------------------------
# factor updates: each is a stationary point of its prox objective


def _directional_derivative(f, point, direction, eps=1e-6):
    return (f(point + eps * direction) - f(point - eps * direction)) / (2.0 * eps)


@pytest.mark.parametrize("k", [1, 3, 7])
def test_update_u1_is_stationary(k):
    rng = np.random.default_rng(16)
    m, n = 7, 5
    x = rng.random((m, n))
    tail = rng.standard_normal((k, n))
    u1_prev = rng.standard_normal((m, k))
    l_d = rng.random((m, m))
    l_d = 0.5 * (l_d + l_d.T)
    mu, theta = 0.4, 1.2

    def f(u):
        return (
            theta * np.sum((x - u @ tail) ** 2)
            + 2.0 * mu * np.trace(u.T @ l_d @ u)
            + np.sum((u - u1_prev) ** 2)
        )

    u_new, graph = update_u1(x, u1_prev, tail, sym_eigen(2.0 * mu * l_d + np.eye(m)), theta)
    scale = 1.0 + abs(f(u_new))
    for _ in range(6):
        d = rng.standard_normal((m, k))
        d /= np.linalg.norm(d)
        assert abs(_directional_derivative(f, u_new, d)) <= 1e-5 * scale
    # and it actually improves on the tethered point
    assert f(u_new) <= f(u1_prev) + 1e-10
    # the graph term it returns is the new factor's, and none at mu = 0
    assert graph == pytest.approx(2.0 * mu * np.trace(u_new.T @ l_d @ u_new), rel=1e-12)
    assert update_u1(x, u1_prev, tail, sym_eigen(0.0 * l_d + np.eye(m)), theta)[1] == 0.0


@pytest.mark.parametrize("k", [1, 3, 7])
def test_update_v_is_stationary(k):
    # V's update is U1's on the transposed problem; k = 7 is wider than the
    # transposed X (5 x 6) has columns, so the Gram is singular there
    rng = np.random.default_rng(17)
    m, n = 6, 5
    x = rng.random((m, n))
    head = rng.standard_normal((m, k))
    v_prev = rng.standard_normal((k, n))
    l_v = rng.random((n, n))
    l_v = 0.5 * (l_v + l_v.T)
    mu, theta = 0.3, 0.9

    def f(v):
        return (
            theta * np.sum((x - head @ v) ** 2)
            + 2.0 * mu * np.trace(v @ l_v @ v.T)
            + np.sum((v - v_prev) ** 2)
        )

    v_new, graph = update_v(x, v_prev, head, sym_eigen(2.0 * mu * l_v + np.eye(n)), theta)
    scale = 1.0 + abs(f(v_new))
    for _ in range(6):
        d = rng.standard_normal((k, n))
        d /= np.linalg.norm(d)
        assert abs(_directional_derivative(f, v_new, d)) <= 1e-5 * scale
    assert f(v_new) <= f(v_prev) + 1e-10
    assert graph == pytest.approx(2.0 * mu * np.trace(v_new @ l_v @ v_new.T), rel=1e-12)
    assert update_v(x, v_prev, head, sym_eigen(0.0 * l_v + np.eye(n)), theta)[1] == 0.0


def test_update_middle_is_stationary():
    rng = np.random.default_rng(18)
    m, n, k1, k2 = 8, 6, 4, 3
    x = rng.random((m, n))
    left = rng.standard_normal((m, k1))  # full column rank w.p. 1
    right = rng.standard_normal((k2, n))
    f_prev = rng.standard_normal((k1, k2))
    theta = 1.1

    def f(mid):
        return theta * np.sum((x - left @ mid @ right) ** 2) + np.sum(
            (mid - f_prev) ** 2
        )

    mid_new, _ = update_middle(x, f_prev, left, right, theta)
    scale = 1.0 + abs(f(mid_new))
    for _ in range(6):
        d = rng.standard_normal((k1, k2))
        d /= np.linalg.norm(d)
        assert abs(_directional_derivative(f, mid_new, d)) <= 1e-5 * scale
    assert f(mid_new) <= f(f_prev) + 1e-10


def test_update_middle_checks_the_product_shapes():
    x, f_prev = np.ones((6, 5)), np.ones((3, 2))
    left, right = np.ones((6, 3)), np.ones((2, 5))
    with pytest.raises(DimensionError, match=r"^left product must be \(6, 3\), got \(6, 2\)$"):
        update_middle(x, f_prev, left[:, :2], right, 1.0)
    with pytest.raises(DimensionError, match=r"^right product must be \(2, 5\), got \(2, 4\)$"):
        update_middle(x, f_prev, left, right[:, :4], 1.0)


def test_update_middle_reports_flooring():
    rng = np.random.default_rng(19)
    left = np.zeros((6, 3))
    left[:, :2] = rng.standard_normal((6, 2))  # third column dead
    right = rng.standard_normal((2, 5))
    x = rng.random((6, 5))
    f_prev = rng.standard_normal((3, 2))
    out, floored = update_middle(x, f_prev, left, right, 1.0)
    assert floored >= 1
    assert np.all(np.isfinite(out))


def test_update_middle_matches_the_floored_kronecker_solve():
    # G F + F (theta R R.T) = G (theta L.T X R.T + F_prev), G the floored
    # inverse of L.T @ L built here from its definition and solved densely
    for seed in range(5):
        rng = np.random.default_rng(40 + seed)
        m, n, k1, k2 = 7, 5, 4, 3
        left = np.zeros((m, k1))
        left[:, : k1 - 1] = rng.standard_normal((m, k1 - 1))  # last column dead
        right = rng.standard_normal((k2, n))
        x = rng.random((m, n))
        f_prev = rng.standard_normal((k1, k2))
        theta = float(rng.uniform(0.5, 2.0))
        values, vectors = np.linalg.eigh(left.T @ left)
        g = (vectors / np.maximum(values, FLOOR_RATIO * values[-1])) @ vectors.T
        c = g @ (theta * left.T @ x @ right.T + f_prev)
        expected = kron_solve(g, theta * right @ right.T, c)
        out, floored = update_middle(x, f_prev, left, right, theta)
        assert floored == 1
        assert np.allclose(out, expected, rtol=1e-9, atol=1e-9)


def test_update_limits():
    rng = np.random.default_rng(20)
    m, n, k = 6, 5, 3
    x = rng.random((m, n))
    tail = rng.standard_normal((k, n))
    u1_prev = rng.standard_normal((m, k))
    zeros = np.zeros((m, m))
    coef = sym_eigen(2.0 * 0.0 * zeros + np.eye(m))
    # theta huge, mu = 0: least-squares fit of X onto the tail dominates
    big, _ = update_u1(x, u1_prev, tail, coef, 1e8)
    ls = x @ tail.T @ np.linalg.inv(tail @ tail.T)
    assert np.allclose(big, ls, atol=1e-5)
    # theta tiny, mu = 0: the prox tether pins the block to its previous value
    small, _ = update_u1(x, u1_prev, tail, coef, 1e-12)
    assert np.allclose(small, u1_prev, atol=1e-9)


@pytest.mark.parametrize("block", ["u1", "v"])
def test_a_rank_one_gram_never_makes_an_outer_solve_singular(block):
    # theta times the Gram matrix of a rank-one factor product has two zero
    # eigenvalues, which rounding makes negative, far below -1 at theta =
    # 1e100; clamped at 0, every denominator is 1 + 2*mu*lambda + 0 >= 1
    rng = np.random.default_rng(0)
    m, n, k, theta = 6, 5, 3, 1e100
    x = rng.random((m, n))
    if block == "u1":
        tail = rng.random((k, 1)) @ rng.random((1, n))
        gram = theta * (tail @ tail.T)
        out, _ = update_u1(x, rng.random((m, k)), tail, sym_eigen(np.eye(m)), theta)
    else:
        head = rng.random((m, 1)) @ rng.random((1, k))
        gram = theta * (head.T @ head)
        out, _ = update_v(x, rng.random((k, n)), head, sym_eigen(np.eye(n)), theta)
    assert sym_eigen(gram).values[0] < -1.0  # the case the clamp is for
    assert np.isfinite(out).all()


@pytest.mark.parametrize("block", ["u1", "v"])
def test_wrong_sized_graph_coefficient_is_a_dimension_error(block):
    rng = np.random.default_rng(22)
    m, n, k = 8, 5, 3
    x = rng.random((m, n))
    one = sym_eigen(np.eye(1))
    with pytest.raises(DimensionError, match="coefficient 1x1"):
        if block == "u1":
            update_u1(x, rng.standard_normal((m, k)), rng.standard_normal((k, n)), one, 1.0)
        else:
            update_v(x, rng.standard_normal((k, n)), rng.standard_normal((m, k)), one, 1.0)


# ---------------------------------------------------------------------------
# per-block descent along the real iteration


def default_instance(key, seed):
    """A paper-scale (86x23) instance under the tuned defaults of ``key``,
    about a tenth of its cells hidden: returns (y, mask, l_d, l_v, hp)."""
    prob = make_synthetic_problem(m=86, n=23, rank=3, seed=seed)
    hp = HyperParams(**DEFAULT_HYPERPARAMS[key])
    y = prob.dataset.y
    mask = (np.random.default_rng(seed).random(y.shape) >= 0.1).astype(float)
    l_d = build_laplacian([prob.drug_sim], hp.p)
    l_v = build_laplacian([prob.virus_sim], hp.p)
    return y * mask, mask, l_d, l_v, hp


DESCENT_CASES = ["depth2", "depth3", *(f"{s}-{d}" for s, d in DEFAULT_HYPERPARAMS)]


@pytest.mark.parametrize(
    "case, padded",
    [
        *(pytest.param(case, False, id=case) for case in DESCENT_CASES),
        *(pytest.param(case, True, id=f"{case}-padded") for case in DESCENT_CASES),
    ],
)
def test_block_updates_never_increase_their_prox_objective(case, padded):
    # F(new) + ||Delta||^2 <= F(old): the defining inequality of a unit-weight
    # proximal step, checked across whole runs of the actual iteration, on the
    # planted family (small mu) and under each tuned default (large mu/theta),
    # from the live init and from it zero-padded to the configured dims, whose
    # zero widths floor the Gram eigenvalues of the middle update
    for seed in (0, 1, 2):
        if case.startswith("depth"):
            y, mask, l_d, l_v, hp = descent_instance(seed)
            if case == "depth3":
                k1, k2 = hp.dims
                hp = replace(hp, dims=(k1, k2, k2))
        else:
            scheme, depth = case.split("-")
            y, mask, l_d, l_v, hp = default_instance((scheme, int(depth)), seed)
        init = init_factors(y, hp.dims)
        if padded:
            init = pad_chain(init, hp.dims)
        for label, before, after, delta_sq in block_walk(y, mask, l_d, l_v, hp, init):
            assert after + delta_sq <= before + 1e-8, (seed, label)


@pytest.mark.parametrize(
    "key", list(DEFAULT_HYPERPARAMS), ids=[f"{s}-{d}" for s, d in DEFAULT_HYPERPARAMS]
)
def test_widths_init_leaves_zero_stay_exactly_zero_through_fit(key):
    # the live init zero-padded to the configured dims has the same product;
    # each padded U1 column, middle row or middle column meets a zero
    # right-hand side in every update, so it stays exactly zero and the padded
    # fit is the live one up to rounding. X and the loss are compared, not
    # factor entries: SVD signs may differ between shapes
    for seed in (0, 1, 2):
        y, mask, l_d, l_v, hp = default_instance(key, seed)
        live = init_factors(y, hp.dims)
        init = pad_chain(live, hp.dims)
        assert init[0].shape[1] > live[0].shape[1], seed
        padded = fit(y, mask, l_d, l_v, hp, init=init)
        for small, after in zip(live, padded.factors):
            rows, cols = small.shape
            assert not after[rows:].any() and not after[:, cols:].any(), seed
        res = fit(y, mask, l_d, l_v, hp)
        scale = np.abs(padded.x).max()
        assert np.abs(res.x - padded.x).max() <= 1e-7 * scale, seed
        assert res.trace.loss == pytest.approx(padded.trace.loss, rel=1e-7), seed


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    m=st.integers(min_value=6, max_value=24),
    n=st.integers(min_value=4, max_value=12),
    rank=st.integers(min_value=1, max_value=3),
    depth=st.sampled_from([2, 3]),
    extra=st.integers(min_value=1, max_value=6),
    mu=st.floats(min_value=1e-3, max_value=300.0),
    theta=st.floats(min_value=1e-2, max_value=30.0),
    alpha=st.floats(min_value=0.0, max_value=2.0, exclude_min=True, exclude_max=True),
)
def test_block_descent_holds_across_the_admissible_hyperparameters(
    seed, m, n, rank, depth, extra, mu, theta, alpha
):
    # the same inequality over random shapes, both depths and the full
    # admissible mu/theta/alpha ranges, from the live init and from it
    # zero-padded to the interior dims above the planted rank, which makes the
    # middle update's Gram matrices singular
    prob = make_synthetic_problem(m=m, n=n, rank=rank, seed=seed)
    dims = (rank + extra,) * (depth - 1) + (rank,)
    hp = HyperParams(mu=mu, theta=theta, alpha=alpha, dims=dims, p=3, iters=10)
    mask = (np.random.default_rng(seed).random((m, n)) >= 0.1).astype(float)
    y = prob.dataset.y * mask
    l_d = build_laplacian([prob.drug_sim], hp.p)
    l_v = build_laplacian([prob.virus_sim], hp.p)
    live = init_factors(y, hp.dims)
    for init in (live, pad_chain(live, hp.dims)):
        for label, before, after, delta_sq in block_walk(y, mask, l_d, l_v, hp, init):
            assert after + delta_sq <= before + 1e-8, (label, init[0].shape)


# ---------------------------------------------------------------------------
# fit


def test_fit_trace_shape_and_nonnegativity():
    y, mask, l_d, l_v, hp = descent_instance(3)
    res = fit(y, mask, l_d, l_v, hp)
    assert len(res.trace.loss) == hp.iters + 1
    assert all(np.isfinite(v) for v in res.trace.loss)
    assert res.x.min() >= 0.0
    assert res.trace.wall_time > 0.0
    assert res.trace.floor_events >= 0
    assert res.x.shape == y.shape


def test_fit_trace_starts_at_initial_objective():
    y, mask, l_d, l_v, hp = descent_instance(4)
    res = fit(y, mask, l_d, l_v, hp)
    fs = init_factors(y, hp.dims)
    f0 = objective(y, fs, y, mask, l_d, l_v, hp.mu, hp.theta)
    assert res.trace.loss[0] == pytest.approx(f0, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.05, 1.0, 1.5])
@pytest.mark.parametrize("dims", [(17, 15), (17, 15, 15)], ids=["depth2", "depth3"])
def test_the_trace_loss_is_the_objective_of_the_fitted_point(dims, alpha):
    # the trace takes each loss from the solves; objective, the reference
    # form, re-evaluates it from the returned X and chain
    y, mask, l_d, l_v, hp = default_instance(("entries", len(dims)), 3)
    hp = replace(hp, dims=dims, alpha=alpha)
    for iters in range(5):
        # HyperParams needs iters >= 1; iteration 0 scores the start of any fit
        result = fit(y, mask, l_d, l_v, replace(hp, iters=max(iters, 1)))
        if iters == 0:
            got, x, chain = result.trace.loss[0], y, init_factors(y, dims)
        else:
            got, x, chain = result.trace.loss[-1], result.x, result.factors
        want = objective(x, chain, y, mask, l_d, l_v, hp.mu, hp.theta)
        assert got == pytest.approx(want, rel=1e-12), iters


def test_the_trace_keeps_the_terms_of_each_loss():
    y, mask, l_d, l_v, hp = descent_instance(3)
    trace = fit(y, mask, l_d, l_v, hp).trace
    assert len(trace.terms) == len(trace.loss) == hp.iters + 1
    for (data, couple, graph), loss in zip(trace.terms, trace.loss):
        assert min(data, couple, graph) >= 0.0
        assert data + couple + graph == loss


def test_a_fit_neither_evaluates_objective_nor_calls_the_sylvester_kernel(monkeypatch):
    # each loss comes from the solves the iteration ran, each solve from the
    # in-basis division: rebinding either public function to raise changes
    # nothing in a fit
    def refusing(home, name):
        original = getattr(home, name)

        def wrapper(*args, **kwargs):
            raise AssertionError(f"{name} called")

        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "grdmf" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)

    y, mask, l_d, l_v, hp = default_instance(("entries", 3), 0)
    expected = fit(y, mask, l_d, l_v, hp)
    refusing(grdmf.solver, "objective")
    refusing(grdmf.linalg, "solve_sylvester_sym")
    result = fit(y, mask, l_d, l_v, hp)
    assert np.array_equal(result.x, expected.x)
    assert result.trace.loss == expected.trace.loss


def test_fit_monotone_on_planted_family():
    for seed in (5, 6, 7):
        y, mask, l_d, l_v, hp = descent_instance(seed)
        loss = np.array(fit(y, mask, l_d, l_v, hp).trace.loss)
        rel = np.diff(loss[1:]) / np.maximum(loss[1:-1], 1e-30)
        assert rel.max() <= 1e-9


def test_fit_is_deterministic():
    y, mask, l_d, l_v, hp = descent_instance(8)
    a = fit(y, mask, l_d, l_v, hp)
    b = fit(y, mask, l_d, l_v, hp)
    assert np.array_equal(a.x, b.x)
    assert a.trace.loss == b.trace.loss


@pytest.mark.parametrize(
    "dims", [(4, 3), (5, 4, 3), (6, 6)], ids=lambda dims: "x".join(map(str, dims))
)
@pytest.mark.parametrize("seed", range(6))
def test_fit_matches_the_whole_fit_reference(seed, dims):
    prob = make_synthetic_problem(m=12, n=7, rank=3, seed=seed)
    y = prob.dataset.y
    mask = np.ones(y.shape)
    mask.flat[np.random.default_rng(seed).permutation(y.size)[: y.size // 5]] = 0.0
    l_d = build_laplacian([prob.drug_sim], 3)
    l_v = build_laplacian([prob.virus_sim], 3)
    hp = HyperParams(mu=0.5, theta=1.0, alpha=0.5, dims=dims, p=3)
    result = fit(y * mask, mask, l_d, l_v, hp)
    expected = reference_fit(y * mask, mask, l_d, l_v, hp)
    assert np.abs(result.x - expected).max() <= 1e-10 * np.abs(expected).max()
    if dims == (6, 6):
        # the rank-6 middle Gram matrices are floored, and the floored solve
        # still agrees with the exact one
        assert result.trace.floor_events > 0


def test_fit_respects_and_preserves_custom_init():
    y, mask, l_d, l_v, hp = descent_instance(9)
    init = init_factors(y, hp.dims)
    before = [f.copy() for f in init]
    fit(y, mask, l_d, l_v, hp, init=init)
    for f, f_before in zip(init, before):  # caller's factors not mutated
        assert np.array_equal(f, f_before)


def test_fit_validates_inputs():
    y = np.zeros((4, 3))
    hp = HyperParams(mu=1.0, theta=1.0, alpha=0.5, dims=(2, 2))
    with pytest.raises(ParameterError):
        fit(y, np.full_like(y, 0.5), np.eye(4), np.eye(3), hp)
    with pytest.raises(DimensionError):
        fit(y, np.ones((3, 4)), np.eye(4), np.eye(3), hp)
    with pytest.raises(DimensionError):
        fit(y, np.ones_like(y), np.eye(3), np.eye(3), hp)
    with pytest.raises(DimensionError, match=r"^l_v must be 3x3, got \(4, 4\)$"):
        fit(y, np.ones_like(y), np.eye(4), np.eye(4), hp)
    y[2, 1] = np.nan
    with pytest.raises(GrdmfError, match="^y contains non-finite entries$"):
        fit(y, np.ones_like(y), np.eye(4), np.eye(3), hp)


@pytest.mark.parametrize(
    "cell, match",
    [
        (0.5, r"^mask must be binary \(0/1 entries\)$"),
        (2.0, r"^mask must be binary \(0/1 entries\)$"),
        (-1.0, r"^mask must be binary \(0/1 entries\)$"),
        (np.nan, "^mask contains non-finite entries$"),
        (np.inf, "^mask contains non-finite entries$"),
    ],
)
def test_fit_keeps_the_verdict_of_its_binary_mask_check(cell, match):
    y, mask, l_d, l_v, hp = descent_instance(14)
    signed = np.where(mask == 0.0, -0.0, mask)  # -0.0 is a zero
    assert np.array_equal(fit(y, signed, l_d, l_v, hp).x, fit(y, mask, l_d, l_v, hp).x)
    bad = mask.copy()
    bad[1, 2] = cell
    with pytest.raises(ParameterError, match=match):
        fit(y, bad, l_d, l_v, hp)


def test_fit_wraps_iteration_failures(monkeypatch):
    # any failure inside an iteration is a SolverError naming it, with the
    # original error chained
    y, mask, l_d, l_v, hp = descent_instance(11)

    def failing(*args):
        raise ArithmeticError("the V solve broke")

    monkeypatch.setattr(grdmf.solver, "update_v", failing)
    with pytest.raises(SolverError, match="^iteration 1 failed: the V solve broke$") as info:
        fit(y, mask, l_d, l_v, hp)
    assert isinstance(info.value.__cause__, ArithmeticError)


@pytest.mark.parametrize("side", ["l_d", "l_v"])
def test_fit_rejects_an_indefinite_laplacian_at_entry(side):
    # -I/2 would zero the graph-side coefficient 2*mu*L + I at mu = 1 and make
    # the Sylvester system singular inside iteration 1; a Laplacian is
    # positive semidefinite, so fit refuses it before iteration 0, naming it
    y = np.outer(np.ones(6), np.ones(4))
    hp = HyperParams(mu=1.0, theta=1.0, alpha=0.5, dims=(2, 2), iters=3)
    laps = {"l_d": np.zeros((6, 6)), "l_v": np.zeros((4, 4))}
    laps[side] = -0.5 * np.eye(laps[side].shape[0])
    with pytest.raises(ParameterError, match=f"^{side} is not positive semidefinite"):
        fit(y, np.ones_like(y), laps["l_d"], laps["l_v"], hp)


@pytest.mark.parametrize("side", ["l_d", "l_v"])
def test_fit_rejects_asymmetric_laplacian_at_entry(side):
    y, mask, l_d, l_v, hp = descent_instance(12)
    laps = {"l_d": l_d.copy(), "l_v": l_v.copy()}
    laps[side][0, 1] += 1.0
    # a SymmetryError, not a SolverError: no iteration has started
    with pytest.raises(SymmetryError, match=f"^{side} is not symmetric"):
        fit(y, mask, laps["l_d"], laps["l_v"], hp)


def test_fit_rejects_mismatched_init_at_entry():
    # a custom init is an input too: a wrong shape is a DimensionError naming
    # the factor, not a SolverError from the starting point's objective or
    # numpy's bare matmul error
    y, mask, l_d, l_v, hp = descent_instance(14)
    m, n = y.shape
    init = init_factors(y[:, :-1], hp.dims)
    with pytest.raises(DimensionError, match=f"^init factor 2 has {n - 1} columns, expected {n}$"):
        fit(y, mask, l_d, l_v, hp, init=init)
    unchained = [np.ones((m, 4)), np.ones((3, 2)), np.ones((2, n))]
    with pytest.raises(DimensionError, match="^init factor 1 has 3 rows, expected 4$"):
        fit(y, mask, l_d, l_v, hp, init=unchained)
    with pytest.raises(DimensionError, match="^init must hold at least two factors, got 1$"):
        fit(y, mask, l_d, l_v, hp, init=[np.ones((m, n))])


def test_fit_rejects_a_mu_that_overflows_a_graph_coefficient():
    # a finite mu this large overflows 2*mu*lambda_max, and so the coefficient
    # eigenvalues 1 + 2*mu*lambda: fit refuses it at the boundary, naming mu
    # and the side, before iteration 0 and with no numpy warning (the suite
    # turns warnings into errors)
    y, mask, l_d, l_v, hp = descent_instance(15)
    with pytest.raises(ParameterError, match=r"^mu 1e\+308 is too large for l_d: 2\*mu\*lambda_max"):
        fit(y, mask, l_d, l_v, replace(hp, mu=1e308))
    with pytest.raises(ParameterError, match=r"^mu 1e\+300 is too large for l_v: 2\*mu\*lambda_max"):
        fit(y, mask, l_d * 1e-10, l_v * 1e10, replace(hp, mu=1e300))


@pytest.mark.filterwarnings("ignore::grdmf.exceptions.ZeroProfileWarning")
def test_fit_returns_a_finite_x_for_every_mu_on_the_golden_laplacians(tmp_path):
    # the golden bundle's summed Laplacians (a similarity and a profile per
    # side, p = 3): the graph side is L's own eigendecomposition, so every U1
    # and V denominator is 1 + 2*mu*lambda + (a clamped Gram eigenvalue) >= 1,
    # and no mu whose 2*mu*lambda_max is finite makes an iteration singular;
    # a larger mu is refused at the boundary, never a warning or an iteration
    # failure
    paths = write_synthetic_csvs(make_synthetic_problem(m=30, n=12, rank=3, seed=7), tmp_path)
    dataset = load_association_csv(paths["association"])
    l_d, l_v = (
        build_laplacian(
            [
                load_similarity_csv(paths[f"{side}_sim"], registry),
                cosine_similarity(load_profile_csv(paths[f"{side}_profile"], registry)),
            ],
            3,
        )
        for side, registry in (("drug", dataset.drugs), ("virus", dataset.viruses))
    )
    y = dataset.y
    refused = r"^mu .* is too large for l_[dv]: 2\*mu\*lambda_max"
    for exponent in range(2, 309):
        hp = HyperParams(mu=10.0**exponent, theta=1.0, alpha=0.5, dims=(5, 3), p=3, iters=4)
        try:
            result = fit(y, np.ones_like(y), l_d, l_v, hp)
        except ParameterError as exc:
            assert re.match(refused, str(exc)), exponent
            continue
        assert np.isfinite(result.x).all(), exponent
        # the trace's graph terms are weighted sums of squares in the
        # Laplacians' eigenbases, so no mu, however large, makes a loss
        # negative through the rounding of 2*mu*tr(U.T @ L @ U)
        assert all(np.isfinite(v) and v >= 0.0 for v in result.trace.loss), exponent


def test_fit_stops_on_nonfinite_objective():
    # squared residuals of a 1e200-scaled Y overflow: the starting point's
    # objective is already infinite, and the fit must say so
    y, mask, l_d, l_v, hp = descent_instance(13)
    with np.errstate(over="ignore"), pytest.raises(
        SolverError, match=r"^iteration 0 failed: objective is not finite: .*coupling term inf"
    ):
        fit(y * 1e200, mask, l_d, l_v, hp)
    fs = init_factors(y, hp.dims)
    bad_x = np.full_like(y, np.nan)
    with pytest.raises(ValueError, match="data term nan"):
        objective(bad_x, fs, y, mask, l_d, l_v, hp.mu, hp.theta)


def test_each_symmetric_operand_is_checked_once(monkeypatch):
    # every symmetry check in a fit is sym_eigen's own, the two Laplacians'
    # included (sym_eigen names their side); a kernel re-checking an operand
    # that sym_eigen will check anyway breaks the equality
    counts = {"_require_symmetric": 0, "sym_eigen": 0}

    def counting(name):
        original = getattr(grdmf.linalg, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "grdmf" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)

    prob = make_synthetic_problem(m=86, n=23, rank=5, seed=0)
    l_d = build_laplacian([prob.drug_sim], 2)
    l_v = build_laplacian([prob.virus_sim], 2)
    hp = HyperParams(mu=100.0, theta=1.0, alpha=0.05, dims=(17, 15), p=2, iters=10)
    y = prob.dataset.y
    counting("_require_symmetric")
    counting("sym_eigen")
    fit(y, np.ones_like(y), l_d, l_v, hp)
    assert counts["sym_eigen"] > 0
    assert counts["_require_symmetric"] == counts["sym_eigen"]


@pytest.mark.parametrize("dims", [(17, 15), (23, 10, 7)], ids=["depth2", "depth3"])
def test_every_operand_fit_diagonalizes_is_exactly_symmetric(monkeypatch, dims):
    # Grams are formed as A @ A.T or A.T @ A (numpy's syrk: one triangle,
    # mirrored) and the graph side from the checked Laplacians, so no update
    # re-symmetrizes its operand; the middle update's inverse is never formed,
    # spd_inverse hands it over as an eigendecomposition of L.T @ L
    operands = []
    original = grdmf.linalg.sym_eigen

    def recording(a, *args):
        operands.append(np.array(a))
        return original(a, *args)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "grdmf" and getattr(module, "sym_eigen", None) is original:
            monkeypatch.setattr(module, "sym_eigen", recording)

    prob = make_synthetic_problem(m=86, n=23, rank=5, seed=0)
    l_d = build_laplacian([prob.drug_sim], 2)
    l_v = build_laplacian([prob.virus_sim], 2)
    hp = HyperParams(mu=100.0, theta=1.0, alpha=0.05, dims=dims, p=2, iters=10)
    y = prob.dataset.y
    fit(y, np.ones_like(y), l_d, l_v, hp)
    assert len(operands) == 2 + hp.iters * (2 + 2 * (len(dims) - 1))
    for a in operands:
        assert np.array_equal(a, a.T)


@pytest.mark.parametrize("dims", [(17, 15), (17, 15, 15)], ids=["depth2", "depth3"])
def test_graph_side_coefficients_are_diagonalized_once_per_fit(monkeypatch, dims):
    # L_d and L_v are constant for a fit: one m x m and one n x n
    # eigendecomposition per fit, not one per iteration
    shapes = []
    original = grdmf.linalg.sym_eigen

    def recording(a, *args):
        shapes.append(np.shape(a))
        return original(a, *args)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "grdmf" and getattr(module, "sym_eigen", None) is original:
            monkeypatch.setattr(module, "sym_eigen", recording)

    prob = make_synthetic_problem(m=86, n=23, rank=5, seed=0)
    l_d = build_laplacian([prob.drug_sim], 2)
    l_v = build_laplacian([prob.virus_sim], 2)
    hp = HyperParams(mu=100.0, theta=1.0, alpha=0.05, dims=dims, p=2, iters=10)
    y = prob.dataset.y
    fit(y, np.ones_like(y), l_d, l_v, hp)
    assert shapes.count((86, 86)) == 1
    assert shapes.count((23, 23)) == 1


# ---------------------------------------------------------------------------
# three-layer chain


def test_three_layer_extension_preserves_objective():
    y, mask, l_d, l_v, hp = descent_instance(10)
    k1, k2 = hp.dims
    two = init_factors(y, (k1, k2))
    three = [*two[:-1], np.eye(k2), two[-1]]
    f2 = objective(y, two, y, mask, l_d, l_v, hp.mu, hp.theta)
    f3 = objective(y, three, y, mask, l_d, l_v, hp.mu, hp.theta)
    assert abs(f3 - f2) <= 1e-6 * (1.0 + abs(f2))


def test_three_layer_fit_runs_and_descends():
    y, mask, l_d, l_v, hp2 = descent_instance(11)
    k1, k2 = hp2.dims
    hp3 = HyperParams(
        mu=hp2.mu, theta=hp2.theta, alpha=hp2.alpha, dims=(k1, k2, k2),
        p=hp2.p, iters=hp2.iters,
    )
    res = fit(y, mask, l_d, l_v, hp3)
    loss = np.array(res.trace.loss)
    assert np.all(np.isfinite(loss))
    rel = np.diff(loss[1:]) / np.maximum(loss[1:-1], 1e-30)
    assert rel.max() <= 1e-9
    assert res.x.min() >= 0.0
    assert len(res.factors) == 4
