"""Dense kernel tests: eigendecomposition, truncated SVD, Sylvester solves.

The Sylvester solver is checked against a Kronecker-lifted dense solve, which
shares no code with the eigendecomposition route.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grdmf.exceptions import (
    DimensionError,
    ParameterError,
    SingularSystemError,
    SymmetryError,
)
from grdmf.linalg import (
    _require_symmetric,
    _symmetrized,
    solve_sylvester_sym,
    spd_inverse,
    sym_eigen,
    truncated_svd,
)
from helpers import kron_solve, random_spd, symmetry_oracle

# ---------------------------------------------------------------------------
# sym_eigen


def test_eigen_reconstructs_and_orders():
    rng = np.random.default_rng(0)
    for size in (1, 2, 5, 9):
        a = rng.standard_normal((size, size))
        a = a + a.T
        eig = sym_eigen(a)
        recon = (eig.vectors * eig.values) @ eig.vectors.T
        assert np.allclose(recon, a, atol=1e-10)
        assert np.all(np.diff(eig.values) >= 0.0)
        gram = eig.vectors.T @ eig.vectors
        assert np.allclose(gram, np.eye(size), atol=1e-10)


def test_eigen_rejects_asymmetric():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(SymmetryError):
        sym_eigen(a)


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e-6])
def test_eigen_symmetry_tolerance_is_relative_to_the_norm(scale):
    # ||M - M.T||_F = sqrt(2) eps * scale against 1e-8 * (1 + sqrt(2) scale)
    limit = 1e-8 * (1.0 + np.sqrt(2.0) * scale) / (np.sqrt(2.0) * scale)
    for eps, passes in ((0.9 * limit, True), (1.1 * limit, False)):
        a = scale * np.eye(2)
        a[0, 1] = eps * scale
        if passes:
            sym_eigen(a)
        else:
            with pytest.raises(SymmetryError):
                sym_eigen(a)


def test_eigen_rejects_asymmetry_whose_norm_overflows():
    # ||M||_F is inf for each of these, which passed any gap before rescaling
    huge = np.finfo(float).max / 2
    for a in (
        [[1e300, 1e300], [0.0, 1e300]],
        [[huge, huge], [-huge, 1.0]],  # M - M.T overflows too
    ):
        with np.errstate(over="ignore"):
            with pytest.raises(SymmetryError, match="^matrix is not symmetric"):
                sym_eigen(np.array(a))
    with np.errstate(over="ignore"):
        eig = sym_eigen(np.array([[1e300, 1e300], [1e300, 1e300]]))
    assert np.allclose(eig.values, [0.0, 2e300], atol=1e288)


def test_eigen_of_a_huge_operand_lets_no_overflow_warning_escape():
    # the symmetry check handles an overflowing norm itself, so numpy's
    # RuntimeWarning from computing that norm must not reach the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eig = sym_eigen(np.array([[1e300, 1e300], [1e300, 1e300]]))
        assert np.allclose(eig.values, [0.0, 2e300], atol=1e288)
        with pytest.raises(SymmetryError, match="^matrix is not symmetric"):
            sym_eigen(np.array([[1e300, 1e300], [0.0, 1e300]]))


def test_eigen_rejects_bad_dims():
    with pytest.raises(DimensionError):
        sym_eigen(np.zeros(3))
    with pytest.raises(DimensionError):
        sym_eigen(np.zeros((2, 3)))


def test_eigen_rejects_nonfinite():
    a = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError):
        sym_eigen(a)


def test_eigen_names_its_operand_in_every_refusal():
    with pytest.raises(DimensionError, match="^l_d must be 2-D"):
        sym_eigen(np.zeros(3), "l_d")
    with pytest.raises(ParameterError, match="^l_d contains non-finite entries"):
        sym_eigen(np.full((2, 2), np.inf), "l_d")
    with pytest.raises(DimensionError, match="^l_d must be square"):
        sym_eigen(np.zeros((2, 3)), "l_d")
    with pytest.raises(SymmetryError, match="^l_d is not symmetric"):
        sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]), "l_d")


@st.composite
def _near_symmetric(draw):
    """A square matrix: exactly symmetric with signed zeros placed at random,
    or one entry moved by 1e-14..1e-2 of max|a|, or drawn whole; entries reach
    1.7e308, where the Frobenius norm overflows."""
    n = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e150, 1e300, 1.7e308]))
    unit = st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0, -1.0])
    cells = st.lists(unit, min_size=n * n, max_size=n * n)
    u = np.array(draw(cells)).reshape(n, n) * scale
    a = np.where(np.triu(np.ones((n, n), dtype=bool)), u, u.T)
    signs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n * n, max_size=n * n)))
    a = np.where(a == 0.0, np.copysign(0.0, signs.reshape(n, n)), a)
    kind = draw(st.sampled_from(["exact", "moved", "whole"]))
    if kind == "moved" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        peak = float(np.abs(a).max()) or scale
        delta = 10.0 ** draw(st.floats(-14.0, -2.0)) * peak
        # towards zero, so the moved entry stays finite
        a[i, j] -= delta if a[i, j] > 0.0 else -delta
    elif kind == "whole":
        a = np.array(draw(cells)).reshape(n, n) * scale
    return a


@settings(max_examples=300, deadline=None)
@given(_near_symmetric())
@example(np.array([[0.0, -0.0], [0.0, 1.0]]))  # signed zeros: symmetric
@example(np.array([[-0.0]]))
@example(np.array([[0.0, 0.0], [1.7e308, 0.0]]))  # the gap overflows: reads inf
@example(np.array([[1e300, 1e300], [1e300 * (1 - 1e-9), 1e300]]))  # ||a|| overflows
def test_symmetry_check_keeps_the_verdict_and_message_of_the_tolerance_rule(a):
    # the exact-symmetry shortcut may only skip work: whatever the tolerance
    # rule alone says of a matrix, the check says, in the same words
    refusal = symmetry_oracle(a, "l_v")
    if refusal is None:
        _require_symmetric(a, "l_v")
    else:
        with pytest.raises(SymmetryError) as caught:
            _require_symmetric(a, "l_v")
        assert str(caught.value) == refusal


# ---------------------------------------------------------------------------
# truncated_svd


def test_svd_best_rank_error():
    # Eckart-Young: the rank-r residual equals the energy of the dropped tail.
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 5))
    full = np.linalg.svd(a, compute_uv=False)
    for r in (1, 2, 4):
        svd = truncated_svd(a, r)
        recon = (svd.left * svd.singular) @ svd.right.T
        err = np.sum((a - recon) ** 2)
        tail = np.sum(full[r:] ** 2)
        assert abs(err - tail) <= 1e-10 * (1.0 + tail)
        assert np.allclose(svd.left.T @ svd.left, np.eye(r), atol=1e-10)
        assert np.allclose(svd.right.T @ svd.right, np.eye(r), atol=1e-10)
        assert np.all(np.diff(svd.singular) <= 1e-12)


def test_svd_zeroes_negligible_singulars():
    # rank-1 input asked for rank 2: the second singular value must be exactly 0
    u = np.arange(1.0, 5.0)[:, None]
    v = np.array([[2.0, 0.5, 1.0]])
    svd = truncated_svd(u @ v, 2)
    assert svd.singular[0] > 0.0
    assert svd.singular[1] == 0.0


def test_svd_rank_bounds():
    a = np.ones((3, 4))
    with pytest.raises(ParameterError):
        truncated_svd(a, 0)
    with pytest.raises(ParameterError):
        truncated_svd(a, 4)
    with pytest.raises(ParameterError):
        truncated_svd(a, 1.5)
    for flag in (True, np.True_):  # not rank 1
        with pytest.raises(ParameterError, match="^rank must be an integer, got "):
            truncated_svd(a, flag)


# ---------------------------------------------------------------------------
# solve_sylvester_sym


def test_sylvester_matches_kronecker_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, 9))
        a = random_spd(rng, n)
        b = random_spd(rng, k)
        c = rng.standard_normal((n, k))
        x = solve_sylvester_sym(sym_eigen(a), sym_eigen(b), c)
        x_ref = kron_solve(a, b, c)
        assert np.linalg.norm(x - x_ref) <= 1e-8
        assert np.linalg.norm(a @ x + x @ b - c) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=7),
)
def test_sylvester_residual_property(seed, n, k):
    rng = np.random.default_rng(seed)
    a = random_spd(rng, n, lo=0.2, hi=3.0)
    b = random_spd(rng, k, lo=0.2, hi=3.0)
    c = rng.standard_normal((n, k))
    x = solve_sylvester_sym(sym_eigen(a), sym_eigen(b), c)
    scale = 1.0 + np.linalg.norm(c)
    assert np.linalg.norm(a @ x + x @ b - c) <= 1e-8 * scale


def test_sylvester_singular_system():
    # spectra of a and -b overlap -> some eigenvalue sum vanishes
    a = np.eye(2)
    b = -np.eye(3)
    with pytest.raises(SingularSystemError):
        solve_sylvester_sym(sym_eigen(a), sym_eigen(b), np.ones((2, 3)))


def test_sylvester_shape_check():
    with pytest.raises(DimensionError):
        solve_sylvester_sym(sym_eigen(np.eye(2)), sym_eigen(np.eye(3)), np.ones((3, 2)))


# ---------------------------------------------------------------------------
# spd_inverse


def _dense(e):
    return (e.vectors * e.values) @ e.vectors.T


def test_spd_inverse_matches_dense_inverse():
    rng = np.random.default_rng(3)
    for size in (1, 3, 6):
        a = random_spd(rng, size)
        e, _ = spd_inverse(a)
        assert np.all(np.diff(e.values) >= 0.0)
        inv = _dense(e)
        assert np.allclose(inv, np.linalg.inv(a), atol=1e-9)
        assert np.allclose(inv, inv.T)


def test_spd_inverse_floors_singular_directions():
    v = np.array([1.0, 2.0, 0.5, 1.5])[:, None]
    a = v @ v.T  # rank one, three zero eigenvalues
    e, floored = spd_inverse(a)
    assert np.all(np.diff(e.values) >= 0.0)
    inv = _dense(e)
    assert floored == 3
    assert np.all(np.isfinite(inv))


def test_spd_inverse_zero_matrix():
    e, floored = spd_inverse(np.zeros((3, 3)))
    assert np.all(np.diff(e.values) >= 0.0)
    inv = _dense(e)
    assert floored == 3
    assert np.all(np.isfinite(inv))


def test_symmetrized_halves_only_the_pairs_whose_sum_overflows():
    rng = np.random.default_rng(4)
    a = rng.random((5, 5))
    a[1, 2], a[2, 1] = 1.5e308, 1e308
    a[3, 3] = 1.7e308
    a[0, 4], a[4, 0] = -1.6e308, -1e308
    with np.errstate(over="ignore"):
        plain = 0.5 * (a + a.T)
    out = np.empty_like(a)
    got = _symmetrized(a, out=out)
    assert got is out
    finite = np.isfinite(plain)
    assert got[finite].tobytes() == plain[finite].tobytes()
    assert got[1, 2] == got[2, 1] == 1.25e308
    assert got[3, 3] == 1.7e308
    assert got[0, 4] == got[4, 0] == -1.3e308
