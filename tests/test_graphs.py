"""Similarity graph pipeline tests.

The neighbour selection is checked against a plain double-loop oracle, and
the Laplacian against the textbook quadratic-form identity
tr(U.T @ L @ U) == 0.5 * sum_ij S_ij ||u_i - u_j||^2.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grdmf.graphs
from grdmf.exceptions import (
    DimensionError,
    GrdmfError,
    ParameterError,
    SymmetryError,
)
from grdmf.graphs import build_laplacian, cosine_similarity, sparsify_pnn
from grdmf.synthetic import make_synthetic_problem
from helpers import laplacian_oracle, pnn_argsort_oracle

# ---------------------------------------------------------------------------
# cosine_similarity


def test_cosine_hand_values():
    profiles = np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    sim = cosine_similarity(profiles)
    # rows 0 and 1 share one of two features each: 1 / (sqrt(2) * sqrt(2))
    assert sim[0, 1] == pytest.approx(0.5)
    assert sim[0, 2] == 0.0
    assert sim[1, 2] == 0.0
    assert np.allclose(np.diag(sim), 1.0)
    assert np.allclose(sim, sim.T)


def test_cosine_zero_profile_isolates_without_warning():
    # all-zero rows are warned of where a profile loads, naming its file
    for zero in (0.0, -0.0):
        profiles = np.array([[1.0, 1.0], [zero, zero], [0.5, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = cosine_similarity(profiles)
        assert sim[0, 1] == 0.0
        assert sim[1, 0] == 0.0
        assert sim[1, 1] == 1.0  # self-similarity stays defined
        # a signed zero row is still +0.0 to the others, with no write of its own
        assert not np.signbit(sim).any()


def test_cosine_rejects_negative_and_nonfinite_rows():
    # binary profiles are checked where they load; the cosine takes any
    # finite nonnegative rows, such as a synthetic problem's latent factors
    with pytest.raises(ParameterError, match="nonnegative"):
        cosine_similarity(np.array([[0.5, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        cosine_similarity(np.array([[0.5, np.nan], [1.0, 0.0]]))
    # and one the package's callers catch with the rest of its errors
    with pytest.raises(GrdmfError, match="^indicator contains non-finite entries$"):
        cosine_similarity(np.array([[0.5, np.inf], [1.0, 0.0]]))
    sim = cosine_similarity(np.array([[0.5, 1.0], [1.0, 0.0]]))
    assert sim[0, 1] == pytest.approx(0.5 / np.sqrt(1.25))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=8),
)
def test_cosine_range_and_symmetry(seed, rows, cols):
    rng = np.random.default_rng(seed)
    profiles = (rng.random((rows, cols)) < 0.5).astype(float)
    # avoid the zero-row path here; it has its own test
    profiles[profiles.sum(axis=1) == 0, 0] = 1.0
    sim = cosine_similarity(profiles)
    assert np.all(sim >= 0.0) and np.all(sim <= 1.0)
    assert np.allclose(sim, sim.T)
    assert np.allclose(np.diag(sim), 1.0)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_cosine_is_exactly_symmetric(layout):
    # no averaging pass follows the product, so the result must come out
    # symmetric bit for bit; a plain product of a strided input does not
    # at these shapes
    rng = np.random.default_rng(4)
    for rows, cols in ((1, 3), (30, 7), (119, 38), (150, 40)):
        profiles = rng.random((rows, cols)) * (rng.random((rows, cols)) < 0.5)
        profiles[0] = 0.0
        if layout == "F":
            profiles = np.asfortranarray(profiles)
        elif layout == "strided":
            profiles = np.repeat(profiles, 2, axis=1)[:, ::2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = cosine_similarity(profiles)
        assert np.array_equal(sim, sim.T)
        assert sim[0, 0] == 1.0 and not sim[0, 1:].any() and not sim[1:, 0].any()


# ---------------------------------------------------------------------------
# sparsify_pnn


def _pnn_oracle(s, p):
    """Keep entries selected by either endpoint's top-p list (ties: lower j)."""
    sym = 0.5 * (s + s.T)
    n = sym.shape[0]
    keep = np.zeros((n, n), dtype=bool)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        order = sorted(others, key=lambda j: (-sym[i, j], j))
        for j in order[:p]:
            keep[i, j] = True
    keep |= keep.T
    out = np.where(keep, sym, 0.0)
    np.fill_diagonal(out, np.diagonal(sym))
    return out


def test_sparsify_matches_bruteforce():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(3, 12))
        s = rng.random((n, n))
        s = 0.5 * (s + s.T)
        p = int(rng.integers(1, n))
        assert np.array_equal(sparsify_pnn(s, p), _pnn_oracle(s, p))


# value pools dense in ties: a few fixed levels, or a few random ones; every
# pool also holds -0.0, which ties with 0.0 and keeps its sign where it stays
_LEVELS = st.one_of(
    st.sampled_from([(0.0, 0.5, 1.0), (0.0, 1.0)]),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).map(tuple),
)


@st.composite
def _tied_similarities(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    p = draw(st.integers(min_value=1, max_value=n - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    sims = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        upper = rng.choice(np.array([*draw(_LEVELS), -0.0]), size=(n, n))
        # mirrored, not summed, so a -0.0 stays -0.0 on both sides
        sims.append(np.where(np.tri(n, k=-1, dtype=bool), upper.T, upper))
    return sims, p


@settings(max_examples=150, deadline=None)
@given(_tied_similarities())
def test_selection_equals_the_stable_sort_rule_to_the_byte(case):
    # the partition-and-count selection keeps exactly the entries a stable
    # descending sort keeps, and each kept or dropped zero keeps its sign
    sims, p = case
    for s in sims:
        assert sparsify_pnn(s, p).tobytes() == pnn_argsort_oracle(s, p).tobytes()
    assert build_laplacian(sims, p).tobytes() == laplacian_oracle(sims, p).tobytes()


def test_sparsify_tie_breaks_toward_lower_column():
    # row 0 sees identical similarity to columns 1, 2, 3; p=1 must keep col 1
    s = np.full((4, 4), 0.5)
    np.fill_diagonal(s, 1.0)
    out = sparsify_pnn(s, 1)
    assert out[0, 1] == 0.5
    # 2-3 keep each other only through the OR rule with rows 2 and 3
    assert np.array_equal(out, _pnn_oracle(s, 1))


def test_sparsify_keeps_symmetry_and_diagonal():
    rng = np.random.default_rng(5)
    s = rng.random((7, 7))
    s = 0.5 * (s + s.T)
    out = sparsify_pnn(s, 2)
    assert np.allclose(out, out.T)
    assert np.array_equal(np.diag(out), np.diag(s))
    # surviving entries are unchanged, removed ones are exactly zero
    assert np.all((out == 0.0) | (out == s))


def test_sparsify_p_bounds():
    s = np.eye(4)
    with pytest.raises(ParameterError):
        sparsify_pnn(s, 0)
    with pytest.raises(ParameterError):
        sparsify_pnn(s, 4)
    with pytest.raises(ParameterError):
        sparsify_pnn(s, 1.5)
    # a bool is not a count, though int(True) == 1; an integral float is one
    for flag in (True, np.True_):
        with pytest.raises(ParameterError, match="^p must be an integer, got "):
            sparsify_pnn(s, flag)
        with pytest.raises(ParameterError, match="^p must be an integer, got "):
            build_laplacian([s], flag)
    s = np.random.default_rng(3).random((4, 4))
    s = s + s.T
    assert np.array_equal(sparsify_pnn(s, 2.0), sparsify_pnn(s, 2))


def test_sparsify_rejects_asymmetric():
    s = np.array([[1.0, 0.9], [0.1, 1.0]])
    with pytest.raises(SymmetryError):
        sparsify_pnn(s, 1)


def test_sparsify_rejects_asymmetry_whose_norm_overflows():
    s = np.array([[1.0, 1e300], [0.0, 1.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(SymmetryError, match="^similarity is not symmetric"):
            sparsify_pnn(s, 1)


# ---------------------------------------------------------------------------
# the Laplacian of one graph
#
# An exactly symmetric similarity of size n keeps every weight at p = n - 1,
# so build_laplacian([s], n - 1) is D - S of s itself.


def test_laplacian_quadratic_form_identity():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, 6))
        s = rng.random((n, n))
        s = 0.5 * (s + s.T)
        u = rng.standard_normal((n, k))
        lap = build_laplacian([s], n - 1)
        assert np.array_equal(lap, np.diag(s.sum(axis=1)) - s)
        quad = float(np.trace(u.T @ lap @ u))
        pairwise = 0.0
        for i in range(n):
            for j in range(n):
                pairwise += s[i, j] * float(np.sum((u[i] - u[j]) ** 2))
        pairwise *= 0.5
        assert abs(quad - pairwise) <= 1e-8 * (1.0 + abs(pairwise))


def test_laplacian_rows_sum_to_zero_and_psd():
    rng = np.random.default_rng(7)
    s = rng.random((8, 8))
    s = 0.5 * (s + s.T)
    lap = build_laplacian([s], 7)
    assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    assert np.linalg.eigvalsh(lap).min() >= -1e-10


def test_laplacian_of_diagonal_similarity_is_zero():
    # self-loops contribute to the degree and cancel against -S exactly
    lap = build_laplacian([np.diag([1.0, 2.0, 0.5])], 2)
    assert np.allclose(lap, 0.0)


# ties, exact zeros and arbitrary weights; the diagonal draws from the same
# pool, so self-loops carry mass too
_WEIGHTS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 10.0))


@st.composite
def _symmetric_similarities(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    upper = draw(st.lists(_WEIGHTS, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    s = np.zeros((n, n))
    s[np.triu_indices(n)] = upper
    return s + np.triu(s, 1).T


@settings(max_examples=60, deadline=None)
@given(_symmetric_similarities())
def test_sparsified_laplacian_is_symmetric_balanced_and_psd(s):
    # what the Laplacian must be on every graph sparsify_pnn can hand it,
    # since it is formed from that graph without a second check
    for p in range(1, s.shape[0]):
        lap = build_laplacian([s], p)
        scale = 1.0 + np.linalg.norm(lap)
        assert np.array_equal(lap, lap.T)
        assert np.abs(lap.sum(axis=1)).max() <= 1e-12 * scale
        assert np.linalg.eigvalsh(lap).min() >= -1e-10 * scale


# ---------------------------------------------------------------------------
# combining graphs


def test_combine_sums_entrywise():
    # several similarities give exactly the sum of their single builds
    rng = np.random.default_rng(8)
    sims = []
    for _ in range(3):
        s = rng.random((6, 6))
        sims.append(0.5 * (s + s.T))
    singles = [build_laplacian([s], 2) for s in sims]
    assert np.array_equal(build_laplacian(sims[:2], 2), singles[0] + singles[1])
    assert np.array_equal(build_laplacian(sims, 2), singles[0] + singles[1] + singles[2])


def test_combine_validates():
    with pytest.raises(ParameterError, match="^need at least one similarity"):
        build_laplacian([], 2)
    message = r"^similarity 1 has shape \(3, 3\), expected \(2, 2\)$"
    with pytest.raises(DimensionError, match=message):
        build_laplacian([np.eye(2), np.eye(3)], 1)
    with pytest.raises(GrdmfError, match="^similarity contains non-finite entries$"):
        build_laplacian([np.eye(2), np.full((2, 2), np.nan)], 1)


def test_build_laplacian_is_the_composition():
    # the Laplacian D - S of the sparsified graph, degrees over every column
    rng = np.random.default_rng(8)
    s = rng.random((6, 6))
    s = 0.5 * (s + s.T)
    graph = sparsify_pnn(s, 2)
    assert np.array_equal(build_laplacian([s], 2), np.diag(graph.sum(axis=1)) - graph)


def test_build_laplacian_rejects_negative_weights():
    # an all-negative similarity gives a Laplacian with eigenvalue -4: reject
    # it where it enters, naming which similarity of the list is at fault
    good = np.full((4, 4), 0.5)
    with pytest.raises(ParameterError, match="^similarity 1 has a negative weight"):
        build_laplacian([good, -np.ones((4, 4))], 2)
    one_edge = good.copy()
    one_edge[0, 3] = one_edge[3, 0] = -0.25
    with pytest.raises(ParameterError, match=r"^similarity 0 .*\(-0\.25\)"):
        build_laplacian([one_edge], 2)
    assert np.array_equal(build_laplacian([-0.0 * good], 2), np.zeros((4, 4)))


def test_build_laplacian_refuses_a_laplacian_that_overflows():
    # every weight is finite, and sparsify_pnn averages a pair past the float
    # range without overflow; the degrees of `huge`, or the sum of two `wide`
    # Laplacians, are not finite
    huge = np.full((3, 3), 1e308)
    with pytest.raises(ParameterError, match="^similarity 0 is too large: its degrees"):
        build_laplacian([huge], 2)
    wide = np.array([[0.0, 1e308], [1e308, 0.0]])
    assert np.array_equal(build_laplacian([wide], 1), [[1e308, -1e308], [-1e308, 1e308]])
    with pytest.raises(ParameterError, match="^similarity 1 is too large"):
        build_laplacian([wide, wide], 1)


def test_build_laplacian_peak_stays_under_three_and_a_half_matrices():
    # the graph step's transient sets the peak of a wide fit: the p-NN
    # selection holds no sort order or negated copy, at most 3.5 m x m floats
    # beyond the input (a full argsort held 4.1)
    s = make_synthetic_problem(m=300, n=10, rank=8, seed=0).drug_sim
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build_laplacian([s], 2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * s.nbytes, f"peak {peak / s.nbytes:.2f} similarity-sized arrays"


def test_build_laplacian_checks_each_similarity_once(monkeypatch):
    # sparsify_pnn is the one check of a similarity; the negativity check
    # and the Laplacian sum trust what it has already scanned
    counts = {"_as_matrix": 0, "_require_symmetric": 0}
    for name in counts:
        original = getattr(grdmf.graphs, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(grdmf.graphs, name, counting)
    rng = np.random.default_rng(9)
    sims = []
    for _ in range(3):
        s = rng.random((6, 6))
        sims.append(0.5 * (s + s.T))
    build_laplacian(sims, 2)
    assert counts == {"_as_matrix": 3, "_require_symmetric": 3}
