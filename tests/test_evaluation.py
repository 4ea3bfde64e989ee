"""Cross-validation and metric tests.

Metrics are compared against pairwise / ranked-walk brute-force oracles; the
protocols are exercised with ``grdmf.evaluation.fit`` rebound to scoring
stand-ins, so their bookkeeping (hiding, skipping, aggregation) is observable
without running the solver.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grdmf.evaluation
from grdmf.data import AssociationDataset
from grdmf.evaluation import (
    EvalReport,
    auc,
    aupr,
    run_cv,
    run_loocv,
    split_folds,
    topk_metrics,
)
from grdmf.exceptions import (
    FoldSkippedWarning,
    ParameterError,
    TopKClampWarning,
    UndefinedMetricError,
)
from grdmf.solver import HyperParams
from helpers import auc_oracle, aupr_oracle, random_scores_labels, topk_oracle

# ---------------------------------------------------------------------------
# fold construction


SCHEMES = ["entries", "viruses", "drugs"]


def _lines(shape, scheme):
    """The number of cells, columns or rows a scheme permutes."""
    m, n = shape
    return {"entries": m * n, "viruses": n, "drugs": m}[scheme]


def _hidden_lines(hidden, scheme):
    """The number of cells, columns or rows one mask hides."""
    if scheme == "entries":
        return int(hidden.sum())
    return int(hidden.any(axis=0 if scheme == "viruses" else 1).sum())


def _assert_partition(masks, shape):
    for hidden in masks:
        assert hidden.dtype == bool and hidden.shape == shape
    # the masks are disjoint and together cover every cell
    assert np.all(sum(hidden.astype(int) for hidden in masks) == 1)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_split_folds_partition_the_cells(scheme):
    masks = split_folds((7, 5), scheme, folds=4, seed=0)
    assert len(masks) == 4
    _assert_partition(masks, (7, 5))
    sizes = [_hidden_lines(hidden, scheme) for hidden in masks]
    assert sum(sizes) == _lines((7, 5), scheme)
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize(
    "scheme, sizes",
    # 1978 cells, 23 viruses or 86 drugs over 10 folds
    [("entries", {197, 198}), ("viruses", {2, 3}), ("drugs", {8, 9})],
    ids=SCHEMES,
)
def test_split_folds_default_gives_ten_near_equal_folds(scheme, sizes):
    masks = split_folds((86, 23), scheme, seed=1)
    assert len(masks) == 10
    assert {_hidden_lines(hidden, scheme) for hidden in masks} == sizes
    _assert_partition(masks, (86, 23))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_split_folds_seeded_determinism(scheme):
    a = split_folds((6, 6), scheme, folds=3, seed=7)
    b = split_folds((6, 6), scheme, folds=3, seed=7)
    c = split_folds((6, 6), scheme, folds=3, seed=8)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


@pytest.mark.parametrize("scheme", ["viruses", "drugs"])
def test_split_folds_hides_whole_lines(scheme):
    axis = 0 if scheme == "viruses" else 1
    masks = split_folds((8, 5), scheme, folds=2, seed=3)
    _assert_partition(masks, (8, 5))
    for hidden in masks:
        # a line is hidden in every cell or in none
        assert np.array_equal(hidden.any(axis=axis), hidden.all(axis=axis))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_split_folds_validation(scheme):
    shape = (4, 3)
    length = _lines(shape, scheme)
    assert len(split_folds(shape, scheme, folds=length)) == length
    with pytest.raises(ParameterError, match=r"^folds=1 out of range \[2, "):
        split_folds(shape, scheme, folds=1)
    with pytest.raises(ParameterError, match=rf"^folds={length + 1} out of range \[2, {length}\]$"):
        split_folds(shape, scheme, folds=length + 1)
    with pytest.raises(ParameterError, match=r"^degenerate shape \(0, 4\)$"):
        split_folds((0, 4), scheme)
    with pytest.raises(ParameterError, match=r"^degenerate shape \(4, 0\)$"):
        split_folds((4, 0), scheme)


@pytest.mark.parametrize("seed", [None, True, -1, 2.5])
def test_split_folds_refuses_a_seed_that_is_not_a_nonnegative_integer(seed):
    # None would draw OS entropy and True would run as seed 1
    with pytest.raises(ParameterError, match="^seed must be"):
        split_folds((4, 3), "entries", folds=3, seed=seed)


@pytest.mark.parametrize("seed, same", [(2.0, 2), ("3", 3)])
def test_split_folds_reads_an_integral_seed_as_that_integer(seed, same):
    got = split_folds((4, 3), "entries", folds=3, seed=seed)
    want = split_folds((4, 3), "entries", folds=3, seed=same)
    assert all(np.array_equal(x, y) for x, y in zip(got, want, strict=True))


# ---------------------------------------------------------------------------
# metrics against brute force


def test_metrics_match_bruteforce_oracles():
    rng = np.random.default_rng(30)
    for trial in range(60):
        size = int(rng.integers(4, 40))
        scores, labels = random_scores_labels(rng, size, quantize=trial % 2 == 0)
        assert auc(scores, labels) == pytest.approx(
            auc_oracle(scores, labels), abs=1e-12
        )
        assert aupr(scores, labels) == pytest.approx(
            aupr_oracle(scores, labels), abs=1e-12
        )
        k = int(rng.integers(1, size + 1))
        pre, rec = topk_metrics(scores, labels, k)
        pre_ref, rec_ref = topk_oracle(scores, labels, k)
        assert pre == pytest.approx(pre_ref, abs=1e-12)
        assert rec == pytest.approx(rec_ref, abs=1e-12)


def test_metric_hand_values():
    scores = np.array([0.9, 0.8, 0.1])
    labels = np.array([1.0, 0.0, 1.0])
    # one concordant and one discordant positive-negative pair
    assert auc(scores, labels) == pytest.approx(0.5)
    # precisions at the positives: 1/1 and 2/3
    assert aupr(scores, labels) == pytest.approx(5.0 / 6.0)
    pre, rec = topk_metrics(scores, labels, 2)
    assert pre == pytest.approx(0.5)
    assert rec == pytest.approx(0.5)


def test_auc_all_ties_is_half():
    scores = np.full(6, 0.3)
    labels = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
    assert auc(scores, labels) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=3, max_value=30))
def test_auc_flip_symmetry(seed, size):
    # negating scores reverses every pair: AUC(s) + AUC(-s) == 1
    rng = np.random.default_rng(seed)
    scores, labels = random_scores_labels(rng, size, quantize=True)
    assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


def test_metric_validation():
    with pytest.raises(UndefinedMetricError):
        auc(np.array([0.1, 0.2]), np.array([1.0, 1.0]))
    with pytest.raises(UndefinedMetricError):
        aupr(np.array([0.1, 0.2]), np.array([0.0, 0.0]))
    with pytest.raises(UndefinedMetricError):
        topk_metrics(np.array([0.1, 0.2]), np.array([0.0, 0.0]), 1)
    with pytest.raises(ParameterError):
        topk_metrics(np.array([0.1]), np.array([1.0]), 0)
    with pytest.raises(ParameterError):
        auc(np.array([0.1, 0.2]), np.array([1.0]))
    with pytest.raises(ParameterError):
        auc(np.array([np.inf, 0.2]), np.array([1.0, 0.0]))
    with pytest.raises(ParameterError):
        auc(np.array([0.1, 0.2]), np.array([1.0, 0.5]))


def test_topk_clamps_with_warning():
    scores = np.array([0.3, 0.9, 0.5])
    labels = np.array([0.0, 1.0, 1.0])
    with pytest.warns(TopKClampWarning):
        pre, rec = topk_metrics(scores, labels, 10)
    assert pre == pytest.approx(2.0 / 3.0)
    assert rec == pytest.approx(1.0)


@pytest.mark.parametrize("metric", [auc, aupr, lambda s, l: topk_metrics(s, l, 2)],
                         ids=["auc", "aupr", "topk"])
def test_metrics_keep_the_verdict_of_their_binary_label_check(metric):
    scores = np.array([0.9, 0.1, 0.4, 0.7])
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    assert metric(scores, np.where(labels == 0.0, -0.0, labels)) == metric(scores, labels)
    for cell in (0.5, 2.0, np.nan, np.inf, -1.0):
        bad = labels.copy()
        bad[1] = cell
        with pytest.raises(ParameterError, match=r"^labels must be binary \(0/1\)$"):
            metric(scores, bad)


# ---------------------------------------------------------------------------
# protocol fixtures


def _tiny_problem(seed=0, m=9, n=6, positive=0.35):
    rng = np.random.default_rng(seed)
    y = (rng.random((m, n)) < positive).astype(float)
    # make sure both classes exist overall
    y[0, 0] = 1.0
    y[1, 1] = 0.0
    drugs = tuple(f"d{i}" for i in range(m))
    viruses = tuple(f"v{j}" for j in range(n))
    dataset = AssociationDataset(drugs=drugs, viruses=viruses, y=y)
    return dataset, *_no_graphs(m, n)


def _no_graphs(m, n):
    """The Laplacians of identity similarities, which have no edges: zero."""
    return np.zeros((m, m)), np.zeros((n, n))


_HP = HyperParams(mu=0.1, theta=1.0, alpha=0.5, dims=(3, 2), p=1, iters=2)


def test_run_cv_perfect_scores_give_perfect_metrics(monkeypatch):
    dataset, l_d, l_v = _tiny_problem()
    truth = dataset.y

    def oracle(y_train, mask, l_d, l_v, hp):
        return SimpleNamespace(x=truth)

    monkeypatch.setattr(grdmf.evaluation, "fit", oracle)
    report = run_cv(dataset, l_d, l_v, "entries", _HP, seeds=[0], folds=3)
    kept = [f for f in report.per_fold if not f.skipped]
    assert kept, "every fold was single-class; fixture too small"
    for fold in kept:
        assert fold.auc == pytest.approx(1.0)
        assert fold.aupr == pytest.approx(1.0)
    assert report.auc == pytest.approx(1.0)
    assert report.aupr == pytest.approx(1.0)


def test_run_cv_hides_cells_from_the_backend(monkeypatch):
    dataset, l_d, l_v = _tiny_problem(seed=1)
    truth = dataset.y
    calls = []

    def checker(y_train, mask, l_d, l_v, hp):
        assert np.isin(mask, (0.0, 1.0)).all()
        hidden = mask == 0.0
        assert np.all(y_train[hidden] == 0.0)
        visible = mask == 1.0
        assert np.array_equal(y_train[visible], truth[visible])
        assert l_d.shape == (truth.shape[0],) * 2
        assert l_v.shape == (truth.shape[1],) * 2
        calls.append(int(hidden.sum()))
        return SimpleNamespace(x=np.zeros_like(y_train) + 0.5)

    monkeypatch.setattr(grdmf.evaluation, "fit", checker)
    run_cv(dataset, l_d, l_v, "entries", _HP, seeds=[2], folds=3)
    assert len(calls) == 3
    assert sum(calls) == truth.size  # folds partition the matrix


def test_run_cv_skips_single_class_folds(monkeypatch):
    rng = np.random.default_rng(0)
    y = np.zeros((4, 4))
    y[2, 3] = 1.0  # exactly one positive
    dataset = AssociationDataset(
        drugs=tuple(f"d{i}" for i in range(4)),
        viruses=tuple(f"v{j}" for j in range(4)),
        y=y,
    )
    l_d, l_v = _no_graphs(4, 4)

    def oracle(y_train, mask, l_d, l_v, hp):
        return SimpleNamespace(x=rng.random(y.shape))

    monkeypatch.setattr(grdmf.evaluation, "fit", oracle)
    with pytest.warns(FoldSkippedWarning):
        report = run_cv(dataset, l_d, l_v, "entries", _HP, seeds=[0], folds=4)
    skipped = [f for f in report.per_fold if f.skipped]
    assert len(skipped) == 3  # the positive lands in exactly one fold
    assert len(report.notes) == 3
    assert all(f.auc is None for f in skipped)
    assert report.auc is not None  # the surviving fold still aggregates


def test_a_skipped_fold_warning_points_at_the_run_cv_caller(monkeypatch):
    y = np.zeros((4, 4))
    y[2, 3] = 1.0
    dataset = AssociationDataset(
        drugs=tuple(f"d{i}" for i in range(4)),
        viruses=tuple(f"v{j}" for j in range(4)),
        y=y,
    )
    l_d, l_v = _no_graphs(4, 4)
    monkeypatch.setattr(
        grdmf.evaluation, "fit", lambda y_train, *args: SimpleNamespace(x=y_train)
    )
    with pytest.warns(FoldSkippedWarning) as caught:
        run_cv(dataset, l_d, l_v, "entries", _HP, seeds=[0], folds=4)
    assert len(caught) == 3
    assert {w.filename for w in caught} == {__file__}


def test_run_cv_axis_schemes_hide_whole_lines(monkeypatch):
    dataset, l_d, l_v = _tiny_problem(seed=3)

    def checker(y_train, mask, l_d, l_v, hp):
        hidden_cols = np.flatnonzero((mask == 0.0).all(axis=0))
        partially = np.flatnonzero((mask == 0.0).any(axis=0))
        assert np.array_equal(hidden_cols, partially)  # no partial columns
        return SimpleNamespace(x=np.full_like(y_train, 0.5))

    monkeypatch.setattr(grdmf.evaluation, "fit", checker)
    run_cv(dataset, l_d, l_v, "viruses", _HP, seeds=[0], folds=3)
    with pytest.raises(ParameterError):
        run_cv(dataset, l_d, l_v, "cells", _HP, seeds=[0], folds=3)


def test_run_cv_needs_a_seed():
    dataset, l_d, l_v = _tiny_problem()
    with pytest.raises(ParameterError, match="at least one seed"):
        run_cv(dataset, l_d, l_v, "entries", _HP, seeds=[], folds=3)


def test_run_cv_reads_every_seed_before_the_first_fit(monkeypatch):
    dataset, l_d, l_v = _tiny_problem(seed=12)
    scores = np.random.default_rng(0).random(dataset.y.shape)
    masks = []

    def recorder(y_train, mask, l_d, l_v, hp):
        masks.append(mask)
        return SimpleNamespace(x=scores)

    monkeypatch.setattr(grdmf.evaluation, "fit", recorder)
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        run_cv(dataset, l_d, l_v, "entries", _HP, seeds=[0, -1], folds=3)
    assert masks == []
    # a seed is stored as the integer it reads as, and draws that seed's folds
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FoldSkippedWarning)
        given = run_cv(dataset, l_d, l_v, "entries", _HP, seeds=["3"], folds=3)
        as_int = run_cv(dataset, l_d, l_v, "entries", _HP, seeds=[3], folds=3)
    assert [type(f.seed) for f in given.per_fold] == [int] * 3
    assert given.to_dict() == as_int.to_dict()
    assert len(masks) == 6
    assert all(np.array_equal(a, b) for a, b in zip(masks[:3], masks[3:]))


def test_run_cv_is_deterministic():
    dataset, l_d, l_v = _tiny_problem(seed=4)
    a = run_cv(dataset, l_d, l_v, "entries", _HP, seeds=[5], folds=3)
    b = run_cv(dataset, l_d, l_v, "entries", _HP, seeds=[5], folds=3)
    assert a.to_dict() == b.to_dict()


@settings(max_examples=25, deadline=None)
@given(a=st.integers(0, 2**16), b=st.integers(0, 2**16))
def test_run_cv_seeds_concatenate_their_folds_under_one_aggregation(a, b):
    # two positives among 16 cells in 4 folds of 4: at least two folds are
    # all-negative and skipped, and at least one is mixed, for every seed
    y = np.zeros((4, 4))
    y[0, 1] = y[3, 2] = 1.0
    dataset = AssociationDataset(
        drugs=tuple(f"d{i}" for i in range(4)),
        viruses=tuple(f"v{j}" for j in range(4)),
        y=y,
    )
    l_d, l_v = _no_graphs(4, 4)
    scores = np.random.default_rng(0).random(y.shape)

    def oracle(y_train, mask, l_d, l_v, hp):
        return SimpleNamespace(x=scores)

    # Hypothesis reruns the body per example, so the fixture's function
    # scope would outlive it; a context undoes the rebinding each time
    with pytest.MonkeyPatch.context() as monkeypatch, warnings.catch_warnings():
        monkeypatch.setattr(grdmf.evaluation, "fit", oracle)
        warnings.simplefilter("ignore", FoldSkippedWarning)
        both = run_cv(dataset, l_d, l_v, "entries", _HP, seeds=[a, b], folds=4)
        first = run_cv(dataset, l_d, l_v, "entries", _HP, seeds=[a], folds=4)
        second = run_cv(dataset, l_d, l_v, "entries", _HP, seeds=[b], folds=4)
    folds = first.per_fold + second.per_fold
    notes = first.notes + second.notes
    assert [f.seed for f in both.per_fold] == [a] * 4 + [b] * 4
    assert both.per_fold == folds
    assert any(f.skipped for f in folds) and not all(f.skipped for f in folds)
    pooled = EvalReport.from_folds(folds, notes)
    assert both.to_dict() == pooled.to_dict()


# ---------------------------------------------------------------------------
# leave-one-virus-out


def test_run_loocv_perfect_oracle_hits_the_combinatorial_bound(monkeypatch):
    dataset, l_d, l_v = _tiny_problem(seed=5)
    truth = dataset.y

    def oracle(y_train, mask, l_d, l_v, hp):
        return SimpleNamespace(x=truth)

    monkeypatch.setattr(grdmf.evaluation, "fit", oracle)
    ks = (2, 3)
    report = run_loocv(dataset, l_d, l_v, _HP, ks=ks)
    assert len(report.per_fold) == len(dataset.viruses)
    m = truth.shape[0]
    for j, fold in enumerate(report.per_fold):
        t = int(truth[:, j].sum())
        assert fold.name == dataset.viruses[j]
        assert fold.n_hidden == m
        for k in ks:
            if t == 0:
                assert fold.pre_at_k[k] == 0.0
                assert k not in (fold.rec_at_k or {})
            else:
                # a perfect ranking puts every positive on top
                assert fold.pre_at_k[k] == pytest.approx(min(t, k) / k)
                assert fold.rec_at_k[k] == pytest.approx(min(t, k) / t)


def test_run_loocv_zero_positive_virus_excluded_from_recall(monkeypatch):
    y = np.zeros((5, 3))
    y[:, 0] = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    y[:, 2] = np.array([0.0, 1.0, 0.0, 0.0, 1.0])
    # column 1 has no positives at all
    dataset = AssociationDataset(
        drugs=tuple(f"d{i}" for i in range(5)),
        viruses=("va", "vb", "vc"),
        y=y,
    )
    l_d, l_v = _no_graphs(5, 3)

    def oracle(y_train, mask, l_d, l_v, hp):
        return SimpleNamespace(x=y)

    monkeypatch.setattr(grdmf.evaluation, "fit", oracle)
    report = run_loocv(dataset, l_d, l_v, _HP, ks=(2,))
    assert any("vb" in note for note in report.notes)
    vb = report.per_fold[1]
    assert vb.pre_at_k[2] == 0.0
    assert not vb.rec_at_k
    # recall mean averages only va and vc, both perfect at k=2
    assert report.rec_at_k[2] == pytest.approx(1.0)


def test_run_loocv_all_positive_virus_skips_rank_metrics(monkeypatch):
    y = np.ones((4, 2))
    y[2:, 1] = 0.0
    dataset = AssociationDataset(
        drugs=("d0", "d1", "d2", "d3"), viruses=("va", "vb"), y=y
    )
    l_d, l_v = _no_graphs(4, 2)

    def oracle(y_train, mask, l_d, l_v, hp):
        return SimpleNamespace(x=y)

    monkeypatch.setattr(grdmf.evaluation, "fit", oracle)
    report = run_loocv(dataset, l_d, l_v, _HP, ks=(2,))
    va = report.per_fold[0]
    assert va.auc is None and va.aupr is None
    assert va.pre_at_k[2] == pytest.approx(1.0)
    assert any("all-positive" in note for note in report.notes)
    # vb is mixed, so the report-level AUC comes from it alone
    assert report.auc == pytest.approx(1.0)


def test_run_loocv_warns_once_per_clamped_cutoff_at_its_caller(monkeypatch):
    y = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    dataset = AssociationDataset(drugs=("d0", "d1", "d2"), viruses=("va", "vb", "vc"), y=y)
    l_d, l_v = _no_graphs(3, 3)

    def oracle(y_train, mask, l_d, l_v, hp):
        return SimpleNamespace(x=y)

    monkeypatch.setattr(grdmf.evaluation, "fit", oracle)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_loocv(dataset, l_d, l_v, _HP, ks=(5,))
    assert [w.category for w in caught] == [TopKClampWarning]
    assert caught[0].filename == __file__
    assert "k=5 exceeds the 3 candidates; clamping" in str(caught[0].message)
    # each virus is scored at the 3 drugs it can rank, under its own cutoff
    exact = run_loocv(dataset, l_d, l_v, _HP, ks=(3,))
    assert [f.pre_at_k[5] for f in report.per_fold] == [f.pre_at_k[3] for f in exact.per_fold]
    assert [f.rec_at_k[5] for f in report.per_fold] == [f.rec_at_k[3] for f in exact.per_fold]


def test_run_cv_refuses_an_unknown_scheme_before_any_fit(monkeypatch):
    def no_fit(*args):
        raise AssertionError("a fold was fitted under an unknown scheme")

    monkeypatch.setattr(grdmf.evaluation, "fit", no_fit)
    dataset, l_d, l_v = _tiny_problem(seed=1)
    for scheme in ("rows", "cols", "loo"):
        message = f"^scheme must be 'entries', 'viruses' or 'drugs', got '{scheme}'$"
        with pytest.raises(ParameterError, match=message):
            split_folds(dataset.y.shape, scheme, folds=2)
        with pytest.raises(ParameterError, match=message):
            run_cv(dataset, l_d, l_v, scheme, _HP, folds=2)


def test_run_loocv_validates_cutoffs():
    dataset, l_d, l_v = _tiny_problem(seed=6)
    with pytest.raises(ParameterError):
        run_loocv(dataset, l_d, l_v, _HP, ks=(0,))


def test_run_loocv_without_cutoffs_fails_before_the_first_fit(monkeypatch):
    # with no cutoff, every virus would be fitted for a report with no Pre@k/Rec@k
    def no_fit(*args):
        raise AssertionError("a virus was fitted for an empty cutoff list")

    monkeypatch.setattr(grdmf.evaluation, "fit", no_fit)
    dataset, l_d, l_v = _tiny_problem(seed=6)
    with pytest.raises(ParameterError, match="^at least one cutoff is required$"):
        run_loocv(dataset, l_d, l_v, _HP, ks=())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: split_folds((6, 4), "drugs", folds=3.9), "folds must be an integer, got 3.9"),
        (lambda: split_folds((4, 4), "entries", folds=2.5), "folds must be an integer, got 2.5"),
        (lambda: topk_metrics([0.3, 0.2, 0.1], [1, 0, 1], k=2.5), "k must be an integer"),
        (lambda: run_loocv(*_tiny_problem(seed=6), _HP, ks=[2.5]), "a cutoff must be an integer"),
    ],
    ids=["split_folds-drugs", "split_folds-entries", "topk_metrics", "run_loocv"],
)
def test_library_counts_are_not_truncated(call, message):
    # a non-integral count is refused, as the CLI refuses it, not rounded down
    with pytest.raises(ParameterError, match=f"^{message}"):
        call()


def test_report_serialization_keys_are_strings(monkeypatch):
    dataset, l_d, l_v = _tiny_problem(seed=9)

    def oracle(y_train, mask, l_d, l_v, hp):
        return SimpleNamespace(x=dataset.y)

    monkeypatch.setattr(grdmf.evaluation, "fit", oracle)
    report = run_loocv(dataset, l_d, l_v, _HP, ks=(3,))
    payload = report.to_dict()
    assert set(payload["mean"]["pre_at_k"]) <= {"3"}
    for fold in payload["folds"]:
        if fold["pre_at_k"]:
            assert all(isinstance(k, str) for k in fold["pre_at_k"])


# ---------------------------------------------------------------------------
# the module-global fit


def test_protocols_look_up_the_module_fit_once_per_fold(monkeypatch):
    # the benchmark records every fold's fit by rebinding grdmf.evaluation.fit,
    # so a protocol run must find the rebound function
    dataset, l_d, l_v = _tiny_problem(seed=10)
    real_fit = grdmf.evaluation.fit
    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(grdmf.evaluation, "fit", counting_fit)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FoldSkippedWarning)
        run_cv(dataset, l_d, l_v, "entries", _HP, seeds=[0, 1], folds=3)
    assert len(calls) == 6
    calls.clear()
    run_loocv(dataset, l_d, l_v, _HP, ks=(2,))
    assert len(calls) == len(dataset.viruses)


@pytest.mark.parametrize("scheme", ["entries", "viruses", "drugs", "loo"])
def test_a_fold_with_no_hidden_positive_is_not_fitted(monkeypatch, scheme):
    # cv skips an all-negative fold and loo scores a zero-positive virus
    # without its scores, so neither is fitted; with no positive anywhere
    # nothing is
    y = np.zeros((6, 4))
    y[1, 2] = y[4, 0] = 1.0
    dataset = AssociationDataset(
        drugs=tuple(f"d{i}" for i in range(6)),
        viruses=tuple(f"v{j}" for j in range(4)),
        y=y,
    )
    l_d, l_v = _no_graphs(6, 4)
    fitted = []

    def positive_only(y_train, mask, l_d, l_v, hp):
        assert y[mask == 0.0].any(), "a fold with no hidden positive was fitted"
        fitted.append(1)
        return SimpleNamespace(x=np.random.default_rng(len(fitted)).random(y.shape))

    def run(data):
        if scheme == "loo":
            return run_loocv(data, l_d, l_v, _HP, ks=(2,))
        return run_cv(data, l_d, l_v, scheme, _HP, seeds=[0], folds=4)

    monkeypatch.setattr(grdmf.evaluation, "fit", positive_only)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FoldSkippedWarning)
        report = run(dataset)
        assert 1 <= len(fitted) <= 2 < len(report.per_fold)
        fitted.clear()
        empty = run(AssociationDataset(dataset.drugs, dataset.viruses, np.zeros_like(y)))
    assert fitted == []
    assert len(empty.per_fold) == 4 and empty.auc is None


@pytest.mark.parametrize("scheme", ["entries", "viruses", "drugs", "loo"])
def test_folds_are_scored_in_row_major_order(monkeypatch, scheme):
    # three score levels, so most hidden cells tie and AUPR's stable
    # tie-break makes it depend on the order the cells are scored in
    dataset, l_d, l_v = _tiny_problem(seed=11, m=12, n=8, positive=0.4)
    x = np.random.default_rng(12).integers(0, 3, dataset.y.shape) / 2.0
    hidden = []

    def tied_fit(y_train, mask, l_d, l_v, hp):
        hidden.append(mask == 0.0)
        return SimpleNamespace(x=x)

    monkeypatch.setattr(grdmf.evaluation, "fit", tied_fit)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FoldSkippedWarning)
        if scheme == "loo":
            report = run_loocv(dataset, l_d, l_v, _HP, ks=(2,))
        else:
            report = run_cv(dataset, l_d, l_v, scheme, _HP, seeds=[0, 1], folds=3)
    y = dataset.y
    assert len(hidden) == len(report.per_fold)
    scored = [(f, h) for f, h in zip(report.per_fold, hidden) if f.aupr is not None]
    assert scored
    for fold, h in scored:
        # a boolean gather reads the mask's cells in row-major order
        assert fold.aupr == aupr(x[h], y[h])
