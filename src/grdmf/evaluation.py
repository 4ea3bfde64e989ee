"""Cross-validation protocols and ranking metrics.

Three random schemes (hiding cells, virus columns or drug rows) and a
leave-one-virus-out protocol. All fold assignments derive deterministically
from integer seeds, and the folds of every seed are aggregated by one rule,
so identical inputs give identical reports.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .data import AssociationDataset
from .exceptions import (
    FoldSkippedWarning,
    ParameterError,
    TopKClampWarning,
    UndefinedMetricError,
)
from .linalg import _integer
from .solver import HyperParams, fit

__all__ = [
    "FoldMetrics",
    "EvalReport",
    "split_folds",
    "auc",
    "aupr",
    "topk_metrics",
    "run_cv",
    "run_loocv",
]

@dataclass
class FoldMetrics:
    """Metrics of a single fold (or a single left-out virus). Its fields, by
    name, are the fold's record in a report file. Wall-clock values do not
    belong here: identical inputs give byte-identical reports."""

    fold: int
    n_hidden: int
    n_positive: int
    auc: Optional[float] = None
    aupr: Optional[float] = None
    pre_at_k: Optional[dict[int, float]] = None
    rec_at_k: Optional[dict[int, float]] = None
    name: Optional[str] = None
    seed: Optional[int] = None
    skipped: bool = False


@dataclass
class EvalReport:
    """Aggregated evaluation results for one protocol run."""

    auc: Optional[float]
    aupr: Optional[float]
    pre_at_k: dict[int, float]
    rec_at_k: dict[int, float]
    per_fold: list[FoldMetrics]
    notes: list[str] = field(default_factory=list)

    @classmethod
    def from_folds(
        cls, per_fold: Sequence[FoldMetrics], notes: Sequence[str]
    ) -> "EvalReport":
        """Aggregate folds: each metric is its mean over the non-skipped
        folds that carry it, or absent (None for AUC/AUPR) if none does."""
        kept = [f for f in per_fold if not f.skipped]

        def mean(values: list[float]) -> Optional[float]:
            return float(np.mean(values)) if values else None

        def mean_at_k(tables: list[Optional[dict[int, float]]]) -> dict[int, float]:
            tables = [t for t in tables if t]
            keys = sorted(set().union(*tables))
            return {k: mean([t[k] for t in tables if k in t]) for k in keys}

        return cls(
            auc=mean([f.auc for f in kept if f.auc is not None]),
            aupr=mean([f.aupr for f in kept if f.aupr is not None]),
            pre_at_k=mean_at_k([f.pre_at_k for f in kept]),
            rec_at_k=mean_at_k([f.rec_at_k for f in kept]),
            per_fold=list(per_fold),
            notes=list(notes),
        )

    def to_dict(self) -> dict:
        """The folds, means and notes as a report file holds them: JSON values,
        so each cutoff key is a string. The means are the other fields."""
        means = asdict(self)
        folds, notes = means.pop("per_fold"), means.pop("notes")
        return json.loads(json.dumps({"folds": folds, "mean": means, "notes": notes}))


def _seed(value) -> int:
    """A fold seed: an integer by :func:`_integer`'s rule, and >= 0."""
    seed = _integer(value, "seed")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return seed


def split_folds(
    shape: tuple[int, int], scheme: str, folds: int = 10, seed: int = 0
) -> list[np.ndarray]:
    """Partition Y's cells into near-equal random folds, one boolean mask of
    ``shape`` per fold.

    scheme -- "entries" hides random cells, "viruses" whole columns and
              "drugs" whole rows

    The cells, columns or rows are permuted by ``default_rng(seed)``, ``seed``
    a non-negative integer, and split into ``folds`` groups whose sizes differ
    by at most one, so each fold hides about 1/folds of them: 10% by default.
    """
    m, n = shape
    if m < 1 or n < 1:
        raise ParameterError(f"degenerate shape {shape}")
    lines = {"entries": (m, n), "viruses": (1, n), "drugs": (m, 1)}
    if scheme not in lines:
        raise ParameterError(
            f"scheme must be 'entries', 'viruses' or 'drugs', got {scheme!r}"
        )
    length = int(np.prod(lines[scheme]))
    folds = _integer(folds, "folds")
    if not 2 <= folds <= length:
        raise ParameterError(f"folds={folds} out of range [2, {length}]")
    perm = np.random.default_rng(_seed(seed)).permutation(length)
    out = []
    for group in np.array_split(perm, folds):
        hidden = np.zeros(length, dtype=bool)
        hidden[group] = True
        out.append(np.broadcast_to(hidden.reshape(lines[scheme]), shape).copy())
    return out


def _check_scores_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels, dtype=float).ravel()
    if scores.shape != labels.shape:
        raise ParameterError(
            f"scores and labels must have equal length, got {scores.size} and {labels.size}"
        )
    if not np.all(np.isfinite(scores)):
        raise ParameterError("scores contain non-finite values")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ParameterError("labels must be binary (0/1)")
    return scores, labels


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    # group g holds sorted positions ends[g] - counts[g] + 1 .. ends[g]
    return (0.5 * (ends - counts + 1 + ends))[group]


def auc(scores, labels) -> float:
    """Area under the ROC curve, Mann-Whitney form with ties counted 1/2.

    Equals the fraction of (positive, negative) pairs the scores order
    correctly, tied pairs contributing one half.
    """
    scores, labels = _check_scores_labels(scores, labels)
    pos = labels == 1.0
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUC undefined: {n_pos} positives, {n_neg} negatives"
        )
    ranks = _midranks(scores)
    return float((ranks[pos].sum() - 0.5 * n_pos * (n_pos + 1)) / (n_pos * n_neg))


def aupr(scores, labels) -> float:
    """Average precision: mean of precision-at-rank over the positives.

    Candidates are ordered by descending score; tied scores keep their
    original order (stable sort), so the value is reproducible.
    """
    scores, labels = _check_scores_labels(scores, labels)
    if not (labels == 1.0).any():
        raise UndefinedMetricError("average precision undefined without positives")
    order = np.argsort(-scores, kind="stable")
    hits = labels[order]
    cum = np.cumsum(hits)
    at = np.flatnonzero(hits == 1.0)
    return float(np.mean(cum[at] / (at + 1)))


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` highest scores, highest first, ties in input order
    (stable sort). A ``k`` beyond the number of scores is clamped with a
    warning, attributed to the caller's caller."""
    k = _integer(k, "k")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if k > scores.size:
        warnings.warn(
            f"k={k} exceeds the {scores.size} candidates; clamping",
            TopKClampWarning,
            stacklevel=3,
        )
    return np.argsort(-scores, kind="stable")[:k]


def topk_metrics(scores, labels, k: int) -> tuple[float, float]:
    """Precision and recall among the k highest-scoring candidates.

    A ``k`` beyond the number of candidates is clamped with a warning. Raises
    :class:`UndefinedMetricError` when there are no positives, since recall
    has no denominator then.
    """
    scores, labels = _check_scores_labels(scores, labels)
    order = _top_k(scores, k)
    total_pos = float(labels.sum())
    if total_pos == 0:
        raise UndefinedMetricError("recall undefined without positives")
    hits = float(labels[order].sum())
    return hits / order.size, hits / total_pos


def _fold_scores(
    y: np.ndarray, l_d: np.ndarray, l_v: np.ndarray, hp: HyperParams, masks
) -> Iterator[tuple[Optional[np.ndarray], np.ndarray]]:
    """The hide -> fit loop shared by every protocol.

    For each boolean mask of y's shape, yields the completed matrix's scores
    and y's labels at the masked cells, in row-major order; the matrix is a
    fit of ``y`` with those cells zeroed and the Laplacians ``l_d``, ``l_v``.
    A mask whose labels hold no positive has no metric a fit could change, so
    it is not fitted and its scores are None.
    """
    for hidden in masks:
        labels = y[hidden]
        if not labels.any():
            yield None, labels
            continue
        mask = np.where(hidden, 0.0, 1.0)
        # ``fit`` is this module's global, looked up per fold: tests and the
        # benchmark substitute a fit by rebinding ``grdmf.evaluation.fit``
        yield fit(y * mask, mask, l_d, l_v, hp).x[hidden], labels


def run_cv(
    dataset: AssociationDataset,
    l_d: np.ndarray,
    l_v: np.ndarray,
    scheme: str,
    hp: HyperParams,
    seeds: Iterable[int] = (0,),
    folds: int = 10,
) -> EvalReport:
    """Repeated k-fold cross-validation under the given scheme.

    scheme  -- "entries" (hide random cells), "viruses" (hide whole columns)
               or "drugs" (hide whole rows)
    seeds   -- one repetition per seed, each a fresh :func:`split_folds`;
               every seed is read before the first fit

    Hidden cells are zeroed in both the mask and the training copy of Y; the
    completed matrix scores them against the true labels. The folds of every
    seed, in seed order, form one report. Folds whose hidden cells are
    single-class are skipped with a warning and excluded from the means; an
    all-negative fold is not fitted, so a run with no hidden positive in any
    fold fits nothing.
    ``l_d`` and ``l_v``, each side's summed graph Laplacian, must already be
    aligned to the dataset registries; every fold shares them.
    """
    y = dataset.y
    seeds = [_seed(seed) for seed in seeds]
    if not seeds:
        raise ParameterError("run_cv needs at least one seed")
    per_fold: list[FoldMetrics] = []
    notes: list[str] = []
    for seed in seeds:  # drawn seed by seed, so one seed's masks are held at a time
        masks = split_folds(y.shape, scheme, folds, seed)
        for f, (scores, labels) in enumerate(_fold_scores(y, l_d, l_v, hp, masks)):
            record = FoldMetrics(f, labels.size, int(labels.sum()), seed=seed)
            per_fold.append(record)
            if record.n_positive in (0, labels.size):
                record.skipped = True
                note = (
                    f"fold {f}: hidden cells are single-class "
                    f"({record.n_positive} of {labels.size} positive); metrics skipped"
                )
                warnings.warn(note, FoldSkippedWarning, stacklevel=2)
                notes.append(note)
            else:
                record.auc = auc(scores, labels)
                record.aupr = aupr(scores, labels)
    return EvalReport.from_folds(per_fold, notes)


def run_loocv(
    dataset: AssociationDataset,
    l_d: np.ndarray,
    l_v: np.ndarray,
    hp: HyperParams,
    ks: Sequence[int] = (3, 5, 7),
) -> EvalReport:
    """Leave-one-virus-out: hide each virus column, rank all drugs for it.

    Reports Pre@k and Rec@k per virus plus their means. Viruses with no known
    positives keep their precision (necessarily 0) but are excluded from the
    recall means, with a note in the report, and are not fitted, so a dataset
    with no positive fits nothing. There is no randomness here, so
    no fold carries a seed. ``l_d`` and ``l_v`` are as for :func:`run_cv`. At
    least one cutoff is required. A cutoff beyond the number of drugs is
    clamped to it, with one warning.
    """
    ks = [_integer(k, "a cutoff") for k in ks]
    if not ks:
        raise ParameterError("at least one cutoff is required")
    if any(k < 1 for k in ks):
        raise ParameterError(f"cutoffs must be >= 1, got {ks}")
    y = dataset.y
    m, n = y.shape
    for k in ks:  # each virus ranks the m drugs: warn here once, not per virus
        if k > m:
            warnings.warn(
                f"k={k} exceeds the {m} candidates; clamping", TopKClampWarning, stacklevel=2
            )
    masks = (np.broadcast_to(np.arange(n) == j, y.shape) for j in range(n))
    per_virus: list[FoldMetrics] = []
    notes: list[str] = []
    for j, (scores, labels) in enumerate(_fold_scores(y, l_d, l_v, hp, masks)):
        virus = dataset.viruses[j]
        record = FoldMetrics(j, labels.size, int(labels.sum()), name=virus)
        record.pre_at_k, record.rec_at_k = {}, {}
        per_virus.append(record)
        if record.n_positive == 0:
            record.pre_at_k = dict.fromkeys(ks, 0.0)
            notes.append(f"virus {virus!r} has no known positives; excluded from recall means")
            continue
        for k in ks:
            record.pre_at_k[k], record.rec_at_k[k] = topk_metrics(scores, labels, min(k, m))
        if record.n_positive == m:
            notes.append(f"virus {virus!r} is all-positive; AUC/AUPR skipped")
        else:
            record.auc = auc(scores, labels)
            record.aupr = aupr(scores, labels)
    return EvalReport.from_folds(per_virus, notes)
