"""Named data containers and CSV ingestion.

CSV conventions:

* association matrix -- header row of virus names, first column of drug
  names, strictly binary body;
* similarity matrix -- square, with the same entity names across the header
  row and the first column, finite nonnegative real-valued body;
* feature profile -- header row of feature names, first column of entity
  names, binary body.

Lines starting with ``#`` are comments and are skipped, so emitted files can
carry their resolved run configuration in the header.
"""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exceptions import (
    AsymmetryWarning,
    ParseError,
    RegistryError,
    ZeroProfileWarning,
)

__all__ = [
    "AssociationDataset",
    "FeatureProfile",
    "SimilarityMatrix",
    "SimilaritySet",
    "load_association_csv",
    "save_association_csv",
    "load_profile_csv",
    "load_similarity_csv",
    "align_similarity",
    "align_profile",
    "write_matrix_csv",
]

logger = logging.getLogger("grdmf")

#: asymmetry beyond this (absolute, entrywise) triggers averaging on load
ASYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class AssociationDataset:
    """Binary drug-virus association matrix with its name registries."""

    drugs: tuple[str, ...]
    viruses: tuple[str, ...]
    y: np.ndarray

    def __post_init__(self):
        if self.y.shape != (len(self.drugs), len(self.viruses)):
            raise RegistryError(
                f"matrix shape {self.y.shape} does not match registries "
                f"({len(self.drugs)} drugs, {len(self.viruses)} viruses)"
            )


@dataclass(frozen=True)
class FeatureProfile:
    """Binary entity-by-feature indicator matrix."""

    entities: tuple[str, ...]
    features: tuple[str, ...]
    indicator: np.ndarray


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric entity-by-entity similarity scores."""

    entities: tuple[str, ...]
    values: np.ndarray


@dataclass(frozen=True)
class SimilaritySet:
    """Named similarity matrices per side, aligned to the dataset registries."""

    drug: Mapping[str, np.ndarray]
    virus: Mapping[str, np.ndarray]


def _check_unique(names: Sequence[str], what: str, path) -> None:
    seen = set()
    for name in names:
        if name in seen:
            raise RegistryError(f"duplicate {what} name {name!r} in {path}")
        seen.add(name)


def _read_rows(path) -> list[tuple[int, list[str]]]:
    """All non-comment CSV rows of ``path`` with their 1-based line numbers."""
    path = Path(path)
    try:
        handle = path.open(newline="")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with handle:
        rows = []
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or row[0].startswith("#"):
                continue
            rows.append((lineno, row))
    if not rows:
        raise ParseError(f"{path} contains no data rows")
    return rows


def _parse_cell(text: str, path, lineno: int, col: int, binary: bool) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(
            f"{path}:{lineno}: column {col}: cannot parse {text!r} as a number"
        ) from exc
    if binary and value not in (0.0, 1.0):
        raise ParseError(
            f"{path}:{lineno}: column {col}: expected 0 or 1, got {text!r}"
        )
    return value


def _parse_table(path, binary: bool):
    """Shared reader: header row of column names, first column of row names;
    a non-binary body must be finite and nonnegative."""
    rows = _read_rows(path)
    header_line, header = rows[0]
    col_names = [h.strip() for h in header[1:]]
    if not col_names:
        raise ParseError(f"{path}:{header_line}: header row names no columns")
    _check_unique(col_names, "column", path)
    row_names: list[str] = []
    data: list[list[float]] = []
    for lineno, row in rows[1:]:
        if len(row) != len(col_names) + 1:
            raise ParseError(
                f"{path}:{lineno}: expected {len(col_names) + 1} fields, got {len(row)}"
            )
        row_names.append(row[0].strip())
        data.append(
            [
                _parse_cell(cell, path, lineno, c + 2, binary)
                for c, cell in enumerate(row[1:])
            ]
        )
    _check_unique(row_names, "row", path)
    values = np.array(data, dtype=float)
    # min/max propagate nan and allocate no full-size temporaries, which
    # matters here: parsing is the memory peak of a large run
    if not binary and values.size and not (values.min() >= 0 and np.isfinite(values.max())):
        i, c = np.argwhere(~(np.isfinite(values) & (values >= 0)))[0]
        lineno, row = rows[1 + i]
        raise ParseError(
            f"{path}:{lineno}: column {c + 2}: expected a finite nonnegative "
            f"number, got {row[c + 1]!r}"
        )
    return tuple(row_names), tuple(col_names), values


def load_association_csv(path) -> AssociationDataset:
    """Load a binary association matrix; raises :class:`ParseError` on bad cells."""
    drugs, viruses, y = _parse_table(path, binary=True)
    logger.info(
        "loaded association matrix %s: %d drugs x %d viruses, %d known associations",
        path,
        len(drugs),
        len(viruses),
        int(y.sum()),
    )
    return AssociationDataset(drugs=drugs, viruses=viruses, y=y)


def save_association_csv(dataset: AssociationDataset, path, comments: Iterable[str] = ()) -> None:
    """Write an association matrix in the same layout the loader expects."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle)
        writer.writerow(["drug", *dataset.viruses])
        for name, row in zip(dataset.drugs, dataset.y):
            writer.writerow([name, *(str(int(v)) for v in row)])


def load_profile_csv(path) -> FeatureProfile:
    """Load a binary feature profile; all-zero rows load with a warning."""
    entities, features, indicator = _parse_table(path, binary=True)
    zero = [entities[i] for i in np.flatnonzero(indicator.sum(axis=1) == 0)]
    if zero:
        warnings.warn(
            f"{path}: {len(zero)} entity profile(s) are all-zero: {zero}",
            ZeroProfileWarning,
            stacklevel=2,
        )
    logger.info(
        "loaded profile %s: %d entities x %d features", path, len(entities), len(features)
    )
    return FeatureProfile(entities=entities, features=features, indicator=indicator)


def load_similarity_csv(path) -> SimilarityMatrix:
    """Load a square similarity matrix, averaging away any asymmetry.

    Row and column names must agree in order, and every cell must be finite
    and nonnegative (a negative weight would make the graph Laplacian
    indefinite). Asymmetry beyond ``ASYMMETRY_TOL`` is repaired by
    (S + S.T) / 2 with an :class:`AsymmetryWarning`; smaller round-off
    asymmetry is repaired silently.
    """
    row_names, col_names, values = _parse_table(path, binary=False)
    if row_names != col_names:
        raise ParseError(
            f"{path}: row names and column names differ; a similarity matrix is square"
        )
    gap = float(np.abs(values - values.T).max()) if values.size else 0.0
    if gap > ASYMMETRY_TOL:
        warnings.warn(
            f"{path}: asymmetric by {gap:.3e} (entrywise); averaging (S + S.T)/2",
            AsymmetryWarning,
            stacklevel=2,
        )
    values = 0.5 * (values + values.T)
    logger.info("loaded similarity %s: %d entities", path, len(row_names))
    return SimilarityMatrix(entities=row_names, values=values)


def _registry_order(have: Sequence[str], want: Sequence[str], what: str) -> np.ndarray:
    if set(have) != set(want):
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        raise RegistryError(
            f"{what} names do not match the dataset registry; "
            f"missing {missing}, unexpected {extra}"
        )
    index = {name: i for i, name in enumerate(have)}
    return np.array([index[name] for name in want])


def align_similarity(sim: SimilarityMatrix, registry: Sequence[str]) -> np.ndarray:
    """Reorder a similarity matrix to the registry order; names must match as sets."""
    order = _registry_order(sim.entities, registry, "similarity")
    return sim.values[np.ix_(order, order)]


def align_profile(profile: FeatureProfile, registry: Sequence[str]) -> np.ndarray:
    """Reorder a profile's rows to the registry order; names must match as sets."""
    order = _registry_order(profile.entities, registry, "profile")
    return profile.indicator[order]


def write_matrix_csv(path, row_names, col_names, values, comments: Iterable[str] = ()) -> None:
    """Write a real-valued matrix with the shared header/first-column layout."""
    path = Path(path)
    values = np.asarray(values)
    with path.open("w", newline="") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle)
        writer.writerow(["", *col_names])
        for name, row in zip(row_names, values):
            writer.writerow([name, *(repr(float(v)) for v in row)])
