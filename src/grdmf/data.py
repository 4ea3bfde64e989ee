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


def _body_ok(values: np.ndarray, binary: bool) -> np.ndarray:
    """The body contract per cell: 0 or 1 if binary, else finite and nonnegative."""
    if binary:
        return (values == 0.0) | (values == 1.0)
    return np.isfinite(values) & (values >= 0.0)


def _first_bad_cell(path, lineno: int, cells: Sequence[str], binary: bool) -> ParseError:
    """The error for the first cell of a rejected row that breaks the contract."""
    for col, text in enumerate(cells, start=2):
        try:
            value = float(text)
        except ValueError:
            return ParseError(
                f"{path}:{lineno}: column {col}: cannot parse {text!r} as a number"
            )
        if not _body_ok(np.float64(value), binary):
            expected = "0 or 1" if binary else "a finite nonnegative number"
            return ParseError(
                f"{path}:{lineno}: column {col}: expected {expected}, got {text!r}"
            )


def _parse_table(path, binary: bool):
    """Shared reader: header row of column names, first column of row names.
    One pass: each row is parsed with ``float()`` and checked as it is read,
    so the error names the first bad cell in file order."""
    try:
        handle = Path(path).open(newline="")
    except OSError as exc:
        raise ParseError(f"cannot read {Path(path)}: {exc}") from exc
    with handle:
        rows = (
            (lineno, row)
            for lineno, row in enumerate(csv.reader(handle), start=1)
            if row and not row[0].startswith("#")
        )
        header_line, header = next(rows, (None, None))
        if header is None:
            raise ParseError(f"{Path(path)} contains no data rows")
        col_names = [h.strip() for h in header[1:]]
        if not col_names:
            raise ParseError(f"{path}:{header_line}: header row names no columns")
        _check_unique(col_names, "column", path)
        width = len(col_names)
        row_names: list[str] = []
        data: list[np.ndarray] = []
        for lineno, row in rows:
            if len(row) != width + 1:
                raise ParseError(
                    f"{path}:{lineno}: expected {width + 1} fields, got {len(row)}"
                )
            cells = row[1:]
            try:
                values = np.fromiter(map(float, cells), float, width)
            except ValueError:
                values = None
            if values is None or not _body_ok(values, binary).all():
                raise _first_bad_cell(path, lineno, cells, binary)
            row_names.append(row[0].strip())
            data.append(values)
    _check_unique(row_names, "row", path)
    return tuple(row_names), tuple(col_names), np.array(data, dtype=float)


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
