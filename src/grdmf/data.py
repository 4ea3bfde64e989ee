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
import itertools
import logging
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .exceptions import (
    AsymmetryWarning,
    ParseError,
    RegistryError,
    ZeroProfileWarning,
)
from .linalg import _symmetrized

__all__ = [
    "AssociationDataset",
    "load_association_csv",
    "save_association_csv",
    "load_profile_csv",
    "load_similarity_csv",
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


def _check_names(names: Sequence[str], what: str, path) -> None:
    """Each name, already stripped, is non-empty, unique and free of a leading
    ``#`` (a row written under it would read back as a comment); a name that is
    not is a :class:`RegistryError` naming the file."""
    seen = set()
    for i, name in enumerate(names, start=1):
        if not name:
            raise RegistryError(f"empty {what} name in {path} ({what} {i} of {len(names)})")
        if name.startswith("#"):
            raise RegistryError(
                f"{what} name {name!r} in {path} starts with '#' ({what} {i} of {len(names)})"
            )
        if name in seen:
            raise RegistryError(f"duplicate {what} name {name!r} in {path}")
        seen.add(name)


def _body_ok(values, binary: bool):
    """The body contract per cell or array: 0 or 1 if binary, else finite and nonnegative."""
    if binary:
        return (values == 0.0) | (values == 1.0)
    return (values >= 0.0) & (values < np.inf)


def _csv_rows(handle, path):
    """``(line, row)`` per data row; a row ``csv`` refuses is a ParseError."""
    lineno = 0
    try:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if row and not row[0].startswith("#"):
                yield lineno, row
    except csv.Error as exc:
        raise ParseError(f"{path}:{lineno + 1}: {exc}") from exc


def _walk_rows(handle, path, binary: bool):
    """The exact reader: ``csv`` rows, ``float()`` per cell, each cell checked
    as it is read, so the error names the first bad cell in file order."""
    rows = _csv_rows(handle, path)
    header_line, header = next(rows, (None, None))
    if header is None:
        raise ParseError(f"{Path(path)} contains no data rows")
    col_names = [h.strip() for h in header[1:]]
    if not col_names:
        raise ParseError(f"{path}:{header_line}: header row names no columns")
    _check_names(col_names, "column", path)
    width = len(col_names)
    row_names: list[str] = []
    data: list[np.ndarray] = []
    for lineno, row in rows:
        if len(row) != width + 1:
            raise ParseError(
                f"{path}:{lineno}: expected {width + 1} fields, got {len(row)}"
            )
        values = []
        for col, text in enumerate(row[1:], start=2):
            try:
                values.append(float(text))
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: column {col}: cannot parse {text!r} as a number"
                ) from None
            if not _body_ok(values[-1], binary):
                expected = "0 or 1" if binary else "a finite nonnegative number"
                raise ParseError(
                    f"{path}:{lineno}: column {col}: expected {expected}, got {text!r}"
                )
        row_names.append(row[0].strip())
        data.append(np.array(values))
    if not data:
        raise ParseError(f"{Path(path)} contains no data rows")
    _check_names(row_names, "row", path)
    return tuple(row_names), tuple(col_names), np.array(data, dtype=float)


def _read_plain(handle, binary: bool):
    """The common case in one streaming pass: names by ``str.partition``, the
    body by one call of numpy's C text reader. Returns None wherever the
    result could differ from :func:`_walk_rows`: a ``"`` anywhere (quoting), a
    line longer than ``csv``'s field limit, no data rows, a row without cells,
    a ragged row, a spelling only ``float()`` accepts (``1_0``, non-ASCII
    digits) or a cell that breaks the body contract. Both readers convert
    numbers with CPython's ``PyOS_string_to_double``, so accepted values agree
    bit for bit."""
    limit = csv.field_size_limit()
    names: list[str] = []  # the header's first cell, then every row name

    def rests():
        # a line this reader cannot take is a ValueError, which loadtxt passes through
        for line in handle:
            if '"' in line or len(line) > limit:
                raise ValueError("quoted or overlong line")
            line = line.rstrip("\r\n")
            if not line or line.startswith("#"):
                continue
            name, _, rest = line.partition(",")
            if not rest:
                raise ValueError("row without cells")
            names.append(name.strip())
            yield rest

    body = rests()
    try:
        header = next(body, None)
        first = next(body, None)  # numpy warns on an empty input: start from a row in hand
        if first is None:
            return None
        values = np.loadtxt(
            itertools.chain((first,), body), delimiter=",", comments=None, quotechar=None, ndmin=2
        )
    except ValueError:
        return None
    col_names = [h.strip() for h in header.split(",")]
    row_names = names[1:]
    if values.shape != (len(row_names), len(col_names)) or not _body_ok(values, binary).all():
        return None
    return tuple(row_names), tuple(col_names), values


def _parse_table(path, binary: bool):
    """Shared reader: header row of column names, first column of row names.

    The body is parsed by numpy's C text reader (:func:`_read_plain`); a
    file it does not take is read again by the exact row walker
    (:func:`_walk_rows`), which accepts the same files with the same values
    and raises every error. A file that cannot be opened or decoded is a
    :class:`ParseError` too, whichever reader meets the bad byte."""
    try:
        with Path(path).open(newline="") as handle:
            if handle.seekable():
                parsed = _read_plain(handle, binary)
                if parsed is not None:
                    row_names, col_names, _ = parsed
                    _check_names(col_names, "column", path)
                    _check_names(row_names, "row", path)
                    return parsed
                handle.seek(0)
            return _walk_rows(handle, path, binary)
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {Path(path)}: {_undecodable_line(path, exc)}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {Path(path)}: {exc}") from exc


def _undecodable_line(path, exc: UnicodeDecodeError) -> str:
    """``exc`` restated for the first line it occurs on: the codec counts its
    position from the start of a buffered chunk, not of the file or a line."""
    with Path(path).open("rb") as raw:
        for lineno, line in enumerate(raw, start=1):
            try:
                line.decode(exc.encoding)
            except UnicodeDecodeError as at:
                return f"line {lineno}: {at}"
    return str(exc)


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


def _registry_order(path, have: Sequence[str], registry: Sequence[str], what: str) -> np.ndarray:
    """Indices that put the names ``have`` of ``path`` in registry order."""
    if set(have) != set(registry):
        missing = sorted(set(registry) - set(have))
        extra = sorted(set(have) - set(registry))
        raise RegistryError(
            f"{path}: {what} names do not match the dataset registry; "
            f"missing {missing}, unexpected {extra}"
        )
    index = {name: i for i, name in enumerate(have)}
    return np.array([index[name] for name in registry])


def load_profile_csv(path, registry: Sequence[str]) -> np.ndarray:
    """Load a binary feature profile as its rows in ``registry`` order; all-zero
    rows load with a warning, and the names must match the registry as sets."""
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
    return indicator[_registry_order(path, entities, registry, "profile")]


def load_similarity_csv(path, registry: Sequence[str]) -> np.ndarray:
    """Load a square similarity matrix in ``registry`` order, averaging away
    any asymmetry.

    Row and column names must agree in order and match the registry as sets,
    and every cell must be finite and nonnegative (a negative weight would
    make the graph Laplacian indefinite). Asymmetry beyond ``ASYMMETRY_TOL``
    is repaired by (S + S.T) / 2 with an :class:`AsymmetryWarning`; smaller
    round-off asymmetry is repaired silently.
    """
    row_names, col_names, values = _parse_table(path, binary=False)
    if row_names != col_names:
        raise ParseError(
            f"{path}: row names and column names differ; a similarity matrix is square"
        )
    # one buffer holds |S - S.T| and then (S + S.T) / 2: a single extra array
    buf = np.subtract(values, values.T)
    gap = float(np.abs(buf, out=buf).max())
    if gap > ASYMMETRY_TOL:
        warnings.warn(
            f"{path}: asymmetric by {gap:.3e} (entrywise); averaging (S + S.T)/2",
            AsymmetryWarning,
            stacklevel=2,
        )
    values = _symmetrized(values, out=buf)
    logger.info("loaded similarity %s: %d entities", path, len(row_names))
    order = _registry_order(path, row_names, registry, "similarity")
    return values[np.ix_(order, order)]


def write_matrix_csv(path, row_names, col_names, values, comments: Iterable[str] = ()) -> None:
    """Write a real-valued matrix with the shared header/first-column layout,
    each body row as one string of shortest round-trip ``repr`` cells."""
    path = Path(path)
    values = np.asarray(values, dtype=float)
    with path.open("w", newline="") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        csv.writer(handle).writerow(["", *col_names])
        for name, row in zip(row_names, values):  # one row at a time keeps the peak low
            name = str(name)
            if any(c in name for c in ',"\r\n'):  # quoted as csv.writer quotes it
                name = '"' + name.replace('"', '""') + '"'
            handle.write(f"{name},{','.join(map(repr, row.tolist()))}\r\n")
