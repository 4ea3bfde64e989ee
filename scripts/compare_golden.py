#!/usr/bin/env python3
"""Report what moved between two outputs of ``scripts/golden_bundle.py``.

    (cd ../old-checkout && PYTHONPATH=src python scripts/golden_bundle.py /tmp/golden-old)
    PYTHONPATH=src python scripts/golden_bundle.py /tmp/golden-new
    python scripts/compare_golden.py /tmp/golden-old /tmp/golden-new

Every file whose bytes differ is listed. A CSV gets the largest absolute and
relative change over its numeric cells, and the count of its text cells that
differ. A JSON report gets the change of every mean metric that moved, and
each fold whose metrics moved, per ablation combo where it has combos. The
embedded config (a CSV's ``# config`` line, a report's ``"config"``) is left
out of the comparison: its input digests change with the inputs. The exit
status is 0 when no file differs and 1 otherwise.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np


def _csv_cells(path: Path) -> list[list[str]]:
    with path.open(newline="") as handle:
        return [row for row in csv.reader(handle) if row and not row[0].startswith("#")]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(old: Path, new: Path) -> list[str]:
    a, b = _csv_cells(old), _csv_cells(new)
    shape_a, shape_b = [len(row) for row in a], [len(row) for row in b]
    if shape_a != shape_b:
        return [f"rows differ in number or length: {len(a)} rows -> {len(b)} rows"]
    pairs = [(x, y) for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b) if x != y]
    numeric = [(_number(x), _number(y)) for x, y in pairs]
    moved = np.array([(x, y) for x, y in numeric if x is not None and y is not None])
    text = len(pairs) - len(moved)
    lines = []
    if len(moved):
        delta = np.abs(moved[:, 0] - moved[:, 1])
        scale = np.abs(moved).max(axis=1)
        rel = delta / np.where(scale > 0.0, scale, 1.0)
        lines.append(
            f"{len(moved)} numeric cells moved: max |d| {delta.max():.3e}, "
            f"max relative |d| {rel.max():.3e}"
        )
    if text:
        lines.append(f"{text} text cells differ")
    return lines


def _metrics(record: dict) -> dict:
    """A fold record's or a mean's metrics, each cutoff table flattened."""
    flat = {}
    for key, value in record.items():
        if isinstance(value, dict):
            flat.update({f"{key}[{k}]": v for k, v in value.items()})
        else:
            flat[key] = value
    return flat


def _changes(old: dict, new: dict) -> list[str]:
    a, b = _metrics(old), _metrics(new)
    out = []
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key), b.get(key)
        if x == y:
            continue
        if isinstance(x, (int, float)) and isinstance(y, (int, float)) and not isinstance(x, bool):
            out.append(f"{key} {x!r} -> {y!r} (d {y - x:+.3e})")
        else:
            out.append(f"{key} {x!r} -> {y!r}")
    return out


def _compare_report(old: dict, new: dict, prefix: str) -> list[str]:
    lines = []
    for key in sorted((old.keys() | new.keys()) - {"config", "folds", "mean", "combos"}):
        if old.get(key) != new.get(key):
            lines.append(f"{prefix}{key}: {old.get(key)!r} -> {new.get(key)!r}")
    if "combos" in old or "combos" in new:
        combos_a, combos_b = old.get("combos", {}), new.get("combos", {})
        for name in sorted(combos_a.keys() | combos_b.keys()):
            if name not in combos_a or name not in combos_b:
                lines.append(f"combo {name}: only in {'NEW' if name in combos_b else 'OLD'}")
            else:
                lines += _compare_report(combos_a[name], combos_b[name], f"combo {name}: ")
        return lines
    means = _changes(old.get("mean", {}), new.get("mean", {}))
    lines += [f"{prefix}mean {change}" for change in means]
    folds_a, folds_b = old.get("folds", []), new.get("folds", [])
    if len(folds_a) != len(folds_b):
        lines.append(f"{prefix}{len(folds_a)} folds -> {len(folds_b)} folds")
    for fa, fb in zip(folds_a, folds_b):
        moved = _changes(fa, fb)
        if moved:
            lines.append(f"{prefix}{_fold_label(fb)}: " + "; ".join(moved))
    return lines


def _fold_label(record: dict) -> str:
    """``fold 2 of seed 1`` for a cv fold, ``fold 4 (virus004)`` for a virus."""
    label = f"fold {record.get('fold')}"
    if record.get("seed") is not None:
        label += f" of seed {record['seed']}"
    if record.get("name") is not None:
        label += f" ({record['name']})"
    return label


def compare_json(old: Path, new: Path) -> list[str]:
    return _compare_report(json.loads(old.read_text()), json.loads(new.read_text()), "")


def compare(old_dir: Path, new_dir: Path) -> list[str]:
    """One line per difference between the two directories, in path order."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    have_a, have_b = files(old_dir), files(new_dir)
    lines = []
    for rel in sorted(have_a | have_b):
        if rel not in have_a or rel not in have_b:
            lines.append(f"{rel}: only in {'NEW' if rel in have_b else 'OLD'}")
            continue
        a, b = old_dir / rel, new_dir / rel
        if a.read_bytes() == b.read_bytes():
            continue
        compare_one = {".csv": compare_csv, ".json": compare_json}.get(a.suffix)
        details = compare_one(a, b) if compare_one else []
        if compare_one and not details:
            details = ["only the embedded config differs"]
        lines.append(f"{rel}: bytes differ")
        lines += [f"  {line}" for line in details]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="golden_bundle.py output of the old code")
    parser.add_argument("new", type=Path, help="golden_bundle.py output of the new code")
    args = parser.parse_args()
    for folder in (args.old, args.new):
        if not folder.is_dir():
            parser.error(f"{folder} is not a directory")
    lines = compare(args.old, args.new)
    print("\n".join(lines) if lines else "no file differs")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
