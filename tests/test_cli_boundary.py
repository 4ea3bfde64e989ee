"""The command line's boundary contract, as a property over random bundles.

Every run of ``cli.main`` either exits 0 with finite, complete artifacts, or
exits 1 with exactly one ERROR record, no escaping exception and no ``--out``.
Each refusal, a failed iteration aside, names a file, a flag or a config key.
"""

import csv
import dataclasses
import json
import logging
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grdmf.cli import RunConfig, main
from grdmf.data import write_matrix_csv
from grdmf.exceptions import GrdmfWarning
from grdmf.solver import HyperParams

#: the config keys, so the flags, a refusal may name; "out" and "virus" are
#: left out, since "out of range" and "virus similarities" are not about them
KEYS = (
    {f.name for f in dataclasses.fields(RunConfig)}
    | {f.name for f in dataclasses.fields(HyperParams)}
    | {"layers"}
) - {"command", "digests", "hyperparams", "out", "virus"}
NAMES_A_KEY = re.compile(r"\b(%s)\b" % "|".join(KEYS))
FAILED_ITERATION = re.compile(r"^iteration \d+ failed")


#: powers of ten across the finite floats' range
SCALES = st.integers(-300, 300).map(lambda e: 10.0**e)


@st.composite
def runs(draw):
    """A bundle's shape, seed and drug-side exponent, and the command with the
    arguments that follow its inputs."""
    m, n = draw(st.integers(2, 9)), draw(st.integers(2, 7))
    layers = draw(st.sampled_from([2, 3]))
    dims = [draw(st.integers(1, 9)) for _ in range(layers)]
    mu = draw(st.one_of(st.just(0.0), SCALES))
    args = [
        "--mu", repr(mu),
        "--theta", repr(draw(SCALES)),
        "--alpha", repr(draw(st.floats(1e-12, 1.999999))),
        "--p", str(draw(st.integers(1, min(m, n) - 1))),
        "--dims", ",".join(map(str, dims)),
    ]
    scheme = draw(st.sampled_from([None, "entries", "viruses", "drugs", "loo"]))
    if scheme is not None:
        args = ["cv", *args, "--scheme", scheme, "--folds", "2", "--repeats", "1"]
    else:
        args = ["fit", *args]
    return m, n, draw(st.integers(0, 2**32 - 1)), draw(st.integers(-300, 300)), args


def _bundle(folder: Path, m: int, n: int, seed: int, exponent: int) -> dict[str, str]:
    """A random binary association and a random PSD similarity per side, the
    drug side's scaled by 10**exponent."""
    rng = np.random.default_rng(seed)
    drugs = [f"d{i}" for i in range(m)]
    viruses = [f"v{j}" for j in range(n)]
    y = (rng.random((m, n)) < rng.uniform(0.1, 0.9)).astype(float)
    paths = {name: str(folder / f"{name}.csv") for name in ("association", "drug", "virus")}
    write_matrix_csv(paths["association"], drugs, viruses, y)
    for side, names in ("drug", drugs), ("virus", viruses):
        b = rng.random((len(names), 3))
        s = b @ b.T
        write_matrix_csv(paths[side], names, names, s * 10.0**exponent if side == "drug" else s)
    return paths


def _finite_csv(path: Path) -> None:
    with path.open(newline="") as handle:
        rows = [row for row in csv.reader(handle) if row and not row[0].startswith("#")]
    cells = [float(cell) for row in rows[1:] for cell in row[1:]]
    assert cells and all(math.isfinite(cell) for cell in cells), path


def _reject_constant(name):
    raise AssertionError(f"non-finite value {name} in a report")


def _check_artifacts(out: Path, command: str, layers: int, folds: int) -> None:
    if command == "fit":
        names = ["completed", *(f"factor_u{i}" for i in range(1, layers + 1)), "factor_v", "trace"]
        assert sorted(p.name for p in out.iterdir()) == sorted(f"{name}.csv" for name in names)
        for path in out.iterdir():
            _finite_csv(path)
    else:
        assert [p.name for p in out.iterdir()] == ["metrics.json"]
        report = json.loads((out / "metrics.json").read_text(), parse_constant=_reject_constant)
        assert len(report["folds"]) == folds
        assert set(report["mean"]) == {"auc", "aupr", "pre_at_k", "rec_at_k"}


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.records: list[logging.LogRecord] = []

    def emit(self, record):
        self.records.append(record)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(runs())
def test_every_run_works_or_is_refused_naming_its_cause(run):
    m, n, seed, exponent, args = run
    handler = _Records()
    logger = logging.getLogger("grdmf")
    logger.addHandler(handler)
    try:
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            # the library's own warnings are expected here; numpy's are not
            warnings.filterwarnings("ignore", category=GrdmfWarning)
            paths = _bundle(Path(tmp), m, n, seed, exponent)
            out = Path(tmp) / "out"
            inputs = [
                "--association", paths["association"],
                "--drug-sim", paths["drug"],
                "--virus-sim", paths["virus"],
                "--out", str(out),
            ]
            code = main([args[0], *inputs, *args[1:]])
            if code == 0:
                layers = len(args[args.index("--dims") + 1].split(","))
                folds = n if "loo" in args else 2
                _check_artifacts(out, args[0], layers, folds)
                assert handler.records == []
            else:
                assert code == 1
                assert not out.exists()
                assert len(handler.records) == 1
                record = handler.records[0]
                assert record.exc_info is None
                message = record.getMessage()
                if not FAILED_ITERATION.match(message):
                    named = any(path in message for path in paths.values())
                    assert named or NAMES_A_KEY.search(message), message
    finally:
        logger.removeHandler(handler)
