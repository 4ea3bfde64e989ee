"""End-to-end command-line tests on generated CSV bundles.

Everything runs through ``main(argv)`` against files in tmp_path, asserting
on exit codes and on the artifacts the commands leave behind.
"""

import csv
import dataclasses
import hashlib
import json
import logging
import os
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from grdmf.cli import DEFAULT_HYPERPARAMS, _named_paths, _parse_combos, _sha256, main
from grdmf.data import (
    load_association_csv,
    load_profile_csv,
    load_similarity_csv,
    write_matrix_csv,
)
from grdmf.evaluation import run_cv, run_loocv
from grdmf.exceptions import (
    ConfigError,
    FoldSkippedWarning,
    SolverError,
    TopKClampWarning,
    ZeroProfileWarning,
)
from grdmf.graphs import build_laplacian, cosine_similarity
from grdmf.solver import HyperParams, fit
from grdmf.synthetic import make_synthetic_problem, write_synthetic_csvs

# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A small synthetic CSV bundle shared by the command tests."""
    out = tmp_path_factory.mktemp("bundle")
    problem = make_synthetic_problem(m=12, n=6, rank=2, seed=0)
    paths = write_synthetic_csvs(problem, out)
    return {name: str(p) for name, p in paths.items()}


def _base_args(bundle, out, *, iters="2", dims="4,2"):
    return [
        "--association", bundle["association"],
        "--drug-sim", bundle["drug_sim"],
        "--virus-sim", bundle["virus_sim"],
        "--mu", "0.1", "--theta", "1.0", "--alpha", "0.5",
        "--p", "2", "--dims", dims, "--iters", iters,
        "--out", str(out),
    ]


def _library_inputs(bundle):
    """The dataset, Laplacians and hyperparameters `_base_args` resolves to."""
    dataset = load_association_csv(bundle["association"])
    hp = HyperParams(mu=0.1, theta=1.0, alpha=0.5, dims=(4, 2), p=2, iters=2)
    drug_sim = load_similarity_csv(bundle["drug_sim"], dataset.drugs)
    virus_sim = load_similarity_csv(bundle["virus_sim"], dataset.viruses)
    l_d = build_laplacian([drug_sim], hp.p)
    l_v = build_laplacian([virus_sim], hp.p)
    return dataset, l_d, l_v, hp


def _read_rows(path):
    with open(path, newline="") as handle:
        return [row for row in csv.reader(handle) if row and not row[0].startswith("#")]


# ---------------------------------------------------------------------------
# fit


def test_fit_writes_artifacts(bundle, tmp_path, capsys):
    out = tmp_path / "fit"
    assert main(["fit", *_base_args(bundle, out)]) == 0
    assert (out / "completed.csv").exists()
    assert (out / "factor_u1.csv").exists()
    assert (out / "factor_u2.csv").exists()
    assert (out / "factor_v.csv").exists()
    assert str(out / "completed.csv") in capsys.readouterr().out

    rows = _read_rows(out / "trace.csv")
    assert rows[0] == ["iteration", "loss"]
    assert len(rows) == 1 + 3  # header + iters+1 objective values
    losses = [float(r[1]) for r in rows[1:]]
    assert all(np.isfinite(losses))
    first_line = (out / "trace.csv").read_text().splitlines()[0]
    assert first_line.startswith("# config ")
    embedded = json.loads(first_line[len("# config ") :])
    assert embedded["hyperparams"]["mu"] == 0.1
    assert embedded["digests"]  # input files are fingerprinted

    completed = _read_rows(out / "completed.csv")
    dataset = load_association_csv(bundle["association"])
    assert completed[0][1:] == list(dataset.viruses)
    assert [r[0] for r in completed[1:]] == list(dataset.drugs)
    values = np.array([[float(v) for v in r[1:]] for r in completed[1:]])
    assert values.min() >= 0.0


def test_input_digests_are_the_whole_file_sha256_read_in_chunks(tmp_path, monkeypatch):
    # an input is hashed a chunk at a time, never held whole, to the digest
    # of its whole bytes: empty, under one chunk, and past several
    sizes = {"empty": 0, "small": 100, "large": 3 * (1 << 20) + 12345}
    rng = np.random.default_rng(0)
    for name, size in sizes.items():
        (tmp_path / name).write_bytes(rng.bytes(size))
    want = {n: hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in sizes}
    monkeypatch.setattr(Path, "read_bytes", None)
    assert {n: _sha256(tmp_path / n) for n in sizes} == want


def test_fit_accepts_profiles_instead_of_similarities(bundle, tmp_path):
    out = tmp_path / "fitp"
    args = [
        "fit",
        "--association", bundle["association"],
        "--drug-profile", bundle["drug_profile"],
        "--virus-profile", bundle["virus_profile"],
        "--mu", "0.1", "--dims", "4,2", "--iters", "2",
        "--out", str(out),
    ]
    # the median-thresholded synthetic profiles contain all-zero rows; the
    # pipeline warns once per profile, naming its file, and still completes
    with pytest.warns(ZeroProfileWarning) as record:
        assert main(args) == 0
    zero = [str(w.message) for w in record if issubclass(w.category, ZeroProfileWarning)]
    assert len(zero) == 2
    assert zero[0].startswith(f"{bundle['drug_profile']}: 3 entity profile(s)")
    assert zero[1].startswith(f"{bundle['virus_profile']}: 2 entity profile(s)")
    assert (out / "completed.csv").exists()


def test_a_warning_prints_as_one_log_line(bundle, tmp_path):
    # a fresh interpreter, so the default warning handler prints, not a recorder
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    args = [
        "fit",
        "--association", bundle["association"],
        "--drug-profile", bundle["drug_profile"],
        "--virus-sim", bundle["virus_sim"],
        "--mu", "0.1", "--dims", "4,2", "--iters", "2",
        "--out", str(tmp_path / "warned"),
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "grdmf", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    warned = [line for line in lines if line.startswith("WARNING ")]
    assert len(warned) == 1
    assert warned[0].startswith(f"WARNING {bundle['drug_profile']}: 3 entity profile(s)")
    assert "all-zero" in warned[0]
    assert "cli.py:" not in proc.stderr and "Warning:" not in proc.stderr


# ---------------------------------------------------------------------------
# predict


def test_predict_ranks_and_flags_known(bundle, tmp_path):
    out = tmp_path / "pred"
    args = ["predict", *_base_args(bundle, out), "--virus", "virus003", "--k", "5"]
    assert main(args) == 0
    rows = _read_rows(out / "recommendations.csv")
    assert rows[0] == ["rank", "drug", "score", "known"]
    body = rows[1:]
    assert [int(r[0]) for r in body] == [1, 2, 3, 4, 5]
    scores = [float(r[2]) for r in body]
    assert scores == sorted(scores, reverse=True)
    dataset = load_association_csv(bundle["association"])
    j = dataset.viruses.index("virus003")
    known = {dataset.drugs[i] for i in np.flatnonzero(dataset.y[:, j] == 1.0)}
    for r in body:
        assert (r[1] in known) == bool(int(r[3]))


def test_predict_quotes_a_drug_name_with_a_comma(tmp_path):
    problem = make_synthetic_problem(m=12, n=6, rank=2, seed=0)
    drugs = ("drug, zero", *problem.dataset.drugs[1:])
    problem = dataclasses.replace(
        problem, dataset=dataclasses.replace(problem.dataset, drugs=drugs)
    )
    paths = write_synthetic_csvs(problem, tmp_path / "bundle")
    bundle = {name: str(path) for name, path in paths.items()}
    out = tmp_path / "pred"
    args = ["predict", *_base_args(bundle, out), "--virus", "virus003", "--k", "12"]
    assert main(args) == 0
    rows = _read_rows(out / "recommendations.csv")
    assert all(len(row) == 4 for row in rows)
    assert {row[1] for row in rows[1:]} == set(drugs)


def test_predict_clamps_k_beyond_the_drug_count(bundle, tmp_path):
    out = tmp_path / "predall"
    args = ["predict", *_base_args(bundle, out), "--virus", "virus003", "--k", "20"]
    with pytest.warns(TopKClampWarning, match="k=20 exceeds the 12 candidates"):
        assert main(args) == 0
    body = _read_rows(out / "recommendations.csv")[1:]
    assert [int(r[0]) for r in body] == list(range(1, 13))
    assert sorted(r[1] for r in body) == sorted(load_association_csv(bundle["association"]).drugs)


def test_predict_unknown_virus_fails_cleanly(bundle, tmp_path, monkeypatch, caplog):
    def no_fit(*args, **kwargs):
        raise AssertionError("the virus name is checked before any fit")

    monkeypatch.setattr("grdmf.cli.fit", no_fit)
    out = tmp_path / "predbad"
    args = ["predict", *_base_args(bundle, out), "--virus", "no-such-virus"]
    assert main(args) == 1
    # logged as every other error is, not as a KeyError's quoted repr
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == ["unknown virus 'no-such-virus'; the dataset has 6 viruses"]
    assert not (out / "recommendations.csv").exists()


def _logged_errors(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]


@pytest.mark.parametrize("virus", [None, ""], ids=["absent", "empty"])
def test_predict_without_a_virus_is_a_config_error(bundle, tmp_path, caplog, virus):
    out = tmp_path / "novirus"
    args = ["predict", *_base_args(bundle, out)]
    if virus is not None:
        args += ["--virus", virus]
    assert main(args) == 1
    assert _logged_errors(caplog) == ["predict needs a virus name (--virus)"]
    assert not out.exists()


def test_a_missing_config_file_is_a_config_error(bundle, tmp_path, caplog):
    missing = tmp_path / "no-such.json"
    assert main(["fit", *_base_args(bundle, tmp_path / "out"), "--config", str(missing)]) == 1
    assert _logged_errors(caplog) == [f"config file not found: {missing}"]


def test_a_config_file_scheme_is_checked(bundle, tmp_path, caplog):
    # as the --scheme flag is: see test_a_bad_flag_fails_like_its_config_key
    cfg_path = tmp_path / "scheme.json"
    cfg_path.write_text(json.dumps({"scheme": "bogus"}))
    out = tmp_path / "badscheme"
    assert main(["cv", *_base_args(bundle, out), "--config", str(cfg_path)]) == 1
    assert _logged_errors(caplog) == [
        "scheme must be one of entries, viruses, drugs, loo; got 'bogus'"
    ]
    assert not out.exists()


def test_a_drug_side_graph_is_required(bundle, tmp_path, caplog):
    out = tmp_path / "nodrug"
    args = ["fit", "--association", bundle["association"],
            "--virus-sim", bundle["virus_sim"], "--out", str(out)]
    assert main(args) == 1
    assert _logged_errors(caplog) == [
        "at least one drug-side similarity or profile is required"
    ]
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "predict"])
def test_seed_is_refused_where_no_folds_are_drawn(bundle, tmp_path, capsys, command):
    # only cv and ablation draw folds; a seed anywhere else would change nothing
    with pytest.raises(SystemExit) as exc:
        main([command, *_base_args(bundle, tmp_path / "out"), "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k", [0, -3])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_predict_rejects_k_below_one_before_any_fit(
    bundle, tmp_path, monkeypatch, caplog, k, source
):
    def no_fit(*args, **kwargs):
        raise AssertionError("k is checked before any fit")

    monkeypatch.setattr("grdmf.cli.fit", no_fit)
    out = tmp_path / "predk"
    virus = load_association_csv(bundle["association"]).viruses[0]
    args = ["predict", *_base_args(bundle, out), "--virus", virus]
    if source == "flag":
        args += ["--k", str(k)]
    else:
        cfg_path = tmp_path / "k.json"
        cfg_path.write_text(json.dumps({"k": k}))
        args += ["--config", str(cfg_path)]
    assert main(args) == 1
    assert f"--k must be >= 1, got {k}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--folds", "1"], "--folds must be >= 2, got 1"),
        (["--scheme", "loo", "--ks", "3,0"], "--ks cutoffs must be >= 1, got [3, 0]"),
        (["--scheme", "loo", "--ks", ","], "--ks needs at least one cutoff"),
    ],
    ids=["folds", "ks", "ks-empty"],
)
def test_cv_rejects_folds_and_cutoffs_before_any_input_is_read(
    bundle, tmp_path, monkeypatch, caplog, flags, message
):
    def no_read(*args, **kwargs):
        raise AssertionError("the flag is checked before any input is read")

    monkeypatch.setattr("grdmf.cli._sha256", no_read)
    monkeypatch.setattr("grdmf.cli.load_association_csv", no_read)
    out = tmp_path / "cv-flags"
    assert main(["cv", *_base_args(bundle, out), *flags]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and message in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "dims, layers, message",
    [
        ("5,4,3,2", None, "bad hyperparameters: dims must have 2 or 3 entries, got (5, 4, 3, 2)"),
        ("5", None, "bad hyperparameters: dims must have 2 or 3 entries, got (5,)"),
        ("5,3", 3, "layers 3 disagrees with dims (5, 3), which has 2 entries"),
        ("5,4,3", 2, "layers 2 disagrees with dims (5, 4, 3), which has 3 entries"),
    ],
    ids=["four-dims", "one-dim", "layers3-dims2", "layers2-dims3"],
)
def test_dims_and_layers_are_checked_before_any_fit(
    bundle, tmp_path, monkeypatch, caplog, source, dims, layers, message
):
    def no_fit(*args, **kwargs):
        raise AssertionError("dims and layers are checked before any fit")

    monkeypatch.setattr("grdmf.cli.fit", no_fit)
    out = tmp_path / "dims"
    args = _base_args(bundle, out)
    del args[args.index("--dims"):args.index("--dims") + 2]
    if source == "flag":
        args += ["--dims", dims] + ([] if layers is None else ["--layers", str(layers)])
    else:
        cfg = {"dims": dims} if layers is None else {"dims": dims, "layers": layers}
        cfg_path = tmp_path / "dims.json"
        cfg_path.write_text(json.dumps(cfg))
        args += ["--config", str(cfg_path)]
    assert main(["fit", *args]) == 1
    assert message in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("layers", [4, 1])
def test_layers_outside_two_or_three_is_a_config_error(
    bundle, tmp_path, monkeypatch, caplog, layers
):
    # as the --layers flag is: see test_a_bad_flag_fails_like_its_config_key
    def no_fit(*args, **kwargs):
        raise AssertionError("layers is checked before any fit")

    monkeypatch.setattr("grdmf.cli.fit", no_fit)
    out = tmp_path / "layers"
    args = _base_args(bundle, out)
    del args[args.index("--dims"):args.index("--dims") + 2]
    cfg_path = tmp_path / "layers.json"
    cfg_path.write_text(json.dumps({"layers": layers}))
    assert main(["fit", *args, "--config", str(cfg_path)]) == 1
    assert f"layers must be 2 or 3, got {layers}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value, message",
    [
        ("cv", "scheme", "bogus", "scheme must be one of entries, viruses, drugs, loo"),
        ("fit", "layers", "4", "layers must be 2 or 3, got 4"),
        ("cv", "repeats", "abc", "cannot parse repeats 'abc'"),
        ("fit", "p", "2.5", "cannot parse p '2.5'"),
    ],
    ids=["scheme", "layers", "repeats", "p"],
)
def test_a_bad_flag_fails_like_its_config_key(
    bundle, tmp_path, caplog, command, key, value, message
):
    # one converter reads each key, whether the flag or the config file gives it
    def run(extra) -> list:
        caplog.clear()
        out = tmp_path / "bad"
        args = _base_args(bundle, out)
        for flag in "--dims", f"--{key}":  # dims would disagree with layers 4
            if flag in args:
                del args[args.index(flag):args.index(flag) + 2]
        assert main([command, *args, *extra]) == 1
        assert not out.exists()
        return _logged_errors(caplog)

    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({key: value}))
    errors = run([f"--{key}", value])
    assert len(errors) == 1 and message in errors[0]
    assert run(["--config", str(cfg_path)]) == errors


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("command", ["fit", "cv"])
def test_an_out_that_cannot_be_a_directory_fails_before_any_input_is_read(
    bundle, tmp_path, monkeypatch, caplog, capsys, command, below
):
    def no_run(*args, **kwargs):
        raise AssertionError("the output path is checked before any input is read")

    for name in ("grdmf.cli.load_association_csv", "grdmf.cli.fit", "grdmf.evaluation.fit"):
        monkeypatch.setattr(name, no_run)
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    out = afile / "sub" if below else afile
    assert main([command, *_base_args(bundle, out)]) == 1
    errors = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert [r.getMessage() for r in errors] == [f"output {out}: {afile} is not a directory"]
    assert errors[0].exc_info is None
    assert "Traceback" not in capsys.readouterr().err
    assert afile.read_text() == "keep\n"


# ---------------------------------------------------------------------------
# cv


def test_cv_metrics_payload_and_determinism(bundle, tmp_path):
    out = tmp_path / "cv"
    args = [
        "cv", *_base_args(bundle, out),
        "--scheme", "entries", "--folds", "3", "--repeats", "2", "--seed", "4",
    ]
    assert main(args) == 0
    first = (out / "metrics.json").read_bytes()
    payload = json.loads(first)
    assert payload["scheme"] == "entries"
    assert payload["seeds"] == [4, 5]
    assert len(payload["folds"]) == 6  # 2 repeats x 3 folds
    assert 0.0 <= payload["mean"]["auc"] <= 1.0
    assert payload["config"]["command"] == "cv"
    assert payload["config"]["hyperparams"]["dims"] == [4, 2]

    # identical invocation -> byte-identical report
    assert main(args) == 0
    assert (out / "metrics.json").read_bytes() == first


def test_cv_loo_scheme(bundle, tmp_path):
    out = tmp_path / "loo"
    args = ["cv", *_base_args(bundle, out), "--scheme", "loo", "--ks", "2,4"]
    assert main(args) == 0
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["scheme"] == "loo"
    assert payload["seeds"] == []
    assert set(payload["mean"]["pre_at_k"]) == {"2", "4"}
    dataset = load_association_csv(bundle["association"])
    assert len(payload["folds"]) == len(dataset.viruses)
    names = {fold["name"] for fold in payload["folds"]}
    assert names == set(dataset.viruses)


def test_cv_means_are_the_library_report_means(bundle, tmp_path):
    out = tmp_path / "cvmean"
    args = [
        "cv", *_base_args(bundle, out),
        "--scheme", "entries", "--folds", "12", "--repeats", "1", "--seed", "1",
    ]
    # seed 1 gives a single-class fold, so the skip exclusion is exercised
    with pytest.warns(FoldSkippedWarning):
        assert main(args) == 0
    payload = json.loads((out / "metrics.json").read_text())
    dataset, l_d, l_v, hp = _library_inputs(bundle)
    with pytest.warns(FoldSkippedWarning):
        report = run_cv(dataset, l_d, l_v, "entries", hp, seeds=[1], folds=12).to_dict()
    assert payload["mean"] == report["mean"]


def _count_laplacians(monkeypatch) -> list:
    """Record the similarity list of each CLI call to build_laplacian."""
    calls = []

    def counting(similarities, p):
        calls.append(similarities)
        return build_laplacian(similarities, p)

    monkeypatch.setattr("grdmf.cli.build_laplacian", counting)
    return calls


@pytest.mark.parametrize(
    "command, extra, fit_module",
    [
        ("fit", [], "grdmf.cli"),
        ("predict", ["--virus", "virus001"], "grdmf.cli"),
        ("cv", ["--folds", "3", "--repeats", "1"], "grdmf.evaluation"),
    ],
)
def test_no_similarity_is_alive_while_a_fit_runs(
    bundle, tmp_path, monkeypatch, command, extra, fit_module
):
    # a command drops its similarities once its two Laplacians exist, so no
    # m x m input is held through the fit's eigendecompositions
    loaded = []

    def recording(function):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            loaded.append(weakref.ref(result))
            return result

        return wrapper

    monkeypatch.setattr("grdmf.cli.load_similarity_csv", recording(load_similarity_csv))
    monkeypatch.setattr("grdmf.cli.cosine_similarity", recording(cosine_similarity))
    fits = []

    def checking(*args, **kwargs):
        alive = [i for i, ref in enumerate(loaded) if ref() is not None]
        assert not alive, f"similarities {alive} of {len(loaded)} are alive in fit"
        fits.append(True)
        return fit(*args, **kwargs)

    monkeypatch.setattr(f"{fit_module}.fit", checking)
    args = [
        command, *_base_args(bundle, tmp_path / command),
        "--drug-profile", bundle["drug_profile"], *extra,
    ]
    with pytest.warns(ZeroProfileWarning):  # the bundle's profile has empty rows
        assert main(args) == 0
    assert len(loaded) == 3 and fits


def test_cv_builds_the_laplacians_once_for_all_repeats(bundle, tmp_path, monkeypatch):
    calls = _count_laplacians(monkeypatch)
    args = [
        "cv", *_base_args(bundle, tmp_path / "cv"),
        "--folds", "3", "--repeats", "3", "--seed", "0",
    ]
    assert main(args) == 0
    assert len(calls) == 2  # one drug-side and one virus-side graph


def test_ablation_builds_the_laplacians_once_per_combo(bundle, tmp_path, monkeypatch):
    loaded = []

    def loading(*args, **kwargs):
        loaded.append(load_similarity_csv(*args, **kwargs))
        return loaded[-1]

    monkeypatch.setattr("grdmf.cli.load_similarity_csv", loading)
    calls = _count_laplacians(monkeypatch)
    args = [
        "ablation", *_base_args(bundle, tmp_path / "ab"),
        "--drug-sim", bundle["drug_sim"],  # auto-named s2_d
        "--combos", "s1_d,s1_v;s1_d+s2_d,s1_v",
        "--folds", "3", "--repeats", "2", "--seed", "0",
    ]
    assert main(args) == 0
    assert len(calls) == 4  # two combos, one pair each
    # each combo's graphs are built from the loaded arrays themselves, not copies
    s1_d, s2_d, s1_v = loaded
    expected = [[s1_d], [s1_v], [s1_d, s2_d], [s1_v]]
    assert [[id(a) for a in sims] for sims in calls] == [[id(a) for a in sims] for sims in expected]


def test_loo_means_are_the_library_report_means(bundle, tmp_path):
    dataset, l_d, l_v, hp = _library_inputs(bundle)
    # a virus without positives is left out of the recall means, and
    # k=20 exceeds the 12 drugs, so it is clamped with a warning
    assert dataset.y[:, dataset.viruses.index("virus001")].sum() == 0
    assert len(dataset.drugs) < 20
    out = tmp_path / "loomean"
    with pytest.warns(TopKClampWarning):
        assert main(["cv", *_base_args(bundle, out), "--scheme", "loo", "--ks", "2,20"]) == 0
    payload = json.loads((out / "metrics.json").read_text())
    with pytest.warns(TopKClampWarning):
        report = run_loocv(dataset, l_d, l_v, hp, ks=(2, 20)).to_dict()
    assert payload["mean"] == report["mean"]
    assert payload["notes"] == report["notes"]


# ---------------------------------------------------------------------------
# ablation


def test_ablation_default_combos(bundle, tmp_path):
    out = tmp_path / "ab"
    args = [
        "ablation", *_base_args(bundle, out),
        "--folds", "3", "--repeats", "1", "--seed", "0",
    ]
    assert main(args) == 0
    payload = json.loads((out / "ablation.json").read_text())
    assert set(payload["combos"]) == {"s1_d,s1_v"}  # one source per side
    entry = payload["combos"]["s1_d,s1_v"]
    assert len(entry["folds"]) == 3


def test_ablation_explicit_combos_and_naming(bundle, tmp_path):
    out = tmp_path / "ab2"
    args = [
        "ablation",
        "--association", bundle["association"],
        "--drug-sim", f"chem={bundle['drug_sim']}",
        "--drug-sim", bundle["drug_sim"],  # auto-named s1_d
        "--virus-sim", bundle["virus_sim"],
        "--combos", "chem,s1_v;chem+s1_d,s1_v",
        "--mu", "0.1", "--dims", "4,2", "--iters", "2",
        "--folds", "3", "--repeats", "1",
        "--out", str(out),
    ]
    assert main(args) == 0
    payload = json.loads((out / "ablation.json").read_text())
    assert set(payload["combos"]) == {"chem,s1_v", "chem+s1_d,s1_v"}


def test_config_combo_side_string_joins_names_with_plus(bundle, tmp_path):
    # a string side of a list-form combo reads like a side of the string form
    payloads = []
    for name, combos in [("list", [["s1_d+s2_d", "s1_v"]]), ("string", "s1_d+s2_d,s1_v")]:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({"combos": combos}))
        out = tmp_path / name
        args = [
            "ablation", *_base_args(bundle, out),
            "--drug-sim", bundle["drug_sim"], "--config", str(cfg_path),
            "--folds", "3", "--repeats", "1", "--seed", "0",
        ]
        assert main(args) == 0
        payloads.append(json.loads((out / "ablation.json").read_text())["combos"])
    assert set(payloads[0]) == {"s1_d+s2_d,s1_v"}
    assert payloads[0] == payloads[1]


def test_ablation_unknown_combo_name_fails(bundle, tmp_path):
    out = tmp_path / "ab3"
    args = [
        "ablation", *_base_args(bundle, out),
        "--combos", "ghost,s1_v", "--folds", "3", "--repeats", "1",
    ]
    assert main(args) == 1
    assert not (out / "ablation.json").exists()


def test_ablation_labels_and_shared_folds(bundle, tmp_path, monkeypatch):
    hidden = []

    def recorder(y_train, mask, l_d, l_v, hp):
        hidden.append(mask == 0.0)
        return SimpleNamespace(x=np.full_like(y_train, 0.5))

    monkeypatch.setattr("grdmf.evaluation.fit", recorder)
    out = tmp_path / "ab-folds"
    args = [
        "ablation", *_base_args(bundle, out),
        "--drug-sim", bundle["drug_sim"],  # auto-named s2_d
        "--combos", "s1_d,s1_v;s1_d+s2_d,s1_v",
        "--folds", "3", "--repeats", "1", "--seed", "9",
    ]
    assert main(args) == 0
    payload = json.loads((out / "ablation.json").read_text())
    assert set(payload["combos"]) == {"s1_d,s1_v", "s1_d+s2_d,s1_v"}
    # same seed -> both combos hide exactly the same cells, fold by fold
    assert len(hidden) == 6
    for fold in range(3):
        assert np.array_equal(hidden[fold], hidden[3 + fold])


def test_ablation_rejects_unknown_and_empty():
    names = (["s1_d", "s2_d"], ["s1_v"])
    with pytest.raises(ConfigError, match="unknown similarity"):
        _parse_combos([(["nope"], ["s1_v"])], *names)
    with pytest.raises(ConfigError, match="at least one drug and one virus"):
        _parse_combos([([], ["s1_v"])], *names)
    with pytest.raises(ConfigError, match="no combos given"):
        _parse_combos([], *names)
    with pytest.raises(ConfigError, match="^combo 's1_d' must be 'drugnames,virusnames'"):
        _parse_combos("s1_d,s1_v;s1_d", *names)
    # the default: each pair, then all combined, each side's names in order
    combos = _parse_combos(None, *names)
    assert list(combos) == ["s1_d,s1_v", "s2_d,s1_v", "s1_d+s2_d,s1_v"]
    assert combos["s1_d+s2_d,s1_v"] == (["s1_d", "s2_d"], ["s1_v"])
    assert combos["s2_d,s1_v"] == (["s2_d"], ["s1_v"])


@pytest.mark.parametrize(
    "bad, message",
    [
        ([[], ["s1_v"]], "each combo needs at least one drug and one virus similarity"),
        ([["s1_d"], []], "each combo needs at least one drug and one virus similarity"),
        (
            [["s1_d"], ["s9_v"]],
            "unknown similarity name(s) ['s9_v']; available: ['s1_d', 's1_v']",
        ),
        (
            [["s1_d", "s1_d"], ["s1_v"]],
            "combo 's1_d+s1_d,s1_v' names ['s1_d'] more than once on one side",
        ),
        ([["s1_d"], ["s1_v"]], "combo 's1_d,s1_v' is given twice"),
        (
            [["s1_d"], ["s1_v"], ["s1_v"]],
            "combo [['s1_d'], ['s1_v'], ['s1_v']] must pair drug names with virus names",
        ),
    ],
    ids=["empty-drug-side", "empty-virus-side", "unknown", "repeated", "twice", "three-sides"],
)
def test_ablation_checks_every_combo_before_the_first_fit(
    bundle, tmp_path, monkeypatch, caplog, bad, message
):
    def no_fit(*args, **kwargs):
        raise AssertionError("a combo was fitted before every combo was checked")

    def no_read(*args, **kwargs):
        raise AssertionError("every combo is checked before any input is read")

    monkeypatch.setattr("grdmf.evaluation.fit", no_fit)
    monkeypatch.setattr("grdmf.cli._sha256", no_read)
    monkeypatch.setattr("grdmf.cli.load_association_csv", no_read)
    cfg_path = tmp_path / "combos.json"
    cfg_path.write_text(json.dumps({"combos": [[["s1_d"], ["s1_v"]], bad]}))
    out = tmp_path / "ab-bad"
    args = [
        "ablation", *_base_args(bundle, out), "--folds", "3", "--repeats", "1",
        "--config", str(cfg_path),
    ]
    assert main(args) == 1
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] == [message]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_ablation_without_combos_fails_before_any_fit(
    bundle, tmp_path, monkeypatch, caplog, source
):
    def no_fit(*args, **kwargs):
        raise AssertionError("an empty combo list is rejected before any fit")

    def no_read(*args, **kwargs):
        raise AssertionError("an empty combo list is rejected before any input is read")

    monkeypatch.setattr("grdmf.evaluation.fit", no_fit)
    monkeypatch.setattr("grdmf.cli._sha256", no_read)
    monkeypatch.setattr("grdmf.cli.load_association_csv", no_read)
    out = tmp_path / "ab-none"
    args = ["ablation", *_base_args(bundle, out), "--folds", "3", "--repeats", "1"]
    if source == "flag":
        args += ["--combos", ";"]
    else:
        cfg_path = tmp_path / "combos.json"
        cfg_path.write_text(json.dumps({"combos": []}))
        args += ["--config", str(cfg_path)]
    assert main(args) == 1
    assert "no combos given" in caplog.text
    assert not (out / "ablation.json").exists()


def test_a_profile_is_named_alike_when_combos_are_checked_and_when_it_is_loaded(
    bundle, tmp_path, monkeypatch, caplog
):
    # beside one --drug-sim (s1_d), the drug profile's cosine similarity is s2_d
    def ablation(out, combos):
        return main([
            "ablation", *_base_args(bundle, out), "--drug-profile", bundle["drug_profile"],
            "--combos", combos, "--folds", "3", "--repeats", "1",
        ])

    calls = _count_laplacians(monkeypatch)
    out = tmp_path / "ab-profile"
    with pytest.warns(ZeroProfileWarning):  # the synthetic profile has all-zero rows
        assert ablation(out, "s2_d,s1_v") == 0
    assert list(json.loads((out / "ablation.json").read_text())["combos"]) == ["s2_d,s1_v"]
    drugs = load_association_csv(bundle["association"]).drugs
    with pytest.warns(ZeroProfileWarning):
        profile_sim = cosine_similarity(load_profile_csv(bundle["drug_profile"], drugs))
    assert len(calls[0]) == 1 and np.array_equal(calls[0][0], profile_sim)

    def no_read(*args, **kwargs):
        raise AssertionError("every combo is checked before any input is read")

    monkeypatch.setattr("grdmf.cli._sha256", no_read)
    monkeypatch.setattr("grdmf.cli.load_association_csv", no_read)
    out = tmp_path / "ab-profile-s3"
    assert ablation(out, "s3_d,s1_v") == 1
    assert _logged_errors(caplog) == [
        "unknown similarity name(s) ['s3_d']; available: ['s1_d', 's2_d', 's1_v']"
    ]
    assert not out.exists()


def test_ablation_with_another_scheme_fails_before_any_input_is_read(
    bundle, tmp_path, monkeypatch, caplog
):
    # ablation always hides entries; a config scheme would only swap in that
    # scheme's tuned hyperparameters and mislabel the report
    def no_read(*args, **kwargs):
        raise AssertionError("the scheme is rejected before any input is read")

    monkeypatch.setattr("grdmf.cli.load_association_csv", no_read)
    cfg_path = tmp_path / "viruses.json"
    cfg_path.write_text(json.dumps({"scheme": "viruses"}))
    out = tmp_path / "ab-viruses"
    args = [
        "ablation", *_base_args(bundle, out), "--folds", "3", "--repeats", "1",
        "--config", str(cfg_path),
    ]
    assert main(args) == 1
    assert "ablation hides entries only; got scheme 'viruses'" in caplog.text
    assert not (out / "ablation.json").exists()


@pytest.mark.parametrize("form", ["flag", "list", "dict"])
@pytest.mark.parametrize(
    "name", ["", "a+b", "a,b", "a;b"], ids=["empty", "plus", "comma", "semicolon"]
)
def test_similarity_names_that_break_combo_labels_fail_before_any_input_is_read(
    bundle, tmp_path, monkeypatch, caplog, form, name
):
    # beside a similarity 'c', 'a+b' would give the combo label 'a+b+c,s1_v',
    # which reads as three names, and no --combos spec could select it
    def no_read(*args, **kwargs):
        raise AssertionError("similarity names are checked before any input is read")

    monkeypatch.setattr("grdmf.cli._sha256", no_read)
    monkeypatch.setattr("grdmf.cli.load_association_csv", no_read)
    out = tmp_path / "ab-names"
    args = [
        "ablation", "--association", bundle["association"],
        "--virus-sim", bundle["virus_sim"], "--out", str(out),
        "--folds", "3", "--repeats", "1",
    ]
    named = {name: bundle["drug_sim"], "c": bundle["drug_sim"]}
    items = [f"{key}={path}" for key, path in named.items()]
    if form == "flag":
        for item in items:
            args += ["--drug-sim", item]
    else:
        cfg_path = tmp_path / "names.json"
        cfg_path.write_text(json.dumps({"drug_sims": items if form == "list" else named}))
        args += ["--config", str(cfg_path)]
    assert main(args) == 1
    assert f"similarity name {name!r} must be non-empty and contain no" in caplog.text
    assert not out.exists()


def test_a_similarity_name_given_twice_is_a_config_error():
    # the first path takes the default name s1_d, which the second then names
    with pytest.raises(ConfigError, match="^duplicate similarity name 's1_d'$"):
        _named_paths(["a.csv", "s1_d=b.csv"], "d")


# ---------------------------------------------------------------------------
# configuration resolution


def test_config_file_with_flag_override(bundle, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps(
            {
                "association": bundle["association"],
                "drug_sims": {"chem": bundle["drug_sim"]},
                "virus_sims": {"gen": bundle["virus_sim"]},
                "mu": 5.0,
                "theta": 1.0,
                "dims": [4, 2],
                "iters": 2,
                "out": str(tmp_path / "cfgout"),
            }
        )
    )
    out = tmp_path / "flagout"
    args = ["fit", "--config", str(cfg_path), "--mu", "0.1", "--out", str(out)]
    assert main(args) == 0
    header = (out / "trace.csv").read_text().splitlines()[0]
    embedded = json.loads(header[len("# config ") :])
    assert embedded["hyperparams"]["mu"] == 0.1  # flag beat the file
    assert embedded["hyperparams"]["theta"] == 1.0  # file value survived
    assert "chem" in embedded["drug_sims"]


def test_config_string_is_one_similarity_path(bundle, tmp_path):
    # a bare string is one path (or one NAME=PATH), never a list of characters
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps(
            {
                "drug_sims": bundle["drug_sim"],
                "virus_sims": f"gen={bundle['virus_sim']}",
            }
        )
    )
    out = tmp_path / "strout"
    args = [
        "fit", "--config", str(cfg_path), "--association", bundle["association"],
        "--dims", "4,2", "--iters", "1", "--out", str(out),
    ]
    assert main(args) == 0
    header = (out / "trace.csv").read_text().splitlines()[0]
    embedded = json.loads(header[len("# config ") :])
    assert embedded["drug_sims"] == {"s1_d": bundle["drug_sim"]}
    assert embedded["virus_sims"] == {"gen": bundle["virus_sim"]}


def test_missing_inputs_fail_with_nonzero_exit(bundle, tmp_path):
    # no association at all
    assert main(["fit", "--drug-sim", bundle["drug_sim"],
                 "--virus-sim", bundle["virus_sim"]]) == 1
    # association present but similarity side missing
    assert main(["fit", "--association", bundle["association"],
                 "--drug-sim", bundle["drug_sim"]]) == 1
    # nonexistent file path
    assert main(["fit", "--association", str(tmp_path / "ghost.csv"),
                 "--drug-sim", bundle["drug_sim"],
                 "--virus-sim", bundle["virus_sim"]]) == 1
    # unreadable config
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["fit", "--config", str(bad)]) == 1


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("cv", "--repeats", "0"),
        ("cv", "--repeats", "-2"),
        ("ablation", "--repeats", "0"),
        ("cv", "--seed", "-1"),
    ],
)
def test_repeats_and_seed_are_validated(bundle, tmp_path, caplog, command, flag, value):
    out = tmp_path / "bad"
    assert main([command, *_base_args(bundle, out), flag, value]) == 1
    assert f"{flag} must be" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--mu", "--theta"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_weights_are_config_errors(bundle, tmp_path, caplog, flag, value):
    # rejected by HyperParams, naming the key, before any fit starts
    out = tmp_path / "nonfinite"
    args = _base_args(bundle, out)
    args[args.index(flag) + 1] = value
    assert main(["fit", *args]) == 1
    assert f"bad hyperparameters: {flag[2:]} must be finite, got {value}" in caplog.text
    assert "iteration" not in caplog.text
    assert not out.exists()


def test_a_mu_that_overflows_the_graph_coefficient_names_mu(bundle, tmp_path, caplog):
    # finite, so HyperParams takes it; fit refuses it before iteration 0, with
    # no numpy warning (the suite turns warnings into errors)
    out = tmp_path / "huge-mu"
    args = _base_args(bundle, out)
    args[args.index("--mu") + 1] = "1e308"
    assert main(["fit", *args]) == 1
    assert "mu 1e+308 is too large for l_d: 2*mu*lambda_max is not finite" in caplog.text
    assert "iteration" not in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra, file_cfg, named",
    [
        ("cv", [], {"repeats": "abc"}, "repeats 'abc'"),
        ("fit", [], {"mu": "high"}, "mu 'high'"),
        ("fit", [], {"dims": ["a", 2]}, "dims ['a', 2]"),
        ("fit", [], [1, 2], "must hold a JSON object"),
        ("ablation", ["--folds", "2", "--repeats", "1"], {"combos": [1]}, "combos [1]"),
        ("cv", [], {"scheme": "loo", "ks": [None]}, "ks [None]"),
        ("cv", [], {"folds": True}, "folds True"),
        ("fit", [], {"p": 2.9}, "p 2.9"),
        ("fit", [], {"dims": [4.5, 2]}, "dims [4.5, 2]"),
        ("fit", [], {"mu": True}, "mu True"),
    ],
    ids=[
        "repeats", "mu", "dims", "top-level-list", "combos", "ks",
        "bool-int", "float-int", "float-dims", "bool-float",
    ],
)
def test_wrong_typed_config_values_fail_cleanly(
    bundle, tmp_path, caplog, command, extra, file_cfg, named
):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(file_cfg))
    out = tmp_path / "badcfg"
    args = [
        command, "--config", str(cfg_path),
        "--association", bundle["association"],
        "--drug-sim", bundle["drug_sim"],
        "--virus-sim", bundle["virus_sim"],
        "--iters", "1", "--out", str(out), *extra,
    ]
    assert main(args) == 1  # a ConfigError, not an escaping ValueError/TypeError
    assert named in caplog.text
    assert not out.exists()


def test_bad_similarity_cell_fails_cleanly(bundle, tmp_path, caplog):
    with open(bundle["drug_sim"], newline="") as handle:
        rows = list(csv.reader(handle))
    rows[2][3] = "nan"
    bad = tmp_path / "drug_sim_nan.csv"
    with open(bad, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    out = tmp_path / "badsim"
    args = [
        "fit",
        "--association", bundle["association"],
        "--drug-sim", str(bad),
        "--virus-sim", bundle["virus_sim"],
        "--dims", "4,2", "--iters", "2",
        "--out", str(out),
    ]
    assert main(args) == 1  # a ParseError, not an escaping ValueError
    assert f"{bad}:3: column 4" in caplog.text
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::grdmf.exceptions.ZeroProfileWarning")  # the virus profile
@pytest.mark.parametrize("case", ["fit-overflow", "ablation-overflow", "p-out-of-range"])
def test_a_refused_similarity_is_named_with_its_side_and_file(
    bundle, tmp_path, caplog, capsys, case
):
    # every cell is finite, and pairs past the float range average without
    # overflow; the degrees are not finite, and build_laplacian says so, with
    # no numpy warning (the suite turns warnings into errors)
    rows = _read_rows(bundle["drug_sim"])
    big = tmp_path / "drug_sim_big.csv"
    cells = np.array([row[1:] for row in rows[1:]], dtype=float)
    write_matrix_csv(big, [row[0] for row in rows[1:]], rows[0][1:], 1e308 * cells)
    out = tmp_path / "refused"
    args = _base_args(bundle, out)
    overflow = "similarity 0 is too large: its degrees or the summed Laplacian overflow"
    if case == "fit-overflow":
        args[args.index("--drug-sim") + 1] = str(big)
        argv = ["fit", *args]
        message = f"drug similarities [0] s1_d ({big}): {overflow}"
    elif case == "ablation-overflow":
        # the default combos fit s1_d,s1_v first; within the combo chem,s1_v
        # the refused similarity is number 0
        argv = ["ablation", *args, "--drug-sim", f"chem={big}", "--folds", "3", "--repeats", "1"]
        message = f"drug similarities [0] chem ({big}): {overflow}"
    else:
        # 8 neighbours fit the 12 drugs but not the 6 viruses; the profile's
        # cosine similarity is named s2_v and by its file
        args[args.index("--p") + 1] = "8"
        argv = ["fit", *args, "--virus-profile", bundle["virus_profile"]]
        listed = f"[0] s1_v ({bundle['virus_sim']}), [1] s2_v ({bundle['virus_profile']})"
        message = f"virus similarities {listed}: p=8 out of range [1, 5] for 6 entities"
    assert main(argv) == 1
    errors = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert [r.getMessage() for r in errors] == [message]
    assert errors[0].exc_info is None
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "predict", "cv", "ablation"])
def test_a_run_whose_fit_fails_leaves_no_out(
    bundle, tmp_path, monkeypatch, caplog, capsys, command
):
    # --out is made only once every fit of the command has succeeded
    def failing_fit(*args, **kwargs):
        raise SolverError("iteration 1 failed: ...")

    protocol = command in ("cv", "ablation")
    monkeypatch.setattr(f"grdmf.{'evaluation' if protocol else 'cli'}.fit", failing_fit)
    out = tmp_path / "runs" / command
    extra = ["--folds", "3", "--repeats", "1"] if protocol else []
    if command == "predict":
        extra = ["--virus", "virus003"]
    assert main([command, *_base_args(bundle, out), *extra]) == 1
    errors = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert [r.getMessage() for r in errors] == ["iteration 1 failed: ..."]
    assert errors[0].exc_info is None
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("flag", ["--association", "--drug-sim", "--drug-profile"])
def test_a_csv_with_a_header_and_no_data_rows_names_its_file(
    bundle, tmp_path, caplog, capsys, flag
):
    key = flag[2:].replace("-", "_")
    header = Path(bundle[key]).read_text().splitlines()[0]
    empty = tmp_path / f"{key}_header_only.csv"
    empty.write_text(f"# no rows below\n{header}\n")
    inputs = {
        "--association": bundle["association"],
        "--drug-sim": bundle["drug_sim"],
        "--virus-sim": bundle["virus_sim"],
        flag: str(empty),
    }
    args = [part for pair in inputs.items() for part in pair]
    out = tmp_path / "header_only"
    assert main(["fit", *args, "--dims", "4,2", "--iters", "1", "--out", str(out)]) == 1
    errors = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert [r.getMessage() for r in errors] == [f"{empty} contains no data rows"]
    assert errors[0].exc_info is None
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_registry_mismatch_names_its_file(bundle, tmp_path, caplog):
    # the second of two drug similarities renames one drug: the error names
    # that file, not just the mismatch
    renamed = tmp_path / "sim2.csv"
    text = Path(bundle["drug_sim"]).read_text()
    renamed.write_text(text.replace("drug003", "drugXYZ"))
    out = tmp_path / "mismatch"
    args = [
        "fit",
        "--association", bundle["association"],
        "--drug-sim", bundle["drug_sim"],
        "--drug-sim", str(renamed),
        "--virus-sim", bundle["virus_sim"],
        "--dims", "4,2", "--iters", "2",
        "--out", str(out),
    ]
    assert main(args) == 1
    assert (
        f"{renamed}: similarity names do not match the dataset registry; "
        "missing ['drug003'], unexpected ['drugXYZ']"
    ) in caplog.text
    assert not out.exists()


def test_undecodable_inputs_fail_cleanly(bundle, tmp_path, caplog):
    # a byte the text encoding rejects is a ParseError (CSV) or a ConfigError
    # (config file) naming the file, not an escaping UnicodeDecodeError
    bad_csv = tmp_path / "association.csv"
    raw = Path(bundle["association"]).read_bytes()
    bad_csv.write_bytes(raw.replace(b"drug001", b"drug\xff01", 1))
    bad_cfg = tmp_path / "run.json"
    bad_cfg.write_bytes(b'{"mu": 1\xff}')
    inputs = ["--drug-sim", bundle["drug_sim"], "--virus-sim", bundle["virus_sim"]]
    for args, named in [
        (["--association", str(bad_csv)], f"cannot read {bad_csv}"),
        (["--config", str(bad_cfg), "--association", bundle["association"]],
         f"config file {bad_cfg} is not valid JSON"),
    ]:
        out = tmp_path / "undecodable"
        assert main(["fit", *args, *inputs, "--iters", "1", "--out", str(out)]) == 1
        assert named in caplog.text
        assert "can't decode byte 0xff" in caplog.text
        assert not out.exists()


def test_scheme_defaults_reach_the_report(bundle, tmp_path):
    out = tmp_path / "defaults"
    args = [
        "cv",
        "--association", bundle["association"],
        "--drug-sim", bundle["drug_sim"],
        "--virus-sim", bundle["virus_sim"],
        "--scheme", "viruses", "--folds", "3", "--repeats", "1",
        "--dims", "4,2",  # dataset is too small for the stock widths
        "--iters", "2",
        "--out", str(out),
    ]
    assert main(args) == 0
    payload = json.loads((out / "metrics.json").read_text())
    hp = payload["config"]["hyperparams"]
    stock = DEFAULT_HYPERPARAMS[("viruses", 2)]
    assert hp["mu"] == stock["mu"]
    assert hp["theta"] == stock["theta"]
    assert hp["alpha"] == stock["alpha"]
    assert hp["p"] == stock["p"]


def test_stock_hyperparameter_table():
    # the tuned defaults ship with the package; spot-check the table itself
    assert DEFAULT_HYPERPARAMS[("entries", 2)] == dict(
        theta=1.0, mu=100.0, alpha=0.05, p=2, dims=(17, 15)
    )
    assert DEFAULT_HYPERPARAMS[("entries", 3)]["dims"] == (23, 10, 7)
    assert set(DEFAULT_HYPERPARAMS) == {
        (scheme, layers)
        for scheme in ("entries", "viruses", "drugs")
        for layers in (2, 3)
    }

