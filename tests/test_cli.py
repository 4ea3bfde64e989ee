"""End-to-end command-line tests on generated CSV bundles.

Everything runs through ``main(argv)`` against files in tmp_path, asserting
on exit codes and on the artifacts the commands leave behind.
"""

import csv
import json

import numpy as np
import pytest

from grdmf.cli import (
    DEFAULT_HYPERPARAMS,
    build_parser,
    main,
    predict_topk,
)
from grdmf.data import (
    SimilaritySet,
    align_similarity,
    load_association_csv,
    load_similarity_csv,
)
from grdmf.evaluation import run_cv, run_loocv
from grdmf.exceptions import (
    FoldSkippedWarning,
    TopKClampWarning,
    UnknownNameError,
    ZeroProfileWarning,
)
from grdmf.solver import FactorSet, FitResult, HyperParams, SolveTrace
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
    """The dataset, similarities and hyperparameters `_base_args` resolves to."""
    dataset = load_association_csv(bundle["association"])
    drug_sim = align_similarity(load_similarity_csv(bundle["drug_sim"]), dataset.drugs)
    virus_sim = align_similarity(load_similarity_csv(bundle["virus_sim"]), dataset.viruses)
    sims = SimilaritySet(drug={"s1_d": drug_sim}, virus={"s1_v": virus_sim})
    hp = HyperParams(mu=0.1, theta=1.0, alpha=0.5, dims=(4, 2), p=2, iters=2)
    return dataset, sims, hp


_MEAN_KEYS = ("auc", "aupr", "pre_at_k", "rec_at_k")


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
    # pipeline must warn about them and still complete the fit
    with pytest.warns(ZeroProfileWarning):
        assert main(args) == 0
    assert (out / "completed.csv").exists()


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


def test_predict_unknown_virus_fails_cleanly(bundle, tmp_path, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("the virus name is checked before any fit")

    monkeypatch.setattr("grdmf.cli.fit", no_fit)
    out = tmp_path / "predbad"
    args = ["predict", *_base_args(bundle, out), "--virus", "no-such-virus"]
    assert main(args) == 1
    assert not (out / "recommendations.csv").exists()


def test_predict_topk_unit_behaviour():
    x = np.array([[0.2, 0.9], [0.8, 0.1], [0.5, 0.5]])
    dataset_like = type(
        "D", (), {"drugs": ("a", "b", "c"), "viruses": ("v1", "v2")}
    )()
    result = FitResult(
        x=x,
        factors=FactorSet(u1=np.zeros((3, 1)), middles=[], v=np.zeros((1, 2))),
        trace=SolveTrace(loss=[0.0], floor_events=0, wall_time=0.0),
    )
    ranking = predict_topk(result, dataset_like, "v1", 2, training_positives={"b"})
    assert [e.drug for e in ranking.entries] == ["b", "c"]
    assert [e.known for e in ranking.entries] == [True, False]
    with pytest.warns(TopKClampWarning):
        full = predict_topk(result, dataset_like, "v1", 10)
    assert len(full.entries) == 3
    with pytest.raises(UnknownNameError):
        predict_topk(result, dataset_like, "v9", 2)


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
    dataset, sims, hp = _library_inputs(bundle)
    with pytest.warns(FoldSkippedWarning):
        report = run_cv(dataset, sims, "entries", hp, seed=1, folds=12).to_dict()
    assert payload["mean"] == {key: report[key] for key in _MEAN_KEYS}


def test_loo_means_are_the_library_report_means(bundle, tmp_path):
    dataset, sims, hp = _library_inputs(bundle)
    # a virus without positives is left out of the recall means, and
    # k=20 exceeds the 12 drugs, so it is clamped with a warning
    assert dataset.y[:, dataset.viruses.index("virus001")].sum() == 0
    assert len(dataset.drugs) < 20
    out = tmp_path / "loomean"
    with pytest.warns(TopKClampWarning):
        assert main(["cv", *_base_args(bundle, out), "--scheme", "loo", "--ks", "2,20"]) == 0
    payload = json.loads((out / "metrics.json").read_text())
    with pytest.warns(TopKClampWarning):
        report = run_loocv(dataset, sims, hp, ks=(2, 20)).to_dict()
    assert payload["mean"] == {key: report[key] for key in _MEAN_KEYS}
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


def test_ablation_unknown_combo_name_fails(bundle, tmp_path):
    out = tmp_path / "ab3"
    args = [
        "ablation", *_base_args(bundle, out),
        "--combos", "ghost,s1_v", "--folds", "3", "--repeats", "1",
    ]
    assert main(args) == 1
    assert not (out / "ablation.json").exists()


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


@pytest.mark.parametrize(
    "command, extra, file_cfg, named",
    [
        ("cv", [], {"repeats": "abc"}, "repeats 'abc'"),
        ("fit", [], {"mu": "high"}, "mu 'high'"),
        ("fit", [], {"dims": ["a", 2]}, "dims ['a', 2]"),
        ("fit", [], [1, 2], "must hold a JSON object"),
        ("ablation", ["--folds", "2", "--repeats", "1"], {"combos": [1]}, "combos [1]"),
        ("cv", [], {"scheme": "loo", "ks": [None]}, "ks [None]"),
    ],
    ids=["repeats", "mu", "dims", "top-level-list", "combos", "ks"],
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


def test_parser_rejects_unknown_scheme(bundle):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["cv", "--scheme", "bogus"])
