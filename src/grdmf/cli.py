"""Command-line interface: fit, predict, cv and ablation subcommands.

Every flag can also come from a JSON config file (``--config``); flags win
over the file, the file wins over the per-scheme defaults. Each emitted
report embeds the fully resolved configuration, including SHA-256 digests of
the input files, so a result can be traced back to its inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import (
    AssociationDataset,
    SimilaritySet,
    align_profile,
    align_similarity,
    load_association_csv,
    load_profile_csv,
    load_similarity_csv,
    write_matrix_csv,
)
from .evaluation import EvalReport, run_ablation, run_cv, run_loocv
from .exceptions import (
    ConfigError,
    GrdmfError,
    ParameterError,
    TopKClampWarning,
    UnknownNameError,
)
from .graphs import build_laplacian, cosine_similarity
from .solver import FitResult, HyperParams, fit

__all__ = [
    "RunConfig",
    "Recommendation",
    "RecommendationList",
    "predict_topk",
    "resolve_config",
    "main",
]

logger = logging.getLogger("grdmf")

#: tuned defaults per (evaluation scheme, factor depth)
DEFAULT_HYPERPARAMS: dict[tuple[str, int], dict] = {
    ("entries", 2): dict(theta=1.0, mu=100.0, alpha=0.05, p=2, dims=(17, 15)),
    ("viruses", 2): dict(theta=10.0, mu=50.0, alpha=0.01, p=2, dims=(20, 15)),
    ("drugs", 2): dict(theta=2.0, mu=10.0, alpha=0.1, p=5, dims=(17, 10)),
    ("entries", 3): dict(theta=1.0, mu=5.0, alpha=1.0, p=5, dims=(23, 10, 7)),
    ("viruses", 3): dict(theta=1.0, mu=0.01, alpha=1.0, p=5, dims=(20, 15, 10)),
    ("drugs", 3): dict(theta=2.0, mu=5.0, alpha=1.5, p=5, dims=(23, 10, 7)),
}

DEFAULT_ITERS = 10


@dataclass(frozen=True)
class Recommendation:
    rank: int
    drug: str
    score: float
    known: bool


@dataclass(frozen=True)
class RecommendationList:
    """Ranked drug recommendations for one virus."""

    virus: str
    entries: tuple[Recommendation, ...]


@dataclass
class RunConfig:
    """Fully resolved run configuration."""

    command: str
    association: Path
    drug_sims: dict[str, Path]
    virus_sims: dict[str, Path]
    drug_profile: Optional[Path]
    virus_profile: Optional[Path]
    hyperparams: HyperParams
    scheme: str
    folds: int
    repeats: int
    seed: int
    ks: tuple[int, ...]
    k: int
    virus: Optional[str]
    combos: Optional[list[tuple[list[str], list[str]]]]
    out: Path
    digests: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        hp = self.hyperparams
        return {
            "command": self.command,
            "association": str(self.association),
            "drug_sims": {k: str(v) for k, v in self.drug_sims.items()},
            "virus_sims": {k: str(v) for k, v in self.virus_sims.items()},
            "drug_profile": str(self.drug_profile) if self.drug_profile else None,
            "virus_profile": str(self.virus_profile) if self.virus_profile else None,
            "hyperparams": {
                "mu": hp.mu,
                "theta": hp.theta,
                "alpha": hp.alpha,
                "dims": list(hp.dims),
                "p": hp.p,
                "iters": hp.iters,
                "sigma": hp.sigma,
            },
            "scheme": self.scheme,
            "folds": self.folds,
            "repeats": self.repeats,
            "seed": self.seed,
            "ks": list(self.ks),
            "k": self.k,
            "virus": self.virus,
            "out": str(self.out),
            "digests": dict(sorted(self.digests.items())),
        }


def _virus_column(dataset: AssociationDataset, virus_name: str) -> int:
    if virus_name not in dataset.viruses:
        raise UnknownNameError(
            f"unknown virus {virus_name!r}; the dataset has {len(dataset.viruses)} viruses"
        )
    return dataset.viruses.index(virus_name)


def predict_topk(
    fit_result: FitResult,
    dataset: AssociationDataset,
    virus_name: str,
    k: int,
    training_positives: Optional[set] = None,
) -> RecommendationList:
    """Rank all drugs for one virus by completed score, highest first.

    Drugs already known positive in training stay in the ranking and are
    flagged via ``known``. Ties keep registry order; a ``k`` beyond the drug
    count returns the full ranking with a warning.
    """
    j = _virus_column(dataset, virus_name)
    if int(k) < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    k = int(k)
    scores = np.asarray(fit_result.x, dtype=float)[:, j]
    if k > scores.size:
        warnings.warn(
            f"k={k} exceeds the {scores.size} drugs; returning the full ranking",
            TopKClampWarning,
            stacklevel=2,
        )
        k = scores.size
    known = set(training_positives or ())
    order = np.argsort(-scores, kind="stable")[:k]
    entries = tuple(
        Recommendation(
            rank=i + 1,
            drug=dataset.drugs[idx],
            score=float(scores[idx]),
            known=dataset.drugs[idx] in known,
        )
        for i, idx in enumerate(order)
    )
    return RecommendationList(virus=virus_name, entries=entries)


# ---------------------------------------------------------------------------
# configuration resolution


def _int_tuple(value) -> tuple[int, ...]:
    """Integers from a "17,15" string or a list."""
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    return tuple(int(v) for v in value)


def _parse_combos(spec) -> list[tuple[list[str], list[str]]]:
    """Accept "s1_d,s1_v;s1_d+s2_d,s1_v" strings or [[...],[...]] pairs."""
    if isinstance(spec, str):
        combos = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(",")
            if len(parts) != 2:
                raise ConfigError(
                    f"combo {chunk!r} must be 'drugnames,virusnames' with '+' joining names"
                )
            combos.append(
                ([p.strip() for p in parts[0].split("+")],
                 [p.strip() for p in parts[1].split("+")])
            )
        if not combos:
            raise ConfigError("no combos given")
        return combos
    combos = []
    for pair in spec:
        if len(pair) != 2:
            raise ConfigError(f"combo {pair!r} must pair drug names with virus names")
        combos.append(([str(s) for s in pair[0]], [str(s) for s in pair[1]]))
    return combos


def _next_name(taken, suffix: str) -> str:
    """The first default name s1_d, s2_d, ... not in ``taken``."""
    counter = 1
    while f"s{counter}_{suffix}" in taken:
        counter += 1
    return f"s{counter}_{suffix}"


def _named_paths(items, suffix: str) -> dict[str, Path]:
    """Assign default names s1_d, s2_d, ... to unnamed similarity paths."""
    if isinstance(items, dict):
        return {str(name): Path(p) for name, p in items.items()}
    out: dict[str, Path] = {}
    for item in items or []:
        if "=" in str(item):
            name, _, path = str(item).partition("=")
            name = name.strip()
        else:
            name, path = _next_name(out, suffix), str(item)
        if name in out:
            raise ConfigError(f"duplicate similarity name {name!r}")
        out[name] = Path(path)
    return out


def _path_or_none(value) -> Optional[Path]:
    return Path(value) if value else None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge per-scheme defaults, the config file and command-line flags."""
    file_cfg: dict = {}
    if getattr(args, "config", None):
        config_path = Path(args.config)
        if not config_path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        try:
            file_cfg = json.loads(config_path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(
                f"config file {config_path} must hold a JSON object, "
                f"got {type(file_cfg).__name__}"
            )

    def pick(flag: str, key: str, default=None, convert=str):
        """The flag, else the file's value, else ``default``, through ``convert``;
        an optional input (``default`` None) that was not given stays None."""
        value = getattr(args, flag, None)
        if value is None:
            value = file_cfg.get(key, default)
        if value is None and default is None:
            return None
        try:
            return convert(value)
        except GrdmfError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"cannot parse {key} {value!r}: {exc}") from exc

    command = args.command
    scheme = pick("scheme", "scheme", "entries")
    if scheme not in ("entries", "viruses", "drugs", "loo"):
        raise ConfigError(
            f"scheme must be one of entries, viruses, drugs, loo; got {scheme!r}"
        )

    dims = pick("dims", "dims", convert=_int_tuple)
    layers = pick("layers", "layers", 2, int) if dims is None else len(dims)
    default_key = ("entries" if scheme == "loo" else scheme, layers)
    if default_key not in DEFAULT_HYPERPARAMS:
        raise ConfigError(f"no defaults for {layers} layers; supply --dims")
    hp_defaults = DEFAULT_HYPERPARAMS[default_key]

    try:
        hyperparams = HyperParams(
            mu=pick("mu", "mu", hp_defaults["mu"], float),
            theta=pick("theta", "theta", hp_defaults["theta"], float),
            alpha=pick("alpha", "alpha", hp_defaults["alpha"], float),
            dims=dims if dims is not None else hp_defaults["dims"],
            p=pick("p", "p", hp_defaults["p"], int),
            iters=pick("iters", "iters", DEFAULT_ITERS, int),
        )
    except ParameterError as exc:
        raise ConfigError(f"bad hyperparameters: {exc}") from exc

    association = pick("association", "association", convert=Path)
    if association is None:
        raise ConfigError("an association matrix is required (--association)")

    drug_sims = pick("drug_sim", "drug_sims", [], lambda v: _named_paths(v, "d"))
    virus_sims = pick("virus_sim", "virus_sims", [], lambda v: _named_paths(v, "v"))
    drug_profile = pick("drug_profile", "drug_profile", convert=_path_or_none)
    virus_profile = pick("virus_profile", "virus_profile", convert=_path_or_none)
    if not drug_sims and drug_profile is None:
        raise ConfigError("at least one drug-side similarity or profile is required")
    if not virus_sims and virus_profile is None:
        raise ConfigError("at least one virus-side similarity or profile is required")

    combos = pick("combos", "combos", convert=_parse_combos)

    virus = pick("virus", "virus") or None
    if command == "predict" and not virus:
        raise ConfigError("predict needs a virus name (--virus)")

    repeats = pick("repeats", "repeats", 10, int)
    if repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {repeats}")
    seed = pick("seed", "seed", 0, int)
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")

    cfg = RunConfig(
        command=command,
        association=association,
        drug_sims=drug_sims,
        virus_sims=virus_sims,
        drug_profile=drug_profile,
        virus_profile=virus_profile,
        hyperparams=hyperparams,
        scheme=scheme,
        folds=pick("folds", "folds", 10, int),
        repeats=repeats,
        seed=seed,
        ks=pick("ks", "ks", (3, 5, 7), _int_tuple),
        k=pick("k", "k", 10, int),
        virus=virus,
        combos=combos,
        out=pick("out", "out", "grdmf_out", Path),
    )

    referenced = [cfg.association, *cfg.drug_sims.values(), *cfg.virus_sims.values()]
    referenced += [p for p in (cfg.drug_profile, cfg.virus_profile) if p]
    for path in referenced:
        if not path.is_file():
            raise ConfigError(f"input file not found: {path}")
    cfg.digests = {str(path): _sha256(path) for path in referenced}
    return cfg


def _load_inputs(cfg: RunConfig) -> tuple[AssociationDataset, SimilaritySet]:
    """Parse every referenced file and align it to the dataset registries."""
    dataset = load_association_csv(cfg.association)
    drug: dict[str, np.ndarray] = {}
    for name, path in cfg.drug_sims.items():
        drug[name] = align_similarity(load_similarity_csv(path), dataset.drugs)
    if cfg.drug_profile is not None:
        indicator = align_profile(load_profile_csv(cfg.drug_profile), dataset.drugs)
        drug[_next_name(drug, "d")] = cosine_similarity(indicator)
    virus: dict[str, np.ndarray] = {}
    for name, path in cfg.virus_sims.items():
        virus[name] = align_similarity(load_similarity_csv(path), dataset.viruses)
    if cfg.virus_profile is not None:
        indicator = align_profile(load_profile_csv(cfg.virus_profile), dataset.viruses)
        virus[_next_name(virus, "v")] = cosine_similarity(indicator)
    logger.info(
        "inputs: %d drugs, %d viruses, %d drug-side and %d virus-side similarities",
        len(dataset.drugs), len(dataset.viruses), len(drug), len(virus),
    )
    return dataset, SimilaritySet(drug=drug, virus=virus)


# ---------------------------------------------------------------------------
# subcommands


def _config_comment(cfg: RunConfig) -> str:
    return "config " + json.dumps(cfg.to_dict(), sort_keys=True)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _full_fit(cfg: RunConfig, dataset: AssociationDataset, sims: SimilaritySet) -> FitResult:
    hp = cfg.hyperparams
    l_d = build_laplacian(list(sims.drug.values()), hp.p)
    l_v = build_laplacian(list(sims.virus.values()), hp.p)
    mask = np.ones_like(dataset.y)
    return fit(dataset.y, mask, l_d, l_v, hp)


def _latent_names(count: int, stem: str) -> list[str]:
    return [f"{stem}{i}" for i in range(count)]


def cmd_fit(cfg: RunConfig, dataset: AssociationDataset, sims: SimilaritySet) -> int:
    result = _full_fit(cfg, dataset, sims)
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    comment = [_config_comment(cfg)]
    write_matrix_csv(
        out / "completed.csv", dataset.drugs, dataset.viruses, result.x, comment
    )
    chain = [result.factors.u1, *result.factors.middles, result.factors.v]
    names = ["u1"] + [f"u{i + 2}" for i in range(len(result.factors.middles))] + ["v"]
    for name, factor in zip(names, chain):
        rows = dataset.drugs if name == "u1" else _latent_names(factor.shape[0], "k")
        cols = dataset.viruses if name == "v" else _latent_names(factor.shape[1], "k")
        write_matrix_csv(out / f"factor_{name}.csv", rows, cols, factor, comment)
    with (out / "trace.csv").open("w") as handle:
        handle.write(f"# {comment[0]}\n")
        handle.write("iteration,loss\n")
        for i, value in enumerate(result.trace.loss):
            handle.write(f"{i},{value!r}\n")
    logger.info(
        "fit finished: loss %.6g -> %.6g in %d iterations (%.3f s, %d floored eigenvalues)",
        result.trace.loss[0], result.trace.loss[-1],
        cfg.hyperparams.iters, result.trace.wall_time, result.trace.floor_events,
    )
    print(out / "completed.csv")
    return 0


def cmd_predict(cfg: RunConfig, dataset: AssociationDataset, sims: SimilaritySet) -> int:
    j = _virus_column(dataset, cfg.virus)  # before the fit, which is the costly part
    positives = {dataset.drugs[i] for i in np.flatnonzero(dataset.y[:, j] == 1.0)}
    result = _full_fit(cfg, dataset, sims)
    ranking = predict_topk(result, dataset, cfg.virus, cfg.k, positives)
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    path = out / "recommendations.csv"
    with path.open("w") as handle:
        handle.write(f"# {_config_comment(cfg)}\n")
        handle.write("rank,drug,score,known\n")
        for entry in ranking.entries:
            handle.write(
                f"{entry.rank},{entry.drug},{entry.score!r},{int(entry.known)}\n"
            )
    for entry in ranking.entries:
        marker = "*" if entry.known else " "
        print(f"{entry.rank:3d} {marker} {entry.drug}  {entry.score:.6f}")
    return 0


def _merged_cv_payload(reports: list[EvalReport]) -> dict:
    """Folds, notes and means of several runs, aggregated as one report."""
    folds = [f for report in reports for f in report.per_fold]
    notes = [note for report in reports for note in report.notes]
    merged = EvalReport.from_folds(reports[0].scheme, None, folds, notes).to_dict()
    mean = {key: merged[key] for key in ("auc", "aupr", "pre_at_k", "rec_at_k")}
    return {"folds": merged["folds"], "mean": mean, "notes": merged["notes"]}


def cmd_cv(cfg: RunConfig, dataset: AssociationDataset, sims: SimilaritySet) -> int:
    hp = cfg.hyperparams
    if cfg.scheme == "loo":
        reports = [run_loocv(dataset, sims, hp, ks=cfg.ks)]
        seeds: list[int] = []
    else:
        seeds = [cfg.seed + i for i in range(cfg.repeats)]
        reports = [
            run_cv(dataset, sims, cfg.scheme, hp, seed=s, folds=cfg.folds)
            for s in seeds
        ]
    payload = {
        "config": cfg.to_dict(),
        "scheme": cfg.scheme,
        "seeds": seeds,
        **_merged_cv_payload(reports),
    }
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = cfg.out / "metrics.json"
    _write_json(path, payload)
    mean = payload["mean"]
    logger.info("cv %s: mean AUC %s, mean AUPR %s", cfg.scheme, mean["auc"], mean["aupr"])
    print(path)
    return 0


def _default_combos(sims: SimilaritySet) -> list[tuple[list[str], list[str]]]:
    """Every single (drug, virus) similarity pair, plus everything combined."""
    drug_names = list(sims.drug)
    virus_names = list(sims.virus)
    combos: list[tuple[list[str], list[str]]] = [
        ([d], [v]) for d in drug_names for v in virus_names
    ]
    if len(drug_names) > 1 or len(virus_names) > 1:
        combos.append((drug_names, virus_names))
    return combos


def cmd_ablation(cfg: RunConfig, dataset: AssociationDataset, sims: SimilaritySet) -> int:
    combos = cfg.combos if cfg.combos is not None else _default_combos(sims)
    seeds = [cfg.seed + i for i in range(cfg.repeats)]
    merged: dict[str, list[EvalReport]] = {}
    for seed in seeds:
        reports = run_ablation(
            dataset, sims, combos, cfg.hyperparams, seed=seed, folds=cfg.folds
        )
        for label, report in reports.items():
            merged.setdefault(label, []).append(report)
    combo_payload = {label: _merged_cv_payload(runs) for label, runs in merged.items()}
    payload = {
        "config": cfg.to_dict(),
        "scheme": "entries",
        "seeds": seeds,
        "combos": combo_payload,
    }
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = cfg.out / "ablation.json"
    _write_json(path, payload)
    for label, entry in combo_payload.items():
        logger.info("ablation %s: mean AUC %s", label, entry["mean"]["auc"])
    print(path)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grdmf",
        description="Multi-graph regularized deep matrix factorization "
        "for binary association-matrix completion.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--association", help="association matrix CSV")
        p.add_argument(
            "--drug-sim", action="append", dest="drug_sim", metavar="[NAME=]PATH",
            help="drug-side similarity CSV, repeatable; default names s1_d, s2_d, ...",
        )
        p.add_argument(
            "--virus-sim", action="append", dest="virus_sim", metavar="[NAME=]PATH",
            help="virus-side similarity CSV, repeatable; default names s1_v, s2_v, ...",
        )
        p.add_argument(
            "--drug-profile", dest="drug_profile",
            help="binary drug feature profile CSV; converted to a cosine similarity",
        )
        p.add_argument(
            "--virus-profile", dest="virus_profile",
            help="binary virus feature profile CSV; converted to a cosine similarity",
        )
        p.add_argument("--theta", type=float, help="coupling weight, > 0")
        p.add_argument("--mu", type=float, help="graph regularization weight, >= 0")
        p.add_argument("--alpha", type=float, help="relaxation step in (0, 2)")
        p.add_argument("--p", type=int, help="neighbours kept per row when sparsifying")
        p.add_argument("--dims", help="factor dimensions, e.g. 17,15 or 23,10,7")
        p.add_argument("--layers", type=int, choices=(2, 3), help="factor depth for defaults")
        p.add_argument("--iters", type=int, help="outer iterations")
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--out", help="output directory")

    p_fit = sub.add_parser("fit", help="fit on all observed data, emit the completed matrix")
    add_common(p_fit)

    p_predict = sub.add_parser("predict", help="rank drugs for one virus")
    add_common(p_predict)
    p_predict.add_argument("--virus", help="virus name to rank drugs for")
    p_predict.add_argument("--k", type=int, help="number of recommendations (default 10)")

    p_cv = sub.add_parser("cv", help="cross-validate under a hiding scheme")
    add_common(p_cv)
    p_cv.add_argument(
        "--scheme", choices=("entries", "viruses", "drugs", "loo"),
        help="what to hide per fold (default entries)",
    )
    p_cv.add_argument("--folds", type=int, help="fold count (default 10)")
    p_cv.add_argument("--repeats", type=int, help="repetitions with derived seeds (default 10)")
    p_cv.add_argument("--ks", help="cutoffs for loo Pre@k/Rec@k, e.g. 3,5,7")

    p_ab = sub.add_parser("ablation", help="compare similarity-source combinations")
    add_common(p_ab)
    p_ab.add_argument(
        "--combos",
        help="semicolon-separated combos 'DRUGS,VIRUSES' with '+' joining names, "
        "e.g. 's1_d,s1_v;s1_d+s2_d,s1_v+s2_v' (default: each pair, then all combined)",
    )
    p_ab.add_argument("--folds", type=int, help="fold count (default 10)")
    p_ab.add_argument("--repeats", type=int, help="repetitions with derived seeds (default 10)")

    return parser


_COMMANDS = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "cv": cmd_cv,
    "ablation": cmd_ablation,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        cfg = resolve_config(args)
        dataset, sims = _load_inputs(cfg)
        return _COMMANDS[args.command](cfg, dataset, sims)
    except GrdmfError as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
