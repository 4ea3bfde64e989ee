"""Command-line interface: fit, predict, cv and ablation subcommands.

Every flag can also come from a JSON config file (``--config``); flags win
over the file, the file wins over the per-scheme defaults. Each emitted
report embeds the fully resolved configuration, including SHA-256 digests of
the input files, so a result can be traced back to its inputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import (
    AssociationDataset,
    load_association_csv,
    load_profile_csv,
    load_similarity_csv,
    write_matrix_csv,
)
from .evaluation import _top_k, run_cv, run_loocv
from .exceptions import ConfigError, GrdmfError, ParameterError
from .graphs import build_laplacian, cosine_similarity
from .linalg import _integer, _real
from .solver import FitResult, HyperParams, fit

__all__ = [
    "RunConfig",
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

Sims = tuple[dict[str, np.ndarray], dict[str, np.ndarray]]  #: (drug, virus) similarities by name
Combo = tuple[list[str], list[str]]  #: (drug, virus) similarity names


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
    combos: dict[str, Combo]
    out: Path
    digests: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field but ``combos``, as JSON values: paths become strings."""
        values = asdict(self)
        del values["combos"]
        return json.loads(json.dumps(values, default=os.fspath))


# ---------------------------------------------------------------------------
# configuration resolution


def _int_tuple(value) -> tuple[int, ...]:
    """Integers from a "17,15" string or a list."""
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    return tuple(_integer(v) for v in value)


def _combo_side(side) -> list[str]:
    """Similarity names from a "s1_d+s2_d" string or from a list of names."""
    if isinstance(side, str):
        return [name.strip() for name in side.split("+")]
    return [str(name) for name in side]


def _parse_combos(spec, drug_names: list[str], virus_names: list[str]) -> dict[str, Combo]:
    """Each combo's names under its label "s1_d+s2_d,s1_v", from a
    "s1_d,s1_v;s1_d+s2_d,s1_v" string or [[...],[...]] pairs; None means each
    single pair, then all combined when a side has more than one. No combos, an
    empty side, an unknown name, a name repeated on one side and a label given
    twice are each a :class:`ConfigError`."""
    if spec is None:
        spec = [([d], [v]) for d in drug_names for v in virus_names]
        if len(drug_names) > 1 or len(virus_names) > 1:
            spec.append((drug_names, virus_names))
    elif isinstance(spec, str):
        chunks = [chunk.strip() for chunk in spec.split(";") if chunk.strip()]
        for chunk in chunks:
            if chunk.count(",") != 1:
                raise ConfigError(
                    f"combo {chunk!r} must be 'drugnames,virusnames' with '+' joining names"
                )
        spec = [chunk.split(",") for chunk in chunks]
    combos: dict[str, Combo] = {}
    for pair in spec:
        if len(pair) != 2:
            raise ConfigError(f"combo {pair!r} must pair drug names with virus names")
        drugs, viruses = _combo_side(pair[0]), _combo_side(pair[1])
        if not drugs or not viruses:
            raise ConfigError("each combo needs at least one drug and one virus similarity")
        unknown = [nm for nm in drugs if nm not in drug_names]
        unknown += [nm for nm in viruses if nm not in virus_names]
        if unknown:
            known = sorted(drug_names) + sorted(virus_names)
            raise ConfigError(f"unknown similarity name(s) {unknown}; available: {known}")
        label = "+".join(drugs) + "," + "+".join(viruses)
        repeated = sorted(
            {nm for names in (drugs, viruses) for nm in names if names.count(nm) > 1}
        )
        if repeated:
            raise ConfigError(f"combo {label!r} names {repeated} more than once on one side")
        if label in combos:
            raise ConfigError(f"combo {label!r} is given twice")
        combos[label] = (drugs, viruses)
    if not combos:
        raise ConfigError("no combos given")
    return combos


def _next_name(taken, suffix: str) -> str:
    """The first default name s1_d, s2_d, ... not in ``taken``."""
    counter = 1
    while f"s{counter}_{suffix}" in taken:
        counter += 1
    return f"s{counter}_{suffix}"


def _side_files(
    paths: dict[str, Path], profile: Optional[Path], suffix: str
) -> dict[str, Path]:
    """A side's files by similarity name: its named paths, then its profile
    under the side's next default name, which its cosine similarity is keyed by."""
    return {**paths, _next_name(paths, suffix): profile} if profile is not None else paths


def _sim_name(name: str) -> str:
    """A similarity name a combo label can carry: non-empty, and free of the
    '+', ',' and ';' that join names, sides and combos."""
    if not name or any(sep in name for sep in "+,;"):
        raise ConfigError(
            f"similarity name {name!r} must be non-empty and contain no '+', ',' or ';'"
        )
    return name


def _named_paths(items, suffix: str) -> dict[str, Path]:
    """Assign default names s1_d, s2_d, ... to unnamed paths; a string is one path."""
    if isinstance(items, dict):
        return {_sim_name(str(name)): Path(p) for name, p in items.items()}
    out: dict[str, Path] = {}
    for item in [items] if isinstance(items, str) else items or []:
        if "=" in str(item):
            name, _, path = str(item).partition("=")
            name = _sim_name(name.strip())
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
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(
                f"config file {config_path} must hold a JSON object, "
                f"got {type(file_cfg).__name__}"
            )

    def pick(key: str, default=None, convert=str):
        """The flag, else the file's value, else ``default``, through one ``convert``
        for both; an optional input (``default`` None) that was not given stays None."""
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key, default)
        if value is None and default is None:
            return None
        try:
            return convert(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"cannot parse {key} {value!r}: {exc}") from exc

    command = args.command
    scheme = pick("scheme", "entries")
    if scheme not in ("entries", "viruses", "drugs", "loo"):
        raise ConfigError(
            f"scheme must be one of entries, viruses, drugs, loo; got {scheme!r}"
        )
    if command == "ablation" and scheme != "entries":
        raise ConfigError(f"ablation hides entries only; got scheme {scheme!r}")

    dims = pick("dims", convert=_int_tuple)
    layers = pick("layers", convert=_integer)
    if layers not in (None, 2, 3):
        raise ConfigError(f"layers must be 2 or 3, got {layers}")
    if layers is None:
        layers = 2 if dims is None else len(dims)
    elif dims is not None and layers != len(dims):
        raise ConfigError(
            f"layers {layers} disagrees with dims {dims}, which has {len(dims)} entries"
        )
    default_key = ("entries" if scheme == "loo" else scheme, layers)
    if default_key not in DEFAULT_HYPERPARAMS:
        raise ConfigError(f"bad hyperparameters: dims must have 2 or 3 entries, got {dims}")
    hp_defaults = DEFAULT_HYPERPARAMS[default_key]

    try:
        hyperparams = HyperParams(
            mu=pick("mu", hp_defaults["mu"], _real),
            theta=pick("theta", hp_defaults["theta"], _real),
            alpha=pick("alpha", hp_defaults["alpha"], _real),
            dims=dims if dims is not None else hp_defaults["dims"],
            p=pick("p", hp_defaults["p"], _integer),
            iters=pick("iters", DEFAULT_ITERS, _integer),
        )
    except ParameterError as exc:
        raise ConfigError(f"bad hyperparameters: {exc}") from exc

    association = pick("association", convert=Path)
    if association is None:
        raise ConfigError("an association matrix is required (--association)")

    drug_sims = pick("drug_sims", [], lambda v: _named_paths(v, "d"))
    virus_sims = pick("virus_sims", [], lambda v: _named_paths(v, "v"))
    drug_profile = pick("drug_profile", convert=_path_or_none)
    virus_profile = pick("virus_profile", convert=_path_or_none)
    if not drug_sims and drug_profile is None:
        raise ConfigError("at least one drug-side similarity or profile is required")
    if not virus_sims and virus_profile is None:
        raise ConfigError("at least one virus-side similarity or profile is required")

    names = (list(_side_files(drug_sims, drug_profile, "d")),
             list(_side_files(virus_sims, virus_profile, "v")))
    combos = pick("combos", convert=lambda spec: _parse_combos(spec, *names))
    if combos is None:
        combos = _parse_combos(None, *names)

    virus = pick("virus") or None
    if command == "predict" and not virus:
        raise ConfigError("predict needs a virus name (--virus)")

    # each count's default and least value; the upper bound on folds depends
    # on the data, so split_folds checks it
    counts = {}
    for key, default, least in ("repeats", 10, 1), ("seed", 0, 0), ("k", 10, 1), ("folds", 10, 2):
        counts[key] = pick(key, default, _integer)
        if counts[key] < least:
            raise ConfigError(f"--{key} must be >= {least}, got {counts[key]}")
    ks = pick("ks", (3, 5, 7), _int_tuple)
    if not ks:
        raise ConfigError("--ks needs at least one cutoff")
    if any(cutoff < 1 for cutoff in ks):
        raise ConfigError(f"--ks cutoffs must be >= 1, got {list(ks)}")

    cfg = RunConfig(
        command=command,
        association=association,
        drug_sims=drug_sims,
        virus_sims=virus_sims,
        drug_profile=drug_profile,
        virus_profile=virus_profile,
        hyperparams=hyperparams,
        scheme=scheme,
        ks=ks,
        **counts,
        virus=virus,
        combos=combos,
        out=pick("out", "grdmf_out", Path),
    )

    # each command makes its own output directory, but one that cannot be
    # made fails here, before any input is read or any fit runs
    for path in (cfg.out, *cfg.out.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"output {cfg.out}: {path} is not a directory")
            break

    referenced = [cfg.association, *cfg.drug_sims.values(), *cfg.virus_sims.values()]
    referenced += [p for p in (cfg.drug_profile, cfg.virus_profile) if p]
    for path in referenced:
        if not path.is_file():
            raise ConfigError(f"input file not found: {path}")
    cfg.digests = {str(path): _sha256(path) for path in referenced}
    return cfg


def _load_side(
    paths: dict[str, Path], profile: Optional[Path], registry: list[str], suffix: str
) -> dict[str, np.ndarray]:
    """One side's similarities, in ``registry`` order, under the names of its
    :func:`_side_files`: each named CSV, then the profile's cosine similarity."""
    sources = [load_similarity_csv(path, registry) for path in paths.values()]
    if profile is not None:
        sources.append(cosine_similarity(load_profile_csv(profile, registry)))
    return dict(zip(_side_files(paths, profile, suffix), sources))


def _load_inputs(cfg: RunConfig) -> tuple[AssociationDataset, Sims]:
    """Parse every referenced file in the dataset registries' order."""
    dataset = load_association_csv(cfg.association)
    drug = _load_side(cfg.drug_sims, cfg.drug_profile, dataset.drugs, "d")
    virus = _load_side(cfg.virus_sims, cfg.virus_profile, dataset.viruses, "v")
    logger.info(
        "inputs: %d drugs, %d viruses, %d drug-side and %d virus-side similarities",
        len(dataset.drugs), len(dataset.viruses), len(drug), len(virus),
    )
    return dataset, (drug, virus)


# ---------------------------------------------------------------------------
# subcommands


def _config_comment(cfg: RunConfig) -> str:
    return "config " + json.dumps(cfg.to_dict(), sort_keys=True)


def _artifact(cfg: RunConfig, name: str) -> Path:
    """The path of artifact ``name``, after making ``--out``: a command asks for
    its first artifact only once its fits have succeeded."""
    cfg.out.mkdir(parents=True, exist_ok=True)
    return cfg.out / name


def _write_report(cfg: RunConfig, name: str, seeds: list[int], body: dict) -> int:
    """Write a protocol's JSON report under its config, scheme and seeds, and
    print its path."""
    path = _artifact(cfg, name)
    payload = {"config": cfg.to_dict(), "scheme": cfg.scheme, "seeds": seeds, **body}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


def _laplacians(cfg: RunConfig, sims: Sims, combo: Optional[Combo] = None) -> list[np.ndarray]:
    """Each side's summed graph Laplacian, drug side first: the CLI's one graph
    step. ``combo`` names each side's similarities; None takes them all. A
    refusal names the side and each similarity it counts, with its file."""
    files = (_side_files(cfg.drug_sims, cfg.drug_profile, "d"),
             _side_files(cfg.virus_sims, cfg.virus_profile, "v"))
    laplacians = []
    for side, named, names, paths in zip(("drug", "virus"), sims, combo or sims, files):
        try:
            laplacians.append(build_laplacian([named[name] for name in names], cfg.hyperparams.p))
        except ParameterError as exc:
            listed = ", ".join(f"[{i}] {name} ({paths[name]})" for i, name in enumerate(names))
            raise ConfigError(f"{side} similarities {listed}: {exc}") from exc
    return laplacians


def _full_fit(cfg: RunConfig, dataset: AssociationDataset, sims: Sims) -> FitResult:
    mask = np.ones_like(dataset.y)
    return fit(dataset.y, mask, *_laplacians(cfg, sims), cfg.hyperparams)


def _latent_names(count: int, stem: str) -> list[str]:
    return [f"{stem}{i}" for i in range(count)]


def cmd_fit(cfg: RunConfig, dataset: AssociationDataset, sims: Sims) -> int:
    result = _full_fit(cfg, dataset, sims)
    comment = [_config_comment(cfg)]
    completed = _artifact(cfg, "completed.csv")
    write_matrix_csv(completed, dataset.drugs, dataset.viruses, result.x, comment)
    names = ["u1", *(f"u{i}" for i in range(2, len(result.factors))), "v"]
    for name, factor in zip(names, result.factors):
        rows = dataset.drugs if name == "u1" else _latent_names(factor.shape[0], "k")
        cols = dataset.viruses if name == "v" else _latent_names(factor.shape[1], "k")
        write_matrix_csv(_artifact(cfg, f"factor_{name}.csv"), rows, cols, factor, comment)
    with _artifact(cfg, "trace.csv").open("w") as handle:
        handle.write(f"# {comment[0]}\n")
        handle.write("iteration,loss\n")
        for i, value in enumerate(result.trace.loss):
            handle.write(f"{i},{value!r}\n")
    logger.info(
        "fit finished: loss %.6g -> %.6g in %d iterations (%.3f s, %d floored eigenvalues)",
        result.trace.loss[0], result.trace.loss[-1],
        cfg.hyperparams.iters, result.trace.wall_time, result.trace.floor_events,
    )
    print(completed)
    return 0


def cmd_predict(cfg: RunConfig, dataset: AssociationDataset, sims: Sims) -> int:
    if cfg.virus not in dataset.viruses:  # before the fit, which is the costly part
        raise ConfigError(
            f"unknown virus {cfg.virus!r}; the dataset has {len(dataset.viruses)} viruses"
        )
    j = dataset.viruses.index(cfg.virus)
    known = dataset.y[:, j] == 1.0
    scores = _full_fit(cfg, dataset, sims).x[:, j]
    order = _top_k(scores, cfg.k)
    with _artifact(cfg, "recommendations.csv").open("w", newline="") as handle:
        handle.write(f"# {_config_comment(cfg)}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["rank", "drug", "score", "known"])
        for rank, i in enumerate(order, 1):
            writer.writerow([rank, dataset.drugs[i], repr(float(scores[i])), int(known[i])])
    for rank, i in enumerate(order, 1):
        marker = "*" if known[i] else " "
        print(f"{rank:3d} {marker} {dataset.drugs[i]}  {scores[i]:.6f}")
    return 0


def cmd_cv(cfg: RunConfig, dataset: AssociationDataset, sims: Sims) -> int:
    hp = cfg.hyperparams
    l_d, l_v = _laplacians(cfg, sims)
    if cfg.scheme == "loo":
        seeds = []
        report = run_loocv(dataset, l_d, l_v, hp, ks=cfg.ks)
    else:
        seeds = list(range(cfg.seed, cfg.seed + cfg.repeats))
        report = run_cv(dataset, l_d, l_v, cfg.scheme, hp, seeds=seeds, folds=cfg.folds)
    logger.info("cv %s: mean AUC %s, mean AUPR %s", cfg.scheme, report.auc, report.aupr)
    return _write_report(cfg, "metrics.json", seeds, report.to_dict())


def cmd_ablation(cfg: RunConfig, dataset: AssociationDataset, sims: Sims) -> int:
    hp = cfg.hyperparams
    # one seed list for every combo, so the folds match and only the graphs differ
    seeds = list(range(cfg.seed, cfg.seed + cfg.repeats))
    reports = {}
    for label, combo in cfg.combos.items():
        l_d, l_v = _laplacians(cfg, sims, combo)
        reports[label] = run_cv(dataset, l_d, l_v, "entries", hp, seeds=seeds, folds=cfg.folds)
    for label, report in reports.items():
        logger.info("ablation %s: mean AUC %s", label, report.auc)
    combos = {label: report.to_dict() for label, report in reports.items()}
    return _write_report(cfg, "ablation.json", seeds, {"combos": combos})


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
            "--drug-sim", action="append", dest="drug_sims", metavar="[NAME=]PATH",
            help="drug-side similarity CSV, repeatable; default names s1_d, s2_d, ...",
        )
        p.add_argument(
            "--virus-sim", action="append", dest="virus_sims", metavar="[NAME=]PATH",
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
        p.add_argument("--theta", help="coupling weight, > 0")
        p.add_argument("--mu", help="graph regularization weight, >= 0")
        p.add_argument("--alpha", help="relaxation step in (0, 2)")
        p.add_argument("--p", help="neighbours kept per row when sparsifying")
        p.add_argument("--dims", help="factor dimensions, e.g. 17,15 or 23,10,7")
        p.add_argument("--layers", help="factor depth for defaults, 2 or 3")
        p.add_argument("--iters", help="outer iterations")
        p.add_argument("--out", help="output directory")

    def add_folds(p: argparse.ArgumentParser) -> None:
        p.add_argument("--folds", help="fold count (default 10)")
        p.add_argument("--repeats", help="repetitions with derived seeds (default 10)")
        p.add_argument("--seed", help="seed of the first repeat's folds (default 0)")

    p_fit = sub.add_parser("fit", help="fit on all observed data, emit the completed matrix")
    add_common(p_fit)

    p_predict = sub.add_parser("predict", help="rank drugs for one virus")
    add_common(p_predict)
    p_predict.add_argument("--virus", help="virus name to rank drugs for")
    p_predict.add_argument("--k", help="number of recommendations (default 10)")

    p_cv = sub.add_parser("cv", help="cross-validate under a hiding scheme")
    add_common(p_cv)
    p_cv.add_argument(
        "--scheme", help="what to hide per fold: entries (default), viruses, drugs or loo"
    )
    add_folds(p_cv)
    p_cv.add_argument("--ks", help="cutoffs for loo Pre@k/Rec@k, e.g. 3,5,7")

    p_ab = sub.add_parser("ablation", help="compare similarity-source combinations")
    add_common(p_ab)
    p_ab.add_argument(
        "--combos",
        help="semicolon-separated combos 'DRUGS,VIRUSES' with '+' joining names, "
        "e.g. 's1_d,s1_v;s1_d+s2_d,s1_v+s2_v' (default: each pair, then all combined)",
    )
    add_folds(p_ab)

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
    formatwarning = warnings.formatwarning  # a warning prints as a log line, with no location
    warnings.formatwarning = lambda message, *_, **__: f"WARNING {message}\n"
    try:
        cfg = resolve_config(args)
        dataset, sims = _load_inputs(cfg)
        return _COMMANDS[args.command](cfg, dataset, sims)
    except GrdmfError as exc:
        logger.error("%s", exc)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
