"""Synthetic association problems with planted low-rank structure.

A nonnegative low-rank matrix is binarized at a percentile threshold to give
the association matrix, and the similarity graphs are built from the true
latent factors, so the dataset genuinely carries the structure the solver
assumes. Useful for recovery experiments and for exercising the CLI without
real data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import AssociationDataset, save_association_csv, write_matrix_csv
from .graphs import cosine_similarity

__all__ = ["SyntheticProblem", "make_synthetic_problem", "write_synthetic_csvs"]


@dataclass(frozen=True)
class SyntheticProblem:
    dataset: AssociationDataset
    drug_sim: np.ndarray
    virus_sim: np.ndarray
    latent_left: np.ndarray
    latent_right: np.ndarray


def make_synthetic_problem(
    m: int = 40,
    n: int = 20,
    rank: int = 3,
    seed: int = 0,
    percentile: float = 70.0,
) -> SyntheticProblem:
    """Plant a rank-``rank`` structure and binarize it at ``percentile``.

    Latent factors are uniform on [0, 1); the similarity on each side is the
    cosine similarity of the true latent vectors.
    """
    rng = np.random.default_rng(seed)
    left = rng.random((m, rank))
    right = rng.random((rank, n))
    z = left @ right
    y = (z > np.percentile(z, percentile)).astype(float)
    drugs = tuple(f"drug{i:03d}" for i in range(m))
    viruses = tuple(f"virus{j:03d}" for j in range(n))
    dataset = AssociationDataset(drugs=drugs, viruses=viruses, y=y)
    return SyntheticProblem(
        dataset=dataset,
        drug_sim=cosine_similarity(left),
        virus_sim=cosine_similarity(right.T),
        latent_left=left,
        latent_right=right,
    )


def write_synthetic_csvs(problem: SyntheticProblem, out_dir) -> dict[str, Path]:
    """Write the problem as the CSV bundle the CLI consumes.

    Besides the association and similarity files, binary profiles are derived
    by thresholding the latent factors at their per-feature median, which
    gives the profile-ingestion path something structured to chew on.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = problem.dataset
    paths = {
        "association": out_dir / "association.csv",
        "drug_sim": out_dir / "drug_sim.csv",
        "virus_sim": out_dir / "virus_sim.csv",
        "drug_profile": out_dir / "drug_profile.csv",
        "virus_profile": out_dir / "virus_profile.csv",
    }
    save_association_csv(dataset, paths["association"])
    write_matrix_csv(paths["drug_sim"], dataset.drugs, dataset.drugs, problem.drug_sim)
    write_matrix_csv(paths["virus_sim"], dataset.viruses, dataset.viruses, problem.virus_sim)
    rank = problem.latent_left.shape[1]
    features = [f"f{r}" for r in range(rank)]
    drug_ind = (problem.latent_left > np.median(problem.latent_left, axis=0)).astype(int)
    virus_ind = (problem.latent_right.T > np.median(problem.latent_right.T, axis=0)).astype(int)
    write_matrix_csv(paths["drug_profile"], dataset.drugs, features, drug_ind)
    write_matrix_csv(paths["virus_profile"], dataset.viruses, features, virus_ind)
    return paths
