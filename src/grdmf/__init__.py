"""Multi-graph regularized deep matrix factorization for association completion."""

from .data import (
    AssociationDataset,
    load_association_csv,
    load_profile_csv,
    load_similarity_csv,
)
from .evaluation import (
    EvalReport,
    auc,
    aupr,
    run_cv,
    run_loocv,
    split_folds,
    topk_metrics,
)
from .graphs import build_laplacian, cosine_similarity, sparsify_pnn
from .linalg import (
    SymEigen,
    TruncatedSvd,
    solve_sylvester_sym,
    spd_inverse,
    sym_eigen,
    truncated_svd,
)
from .solver import (
    FitResult,
    HyperParams,
    SolveTrace,
    fit,
    init_factors,
    objective,
    update_middle,
    update_u1,
    update_v,
    update_x,
)

__all__ = [
    "AssociationDataset",
    "load_association_csv",
    "load_profile_csv",
    "load_similarity_csv",
    "EvalReport",
    "auc",
    "aupr",
    "run_cv",
    "run_loocv",
    "split_folds",
    "topk_metrics",
    "build_laplacian",
    "cosine_similarity",
    "sparsify_pnn",
    "SymEigen",
    "TruncatedSvd",
    "solve_sylvester_sym",
    "spd_inverse",
    "sym_eigen",
    "truncated_svd",
    "FitResult",
    "HyperParams",
    "SolveTrace",
    "fit",
    "init_factors",
    "objective",
    "update_middle",
    "update_u1",
    "update_v",
    "update_x",
]

__version__ = "0.1.0"
