"""Exemplar selection, clustering and classification for data in a union of
low-dimensional subspaces.

The library selects a small set of data points (exemplars) whose sparse
linear combinations reconstruct the whole dataset, then uses them to cluster
or classify it.  Geometry oracles verify the selection objective against its
convex-geometric characterization at desk scale.
"""

from .classify import LabeledExemplars, NoExemplarsForClass, src_classify
from .cluster import (
    AffinityGraph,
    ClusterAssignment,
    EmptyGraph,
    ZeroCode,
    build_knn_graph,
    esc_pipeline,
    spectral_cluster,
    threshold_codes,
)
from .dataset import (
    BadDim,
    DataMatrix,
    ParseError,
    RaggedRows,
    SubspaceSpec,
    ZeroColumn,
    load_csv,
    normalize_columns,
    pca_project,
    save_csv,
    synth_union_of_subspaces,
)
from .ffs import ExemplarSet, SelectionStep, ffs_lazy, ffs_naive, select_random
from .geometry import (
    DegenerateHull,
    SymmetricHull,
    UnsupportedDim,
    covering_radius,
    inradius,
    l1_min_exact,
    minkowski_functional,
    sup_gauge_on_sphere,
    sup_l1_cost_on_sphere,
)
from .lasso import (
    LassoProblem,
    NoConvergence,
    SparseCode,
    SparseCodes,
    duality_gap,
    kkt_violation,
    solve_lasso,
    solve_lasso_batch,
)
from .metrics import (
    ContingencyTable,
    EmptySelection,
    LengthMismatch,
    clustering_accuracy,
    clustering_fscore,
    contingency_table,
    imbalance,
    subspace_preserving_rate,
)
from .selfrep import CostReport, TooFewPoints, F_cost, cost_floor, f_cost, lambda_threshold

__version__ = "0.1.0"

__all__ = [
    "AffinityGraph",
    "BadDim",
    "ClusterAssignment",
    "ContingencyTable",
    "CostReport",
    "DataMatrix",
    "DegenerateHull",
    "EmptyGraph",
    "EmptySelection",
    "ExemplarSet",
    "F_cost",
    "LabeledExemplars",
    "LassoProblem",
    "LengthMismatch",
    "NoConvergence",
    "NoExemplarsForClass",
    "ParseError",
    "RaggedRows",
    "SelectionStep",
    "SparseCode",
    "SparseCodes",
    "SubspaceSpec",
    "SymmetricHull",
    "TooFewPoints",
    "UnsupportedDim",
    "ZeroCode",
    "ZeroColumn",
    "build_knn_graph",
    "clustering_accuracy",
    "clustering_fscore",
    "contingency_table",
    "cost_floor",
    "covering_radius",
    "duality_gap",
    "esc_pipeline",
    "f_cost",
    "ffs_lazy",
    "ffs_naive",
    "imbalance",
    "inradius",
    "kkt_violation",
    "l1_min_exact",
    "lambda_threshold",
    "load_csv",
    "minkowski_functional",
    "normalize_columns",
    "pca_project",
    "save_csv",
    "select_random",
    "solve_lasso",
    "solve_lasso_batch",
    "spectral_cluster",
    "src_classify",
    "subspace_preserving_rate",
    "threshold_codes",
    "sup_gauge_on_sphere",
    "sup_l1_cost_on_sphere",
    "synth_union_of_subspaces",
]
