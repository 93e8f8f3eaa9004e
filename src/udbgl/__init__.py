"""Anchor-based multi-view clustering via unified bipartite graph learning.

The package learns, jointly: one row-stochastic sample-to-anchor graph per
view, a consensus graph constrained to exactly c connected components, and
adaptive view weights. Cluster labels are read directly off the consensus
graph's components.
"""

from .anchors import AnchorSet, build_anchors
from .dataset import MultiViewDataset, load_views, normalize, synth_blobs, write_views
from .graphs import (
    ConsensusBipartiteGraph,
    SpectralEmbedding,
    ViewBipartiteGraph,
    count_components,
    degrees,
    extract_labels,
    knn_bipartite_init,
    sample_component_labels,
)
from .metrics import ContingencyTable, acc, nmi, purity
from .numerics import (
    QPConvergenceError,
    SimplexQP,
    kkt_residual,
    kmeans,
    project_simplex,
    project_rows_onto_simplex,
    solve_simplex_qp,
    solve_simplex_qp_rows,
    truncated_svd,
)
from .solver import (
    VARIANTS,
    FitContext,
    RankTargetError,
    SolverConfig,
    SolverState,
    blend,
    compute_q,
    fit,
    objective,
    update_delta,
    update_f,
    update_p,
    update_p_rows,
    update_z,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorSet", "build_anchors",
    "MultiViewDataset", "load_views", "normalize", "synth_blobs", "write_views",
    "ConsensusBipartiteGraph", "SpectralEmbedding", "ViewBipartiteGraph",
    "count_components", "degrees", "extract_labels", "knn_bipartite_init",
    "sample_component_labels",
    "ContingencyTable", "acc", "nmi", "purity",
    "QPConvergenceError", "SimplexQP", "kkt_residual", "kmeans", "project_simplex",
    "project_rows_onto_simplex", "solve_simplex_qp", "solve_simplex_qp_rows",
    "truncated_svd",
    "VARIANTS", "FitContext", "RankTargetError", "SolverConfig", "SolverState",
    "blend", "compute_q", "fit", "objective", "update_delta", "update_f",
    "update_p", "update_p_rows", "update_z",
]
