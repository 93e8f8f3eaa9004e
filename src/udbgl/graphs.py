"""Bipartite sample-anchor graphs: containers, degrees, connected
components, K-NN initialization, and label extraction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .numerics import _row_blocks

__all__ = [
    "EDGE_EPS",
    "DEGREE_FLOOR",
    "ViewBipartiteGraph",
    "ConsensusBipartiteGraph",
    "SpectralEmbedding",
    "degrees",
    "count_components",
    "sample_component_labels",
    "knn_bipartite_init",
    "extract_labels",
    "dump_graph_csv",
]

EDGE_EPS = 1e-8       # entries above this count as edges
DEGREE_FLOOR = 1e-12  # guards inverse square roots of degrees


def _weights(graph):
    return graph.weights if hasattr(graph, "weights") else np.asarray(graph, dtype=float)


def _validate_rows(w, what):
    if w.ndim != 2:
        raise ValueError(f"{what} must be 2-d")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"non-finite weight in {what}")
    if w.min() < -1e-12:
        raise ValueError(f"negative weight {w.min():.3e} in {what}")
    dev = np.abs(w.sum(axis=1) - 1.0).max()
    if dev > 1e-8:
        raise ValueError(f"{what} rows must sum to 1 (max deviation {dev:.3e})")


@dataclass
class ViewBipartiteGraph:
    """Row-stochastic (n, m) sample-to-anchor affinity for one view."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        _validate_rows(self.weights, "view graph")
        np.maximum(self.weights, 0.0, out=self.weights)  # clamp -1e-12..0 noise


@dataclass
class ConsensusBipartiteGraph:
    """Row-stochastic (n, m) consensus graph; ``components`` is the full
    component count filled in once the rank loop has converged."""

    weights: np.ndarray
    components: int | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        _validate_rows(self.weights, "consensus graph")
        np.maximum(self.weights, 0.0, out=self.weights)


@dataclass
class SpectralEmbedding:
    """Stacked embedding of samples (f_n) and anchors (f_m); the stacked
    matrix has orthonormal columns: f_n^T f_n + f_m^T f_m = I."""

    f_n: np.ndarray
    f_m: np.ndarray
    singular_values: np.ndarray


def degrees(graph):
    """Sample and anchor degree vectors of a bipartite weight matrix.

    Entries below 1e-12 are floored at 1e-12 so downstream inverse square
    roots stay finite.
    """
    w = _weights(graph)
    d_n = np.maximum(w.sum(axis=1), DEGREE_FLOOR)
    d_m = np.maximum(w.sum(axis=0), DEGREE_FLOOR)
    return d_n, d_m


def _components(w, eps):
    # scipy component id of every node of the (n+m)-node bipartite graph
    # whose edges are entries > eps: sample i is node i, anchor j node n + j.
    # Building the CSR directly is cheaper than converting from COO: sample
    # rows list their anchors in column order, anchor rows are empty.
    n, m = w.shape
    edges = w > eps
    indices = np.flatnonzero(edges)
    indices %= m
    indices += n
    indptr = np.zeros(n + m + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(edges, axis=1), out=indptr[1 : n + 1])
    indptr[n + 1 :] = indptr[n]
    adj = csr_matrix((np.ones(indices.size), indices, indptr), shape=(n + m, n + m))
    return connected_components(adj, directed=False)


def count_components(graph, eps=EDGE_EPS):
    """Connected components of the (n+m)-node bipartite graph whose edges
    are entries > eps. Counts every component, including anchor-only ones;
    equals the multiplicity of eigenvalue 0 of the normalized Laplacian of
    the same thresholded graph."""
    return _components(_weights(graph), eps)[0]


def sample_component_labels(graph, eps=EDGE_EPS):
    """Component ids of the sample nodes.

    Returns (labels, n_sample_components, n_anchor_only). Ids are dense
    0..k-1 assigned in order of each component's smallest sample index.
    """
    w = _weights(graph)
    n = w.shape[0]
    k, comp = _components(w, eps)
    uniq, first = np.unique(comp[:n], return_index=True)
    rank = np.empty(k, dtype=int)
    rank[uniq[np.argsort(first)]] = np.arange(uniq.size)
    return rank[comp[:n]], uniq.size, k - uniq.size


def knn_bipartite_init(x, a, k):
    """K-NN bipartite graph: each sample puts weight 1/K on its K nearest
    anchors (Euclidean); distance ties resolve to the lower anchor index."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    m = a.shape[1]
    if not 1 <= k <= m:
        raise ValueError(f"K={k} must be in [1, m={m}]")
    # d2 = xx + aa - 2 x^T a, bit for bit, in the one (n, m) array that
    # then becomes the graph: x - y rounds as x + (-y)
    d2 = x.T @ a
    d2 *= -2.0
    xx, aa = (x * x).sum(axis=0), (a * a).sum(axis=0)
    order = np.empty((len(d2), k), dtype=np.intp)
    for s in _row_blocks(len(d2)):
        d2[s] += xx[s, None] + aa
        order[s] = np.argsort(d2[s], axis=1, kind="stable")[:, :k]
    d2.fill(0.0)
    np.put_along_axis(d2, order, 1.0 / k, axis=1)
    return ViewBipartiteGraph(d2)


def extract_labels(graph, eps=EDGE_EPS, *, expected_components):
    """Cluster labels read directly off the consensus graph's components.

    Samples sharing a connected component share a label; ids follow each
    component's smallest sample index. A sample-bearing component count
    other than ``expected_components`` raises ValueError.
    """
    labels, n_sample, _ = sample_component_labels(graph, eps)
    if n_sample != expected_components:
        raise ValueError(f"component count mismatch: {n_sample} sample-bearing components, "
                         f"expected {expected_components}")
    return labels


def dump_graph_csv(graph, path):
    """Debug dump of the (n, m) weight matrix as CSV."""
    np.savetxt(path, _weights(graph), delimiter=",", fmt="%.17g")
