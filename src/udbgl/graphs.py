"""Bipartite sample-anchor graphs as row-stochastic (n, m) float arrays:
the row check, degrees, connected components, K-NN initialization, and
label extraction."""

from __future__ import annotations

import numpy as np

from .numerics import _row_blocks

__all__ = [
    "EDGE_EPS",
    "DEGREE_FLOOR",
    "check_graph",
    "degrees",
    "count_components",
    "knn_bipartite_init",
    "extract_labels",
    "dump_graph_csv",
]

EDGE_EPS = 1e-8       # entries above this count as edges
DEGREE_FLOOR = 1e-12  # guards inverse square roots of degrees


def check_graph(w, what):
    """Check that ``w`` is a row-stochastic (n, m) graph and return it.

    Raises ValueError unless ``w`` is 2-d and finite, no entry is negative
    and every row sums to 1 within 1e-8; ``w`` itself is never written.
    ``what`` names the graph in the messages.
    """
    if w.ndim != 2:
        raise ValueError(f"{what} must be 2-d")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"non-finite weight in {what}")
    if w.min() < 0.0:
        raise ValueError(f"negative weight {w.min():.3e} in {what}")
    dev = np.abs(w.sum(axis=1) - 1.0).max()
    if dev > 1e-8:
        raise ValueError(f"{what} rows must sum to 1 (max deviation {dev:.3e})")
    return w


def degrees(w):
    """Sample and anchor degree vectors of a bipartite weight matrix.

    Entries below 1e-12 are floored at 1e-12 so downstream inverse square
    roots stay finite.
    """
    d_n = np.maximum(w.sum(axis=1), DEGREE_FLOOR)
    d_m = np.maximum(w.sum(axis=0), DEGREE_FLOOR)
    return d_n, d_m


def _components(w):
    # (k, comp): the component count and a component id in 0..k-1 for every
    # node of the (n+m)-node bipartite graph whose edges are entries > EDGE_EPS
    # (sample i is node i, anchor j node n + j). Samples meet only through
    # anchors, so the components are those of the m-node anchor graph that
    # links consecutive anchors of each row; a sample joins its first
    # anchor's component, and a sample without edges is a component alone.
    # Rows are read in blocks of _BLOCK, so beside the (m, m) bool anchor
    # graph (an eighth of an (n, m) float array at most, as m <= n) the call
    # holds O(n + nnz) memory, and the work is O(nnz + m^2).
    n, m = w.shape
    adj = np.zeros((m, m), dtype=bool)
    first = np.full(n, -1)  # each sample's first anchor, -1 for none
    for s in _row_blocks(n):
        rows, cols = divmod(np.flatnonzero(w[s] > EDGE_EPS), m)
        lead = np.diff(rows, prepend=-1) != 0  # each row's first edge
        link = ~lead[1:]  # an edge and the next one share a row
        adj[cols[:-1][link], cols[1:][link]] = True
        first[s][rows[lead]] = cols[lead]
    adj |= adj.T
    ea, eb = np.nonzero(adj)
    # min-label propagation with hooking and pointer jumping (Shiloach &
    # Vishkin 1982): each label is an anchor of the same component and only
    # decreases, so the fixed point labels every anchor with its component's
    # smallest one. Hooking the anchor a label points to, not only the
    # labelled one, keeps the rounds logarithmic on long paths whatever the
    # anchor order (8 instead of 132 on a shuffled 300-anchor path)
    lab = np.arange(m)
    while True:
        new = lab.copy()
        across = lab[eb]
        np.minimum.at(new, ea, across)
        np.minimum.at(new, lab[ea], across)
        new = new[new]
        if np.array_equal(new, lab):
            break
        lab = new
    roots = lab == np.arange(m)
    ids = np.cumsum(roots) - 1  # anchor components first, by smallest anchor
    k = int(np.count_nonzero(roots))
    lone = np.flatnonzero(first < 0)
    comp = np.empty(n + m, dtype=np.int64)
    comp[n:] = ids[lab]
    comp[:n] = comp[n + first]
    comp[lone] = k + np.arange(lone.size)
    return k + lone.size, comp


def count_components(w):
    """Connected components of the (n+m)-node bipartite graph whose edges
    are entries > EDGE_EPS. Counts every component, including anchor-only ones;
    equals the multiplicity of eigenvalue 0 of the normalized Laplacian of
    the same thresholded graph."""
    return _components(w)[0]


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
    return check_graph(d2, "view graph")


def extract_labels(w):
    """Cluster labels read directly off the graph's connected components.

    Samples sharing a component share a label; ids run 0..k-1 in order of
    each component's smallest sample index, so k = labels.max() + 1 is the
    number of sample-bearing components (anchor-only ones take no id).
    """
    n = w.shape[0]
    k, comp = _components(w)
    uniq, first = np.unique(comp[:n], return_index=True)
    rank = np.empty(k, dtype=int)
    rank[uniq[np.argsort(first)]] = np.arange(uniq.size)
    return rank[comp[:n]]


def dump_graph_csv(w, path):
    """Debug dump of the (n, m) weight matrix as CSV."""
    np.savetxt(path, w, delimiter=",", fmt="%.17g")
