"""Clustering agreement metrics: NMI, optimal-matching accuracy, purity."""

from __future__ import annotations

import numpy as np

__all__ = ["contingency", "nmi", "acc", "purity"]


def contingency(pred, truth):
    """Joint label counts as an integer array; rows index predicted
    clusters, columns truth, each in sorted order of the label values."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.ndim != 1 or pred.shape != truth.shape:
        raise ValueError("label vectors must be 1-d and of equal length")
    if pred.size == 0:
        raise ValueError("empty label vectors")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    counts = np.zeros((pi.max() + 1, ti.max() + 1), dtype=int)
    np.add.at(counts, (pi, ti), 1)
    return counts


def nmi(pred, truth):
    """Normalized mutual information with sqrt(H_pred * H_truth)
    normalization; 0/0 cases (a single cluster on either side) return 0."""
    counts = contingency(pred, truth)
    n = len(pred)
    p = counts / n
    # marginals from the integer counts: exact for one-cluster sides, and
    # independent of the column/row order the label values induce
    pr = counts.sum(axis=1) / n
    pt = counts.sum(axis=0) / n
    mask = p > 0
    outer = pr[:, None] * pt[None, :]
    mi = float((p[mask] * np.log(p[mask] / outer[mask])).sum())
    hp = float(-(pr[pr > 0] * np.log(pr[pr > 0])).sum())
    ht = float(-(pt[pt > 0] * np.log(pt[pt > 0])).sum())
    denom = np.sqrt(hp * ht)
    if denom <= 0:
        return 0.0
    return float(min(max(mi / denom, 0.0), 1.0))


def _max_matching_count(counts):
    """Largest total count of a one-to-one row-to-column matching of a
    table with rows <= columns: the Hungarian algorithm, as shortest
    augmenting paths with potentials on the costs -counts, one row added
    per phase. O(r^2 c) integer work, so ties and sums are exact."""
    r, c = counts.shape
    inf = np.iinfo(np.int64).max
    cost = -np.asarray(counts, dtype=np.int64)
    u = np.zeros(r, dtype=np.int64)  # row potentials
    v = np.zeros(c + 1, dtype=np.int64)  # column potentials; column c roots each path
    owner = np.full(c + 1, -1)  # row matched to each column
    for i in range(r):
        owner[c], j0 = i, c
        dist = np.full(c + 1, inf)  # reduced length of the shortest path to each column
        prev = np.full(c + 1, c)  # the column before each column on that path
        done = np.zeros(c + 1, dtype=bool)
        while owner[j0] >= 0:
            done[j0] = True
            dist[j0] = inf
            i0 = owner[j0]
            reduced = cost[i0] - u[i0] - v[:c]
            closer = ~done[:c] & (reduced < dist[:c])
            dist[:c][closer] = reduced[closer]
            prev[:c][closer] = j0
            j0 = int(np.argmin(dist))
            step = dist[j0]
            u[owner[done]] += step
            v[done] -= step
            dist[~done] -= step
        while j0 != c:  # augment along the path back to the root
            owner[j0] = owner[prev[j0]]
            j0 = prev[j0]
    matched = np.flatnonzero(owner[:c] >= 0)
    return counts[owner[matched], matched].sum()


def acc(pred, truth):
    """Clustering accuracy under the best one-to-one cluster-to-class map
    (a maximum-count matching on the contingency table)."""
    counts = contingency(pred, truth)
    if counts.shape[0] > counts.shape[1]:
        counts = counts.T
    return float(_max_matching_count(counts) / len(pred))


def purity(pred, truth):
    """Fraction of samples in the majority true class of their cluster."""
    return float(contingency(pred, truth).max(axis=1).sum() / len(pred))
