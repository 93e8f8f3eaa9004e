"""Clustering agreement metrics: NMI, optimal-matching accuracy, purity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

__all__ = ["ContingencyTable", "nmi", "acc", "purity"]


@dataclass
class ContingencyTable:
    """Joint label counts; rows index predicted clusters, columns truth."""

    counts: np.ndarray
    n: int

    @classmethod
    def from_labels(cls, pred, truth):
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
        return cls(counts=counts, n=int(pred.size))


def nmi(pred, truth):
    """Normalized mutual information with sqrt(H_pred * H_truth)
    normalization; 0/0 cases (a single cluster on either side) return 0."""
    table = ContingencyTable.from_labels(pred, truth)
    p = table.counts / table.n
    # marginals from the integer counts: exact for one-cluster sides, and
    # independent of the column/row order the label values induce
    pr = table.counts.sum(axis=1) / table.n
    pt = table.counts.sum(axis=0) / table.n
    mask = p > 0
    outer = pr[:, None] * pt[None, :]
    mi = float((p[mask] * np.log(p[mask] / outer[mask])).sum())
    hp = float(-(pr[pr > 0] * np.log(pr[pr > 0])).sum())
    ht = float(-(pt[pt > 0] * np.log(pt[pt > 0])).sum())
    denom = np.sqrt(hp * ht)
    if denom <= 0:
        return 0.0
    return float(min(max(mi / denom, 0.0), 1.0))


def acc(pred, truth):
    """Clustering accuracy under the best one-to-one cluster-to-class map
    (a maximum-count matching on the contingency table)."""
    table = ContingencyTable.from_labels(pred, truth)
    counts = table.counts
    if counts.shape[0] > counts.shape[1]:
        counts = counts.T
    # rows <= columns, so every row is matched; weights max + 1 - count are
    # all positive (csgraph drops no zero-count edge), and a minimum-weight
    # full matching is then a maximum-count one
    rows, cols = min_weight_full_bipartite_matching(csr_matrix(counts.max() + 1 - counts))
    return float(counts[rows, cols].sum() / table.n)


def purity(pred, truth):
    """Fraction of samples in the majority true class of their cluster."""
    table = ContingencyTable.from_labels(pred, truth)
    return float(table.counts.max(axis=1).sum() / table.n)
