"""Anchor selection: k-means on concatenated views, split back per view."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import kmeans

__all__ = ["AnchorSet", "build_anchors"]

_LLOYD_STEPS = 10  # anchors only summarize the data; later Lloyd steps barely move them
_RESTARTS = 3  # greedy seeding: 3 restarts reach lower SSE than 10 plain k-means++ ones


@dataclass
class AnchorSet:
    """Per-view anchor matrices sharing one column index space.

    per_view[v] is (d_v, m); column j across all views is the j-th
    concatenated k-means center split into view blocks.
    """

    per_view: list

    @property
    def m(self):
        return self.per_view[0].shape[1]


def build_anchors(ds, m, seed=0):
    """Select m shared anchors for every view of ``ds``.

    Stacks all views into a (sum d_v, n) matrix, runs seeded k-means with
    k = m on it (3 restarts of at most 10 Lloyd steps each, every one seeded
    by greedy k-means++, which keeps the lowest-potential of 2 + floor(ln m)
    D^2-weighted candidates per center; the lowest-SSE restart wins), and
    splits each center back into per-view blocks in view order, so anchor j
    is consistent across views.
    """
    if m > ds.n:
        raise ValueError(f"m={m} exceeds sample count n={ds.n}")
    stacked = np.vstack(ds.views)
    centers, _ = kmeans(stacked, m, seed=seed, max_iter=_LLOYD_STEPS, n_init=_RESTARTS)
    per_view = []
    row = 0
    for d in ds.dims:
        per_view.append(centers[row : row + d].copy())
        row += d
    return AnchorSet(per_view)
