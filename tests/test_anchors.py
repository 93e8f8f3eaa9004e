import numpy as np
import pytest

from udbgl.anchors import build_anchors
from udbgl.dataset import MultiViewDataset, normalize, synth_blobs
from udbgl.numerics import kmeans


def test_anchor_shapes_per_view():
    rng = np.random.default_rng(0)
    ds = MultiViewDataset([rng.standard_normal((2, 9)), rng.standard_normal((3, 9))])
    anchors = build_anchors(ds, 4, seed=0)
    assert [a.shape for a in anchors.per_view] == [(2, 4), (3, 4)]
    assert anchors.m == 4


def test_noise_free_blobs_recover_true_centers():
    ds = synth_blobs(30, 3, 2, dims=[2, 3], noise=0.0, seed=1)
    anchors = build_anchors(ds, 3, seed=0)
    for v, x in enumerate(ds.views):
        true = np.unique(x.T, axis=0)                      # 3 distinct center rows
        got = np.unique(anchors.per_view[v].T, axis=0)
        assert np.allclose(np.sort(true, axis=0), np.sort(got, axis=0), atol=1e-10)


def test_m_equals_n_returns_the_samples():
    rng = np.random.default_rng(2)
    ds = MultiViewDataset([rng.standard_normal((2, 6)), rng.standard_normal((4, 6))])
    anchors = build_anchors(ds, 6, seed=0)
    stacked = np.vstack(ds.views)
    got = np.vstack(anchors.per_view)
    # every sample appears as an anchor column, in some order
    order = []
    for j in range(6):
        hits = np.flatnonzero(np.abs(stacked - got[:, j : j + 1]).max(axis=0) < 1e-12)
        assert hits.size == 1
        order.append(hits[0])
    assert sorted(order) == list(range(6))


def test_anchor_columns_consistent_across_views():
    # anchor j in each view must be the same stacked k-means center, split
    ds = synth_blobs(40, 4, 2, dims=[3, 2], noise=0.05, seed=3)
    anchors = build_anchors(ds, 5, seed=7)
    centers, _ = kmeans(np.vstack(ds.views), 5, seed=7)
    assert np.allclose(np.vstack(anchors.per_view), centers, atol=1e-12)


def test_build_anchors_deterministic():
    ds = synth_blobs(25, 3, 2, seed=4)
    a1 = build_anchors(ds, 4, seed=5)
    a2 = build_anchors(ds, 4, seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(a1.per_view, a2.per_view))


def test_build_anchors_rejects_m_above_n():
    ds = MultiViewDataset([np.zeros((2, 3))])
    with pytest.raises(ValueError, match="exceeds sample count"):
        build_anchors(ds, 4)


def test_build_anchors_caps_lloyd_steps():
    # W1-sized data, whose restarts need 14 to 22 Lloyd passes: the anchors
    # are the 10-step k-means centers, not the converged ones
    ds = normalize(synth_blobs(n=2000, c=5, n_views=3, dims=[20] * 3, noise=0.3, seed=0))
    got = np.vstack(build_anchors(ds, 50, seed=0).per_view)
    capped, _ = kmeans(np.vstack(ds.views), 50, seed=0, max_iter=10)
    uncapped, _ = kmeans(np.vstack(ds.views), 50, seed=0)
    assert np.array_equal(got, capped)
    assert not np.array_equal(got, uncapped)


def test_build_anchors_unchanged_where_restarts_converge_within_the_cap():
    # full-qp-sized blobs settle within the cap, so the anchors equal
    # uncapped k-means bit for bit
    ds = normalize(synth_blobs(n=240, c=5, n_views=3, dims=[20] * 3, noise=0.3, seed=0))
    got = np.vstack(build_anchors(ds, 30, seed=0).per_view)
    uncapped, _ = kmeans(np.vstack(ds.views), 30, seed=0)
    assert np.array_equal(got, uncapped)
