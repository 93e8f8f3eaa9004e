import numpy as np
import pytest

import udbgl.numerics as numerics
from udbgl.anchors import _LLOYD_STEPS, _RESTARTS, build_anchors
from udbgl.dataset import MultiViewDataset, normalize, synth_blobs
from udbgl.numerics import _sqdist, kmeans


def _w1():
    return normalize(synth_blobs(n=2000, c=5, n_views=3, dims=[20] * 3, noise=0.3, seed=0))


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
    centers, _ = kmeans(np.vstack(ds.views), 5, seed=7, max_iter=_LLOYD_STEPS, n_init=_RESTARTS)
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
    # W1-sized data, whose restarts need more than 10 Lloyd passes: the
    # anchors are the 10-step k-means centers, not the converged ones
    ds = _w1()
    got = np.vstack(build_anchors(ds, 50, seed=0).per_view)
    capped, _ = kmeans(np.vstack(ds.views), 50, seed=0, max_iter=_LLOYD_STEPS, n_init=_RESTARTS)
    uncapped, _ = kmeans(np.vstack(ds.views), 50, seed=0, n_init=_RESTARTS)
    assert np.array_equal(got, capped)
    assert not np.array_equal(got, uncapped)


def test_build_anchors_is_three_restarts_of_ten_steps():
    # at seed 5 the third restart beats the first two and the eighth beats
    # all of them, so two or ten restarts would pick other anchors
    ds = _w1()
    pts = np.vstack(ds.views)
    got = np.vstack(build_anchors(ds, 50, seed=5).per_view)
    assert np.array_equal(got, kmeans(pts, 50, seed=5, max_iter=10, n_init=3)[0])
    for other in (2, 10):
        assert not np.array_equal(got, kmeans(pts, 50, seed=5, max_iter=10, n_init=other)[0])


def _plain_kmeanspp(x, xx, k, rng):
    # one D^2-weighted draw per center, the seeding the greedy one replaced
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    chosen = np.zeros(n, dtype=bool)
    idx = int(rng.integers(n))
    centers[0] = x[idx]
    chosen[idx] = True
    closest = _sqdist(x, centers[:1], xx)[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            r = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(closest), r, side="right")), n - 1)
        else:
            idx = int(np.flatnonzero(~chosen)[0])
        centers[j] = x[idx]
        chosen[idx] = True
        closest = np.minimum(closest, _sqdist(x, centers[j : j + 1], xx)[:, 0])
    return centers


def _overlap_views(seed, n=2000, c=5, views=3, dim=20):
    # blobs 4.0 apart with N(0, 0.3^2) noise, plus N(0, 1) on every feature
    # of one randomly drawn view per sample
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % c)
    out = []
    for _ in range(views):
        basis, _ = np.linalg.qr(rng.standard_normal((dim, c)))
        out.append(basis.T[labels] * (4.0 / np.sqrt(2.0)) + 0.3 * rng.standard_normal((n, dim)))
    hit = rng.integers(views, size=n)
    for v, x in enumerate(out):
        x[hit == v] += rng.standard_normal((int((hit == v).sum()), dim))
    return normalize(MultiViewDataset([x.T for x in out]))


@pytest.mark.parametrize("data, m", [(_w1, 50), (lambda: _overlap_views(0), 30)],
                         ids=["w1", "overlap"])
def test_build_anchors_sse_no_worse_than_ten_plain_restarts(data, m, monkeypatch):
    # 3 greedy restarts must summarize the data at least as well as the 10
    # plain k-means++ restarts of 10 steps they replaced, within 0.1%
    ds = data()
    pts = np.vstack(ds.views)
    x = pts.T
    xx = (x * x).sum(axis=1)

    def sse(centers):
        return float(_sqdist(x, centers.T, xx).min(axis=1).sum())

    got = sse(np.vstack(build_anchors(ds, m, seed=0).per_view))
    monkeypatch.setattr(numerics, "_kmeanspp", _plain_kmeanspp)
    plain, _ = kmeans(pts, m, seed=0, max_iter=10, n_init=10)
    assert got <= 1.001 * sse(plain)
