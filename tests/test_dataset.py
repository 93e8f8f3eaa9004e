import json

import numpy as np
import pytest
from conftest import wide_feature_view

from udbgl.dataset import MultiViewDataset, load_views, normalize, synth_blobs, write_views


# ---------------------------------------------------------------------------
# container validation

def test_dataset_properties():
    ds = MultiViewDataset([np.zeros((3, 5)), np.zeros((2, 5))], labels=np.zeros(5, dtype=int))
    assert ds.n == 5 and ds.n_views == 2 and ds.dims == [3, 2]


def test_dataset_rejects_bad_shapes():
    with pytest.raises(ValueError):
        MultiViewDataset([])
    with pytest.raises(ValueError):
        MultiViewDataset([np.zeros((2, 4)), np.zeros((2, 5))])
    with pytest.raises(ValueError):
        MultiViewDataset([np.zeros(4)])
    with pytest.raises(ValueError):
        MultiViewDataset([np.array([[np.inf, 1.0]])])
    with pytest.raises(ValueError):
        MultiViewDataset([np.zeros((2, 4))], labels=np.zeros(3, dtype=int))


# ---------------------------------------------------------------------------
# manifest I/O

def test_write_then_load_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(0)
    ds = MultiViewDataset(
        [rng.standard_normal((3, 7)) * 1e-4, rng.standard_normal((2, 7)) * 1e6],
        labels=np.array([0, 1, 2, 0, 1, 2, 0]),
    )
    manifest = write_views(ds, tmp_path / "data")
    back = load_views(manifest)
    assert back.n_views == 2
    for a, b in zip(ds.views, back.views):
        assert np.array_equal(a, b)  # %.17g round-trips doubles exactly
    assert np.array_equal(back.labels, ds.labels)


def test_load_remaps_labels_to_dense_range(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    np.savetxt(d / "view_0.csv", np.arange(8.0).reshape(4, 2), delimiter=",")
    (d / "labels.csv").write_text("7\n-2\n7\n100\n")
    (d / "manifest.json").write_text(json.dumps(
        {"views": ["view_0.csv"], "labels": "labels.csv"}))
    ds = load_views(d / "manifest.json")
    assert np.array_equal(ds.labels, [1, 0, 1, 2])  # sorted original values


def test_load_honors_delimiter_and_header(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    (d / "view_0.csv").write_text("f1;f2\n1.5;2.5\n3.5;4.5\n")
    (d / "manifest.json").write_text(json.dumps(
        {"views": ["view_0.csv"], "delimiter": ";", "header": True}))
    ds = load_views(d / "manifest.json")
    assert ds.views[0].shape == (2, 2)
    assert np.allclose(ds.views[0], [[1.5, 3.5], [2.5, 4.5]])


def test_load_single_column_view_stays_2d(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    (d / "view_0.csv").write_text("1.0\n2.0\n3.0\n")
    (d / "manifest.json").write_text(json.dumps({"views": ["view_0.csv"]}))
    ds = load_views(d / "manifest.json")
    assert ds.views[0].shape == (1, 3)


def test_load_error_paths(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    (d / "manifest.json").write_text(json.dumps({"views": []}))
    with pytest.raises(ValueError, match="no views"):
        load_views(d / "manifest.json")

    (d / "manifest.json").write_text(json.dumps({"views": ["missing.csv"]}))
    with pytest.raises(OSError):
        load_views(d / "manifest.json")

    (d / "bad.csv").write_text("1.0,oops\n")
    (d / "manifest.json").write_text(json.dumps({"views": ["bad.csv"]}))
    with pytest.raises(ValueError, match="non-numeric"):
        load_views(d / "manifest.json")


# ---------------------------------------------------------------------------
# normalization

def test_minmax_maps_features_to_unit_interval():
    rng = np.random.default_rng(1)
    ds = MultiViewDataset([rng.uniform(-5, 9, size=(4, 30))])
    out = normalize(ds)
    x = out.views[0]
    assert np.allclose(x.min(axis=1), 0.0) and np.allclose(x.max(axis=1), 1.0)


def test_minmax_is_idempotent():
    rng = np.random.default_rng(2)
    ds = MultiViewDataset([rng.standard_normal((3, 20))])
    once = normalize(ds)
    twice = normalize(once)
    assert np.allclose(once.views[0], twice.views[0], atol=1e-15)


def test_constant_features_become_zero():
    ds = MultiViewDataset([np.vstack([np.full(10, 3.5), np.arange(10.0)])])
    assert np.all(normalize(ds).views[0][0] == 0.0)


def test_normalize_matches_the_out_of_place_expression_bit_for_bit():
    # the expression normalize evaluated with a fresh array per step; a
    # constant row of mixed signed zeros must come out +0.0, as np.where
    # wrote it
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.standard_normal((6, 40)) * 10.0 ** rng.integers(-3, 4, size=(6, 1))
        x[1] = 2.5
        x[2] = np.where(rng.random(40) < 0.5, -0.0, 0.0)
        x[3, ::2] = -0.0
        x[3, 1::2] = 0.0
        lo = x.min(axis=1, keepdims=True)
        span = x.max(axis=1, keepdims=True) - lo
        want = np.where(span > 0, (x - lo) / np.where(span > 0, span, 1.0), 0.0)
        got = normalize(MultiViewDataset([x])).views[0]
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[1:4]).any()


def test_feature_range_beyond_the_float_maximum_maps_into_unit_interval():
    # hi - lo overflows for a feature spanning -1e308..1e308: that row is
    # scaled by halves, exactly, and the other rows as always
    x = wide_feature_view()
    x[0, 20] = 0.0
    got = normalize(MultiViewDataset([x])).views[0]
    want = np.where(np.arange(30) < 15, 1.0, 0.0)
    want[20] = 0.5
    assert np.array_equal(got[0], want)
    assert got[1:].tobytes() == normalize(MultiViewDataset([x[1:]])).views[0].tobytes()


def test_normalize_does_not_mutate_input():
    ds = MultiViewDataset([np.arange(6.0).reshape(2, 3)])
    before = ds.views[0].copy()
    normalize(ds)
    assert np.array_equal(ds.views[0], before)


# ---------------------------------------------------------------------------
# synthetic blobs

def test_synth_blobs_shapes_and_labels():
    ds = synth_blobs(10, 3, 2, dims=[4, 6], noise=0.1, seed=0)
    assert ds.dims == [4, 6] and ds.n == 10
    assert np.array_equal(ds.labels, np.arange(10) % 3)


def test_synth_blobs_default_dims():
    ds = synth_blobs(6, 2, 3, seed=0)
    assert ds.dims == [4, 4, 4]


def test_synth_blobs_deterministic():
    a = synth_blobs(20, 4, 2, seed=9)
    b = synth_blobs(20, 4, 2, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a.views, b.views))
    c = synth_blobs(20, 4, 2, seed=10)
    assert not np.array_equal(a.views[0], c.views[0])


def test_synth_blobs_clusters_are_separated():
    noise = 0.2
    ds = synth_blobs(60, 3, 2, noise=noise, seed=1)
    for x in ds.views:
        centers = np.array([x[:, ds.labels == k].mean(axis=1) for k in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                # center separation >= 1 + 10*noise minus sampling wobble
                assert np.linalg.norm(centers[i] - centers[j]) > 1.0 + 10 * noise - 1.0


def test_synth_blobs_noise_zero_gives_exact_centers():
    ds = synth_blobs(9, 3, 1, dims=[2], noise=0.0, seed=2)
    x = ds.views[0]
    for k in range(3):
        cols = x[:, ds.labels == k]
        assert np.abs(cols - cols[:, :1]).max() == 0.0


def test_synth_blobs_rejects_bad_arguments():
    with pytest.raises(ValueError):
        synth_blobs(2, 3, 1)  # n < c
    with pytest.raises(ValueError):
        synth_blobs(5, 0, 1)
    with pytest.raises(ValueError):
        synth_blobs(5, 2, 2, dims=[4])
    for dims in ([0], [-2], [2.5], [True]):
        with pytest.raises(ValueError, match="dims must be positive integers"):
            synth_blobs(5, 2, 1, dims=dims)
    with pytest.raises(ValueError, match="n must be an integer"):
        synth_blobs(30.5, 3, 1)
