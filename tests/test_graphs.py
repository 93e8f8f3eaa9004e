import numpy as np
import pytest
from conftest import eigen_component_count, random_bipartite

from udbgl.graphs import (
    EDGE_EPS,
    check_graph,
    count_components,
    degrees,
    dump_graph_csv,
    extract_labels,
    knn_bipartite_init,
    sample_component_labels,
)

TWO_STARS = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# the row check

def test_view_graph_validates_rows():
    with pytest.raises(ValueError, match="view graph rows must sum to 1"):
        check_graph(np.array([[0.6, 0.6]]), "view graph")
    with pytest.raises(ValueError, match="negative"):
        check_graph(np.array([[1.5, -0.5]]), "view graph")
    with pytest.raises(ValueError, match="2-d"):
        check_graph(np.ones(3), "view graph")
    with pytest.raises(ValueError, match="non-finite weight in consensus graph"):
        check_graph(np.array([[np.nan, 1.0]]), "consensus graph")


def test_graph_clamps_tiny_negative_noise():
    w = np.array([[1.0 + 1e-13, -1e-13]])
    g = check_graph(w, "view graph")
    assert g is w
    assert g.min() == 0.0
    assert abs(g.sum() - 1.0) <= 1e-8


# ---------------------------------------------------------------------------
# degrees

def test_degrees_of_row_stochastic_graph():
    d_n, d_m = degrees(TWO_STARS / 1.0)
    assert np.allclose(d_n, 1.0)
    assert np.allclose(d_m, [2.0, 2.0])


def test_degrees_example_matrix():
    d_n, d_m = degrees(np.array([[1.0, 0.0], [0.5, 0.5]]))
    assert np.allclose(d_n, [1.0, 1.0])
    assert np.allclose(d_m, [1.5, 0.5])


def test_degrees_floor_zero_columns():
    _, d_m = degrees(np.array([[1.0, 0.0]]))
    assert d_m[1] == 1e-12


# ---------------------------------------------------------------------------
# connected components

def test_two_stars_have_two_components():
    assert count_components(TWO_STARS) == 2


def test_uniform_graph_is_one_component():
    assert count_components(np.full((5, 3), 1.0 / 3.0)) == 1


def test_isolated_anchor_counts_as_component():
    w = np.array([[1.0, 0.0], [1.0, 0.0]])  # anchor 1 has no edges
    assert count_components(w) == 2
    labels, n_sample, anchor_only = sample_component_labels(w)
    assert np.array_equal(labels, [0, 0])
    assert n_sample == 1 and anchor_only == 1


def test_edges_at_or_below_eps_are_ignored():
    w = np.array([[1.0 - EDGE_EPS, EDGE_EPS], [0.0, 1.0]])
    assert count_components(w) == 2
    w2 = np.array([[1.0 - 2e-8, 2e-8], [0.0, 1.0]])
    assert count_components(w2) == 1


def anchor_path(rng, m):
    # m anchors in shuffled order joined into one path by m - 1 samples, each
    # on two consecutive anchors: the deepest label propagation there is
    order = rng.permutation(m)
    w = np.zeros((m - 1, m))
    w[np.arange(m - 1), order[:-1]] = 0.5
    w[np.arange(m - 1), order[1:]] = 0.5
    return w[rng.permutation(m - 1)]


def edge_case_graphs(rng):
    """(name, w) pairs at the edges of the component kernel: samples without
    an edge, anchors without one, a single anchor, entries exactly at
    EDGE_EPS and one ulp above, a long anchor path, and a thousand anchors."""
    lone = random_bipartite(rng, 30, 6, block=True)
    lone[rng.random(30) < 0.3] = 0.0
    bare = random_bipartite(rng, 30, 8, block=True)
    bare[:, [0, 3, 7]] = 0.0
    one = np.ones((12, 1))
    one[[2, 5]] = 0.0
    # two blocks bridged by entries at EDGE_EPS (no edge) or one ulp above
    at_eps = np.zeros((6, 4))
    at_eps[:3, :2] = at_eps[3:, 2:] = 0.5
    at_eps[1, 3] = at_eps[4, 0] = EDGE_EPS
    above_eps = at_eps.copy()
    above_eps[1, 3] = np.nextafter(EDGE_EPS, 1.0)
    wide = random_bipartite(rng, 400, 1000, density=0.002, block=True)
    return [("lone samples", lone), ("bare anchors", bare), ("m = 1", one),
            ("all zero", np.zeros((5, 3))), ("at EDGE_EPS", at_eps),
            ("one ulp above EDGE_EPS", above_eps), ("anchor path", anchor_path(rng, 300)),
            ("m = 1000", wide)]


def test_component_count_matches_eigen_oracle():
    rng = np.random.default_rng(0)
    for trial in range(60):
        n = int(rng.integers(2, 25))
        m = int(rng.integers(1, 9))
        w = random_bipartite(rng, n, m, block=bool(trial % 2))
        assert count_components(w) == eigen_component_count(w, EDGE_EPS)
    counts = {}
    for name, w in edge_case_graphs(rng):
        counts[name] = count_components(w)
        # the oracle sees the edge set at unit weight: a bridge that weighs
        # 1e-8 puts an eigenvalue below its tolerance
        assert counts[name] == eigen_component_count(1.0 * (w > EDGE_EPS), 0.5), name
    assert counts["at EDGE_EPS"] == 2 and counts["one ulp above EDGE_EPS"] == 1
    assert counts["anchor path"] == 1 and counts["all zero"] == 8


def test_sample_labels_follow_smallest_sample_index():
    # sample 0 joins anchor 1, sample 1 joins anchor 0: component of sample 0
    # must get label 0 regardless of anchor numbering
    w = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    labels, n_sample, anchor_only = sample_component_labels(w)
    assert np.array_equal(labels, [0, 1, 0])
    assert n_sample == 2 and anchor_only == 0


def bfs_sample_components(w, eps):
    # oracle: breadth-first search over samples 0..n-1, then anchors n..n+m-1,
    # so sample-bearing components are numbered by smallest sample index
    n, m = w.shape
    adj = [[] for _ in range(n + m)]
    for i, j in zip(*np.nonzero(w > eps)):
        adj[int(i)].append(n + int(j))
        adj[n + int(j)].append(int(i))
    comp = [-1] * (n + m)
    k = 0
    for start in range(n + m):
        if comp[start] < 0:
            comp[start] = k
            queue = [start]
            for a in queue:
                for b in adj[a]:
                    if comp[b] < 0:
                        comp[b] = k
                        queue.append(b)
            k += 1
    n_sample = len(set(comp[:n]))
    return comp[:n], n_sample, k - n_sample


def eps_edged_bipartite(rng, n, m):
    # block supports with some anchor columns cleared (anchor-only
    # components), plus many entries exactly at EDGE_EPS (no edge) and two
    # one ulp above it (edges that may bridge blocks)
    k = int(rng.integers(1, min(n, m) + 1))
    row_blk, col_blk = rng.integers(0, k, size=n), rng.integers(0, k, size=m)
    w = np.where(row_blk[:, None] == col_blk[None, :], rng.random((n, m)), 0.0)
    w[:, rng.random(m) < 0.2] = 0.0
    zero = np.flatnonzero(w == 0.0)
    w.flat[zero[rng.random(zero.size) < 0.05]] = EDGE_EPS
    w.flat[rng.choice(zero, size=min(zero.size, 2), replace=False)] = np.nextafter(EDGE_EPS, 1.0)
    return w


def test_sample_labels_match_bfs_oracle():
    rng = np.random.default_rng(5)
    sizes = [(int(rng.integers(1, 40)), int(rng.integers(1, 12))) for _ in range(80)]
    seen = []
    for n, m in sizes + [(3000, 30)]:
        w = eps_edged_bipartite(rng, n, m)
        labels, n_sample, anchor_only = sample_component_labels(w)
        want_labels, want_sample, want_anchor_only = bfs_sample_components(w, EDGE_EPS)
        assert np.array_equal(labels, want_labels)
        assert (n_sample, anchor_only) == (want_sample, want_anchor_only)
        assert count_components(w) == want_sample + want_anchor_only
        seen += [n_sample > 1, anchor_only > 0]
    assert np.sum(seen[0::2]) >= 20 and np.sum(seen[1::2]) >= 20
    assert n_sample > 1 and anchor_only > 0  # the (3000, 30) case
    for name, w in edge_case_graphs(rng):
        labels, n_sample, anchor_only = sample_component_labels(w)
        want_labels, want_sample, want_anchor_only = bfs_sample_components(w, EDGE_EPS)
        assert np.array_equal(labels, want_labels), name
        assert (n_sample, anchor_only) == (want_sample, want_anchor_only), name


# ---------------------------------------------------------------------------
# K-NN initialization

def test_knn_k1_is_one_hot_on_nearest_anchor():
    x = np.array([[0.0, 1.0, 4.1]])
    a = np.array([[0.0, 4.0]])
    g = knn_bipartite_init(x, a, 1)
    assert np.array_equal(g, [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_knn_k_equals_m_is_uniform():
    rng = np.random.default_rng(1)
    g = knn_bipartite_init(rng.standard_normal((3, 5)), rng.standard_normal((3, 4)), 4)
    assert np.allclose(g, 0.25)


def test_knn_tie_breaks_to_lower_anchor_index():
    # sample at 3 is equidistant from anchors at 2 and at 4 (indices 2 and 5)
    x = np.array([[3.0]])
    a = np.array([[10.0, -7.0, 2.0, 8.0, 9.0, 4.0]])
    g = knn_bipartite_init(x, a, 1)
    assert g[0, 2] == 1.0
    assert g[0].sum() == 1.0


def test_knn_weights_are_one_over_k():
    rng = np.random.default_rng(2)
    g = knn_bipartite_init(rng.standard_normal((2, 10)), rng.standard_normal((2, 6)), 3)
    assert set(np.unique(g)) == {0.0, 1.0 / 3.0}
    assert np.allclose(g.sum(axis=1), 1.0)


def test_knn_rejects_bad_k():
    x, a = np.zeros((2, 4)), np.zeros((2, 3))
    with pytest.raises(ValueError):
        knn_bipartite_init(x, a, 0)
    with pytest.raises(ValueError):
        knn_bipartite_init(x, a, 4)


# ---------------------------------------------------------------------------
# label extraction

def test_extract_labels_two_components():
    assert np.array_equal(extract_labels(TWO_STARS, expected_components=2), [0, 0, 1, 1])


def test_extract_labels_single_component_is_zeros():
    w = np.full((4, 2), 0.5)
    assert np.array_equal(extract_labels(w, expected_components=1), np.zeros(4))


def test_extract_labels_mismatch_raises():
    with pytest.raises(ValueError, match="component count mismatch"):
        extract_labels(TWO_STARS, expected_components=3)


def test_extract_labels_nets_out_anchor_only_components():
    w = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    # 2 sample-bearing components + 1 isolated anchor
    assert np.array_equal(extract_labels(w, expected_components=2), [0, 0, 1])
    with pytest.raises(ValueError, match="component count mismatch"):
        extract_labels(w, expected_components=3)


def test_extract_labels_invariant_to_positive_row_rescaling():
    # component structure depends only on the support, not edge magnitudes
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = random_bipartite(rng, 12, 4, block=True)
        w = w + 1e-6  # keep rows nonzero
        w = w / w.sum(axis=1, keepdims=True)
        k = sample_component_labels(w)[1]
        base = extract_labels(w, expected_components=k)
        scaled = w * rng.uniform(0.5, 2.0, size=(12, 1))
        assert np.array_equal(extract_labels(scaled, expected_components=k), base)


def test_dump_graph_round_trips(tmp_path):
    rng = np.random.default_rng(4)
    w = rng.random((5, 3))
    w /= w.sum(axis=1, keepdims=True)
    path = tmp_path / "graph.csv"
    dump_graph_csv(w, path)
    back = np.loadtxt(path, delimiter=",")
    assert np.array_equal(back, w)
