import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import (
    dense_bipartite_laplacian,
    eigen_component_count,
    projection_oracle,
    wide_feature_view,
)

import udbgl.solver as solver_mod
from udbgl.anchors import build_anchors
from udbgl.dataset import MultiViewDataset, normalize, synth_blobs
from udbgl.graphs import (
    EDGE_EPS,
    count_components,
    extract_labels,
    knn_bipartite_init,
)
from udbgl.metrics import nmi
from udbgl.numerics import QPConvergenceError
from udbgl.solver import (
    VARIANTS,
    RankTargetError,
    SolverConfig,
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

TWO_STARS = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])


def random_row_stochastic(rng, n, m):
    w = rng.random((n, m)) + 0.05
    return w / w.sum(axis=1, keepdims=True)


def blob_graphs():
    # normalized 60-sample blobs, their 6 anchors and K-NN (K = 3) view graphs
    ds = normalize(synth_blobs(60, 3, 2, noise=0.1, seed=0))
    anchors = build_anchors(ds, 6, seed=0)
    return ds, anchors, [knn_bipartite_init(x, a, 3) for x, a in zip(ds.views, anchors)]


def naive_objective(views, anchor_mats, z_mats, delta, p_mat, alpha, beta):
    # straight transcription of the loss, term by term
    total = 0.0
    for x, a, z in zip(views, anchor_mats, z_mats):
        total += ((x - a @ z.T) ** 2).sum() + alpha * (z ** 2).sum()
    mix = sum(d * z for d, z in zip(delta, z_mats))
    return float(total + beta * ((mix - p_mat) ** 2).sum())


# ---------------------------------------------------------------------------
# config

def test_config_resolves_defaults():
    cfg = SolverConfig(c=4)
    assert cfg.resolved_m() == 4 and cfg.resolved_k() == 4
    cfg = SolverConfig(c=3, m=20)
    assert cfg.resolved_m() == 20 and cfg.resolved_k() == 5
    assert SolverConfig(c=3, m=20, K=2).resolved_k() == 2


@pytest.mark.parametrize("kwargs,msg", [
    ({"c": 3, "alpha": 0.0}, "alpha"),
    ({"c": 3, "beta": -1.0}, "alpha"),
    ({"c": 0}, "c must"),
    ({"c": 3, "m": 2}, "at least c"),
    ({"c": 2, "K": 5}, "K="),
    ({"c": 2, "K": 0}, "K="),
    ({"c": 2, "outer_tol": float("nan")}, "outer_tol must be a finite number"),
    ({"c": 2, "alpha": float("inf")}, "alpha must be a finite number"),
    ({"c": 2, "outer_max_iter": 2.0}, "outer_max_iter must be an integer"),
    ({"c": 2, "outer_max_iter": 0}, "outer_max_iter must be positive"),
    ({"c": 2, "seed": 1.5}, "seed must be an integer"),
    ({"c": 2.0}, "c must be an integer"),
    ({"c": 2, "K": True}, "K must be an integer"),
    ({"c": 2, "seed": -1}, "seed must be nonnegative"),
])
def test_config_validation_errors(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        SolverConfig(**kwargs).validate()


def test_config_accepts_numpy_scalars():
    SolverConfig(c=np.int64(2), alpha=np.float64(0.5)).validate()


def test_config_checks_m_against_n():
    with pytest.raises(ValueError, match="exceeds sample count"):
        SolverConfig(c=2, m=10).validate(n=5)


# ---------------------------------------------------------------------------
# blend

def test_blend_single_view_is_identity():
    assert np.array_equal(blend([TWO_STARS], np.array([1.0])), TWO_STARS)


def test_blend_vertex_weight_selects_one_view():
    rng = np.random.default_rng(0)
    zs = [random_row_stochastic(rng, 5, 3) for _ in range(3)]
    out = blend(zs, np.array([0.0, 1.0, 0.0]))
    assert np.array_equal(out, zs[1])


def test_blend_uniform_weights_average():
    rng = np.random.default_rng(1)
    zs = [random_row_stochastic(rng, 4, 3) for _ in range(2)]
    out = blend(zs, np.array([0.5, 0.5]))
    assert np.allclose(out, 0.5 * (zs[0] + zs[1]))
    assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# spectral embedding

def test_update_f_columns_orthonormal():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = random_row_stochastic(rng, int(rng.integers(4, 20)), int(rng.integers(2, 6)))
        f_n, f_m, _ = update_f(p, 2)
        gram = f_n.T @ f_n + f_m.T @ f_m
        assert np.abs(gram - np.eye(2)).max() <= 1e-8


def test_update_f_trace_zero_on_c_component_graph():
    _, _, sigma = update_f(TWO_STARS, 2)
    assert abs(2 - sigma.sum()) <= 1e-8


def test_update_f_trace_zero_on_identity():
    for c in (1, 2, 3):
        _, _, sigma = update_f(np.eye(3), c)
        assert abs(c - sigma.sum()) <= 1e-8


def test_update_f_trace_matches_dense_eigensolver():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(4, 30))
        m = int(rng.integers(2, 7))
        c = int(rng.integers(1, m + 1))
        p = random_row_stochastic(rng, n, m)
        _, _, sigma = update_f(p, c)
        vals = np.linalg.eigvalsh(dense_bipartite_laplacian(p))
        assert abs((c - sigma.sum()) - vals[:c].sum()) <= 1e-6


# ---------------------------------------------------------------------------
# q matrix

def test_compute_q_zero_for_matching_rows():
    f = np.array([[0.3, 0.4], [0.1, -0.2], [0.5, 0.0]])
    q = compute_q((f, f.copy(), np.ones(2)), np.ones(3), np.ones(3))
    assert np.abs(np.diag(q)).max() <= 1e-15


def test_compute_q_orthonormal_rows_give_two():
    emb = (
        np.array([[1.0, 0.0], [1.0, 0.0]]),
        np.array([[0.0, 1.0], [0.0, 1.0]]),
        np.ones(2),
    )
    q = compute_q(emb, np.ones(2), np.ones(2))
    assert np.allclose(q, 2.0)


def test_compute_q_contracts_to_trace_term():
    # sum_ij q_ij p_ij equals c - sum(sigma) when q uses P's own
    # embedding and degrees
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(4, 25))
        m = int(rng.integers(2, 6))
        c = int(rng.integers(1, m + 1))
        p = random_row_stochastic(rng, n, m)
        d_n, d_m = np.maximum(p.sum(axis=1), 1e-12), np.maximum(p.sum(axis=0), 1e-12)
        emb = update_f(p, c, (d_n, d_m))
        q = compute_q(emb, d_n, d_m)
        assert abs((q * p).sum() - (c - emb[2].sum())) <= 1e-8


# ---------------------------------------------------------------------------
# P row update

def test_update_p_rows_gamma_zero_is_identity():
    rng = np.random.default_rng(5)
    b = random_row_stochastic(rng, 6, 4)
    assert np.allclose(update_p_rows(b, rng.random((6, 4)), 0.0), b, atol=1e-12)


def test_update_p_rows_large_gamma_one_hot():
    rng = np.random.default_rng(6)
    b = random_row_stochastic(rng, 5, 4)
    q = rng.random((5, 4))
    out = update_p_rows(b, q, 1e9)
    expect = np.zeros_like(b)
    expect[np.arange(5), np.argmin(q, axis=1)] = 1.0
    assert np.allclose(out, expect, atol=1e-8)


def test_update_p_rows_matches_projection_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        b = random_row_stochastic(rng, 1, 3)
        q = rng.random((1, 3))
        gamma = float(rng.uniform(0.0, 5.0))
        out = update_p_rows(b, q, gamma)
        ref = projection_oracle(b[0] - 0.5 * gamma * q[0])
        assert np.abs(out[0] - ref).max() <= 1e-10


# ---------------------------------------------------------------------------
# P subproblem

def test_update_p_exits_immediately_when_b_has_c_components():
    graph, gamma = update_p(TWO_STARS, 2)
    assert count_components(graph) == 2
    assert gamma == 0.1  # untouched on exit
    assert np.allclose(graph, TWO_STARS, atol=1e-12)
    _, _, sigma = update_f(graph, 2)
    assert abs(2 - sigma.sum()) <= 1e-8


def test_update_p_leaves_its_input_alone():
    # B already has c components (anchor 0 alone is one of them) and its one
    # sweep is rejected; the P returned is still a checked copy, and B,
    # passed read-only, keeps its bytes
    b = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.25, 0.75]])
    before = b.copy()
    b.setflags(write=False)
    sweeps = []
    graph, _ = update_p(b, 2, sweep_hook=sweeps.append)
    assert [s["accepted"] for s in sweeps] == [False]
    assert graph is not b
    assert b.tobytes() == before.tobytes()
    assert graph.min() == 0.0 and graph[0, 0] == b[0, 0]


def test_update_p_dense_b_single_component():
    rng = np.random.default_rng(8)
    b = random_row_stochastic(rng, 8, 3)
    graph, _ = update_p(b, 1)
    assert count_components(graph) == 1
    assert np.allclose(graph, b, atol=1e-9)


def test_update_p_splits_blob_blend_into_c_components():
    _, _, zs = blob_graphs()
    b = blend(zs, np.array([0.5, 0.5]))
    graph, gamma = update_p(b, 3)
    assert count_components(graph) == 3
    assert eigen_component_count(graph, EDGE_EPS) == 3
    _, _, sigma = update_f(graph, 3)
    assert abs(3 - sigma.sum()) <= 1e-6
    assert np.abs(graph.sum(axis=1) - 1.0).max() <= 1e-8


def test_update_p_sweep_hook_reports_monotone_accepted_sweeps():
    ds = normalize(synth_blobs(40, 3, 2, noise=0.1, seed=1))
    anchors = build_anchors(ds, 3, seed=0)
    zs = [knn_bipartite_init(x, a, 3) for x, a in zip(ds.views, anchors)]
    b = blend(zs, np.array([0.5, 0.5]))
    rows = []
    update_p(b, 3, sweep_hook=rows.append)
    assert [r["sweep"] for r in rows] == list(range(len(rows)))
    for r in rows:
        assert set(r) >= {"sweep", "gamma", "components", "accepted",
                          "surrogate_before", "surrogate_after", "candidate_surrogate"}
        assert r["surrogate_after"] <= r["surrogate_before"] + 1e-9
        if not r["accepted"]:
            assert r["candidate_surrogate"] > r["surrogate_before"]


def test_update_p_counts_components_only_when_edges_change(monkeypatch):
    # the count depends only on the edge set P > EDGE_EPS, so update_p
    # recounts only when an accepted P's edges differ from those of the last
    # graph it counted. Replaying each call with a count of every accepted
    # P must give the sweep hook's counts; update_p depends on the count
    # alone, so the gamma path, labels and objective trace are those of
    # counting on every accepted sweep
    ds = synth_blobs(300, 5, 3, noise=0.6, seed=2)
    count_calls, seeds, candidates, rows = [], [], [], []
    monkeypatch.setattr(solver_mod, "count_components",
                        lambda g: count_calls.append(1) or count_components(g))

    def recording_update_p(b, c, sweep_hook=None):
        seeds.append(b.copy())
        return update_p(b, c, sweep_hook=sweep_hook)

    def recording_rows(b, q, gamma, out=None):
        p = update_p_rows(b, q, gamma, out=out)
        candidates.append(p.copy())
        return p

    monkeypatch.setattr(solver_mod, "update_p", recording_update_p)
    monkeypatch.setattr(solver_mod, "update_p_rows", recording_rows)
    cfg = SolverConfig(c=5, m=30, outer_max_iter=3)
    labels, state = fit(ds, cfg, variant="knn_fusion_only", p_sweep_hook=rows.append)
    assert len(candidates) == len(rows)
    replay, calls = [], iter(seeds)
    for row, p in zip(rows, candidates):
        if row["sweep"] == 0:
            count = count_components(next(calls))
        if row["accepted"]:
            count = count_components(p)
        replay.append(count)
    assert [r["components"] for r in rows] == replay
    every_accepted = len(seeds) + sum(r["accepted"] for r in rows)
    assert len(count_calls) < every_accepted
    # and the recorders leave the fit as it is
    monkeypatch.undo()
    labels_again, state_again = fit(ds, cfg, variant="knn_fusion_only")
    assert np.array_equal(labels, labels_again)
    assert state.objective_trace == state_again.objective_trace


def test_update_p_gamma_bound_error(monkeypatch):
    b = np.full((6, 3), 1.0 / 3.0)  # one component, needs gamma escalation
    monkeypatch.setattr(solver_mod, "_GAMMA_MAX", 0.2)
    with pytest.raises(RankTargetError, match="gamma"):
        update_p(b, 3)


def test_update_p_sweep_budget_error(monkeypatch):
    b = np.full((6, 3), 1.0 / 3.0)
    monkeypatch.setattr(solver_mod, "_P_SWEEPS", 1)
    with pytest.raises(RankTargetError, match="sweeps"):
        update_p(b, 3)


# ---------------------------------------------------------------------------
# Z update

def test_update_z_self_representation_limit():
    # X = A with vanishing regularization: each sample reproduces itself
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 5))
    zs = [np.full((5, 5), 0.2)]
    p = np.full((5, 5), 0.2)
    z = update_z(0, a.copy(), a, zs, np.array([1.0]), p, 1e-10, 1e-10)
    assert np.abs(z - np.eye(5)).max() <= 1e-6


def test_update_z_single_anchor():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 6))
    a = rng.standard_normal((3, 1))
    zs = [np.ones((6, 1))]
    z = update_z(0, x, a, zs, np.array([1.0]), np.ones((6, 1)), 1.0, 1.0)
    assert np.array_equal(z, np.ones((6, 1)))


def test_update_z_matches_grid_oracle():
    # n=3 samples, m=2 anchors: each row is a 1-parameter problem; the
    # oracle grids the raw per-row loss, independent of the QP algebra
    rng = np.random.default_rng(11)
    for trial in range(5):
        x = rng.standard_normal((3, 3))
        a = rng.standard_normal((3, 2))
        z0 = random_row_stochastic(rng, 3, 2)
        other = random_row_stochastic(rng, 3, 2)
        p = random_row_stochastic(rng, 3, 2)
        delta = np.array([0.6, 0.4])
        zs = [z0, other]
        out = update_z(0, x, a, zs, delta, p, 1.0, 1.0)
        ts = np.linspace(0.0, 1.0, 10001)
        cand = np.stack([ts, 1.0 - ts], axis=1)
        for j in range(3):
            resid = x[:, j][None, :] - cand @ a.T
            fuse = delta[0] * cand + delta[1] * other[j][None, :] - p[j][None, :]
            loss = (resid ** 2).sum(axis=1) + (cand ** 2).sum(axis=1) + (fuse ** 2).sum(axis=1)
            best = cand[np.argmin(loss)]
            assert np.abs(out[j] - best).max() <= 2e-4


def test_update_z_never_increases_objective():
    rng = np.random.default_rng(12)
    for seed in range(3):
        ds = normalize(synth_blobs(30, 3, 2, noise=0.2, seed=seed))
        anchors = build_anchors(ds, 4, seed=seed)
        zs = [knn_bipartite_init(x, a, 2) for x, a in zip(ds.views, anchors)]
        delta = np.array([0.3, 0.7])
        p = random_row_stochastic(rng, 30, 4)
        z_mats = [z.copy() for z in zs]
        before = naive_objective(ds.views, anchors, z_mats, delta, p, 1.0, 1.0)
        for v in range(2):
            zs[v] = update_z(v, ds.views[v], anchors[v], zs, delta, p, 1.0, 1.0)
            z_mats[v] = zs[v]
            after = naive_objective(ds.views, anchors, z_mats, delta, p, 1.0, 1.0)
            assert after <= before + 1e-9
            before = after


def test_update_z_from_knn_seed_takes_few_newton_steps(monkeypatch):
    # m=100 anchors and a 5-coordinate K-NN seed per row: optimal supports
    # are far larger, so adding one coordinate per step would take dozens
    rounds = []
    solve = solver_mod.solve_simplex_qp_rows

    def counted(h, f, x0):
        return solve(h, f, x0, sweep_hook=lambda n_rows: rounds.append(n_rows))

    monkeypatch.setattr(solver_mod, "solve_simplex_qp_rows", counted)
    ds = normalize(synth_blobs(n=500, c=5, n_views=1, dims=[20], noise=0.3))
    anchors = build_anchors(ds, 100, seed=0)
    zs = [knn_bipartite_init(ds.views[0], anchors[0], 5)]
    update_z(0, ds.views[0], anchors[0], zs, np.array([1.0]), zs[0], 1.0, 1.0)
    assert rounds and rounds[0] == 500  # the first step sees every row
    assert len(rounds) <= 15, len(rounds)


def test_update_z_propagates_view_in_qp_errors(monkeypatch):
    def boom(*args, **kwargs):
        raise QPConvergenceError("row 3: stalled")
    monkeypatch.setattr(solver_mod, "solve_simplex_qp_rows", boom)
    zs = [np.ones((2, 1)), np.ones((2, 1))]
    with pytest.raises(QPConvergenceError, match="view 1: row 3"):
        update_z(1, np.ones((2, 2)), np.ones((2, 1)), zs, np.array([0.5, 0.5]),
                 np.ones((2, 1)), 1.0, 1.0)


def _off_simplex(fn):
    # fn with row 0 of its result raised by 1e-6: inside the QP's KKT
    # tolerance, outside the row check's 1e-8
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        out[0, np.argmax(out[0])] += 1e-6
        return out
    return wrapped


def test_update_z_checks_the_graph_it_returns(monkeypatch):
    ds, anchors, zs = blob_graphs()
    monkeypatch.setattr(solver_mod, "solve_simplex_qp_rows",
                        _off_simplex(solver_mod.solve_simplex_qp_rows))
    delta = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="view graph rows must sum to 1"):
        update_z(0, ds.views[0], anchors[0], zs, delta, blend(zs, delta), 1.0, 1.0)


def test_update_p_checks_the_graph_it_returns(monkeypatch):
    _, _, zs = blob_graphs()
    monkeypatch.setattr(solver_mod, "project_rows_onto_simplex",
                        _off_simplex(solver_mod.project_rows_onto_simplex))
    with pytest.raises(ValueError, match="consensus graph rows must sum to 1"):
        update_p(blend(zs, np.array([0.5, 0.5])), 3)


# ---------------------------------------------------------------------------
# delta update

def test_update_delta_single_view():
    out = update_delta([TWO_STARS], TWO_STARS)
    assert np.allclose(out, [1.0])


def test_update_delta_prefers_matching_view():
    p = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    z1 = p.copy()
    z2 = 1.0 - p
    out = update_delta([z1, z2], p)
    assert np.allclose(out, [1.0, 0.0], atol=1e-8)


def test_update_delta_matches_1d_grid():
    rng = np.random.default_rng(13)
    for _ in range(10):
        z1 = random_row_stochastic(rng, 6, 3)
        z2 = random_row_stochastic(rng, 6, 3)
        p = random_row_stochastic(rng, 6, 3)
        out = update_delta([z1, z2], p)
        ts = np.linspace(0.0, 1.0, 10001)
        loss = np.array([((t * z1 + (1 - t) * z2 - p) ** 2).sum() for t in ts])
        best = ts[np.argmin(loss)]
        assert abs(out[0] - best) <= 2e-3
        assert abs(out.sum() - 1.0) <= 1e-8


def test_update_delta_identical_views_singular_gram():
    # two views with the same graph: the Gram H is singular, and so is the
    # KKT system on any support holding both views
    rng = np.random.default_rng(15)
    for _ in range(5):
        z = random_row_stochastic(rng, 6, 3)
        p = random_row_stochastic(rng, 6, 3)
        other = random_row_stochastic(rng, 6, 3)
        for mats in ([z, z], [z, z, other]):
            out = update_delta([m.copy() for m in mats], p)
            assert np.all(np.isfinite(out)) and out.min() >= 0.0
            assert abs(out.sum() - 1.0) <= 1e-12


def test_update_delta_never_worse_than_previous():
    rng = np.random.default_rng(14)
    def fusion(delta, mats, p):
        return ((sum(d * m for d, m in zip(delta, mats)) - p) ** 2).sum()
    for _ in range(10):
        mats = [random_row_stochastic(rng, 5, 3) for _ in range(3)]
        p = random_row_stochastic(rng, 5, 3)
        prev = projection_oracle(rng.standard_normal(3))
        out = update_delta(mats, p)
        assert fusion(out, mats, p) <= fusion(prev, mats, p) + 1e-12


# ---------------------------------------------------------------------------
# objective

def _state_for(zs, p, delta):
    from udbgl.solver import SolverState
    return SolverState(zs=zs, p=p, delta=delta, gamma=0.1)


def test_objective_zero_residual_leaves_alpha_term():
    rng = np.random.default_rng(15)
    z = random_row_stochastic(rng, 6, 3)
    a = rng.standard_normal((4, 3))
    x = a @ z.T
    ds = MultiViewDataset([x])
    anchors = [a]
    state = _state_for([z], z.copy(), np.array([1.0]))
    cfg = SolverConfig(c=2, alpha=0.7, beta=3.0)
    assert abs(objective(state, ds, anchors, cfg) - 0.7 * (z ** 2).sum()) <= 1e-10


def test_objective_uniform_rows_closed_form():
    n, m, nviews = 12, 4, 3
    z = np.full((n, m), 1.0 / m)
    a = np.zeros((2, m))
    x = a @ z.T
    ds = MultiViewDataset([x] * nviews)
    anchors = [a] * nviews
    zs = [z.copy() for _ in range(nviews)]
    state = _state_for(zs, z.copy(), np.full(nviews, 1 / nviews))
    cfg = SolverConfig(c=2, alpha=1.3, beta=1.0)
    # ||Z||_F^2 = n/m for uniform rows
    assert abs(objective(state, ds, anchors, cfg) - 1.3 * nviews * n / m) <= 1e-10


def test_objective_matches_naive_recompute():
    rng = np.random.default_rng(16)
    for _ in range(10):
        n, m = 7, 3
        views = [rng.standard_normal((3, n)), rng.standard_normal((2, n))]
        ds = MultiViewDataset(views)
        a_mats = [rng.standard_normal((3, m)), rng.standard_normal((2, m))]
        z_mats = [random_row_stochastic(rng, n, m) for _ in range(2)]
        delta = projection_oracle(rng.standard_normal(2))
        p = random_row_stochastic(rng, n, m)
        state = _state_for(list(z_mats), p, delta)
        cfg = SolverConfig(c=2, alpha=0.4, beta=2.5)
        ref = naive_objective(views, a_mats, z_mats, delta, p, 0.4, 2.5)
        assert abs(objective(state, ds, a_mats, cfg) - ref) <= 1e-9 * max(1.0, ref)


# ---------------------------------------------------------------------------
# fit

def test_fit_recovers_blob_clusters():
    ds = synth_blobs(120, 3, 2, noise=0.1, seed=0)
    labels, state = fit(ds, SolverConfig(c=3))
    assert nmi(labels, ds.labels) >= 0.95
    assert state.iterations >= 1
    assert len(state.objective_trace) == state.iterations + 1


def test_fit_n_equals_c_gives_singletons():
    ds = synth_blobs(3, 3, 1, dims=[2], noise=0.1, seed=0)
    labels, state = fit(ds, SolverConfig(c=3))
    assert np.array_equal(labels, [0, 1, 2])
    assert len(state.objective_trace) <= 51


def test_fit_handles_wide_sparse_views():
    # shaped like a small webpage corpus: 187 samples, two views of very
    # different dimensionality, 5 classes
    ds = synth_blobs(187, 5, 2, dims=[187, 1703], noise=0.1, seed=0)
    labels, state = fit(ds, SolverConfig(c=5))
    assert labels.shape == (187,)
    assert extract_labels(state.p).max() + 1 == 5


def test_fit_raises_when_a_component_holds_no_sample():
    # 30 copies of one point with c = m = 3 and K = 1: update_p reaches 3
    # components, one of them anchor-only, so the samples fall into 2 and
    # fit raises instead of returning 2 labels for 3 clusters
    ds = MultiViewDataset([np.ones((2, 30))])
    with pytest.raises(RankTargetError, match="component count mismatch: 2 sample-bearing "
                                              "components, expected 3"):
        fit(ds, SolverConfig(c=3, m=3, K=1))


def test_fit_deterministic():
    ds = synth_blobs(80, 3, 2, noise=0.15, seed=3)
    l1, s1 = fit(ds, SolverConfig(c=3))
    l2, s2 = fit(ds, SolverConfig(c=3))
    assert np.array_equal(l1, l2)
    assert s1.objective_trace == s2.objective_trace
    assert np.array_equal(s1.delta, s2.delta)


def test_fit_callback_stage_order():
    ds = synth_blobs(30, 2, 2, noise=0.1, seed=4)
    stages = []
    fit(ds, SolverConfig(c=2), callback=lambda stage, state: stages.append(stage))
    assert stages[0] == "init"
    per_iter = ["update_p", "update_z:0", "update_z:1", "update_delta"]
    body = stages[1:]
    assert len(body) % len(per_iter) == 0
    for i, stage in enumerate(body):
        assert stage == per_iter[i % len(per_iter)]


def test_fit_variants_produce_valid_labelings():
    ds = synth_blobs(90, 3, 2, noise=0.2, seed=0)
    cfg = dict(c=3, m=10, K=5)
    scores = {}
    for variant in ("full", "knn_fusion_only", "two_phase"):
        labels, state = fit(ds, SolverConfig(**cfg), variant=variant)
        assert labels.shape == (90,)
        assert extract_labels(state.p).max() + 1 == 3
        scores[variant] = nmi(labels, ds.labels)
    assert scores["full"] >= 0.95
    assert scores["two_phase"] >= 0.95
    assert scores["full"] >= scores["knn_fusion_only"] - 0.05


def test_fit_knn_fusion_only_keeps_seed_graphs():
    ds = synth_blobs(40, 2, 2, noise=0.1, seed=5)
    seen = []
    fit(ds, SolverConfig(c=2, m=6, K=3), variant="knn_fusion_only",
        callback=lambda stage, state: seen.append(stage))
    assert not any(s.startswith("update_z") for s in seen)


def test_fit_rejects_unknown_variant_and_bad_config():
    ds = synth_blobs(20, 2, 1, seed=7)
    with pytest.raises(ValueError, match="variant"):
        fit(ds, SolverConfig(c=2), variant="none")
    with pytest.raises(ValueError, match="alpha"):
        fit(ds, SolverConfig(c=2, alpha=-1.0))
    with pytest.raises(ValueError, match="exceeds sample count"):
        fit(ds, SolverConfig(c=2, m=50))


EXTREME_BLOBS = synth_blobs(40, 3, 2, noise=0.1, seed=0)


@settings(max_examples=40, deadline=None)
@given(log_alpha=st.floats(-300.0, 308.0), log_beta=st.floats(-300.0, 308.0),
       variant=st.sampled_from(VARIANTS))
@example(log_alpha=308.0, log_beta=0.0, variant="full")
@example(log_alpha=0.0, log_beta=308.0, variant="full")
@example(log_alpha=307.7, log_beta=0.0, variant="full")
@example(log_alpha=307.7, log_beta=0.0, variant="two_phase")
def test_fit_ends_labeled_or_typed_for_any_regularization(log_alpha, log_beta, variant):
    # alpha, beta log-uniform over [1e-300, 1e308]: near the top the QP data
    # or the objective overflow float64, which must end in a typed error; the
    # pinned examples are such edges (2H and the seed objective, F, and an
    # objective that overflows while the QP data stays finite; under
    # two_phase, a QP whose H - rho I is zero, so its dual has no dimension)
    cfg = SolverConfig(c=3, alpha=10.0 ** log_alpha, beta=10.0 ** log_beta,
                       m=8, outer_max_iter=5)
    try:
        labels, state = fit(EXTREME_BLOBS, cfg, variant=variant)
    except (RankTargetError, QPConvergenceError):
        return
    assert len(np.unique(labels)) == 3
    assert np.all(np.isfinite(state.objective_trace))


def _duplicated(ds):
    return MultiViewDataset([np.concatenate([x, x], axis=1) for x in ds.views],
                            np.concatenate([ds.labels, ds.labels]))


def _constant_beside_varying():
    ds = synth_blobs(30, 3, 2, seed=0)
    return MultiViewDataset([np.ones_like(ds.views[0]), ds.views[1]], ds.labels)


def _unbalanced(sizes):
    # clusters of the given sizes, cut from blobs in two six-feature views
    ds = synth_blobs(len(sizes) * max(sizes), len(sizes), 2, dims=[6, 6], seed=0)
    idx = np.sort(np.concatenate([np.flatnonzero(ds.labels == k)[:size]
                                  for k, size in enumerate(sizes)]))
    return MultiViewDataset([x[:, idx] for x in ds.views], ds.labels[idx])


IDENTICAL = [np.ones((3, 12)), np.full((2, 12), 0.5)]
EDGE_INPUTS = {
    "c=1, m=5": (lambda: synth_blobs(30, 1, 2, seed=0), dict(c=1, m=5)),
    "c=1, m=1": (lambda: synth_blobs(30, 1, 2, seed=0), dict(c=1, m=1)),
    "identical points, c=2": (lambda: MultiViewDataset(IDENTICAL), dict(c=2)),
    "identical points, c=1": (lambda: MultiViewDataset(IDENTICAL), dict(c=1)),
    "duplicated points": (lambda: _duplicated(synth_blobs(30, 3, 2, seed=0)), dict(c=3, m=10)),
    "1-d views": (lambda: synth_blobs(30, 3, 2, dims=[1, 1], seed=0), dict(c=3, m=6)),
    "m=n": (lambda: synth_blobs(12, 3, 2, seed=0), dict(c=3, m=12)),
    "m=c, K=m": (lambda: synth_blobs(30, 3, 2, seed=0), dict(c=3, m=3, K=3)),
    "one-sample cluster beside a two-sample one": (
        lambda: MultiViewDataset([np.array([[0.0, 0.1, 5.0], [0.0, 0.2, 5.0]]),
                                  np.array([[1.0, 1.1, -4.0]])]), dict(c=2)),
    "constant view beside a varying one": (_constant_beside_varying, dict(c=3, m=9)),
    "feature range beyond the float maximum": (
        lambda: MultiViewDataset([wide_feature_view()]), dict(c=2)),
    "clusters of 1990, 5 and 5": (lambda: _unbalanced([1990, 5, 5]), dict(c=3, m=30)),
}


@pytest.mark.parametrize("name", list(EDGE_INPUTS))
def test_fit_ends_labeled_or_typed_on_edge_inputs(name):
    # every valid input ends in exactly c sample-bearing components and no
    # anchor-only one, labeled 0..c-1, or in a typed solver error
    make, kwargs = EDGE_INPUTS[name]
    cfg = SolverConfig(**kwargs)
    try:
        labels, state = fit(make(), cfg)
    except (RankTargetError, QPConvergenceError):
        return
    assert np.array_equal(np.unique(labels), np.arange(cfg.c))
    n_sample = extract_labels(state.p).max() + 1
    assert (n_sample, count_components(state.p) - n_sample) == (cfg.c, 0)
