import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import projection_oracle, simplex_qp_oracle

import udbgl.numerics as numerics
from udbgl.numerics import (
    QPConvergenceError,
    _fill_empty,
    _kmeanspp,
    _sqdist,
    kkt_residual,
    kmeans,
    project_rows_onto_simplex,
    solve_simplex_qp_rows,
    truncated_svd,
)


# ---------------------------------------------------------------------------
# simplex projection

def test_project_simplex_shifts_deficit_equally():
    # sum is 0.9, all coordinates stay positive -> each gains 0.1/3
    out = project_rows_onto_simplex(np.array([[0.5, 0.3, 0.1]]))[0]
    assert np.allclose(out, [0.5 + 1 / 30, 0.3 + 1 / 30, 0.1 + 1 / 30], atol=1e-15)


def test_project_simplex_fixes_feasible_points():
    v = np.array([[0.2, 0.5, 0.3]])
    assert np.allclose(project_rows_onto_simplex(v), v, atol=1e-15)


def test_project_simplex_saturates_to_vertex():
    out = project_rows_onto_simplex(np.array([[-10.0, 5.0, -3.0]]))[0]
    assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-15)


def test_project_simplex_matches_kkt_oracle():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        dim = int(rng.integers(1, 11))
        v = rng.uniform(-3, 3, size=dim) * rng.choice([0.1, 1.0, 10.0])
        out = project_rows_onto_simplex(v[None, :])[0]
        assert abs(out.sum() - 1.0) <= 1e-12
        assert out.min() >= 0.0
        assert np.abs(out - projection_oracle(v)).max() <= 1e-12


def test_project_rows_matches_per_row_projection():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((40, 7)) * 3
    out = project_rows_onto_simplex(mat)
    for i in range(mat.shape[0]):
        assert np.allclose(out[i], project_rows_onto_simplex(mat[i : i + 1])[0], atol=1e-14)


@pytest.mark.parametrize("row", [[1e17, 0.0, 1.0], [1e300, 0.0]])
def test_project_simplex_huge_entry_reaches_vertex(row):
    # above 2^53 the 1 in 1 - u_1 is lost; the row must still land on e_0
    out = project_rows_onto_simplex(np.array([row]))
    assert np.array_equal(out, np.eye(len(row))[:1])


def test_project_simplex_is_shift_invariant_up_to_1e300():
    # u = (v + t) - t is exact, so v + t and u are the same point of the
    # simplex's affine family and must project alike for every offset t
    rng = np.random.default_rng(21)
    v = rng.uniform(-3, 3, size=(40, 6))
    v[::4, 3] = v[::4, 0]  # ties
    for t in 10.0 ** np.arange(0, 301, 15):
        for sign in (1.0, -1.0):
            w = v + sign * t
            u = w - sign * t
            got = project_rows_onto_simplex(w)
            assert np.abs(got - project_rows_onto_simplex(u)).max() <= 1e-12, t
            assert np.abs(got.sum(axis=1) - 1.0).max() <= 1e-12, t


def test_project_simplex_rows_within_unit_range_keep_their_bits():
    # a row whose largest entry lies in [-1, 1] is computed as before, even
    # next to a row that needs shifting
    rng = np.random.default_rng(22)
    mat = rng.uniform(-1, 1, size=(30, 5))
    alone = project_rows_onto_simplex(mat)
    mixed = project_rows_onto_simplex(np.vstack([mat, [[1e17, 0.0, 1.0, 2.0, -5.0]]]))
    assert np.array_equal(mixed[:30], alone)
    u = np.sort(mat, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    rho = np.count_nonzero(u + (1.0 - css) / np.arange(1, 6) > 0.0, axis=1)
    theta = (css[np.arange(30), rho - 1] - 1.0) / rho
    assert np.array_equal(alone, np.maximum(mat - theta[:, None], 0.0))


def test_project_rows_rejects_bad_input():
    with pytest.raises(ValueError):
        project_rows_onto_simplex(np.zeros((2, 0)))
    with pytest.raises(ValueError):
        project_rows_onto_simplex(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        project_rows_onto_simplex(np.zeros(3))  # a vector, not rows


# ---------------------------------------------------------------------------
# k-means

def _sse(x, centers, assign):
    return float(((x - centers[:, assign].T) ** 2).sum())


def test_kmeans_k1_returns_mean():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((3, 20))
    centers, assign = kmeans(pts, 1, seed=0)
    assert np.allclose(centers[:, 0], pts.mean(axis=1), atol=1e-12)
    assert np.array_equal(assign, np.zeros(20, dtype=int))


def test_kmeans_k_equals_n_returns_the_points():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((2, 6))
    centers, assign = kmeans(pts, 6, seed=0)
    # each point is its own center, up to center ordering
    assert sorted(assign.tolist()) == list(range(6))
    assert np.allclose(np.sort(centers.T, axis=0), np.sort(pts.T, axis=0), atol=1e-12)
    assert np.allclose(centers[:, assign], pts, atol=1e-12)


def test_kmeans_matches_brute_force_two_clusters():
    rng = np.random.default_rng(4)
    for trial in range(5):
        n = int(rng.integers(4, 11))
        pts = rng.standard_normal((2, n)) * 2
        x = pts.T
        best = np.inf
        for bits in itertools.product([0, 1], repeat=n):
            a = np.array(bits)
            if a.min() == a.max():
                continue
            sse = sum(((x[a == j] - x[a == j].mean(axis=0)) ** 2).sum() for j in (0, 1))
            best = min(best, sse)
        centers, assign = kmeans(pts, 2, seed=trial)
        assert _sse(x, centers, assign) <= best + 1e-9


def test_kmeans_deterministic_per_seed():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((4, 50))
    c1, a1 = kmeans(pts, 5, seed=11)
    c2, a2 = kmeans(pts, 5, seed=11)
    assert np.array_equal(a1, a2) and np.array_equal(c1, c2)


def test_kmeans_lloyd_sse_non_increasing():
    # one restart, capped at 1..T Lloyd updates: the same k-means++ start,
    # so each cap extends the previous run by one update
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((3, 80))
    x = pts.T
    sse = [_sse(x, *kmeans(pts, 4, seed=0, n_init=1, max_iter=t)) for t in range(1, 16)]
    assert all(b <= a + 1e-9 for a, b in zip(sse, sse[1:]))
    assert sse[-1] < sse[0]


def test_kmeans_restarts_never_hurt():
    rng = np.random.default_rng(7)
    for seed in range(6):
        pts = rng.standard_normal((2, 30))
        x = pts.T
        sse1 = _sse(x, *kmeans(pts, 3, seed=seed, n_init=1))
        sse10 = _sse(x, *kmeans(pts, 3, seed=seed, n_init=10))
        assert sse10 <= sse1 + 1e-9


def _reference_kmeans(points, k, seed, max_iter, n_init):
    # the per-step loop that scored every Lloyd update into an SSE trace and
    # picked the restart whose last trace entry was lowest
    x = np.asarray(points, dtype=float).T
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        xx = (x * x).sum(axis=1)
        centers = _kmeanspp(x, xx, k, rng)
        assign = None
        trace = []
        for _ in range(max_iter):
            d2 = _sqdist(x, centers, xx)
            new_assign = np.argmin(d2, axis=1)
            counts = np.bincount(new_assign, minlength=k)
            if not counts.all():
                _fill_empty(x, xx, centers, new_assign, d2, counts)
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for f in range(x.shape[1]):
                centers[:, f] = np.bincount(assign, weights=x[:, f], minlength=k) / counts
            trace.append(float(((x - centers[assign]) ** 2).sum()))
        if best is None or trace[-1] < best[0]:
            best = (trace[-1], centers, assign)
    return best[1].T.copy(), best[2]


def test_kmeans_matches_reference_lloyd():
    # bit for bit, including duplicated points (empty-cluster repair) and k = n
    for seed in range(50):
        rng = np.random.default_rng(100 + seed)
        d, n = int(rng.integers(1, 6)), int(rng.integers(2, 60))
        pts = rng.standard_normal((d, n)) * 2
        if seed % 3 == 0:
            pts = pts[:, rng.integers(max(1, n // 4), size=n)]
        k = n if seed % 5 == 0 else int(rng.integers(1, n + 1))
        max_iter = int(rng.choice([1, 2, 3, 100]))
        n_init = int(rng.integers(1, 11))
        centers, assign = kmeans(pts, k, seed=seed, max_iter=max_iter, n_init=n_init)
        want_centers, want_assign = _reference_kmeans(pts, k, seed, max_iter, n_init)
        assert np.array_equal(assign, want_assign), seed
        assert np.array_equal(centers, want_centers), seed
        assert np.array_equal(np.signbit(centers), np.signbit(want_centers)), seed


def _reference_greedy_kmeanspp(x, xx, k, rng):
    # one candidate at a time: draw 2 + floor(ln k) D^2-weighted candidates
    # and keep the first with the lowest potential. The candidates' Gram
    # block is formed as one product, as in the package: BLAS rounds a
    # one-row product differently, which would break ties the other way
    n = x.shape[0]
    first = int(rng.integers(n))
    picked = [first]
    closest = _sqdist(x, x[first : first + 1], xx)[:, 0]
    while len(picked) < k:
        total = closest.sum()
        if total > 0:
            cum = np.cumsum(closest)
            cands = [min(int(np.searchsorted(cum, r, side="right")), n - 1)
                     for r in rng.random(2 + int(np.log(k))) * total]
            best = None
            for c, g in zip(cands, x[cands] @ x.T):
                d = np.minimum(np.maximum(xx[c] + xx - 2.0 * g, 0.0), closest)
                if best is None or d.sum() < best[0]:
                    best = (d.sum(), c, d)
            _, idx, closest = best
        else:
            idx = next(i for i in range(n) if i not in picked)
        picked.append(idx)
    return x[picked]


def test_kmeanspp_matches_reference_greedy():
    # bit for bit, including duplicated points, k = n and k = 1
    for seed in range(50):
        rng = np.random.default_rng(400 + seed)
        d, n = int(rng.integers(1, 25)), int(rng.integers(1, 200))
        x = rng.standard_normal((n, d)) * 2
        if seed % 3 == 0:
            x = x[rng.integers(max(1, n // 4), size=n)]
        k = n if seed % 5 == 0 else 1 if seed % 7 == 0 else int(rng.integers(1, n + 1))
        xx = (x * x).sum(axis=1)
        got = _kmeanspp(x, xx, k, np.random.default_rng(seed))
        want = _reference_greedy_kmeanspp(x, xx, k, np.random.default_rng(seed))
        assert np.array_equal(got, want), seed


def test_kmeans_handles_duplicate_points():
    pts = np.array([[1.0, 1.0, 1.0, 5.0], [0.0, 0.0, 0.0, 0.0]])
    centers, assign = kmeans(pts, 2, seed=0)
    assert len(np.unique(assign)) == 2  # empty-cluster repair kept both alive


def test_kmeans_duplicated_points_fill_every_cluster():
    # more clusters than distinct points: the empty-cluster repair must not
    # take a cluster's only member, or a center becomes a mean of nothing
    for seed in range(300):
        rng = np.random.default_rng(seed)
        d, distinct = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        n = int(rng.integers(distinct, 12))
        pts = rng.standard_normal((d, distinct))[:, rng.integers(distinct, size=n)]
        k = int(rng.integers(1, n + 1))
        centers, assign = kmeans(pts, k, seed=seed)
        assert np.all(np.isfinite(centers)), seed
        assert np.array_equal(np.unique(assign), np.arange(k)), seed


def test_kmeans_centers_are_exact_cluster_means():
    # bit for bit, not to a tolerance; with one feature numpy's mean sums
    # pairwise, so the inputs have two or more
    for seed in range(4):
        rng = np.random.default_rng(seed)
        d, n, k = int(rng.integers(2, 30)), int(rng.integers(200, 600)), int(rng.integers(2, 20))
        pts = rng.standard_normal((d, 4))[:, rng.integers(4, size=n)] * 3
        pts += rng.standard_normal((d, n))
        centers, assign = kmeans(pts, k, seed=seed)
        for j in range(k):
            assert np.array_equal(centers.T[j], pts.T[assign == j].mean(axis=0))


def test_kmeans_rejects_bad_k():
    pts = np.zeros((2, 4))
    with pytest.raises(ValueError):
        kmeans(pts, 0)
    with pytest.raises(ValueError):
        kmeans(pts, 5)
    with pytest.raises(ValueError):
        kmeans(pts, 2, n_init=0)
    with pytest.raises(ValueError, match="max_iter"):
        kmeans(pts, 2, max_iter=0)


# ---------------------------------------------------------------------------
# truncated SVD

def test_truncated_svd_matches_dense_svd():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(3, 15))
        m = int(rng.integers(2, n + 1))
        c = int(rng.integers(1, m + 1))
        mat = rng.standard_normal((n, m))
        u, s, v = truncated_svd(mat, c)
        s_ref = np.linalg.svd(mat, compute_uv=False)[:c]
        assert np.abs(s - s_ref).max() <= 1e-8
        assert np.abs(u.T @ u - np.eye(c)).max() <= 1e-10
        assert np.abs(v.T @ v - np.eye(c)).max() <= 1e-10
        # reconstruction identity: residual energy is the discarded spectrum
        resid = mat - u @ np.diag(s) @ v.T
        tail = (np.linalg.svd(mat, compute_uv=False)[c:] ** 2).sum()
        assert abs((resid ** 2).sum() - tail) <= 1e-8


def test_truncated_svd_sorted_descending():
    rng = np.random.default_rng(9)
    mat = rng.standard_normal((10, 6))
    _, s, _ = truncated_svd(mat, 4)
    assert np.all(np.diff(s) <= 1e-12)


def test_truncated_svd_completes_rank_deficient_basis():
    # rank-1 matrix, ask for 3 components: two columns must be completed
    mat = np.outer(np.arange(1.0, 6.0), np.array([2.0, -1.0, 0.5]))
    u, s, v = truncated_svd(mat, 3)
    assert s[0] > 1.0 and np.all(s[1:] <= 1e-10)
    assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-10
    assert np.abs(v.T @ v - np.eye(3)).max() <= 1e-10


def test_truncated_svd_rejects_bad_shapes():
    with pytest.raises(ValueError):
        truncated_svd(np.zeros((4, 3)), 4)  # c > m
    with pytest.raises(ValueError):
        truncated_svd(np.zeros((3, 4)), 2)  # wide input


# ---------------------------------------------------------------------------
# simplex QP

def _solve_row(h, f, x0):
    # one-row call of the batched solver
    return solve_simplex_qp_rows(h, f[None, :], x0[None, :])[0]


def test_simplex_qp_validates_data(monkeypatch):
    x0 = np.full((1, 2), 0.5)
    with pytest.raises(ValueError):
        solve_simplex_qp_rows(np.zeros((2, 3)), np.zeros((1, 2)), x0)
    with pytest.raises(ValueError):
        solve_simplex_qp_rows(np.eye(2), np.zeros((1, 3)), x0)
    with pytest.raises(ValueError):
        solve_simplex_qp_rows(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((1, 2)), x0)  # asymmetric

    # non-finite data fails typed before any KKT solve: np.linalg.pinv
    # never returned on the infinite stacks an overflowing 2H once built
    def never(*args, **kwargs):
        raise AssertionError("non-finite QP data reached a KKT solve")
    monkeypatch.setattr(np.linalg, "pinv", never)
    monkeypatch.setattr(np.linalg, "solve", never)
    with pytest.raises(QPConvergenceError, match="not finite"):
        solve_simplex_qp_rows(np.full((2, 2), np.nan), np.zeros((1, 2)), x0)
    with pytest.raises(QPConvergenceError, match="F holds inf"):
        solve_simplex_qp_rows(np.eye(2), np.array([[np.inf, 0.0]]), x0)
    with pytest.raises(QPConvergenceError, match="2H overflows"):
        solve_simplex_qp_rows(1e308 * np.eye(2), np.zeros((1, 2)), x0)


def test_solve_rejects_indefinite_hessian():
    with pytest.raises(ValueError):
        solve_simplex_qp_rows(np.diag([1.0, -1.0]), np.zeros((1, 2)), np.full((1, 2), 0.5))
    # the tolerance is relative to lambda_max (here 1), so -1e-3 still fails
    with pytest.raises(ValueError, match="positive semi-definite"):
        solve_simplex_qp_rows(np.diag([1.0, -1e-3]), np.zeros((1, 2)), np.full((1, 2), 0.5))


@pytest.mark.parametrize("scale", [1e200, 1e300, 8e307])
def test_solve_huge_rank_one_hessian_is_not_called_indefinite(scale):
    # eigvalsh puts lambda_min of ones * 1e200 at -5.8e184 against
    # lambda_max 3e200 (and lambda_max at inf for 8e307): roundoff, not
    # indefiniteness. RuntimeWarnings fail the test (pyproject filterwarnings)
    H = np.ones((3, 3)) * scale
    F = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
    try:
        x = solve_simplex_qp_rows(H, F, np.full((2, 3), 1 / 3))
    except QPConvergenceError:
        return
    assert np.all(kkt_residual(H, F, x) <= numerics.KKT_TOL)


def test_solve_identity_hessian_is_projection():
    rng = np.random.default_rng(10)
    for _ in range(20):
        v = rng.uniform(-2, 2, size=4)
        # ||x - v||^2 up to a constant
        x = _solve_row(np.eye(4), 2.0 * v, np.full(4, 0.25))
        assert np.abs(x - project_rows_onto_simplex(v[None, :])[0]).max() <= 1e-6


def test_solve_one_dimensional_qp():
    x = solve_simplex_qp_rows(np.array([[3.0]]), np.array([[-1.0]]), np.array([[1.0]]))
    assert np.allclose(x, [[1.0]])


def test_solve_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        a = rng.standard_normal((m, m))
        h = a.T @ a + 1e-3 * np.eye(m)
        f = rng.uniform(-2, 2, size=m) * rng.choice([0.5, 1.0, 5.0])
        x = _solve_row(h, f, np.full(m, 1.0 / m))
        xs = simplex_qp_oracle(h, f)
        assert np.abs(x - xs).max() <= 2e-3
        assert (x @ h @ x - f @ x) - (xs @ h @ xs - f @ xs) <= 1e-6
        assert kkt_residual(h, f[None, :], x[None, :])[0] <= 1e-6


def test_solve_matches_grid_search():
    h = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
    f = np.array([0.7, -0.4, 1.1])
    x = _solve_row(h, f, np.full(3, 1 / 3))
    # exhaustive grid over the 2-simplex with step 1e-3
    step = 1e-3
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    aa, bb = np.meshgrid(ticks, ticks, indexing="ij")
    keep = aa + bb <= 1.0 + 1e-12
    pts = np.stack([aa[keep], bb[keep], 1.0 - aa[keep] - bb[keep]], axis=1)
    vals = np.einsum("ij,jk,ik->i", pts, h, pts) - pts @ f
    best = pts[np.argmin(vals)]
    assert np.abs(x - best).max() <= 2e-3


def test_solve_sweep_hook_sees_every_call_and_rows_are_certified():
    rng = np.random.default_rng(12)
    for m in (1, 3, 6):
        a = rng.standard_normal((m, m))
        h = a.T @ a + 1e-2 * np.eye(m)
        F = rng.standard_normal((8, m)) * 3.0
        calls = []
        out = solve_simplex_qp_rows(h, F, np.full((8, m), 1.0 / m),
                                    sweep_hook=lambda *args: calls.append(args))
        assert len(calls) >= 1
        assert np.all(kkt_residual(h, F, out) <= 1e-6)


def test_solve_warm_start_never_worse():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        h = a.T @ a + 0.1 * np.eye(4)
        f = rng.standard_normal(4)
        warm = project_rows_onto_simplex(rng.standard_normal((1, 4)))[0]
        x = _solve_row(h, f, warm)
        assert (x @ h @ x - f @ x) <= (warm @ h @ warm - f @ warm) + 1e-12


def _stiff_instance():
    # kappa ~ 2000 Hessian: first-order sweeps crawl along the flat direction
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    h = q @ np.diag([400.0, 4.0, 0.2]) @ q.T
    return 0.5 * (h + h.T), np.array([250.0, 260.0, 240.0])


def test_solve_polish_finishes_stiff_instance():
    h, f = _stiff_instance()
    x = _solve_row(h, f, np.full(3, 1 / 3))
    xs = simplex_qp_oracle(h, f)
    assert np.abs(x - xs).max() <= 1e-8
    assert kkt_residual(h, f[None, :], x[None, :])[0] <= 1e-6


def test_solve_kkt_gate_raises_on_stiff_instance(monkeypatch):
    # the Newton answer here has a KKT residual of about 2e-12, so only a
    # tolerance no row can meet makes the gate fire
    monkeypatch.setattr(numerics, "KKT_TOL", -1.0)
    h, f = _stiff_instance()
    with pytest.raises(QPConvergenceError, match="row 0"):
        _solve_row(h, f, np.full(3, 1 / 3))


def test_solve_linear_objective_reaches_vertex():
    # H = 0 is singular and leaves the dual no dimension (k = 0): the row is
    # solved by proximal-point steps alone, x_t+1 = proj(x_t + f / (2 mu))
    f = np.array([0.3, 1.2, -0.5, 0.9])
    x = _solve_row(np.zeros((4, 4)), f, np.full(4, 0.25))
    assert np.array_equal(x, [0.0, 1.0, 0.0, 0.0])


@pytest.mark.parametrize("seed", range(40))
def test_ill_conditioned_low_rank_hessian_is_certified(seed):
    # H = A^T A + 1e-3 I with A a 2 x 30 Gaussian times 30 (condition number
    # above 1e7): KKT systems on large supports lose too much accuracy for
    # KKT_TOL here, while the dual has only 2 dimensions
    rng = np.random.default_rng(seed)
    a = 30.0 * rng.standard_normal((2, 30))
    h = a.T @ a + 1e-3 * np.eye(30)
    F = 2.0 * rng.standard_normal((20, 2)) @ a + rng.standard_normal((20, 30))
    x = solve_simplex_qp_rows(h, F, np.full((20, 30), 1 / 30))
    assert np.all(kkt_residual(h, F, x) <= numerics.KKT_TOL)


def test_step_dropping_a_tiny_coordinate_far_from_the_optimum_does_not_finish():
    # one row of an update_z call in the fit of synth_blobs(n=20000, c=5,
    # n_views=3, dims=[20] * 3, noise=0.3, seed=0) with m=100, stored as
    # H = B^T B + rho I:
    # the first Newton step drops a coordinate at 6.9e-10 while |G| is
    # 1.7e-3, and finishing the row there ends at a KKT residual of 2.4e-5
    data = np.load(Path(__file__).parent / "data" / "w2_tiny_flip_row.npz")
    h = data["B"].T @ data["B"] + data["rho"] * np.eye(data["B"].shape[1])
    F = data["f"][None, :]
    x = solve_simplex_qp_rows(h, F, data["x0"][None, :])
    assert kkt_residual(h, F, x)[0] <= numerics.KKT_TOL


@pytest.mark.parametrize("f", [[1e300, 0.0, -1e300], [1e300, 0.0, 0.0], [3e307, 0.0, -3e307]])
def test_solve_linear_objective_with_huge_finite_f(f):
    # with H = 0 a proximal step f / (2 mu) overflows float64 for a ~1e300 f
    # unless mu is floored at max|f| / 2^51; the data is finite, so the call
    # must still return the certified optimum e_0, never a ValueError
    H, F = np.zeros((3, 3)), np.array([f])
    x = solve_simplex_qp_rows(H, F, np.full((1, 3), 1 / 3))
    assert np.array_equal(x, [[1.0, 0.0, 0.0]])
    assert kkt_residual(H, F, x)[0] <= numerics.KKT_TOL


@pytest.mark.parametrize("scale", [1e-300, 1e-200])
def test_solve_tiny_definite_hessian_with_large_f(scale):
    # H is definite, but f / (2 rho) overflows float64: the rows must go
    # through the proximal steps, whose weight keeps f / (2 mu) finite
    H, F = scale * np.eye(3), np.array([[1e10, 0.0, -1e10], [0.0, 1.0, 0.0]])
    x = solve_simplex_qp_rows(H, F, np.full((2, 3), 1 / 3))
    assert np.array_equal(x, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.all(kkt_residual(H, F, x) <= numerics.KKT_TOL)


@pytest.mark.parametrize("h00", [5.5e307, 6e307, 7e307, 8e307])
def test_solve_near_the_float_limit_with_a_one_row_dual(h00):
    # H = 5e307 I but for one larger diagonal entry: rho = 5e307 and B has
    # one row (k = 1), and rho |S| passes the float maximum in the Newton
    # step. The call returns a certified point, or at 5.5e307, where the
    # roundoff of 1e307-sized data leaves the KKT residual at 2.5e291,
    # raises the typed error
    H = 5e307 * np.eye(8)
    H[0, 0] = h00
    F = np.random.default_rng(1).random((4, 8))
    x0 = np.full((4, 8), 1 / 8)
    if h00 == 5.5e307:
        with pytest.raises(QPConvergenceError, match="KKT residual"):
            solve_simplex_qp_rows(H, F, x0)
        return
    x = solve_simplex_qp_rows(H, F, x0)
    assert np.all(kkt_residual(H, F, x) <= numerics.KKT_TOL)


def test_batched_rows_match_single_solves():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((4, 4))
    h = a.T @ a + 0.5 * np.eye(4)
    F = rng.standard_normal((6, 4))
    X0 = project_rows_onto_simplex(rng.standard_normal((6, 4)))
    batch = solve_simplex_qp_rows(h, F, X0)
    for i in range(6):
        single = _solve_row(h, F[i], X0[i])
        assert np.abs(batch[i] - single).max() <= 1e-5


def test_batched_rows_satisfy_simplex_constraints():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((5, 5))
    h = a.T @ a + np.eye(5)
    F = rng.standard_normal((30, 5))
    out = solve_simplex_qp_rows(h, F, np.full((30, 5), 0.2))
    assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-8
    assert out.min() >= -1e-12


def test_batched_rows_span_support_sizes_and_match_oracle():
    # Z-shaped rows (H = A^T A + c I) whose optima have supports of several
    # sizes, so the solve batches rows of different sizes in one call
    rng = np.random.default_rng(16)
    for c in (1e-3, 1.0):
        for m in (2, 5, 8):
            a = rng.standard_normal((m + 2, m))
            h = a.T @ a + c * np.eye(m)
            F = 2.0 * rng.standard_normal((40, m)) @ a.T @ a
            F *= rng.choice([0.1, 1.0, 10.0], size=(40, 1))
            kinds = []
            out = solve_simplex_qp_rows(h, F, np.full((40, m), 1.0 / m),
                                        sweep_hook=lambda kind, n: kinds.append(kind))
            assert set(kinds) == {"newton"}
            best = np.array([simplex_qp_oracle(h, f) for f in F])
            if m >= 5:
                sizes = set(np.count_nonzero(best > 1e-12, axis=1).tolist())
                assert len(sizes) >= 3, sizes
            assert np.abs(out - best).max() <= 1e-8


def test_interior_optima_take_one_round_from_vertex_starts():
    # f = 2 H x* - c 1 puts every row's optimum x* inside the simplex, where
    # it is the hyperplane minimizer: the shared-H start lands on it, so one
    # Newton step (a zero step on the full support) certifies every row
    # whatever its warm start
    rng = np.random.default_rng(17)
    m = 6
    a = rng.standard_normal((3, m))
    h = a.T @ a + 0.1 * np.eye(m)
    opt = project_rows_onto_simplex(rng.random((20, m)) + 0.1)
    F = 2.0 * opt @ h - rng.standard_normal((20, 1))
    rounds = []
    out = solve_simplex_qp_rows(h, F, np.eye(m)[rng.integers(m, size=20)],
                                sweep_hook=lambda kind, n: rounds.append(kind))
    assert rounds == ["newton"], rounds
    assert np.abs(out - opt).max() <= 1e-10


@pytest.mark.parametrize("seed", [63, 64, 71, 76, 84])
def test_stalled_block_pivots_finish_by_single_pivots(seed):
    # a low-rank A with a small ridge, from a vertex start: rows on which
    # exchanging every infeasible coordinate at once revisits supports; the
    # Newton loop must reach the oracle optimum on them without a restart
    rng = np.random.default_rng(seed)
    m, d = int(rng.integers(4, 8)), int(rng.integers(1, 4))
    a = rng.standard_normal((d, m)) * 10.0 ** rng.uniform(0, 1.5)
    h = a.T @ a + 10.0 ** rng.uniform(-4, 0) * np.eye(m)
    f = 2.0 * (rng.standard_normal(d) @ a) + rng.standard_normal(m)
    x0 = np.eye(m)[int(rng.integers(m))]
    kinds = []
    x = solve_simplex_qp_rows(h, f[None, :], x0[None, :],
                              sweep_hook=lambda kind, n: kinds.append(kind))[0]
    assert set(kinds) == {"newton"}
    xs = simplex_qp_oracle(h, f)
    assert (x @ h @ x - f @ x) - (xs @ h @ xs - f @ xs) <= 1e-8
    assert kkt_residual(h, f[None, :], x[None, :])[0] <= 1e-6


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 7), rows=st.integers(1, 6),
       hessian=st.sampled_from(["definite", "singular"]),
       log_rho=st.floats(-3.0, 1.0),
       start=st.sampled_from(["vertex", "uniform", "random"]))
# a row that crawls along a flat face of a rank-1 H until the proximal
# weight shrinks, and one that needs 125 Newton steps from a vertex
@example(seed=2488, m=6, rows=2, hessian="singular", log_rho=0.0, start="uniform")
@example(seed=982543838, m=7, rows=6, hessian="definite", log_rho=-2.33504637098545,
         start="random")
def test_solve_rows_match_oracle_objective(seed, m, rows, hessian, log_rho, start):
    # H = A^T A + rho I, or a rank-deficient Gram B^T B (H = 0 for m = 1);
    # every row must reach the enumeration optimum from any warm start
    rng = np.random.default_rng(seed)
    if hessian == "definite":
        a = rng.standard_normal((int(rng.integers(1, m + 3)), m))
        h = a.T @ a + 10.0 ** log_rho * np.eye(m)
    else:
        b = rng.standard_normal((int(rng.integers(0, m)), m))
        h = b.T @ b
    F = rng.standard_normal((rows, m)) * rng.choice([0.1, 1.0, 10.0], size=(rows, 1))
    if start == "vertex":
        X0 = np.eye(m)[rng.integers(m, size=rows)]
    elif start == "uniform":
        X0 = np.full((rows, m), 1.0 / m)
    else:
        X0 = project_rows_onto_simplex(rng.standard_normal((rows, m)))
    out = solve_simplex_qp_rows(h, F, X0)
    for f, x in zip(F, out):
        xs = simplex_qp_oracle(h, f)
        assert (x @ h @ x - f @ x) - (xs @ h @ xs - f @ xs) <= 1e-8
    assert np.all(kkt_residual(h, F, out) <= 1e-6)


def test_kkt_residual_flags_non_optimal_points():
    F = np.array([[2.0, 0.0, 0.0]] * 2)  # the optimum is e_0
    r = kkt_residual(np.eye(3), F, np.eye(3)[:2])
    assert r[0] <= 1e-12
    assert r[1] > 0.5
