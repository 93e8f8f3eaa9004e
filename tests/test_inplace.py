"""Every pass that writes into an array it owns leaves its array arguments
untouched and returns exactly (np.array_equal) what the out-of-place
expression it replaced returns. The references below are those
expressions, kept as written before the passes went in place. Inputs have
more than 4096 rows, so row blocks and their seams are crossed."""

import types

import numpy as np
import pytest

from udbgl.numerics import (
    _BLOCK,
    _row_obj,
    _sqdist,
    kkt_residual,
    project_rows_onto_simplex,
    solve_simplex_qp_rows,
)
from udbgl.solver import SolverConfig, SolverState, blend, compute_q, objective, update_p_rows, update_z

N, M = 2 * 4096 + 123, 7


# ---------------------------------------------------------------------------
# the out-of-place expressions

def project_ref(mat):
    mat = np.asarray(mat, dtype=float)
    n, m = mat.shape
    u = np.sort(mat, axis=1)[:, ::-1]
    shift = np.where(np.abs(u[:, 0]) > 1.0, u[:, 0], 0.0)
    if shift.any():
        u = u - shift[:, None]
        mat = mat - shift[:, None]
    css = np.cumsum(u, axis=1)
    k = np.arange(1, m + 1)
    rho = np.count_nonzero(u + (1.0 - css) / k > 0.0, axis=1)
    theta = (css[np.arange(n), rho - 1] - 1.0) / rho
    return np.maximum(mat - theta[:, None], 0.0)


def sqdist_ref(a, b, aa):
    return np.maximum(aa[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T), 0.0)


def kkt_ref(H, F, X):
    g = 2.0 * (X @ H) - F
    sup = X > 1e-9
    lam = (g * sup).sum(axis=1) / np.maximum(sup.sum(axis=1), 1)
    r = np.where(sup, np.abs(g - lam[:, None]), 0.0).max(axis=1)
    r = np.maximum(r, np.where(sup, 0.0, np.maximum(lam[:, None] - g, 0.0)).max(axis=1))
    r = np.maximum(r, np.abs(X.sum(axis=1) - 1.0))
    return np.maximum(r, np.maximum(-X, 0.0).max(axis=1))


def blend_ref(zs, delta):
    out = np.zeros_like(zs[0])
    for d, z in zip(delta, zs):
        out += d * z
    return out


def objective_ref(state, ds, anchors, cfg):
    total = 0.0
    for x, a, z in zip(ds.views, anchors, state.zs):
        r = x - a @ z.T
        total += float((r * r).sum()) + cfg.alpha * float((z * z).sum())
    diff = blend_ref(state.zs, state.delta) - state.p
    return total + cfg.beta * float((diff * diff).sum())


# ---------------------------------------------------------------------------

def _stochastic(rng, n, m, sparse=True):
    w = rng.random((n, m))
    if sparse:
        w[rng.random((n, m)) < 0.5] = 0.0
        w[np.arange(n), rng.integers(m, size=n)] += 0.1
    return w / w.sum(axis=1, keepdims=True)


class Untouched:
    """Copies of arrays, checked bit for bit against the originals later."""

    def __init__(self, *arrays):
        self.pairs = [(a, np.array(a, copy=True)) for a in arrays]

    def check(self):
        for a, before in self.pairs:
            assert np.array_equal(a, before, equal_nan=True)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2024)


@pytest.mark.parametrize("order", ["C", "F"])
def test_project_rows_matches_reference(rng, order):
    mat = rng.standard_normal((N, M)) * 3
    mat[::97] *= 1e6  # rows that take the shift, spread over every block
    mat = np.asarray(mat, order=order)
    seal = Untouched(mat)
    ref = project_ref(mat)
    assert np.array_equal(project_rows_onto_simplex(mat), ref)
    out = np.empty_like(mat)
    assert project_rows_onto_simplex(mat, out=out) is out
    assert np.array_equal(out, ref)
    seal.check()
    # in place over its own input
    own = mat.copy()
    project_rows_onto_simplex(own, out=own)
    assert np.array_equal(own, ref)


def test_sqdist_matches_reference(rng):
    a, b = rng.standard_normal((N, 5)), rng.standard_normal((M, 5))
    aa = (a * a).sum(axis=1)
    seal = Untouched(a, b, aa)
    ref = sqdist_ref(a, b, aa)
    assert np.array_equal(_sqdist(a, b, aa), ref)
    out = np.full((N, M), np.nan)
    assert _sqdist(a, b, aa, out=out) is out
    assert np.array_equal(out, ref)
    # a transposed (F-ordered) left operand, as k-means passes its points
    at = np.asfortranarray(a)
    assert np.array_equal(_sqdist(at, b, aa), sqdist_ref(at, b, aa))
    seal.check()


def _embedding(rng, n, m, c=3):
    return rng.standard_normal((n, c)), rng.standard_normal((m, c)), rng.random(c)


def test_compute_q_matches_reference(rng):
    emb = _embedding(rng, N, M)
    f_n, f_m, _ = emb
    d_n, d_m = rng.random(N) + 0.1, rng.random(M) + 0.1
    seal = Untouched(f_n, f_m, d_n, d_m)
    a = f_n / np.sqrt(d_n)[:, None]
    b = f_m / np.sqrt(d_m)[:, None]
    ref = sqdist_ref(a, b, (a * a).sum(axis=1))
    assert np.array_equal(compute_q(emb, d_n, d_m), ref)
    out = np.empty((N, M))
    assert np.array_equal(compute_q(emb, d_n, d_m, out=out), ref)
    seal.check()


@pytest.mark.parametrize("gamma", [1e-3, 0.1, 7.0, 1e6])
def test_update_p_rows_matches_reference(rng, gamma):
    b = _stochastic(rng, N, M)
    q = rng.random((N, M)) * 4
    seal = Untouched(b, q)
    ref = project_ref(b - 0.5 * gamma * q)
    assert np.array_equal(update_p_rows(b, q, gamma), ref)
    out = np.empty_like(q)
    assert update_p_rows(b, q, gamma, out=out) is out
    assert np.array_equal(out, ref)
    seal.check()


def test_kkt_residual_and_row_objective_match_reference(rng):
    a = rng.standard_normal((4, M))
    H = a.T @ a + 0.3 * np.eye(M)
    F = rng.standard_normal((N, M))
    X = _stochastic(rng, N, M)
    X[::5] = project_ref(rng.standard_normal((len(X[::5]), M)))
    X[3::11] -= 1e-7  # primal infeasible rows
    seal = Untouched(H, F, X)
    assert np.array_equal(kkt_residual(H, F, X), kkt_ref(H, F, X))
    ref = np.einsum("ij,ij->i", X @ H, X) - np.einsum("ij,ij->i", X, F)
    assert np.array_equal(_row_obj(H, F, X), ref)
    empty = np.empty((0, M))
    assert kkt_residual(H, empty, empty).shape == (0,)
    seal.check()


def test_blend_matches_reference(rng):
    zs = [_stochastic(rng, N, M) for _ in range(3)]
    delta = np.array([0.2, 0.0, 0.8])
    seal = Untouched(*zs, delta)
    assert np.array_equal(blend(zs, delta), blend_ref(zs, delta))
    seal.check()


def _fit_state(rng, n=N, m=M, dims=(3, 5, 4)):
    views = [rng.random((d, n)) for d in dims]
    anchors = [rng.random((d, m)) for d in dims]
    zs = [_stochastic(rng, n, m) for _ in dims]
    delta = np.array([0.5, 0.2, 0.3])
    state = SolverState(zs=zs, p=_stochastic(rng, n, m), delta=delta, gamma=1.0)
    return (types.SimpleNamespace(views=views), anchors, state,
            SolverConfig(c=2, alpha=0.7, beta=1.3, m=m))


def test_objective_matches_reference(rng):
    ds, anchors, state, cfg = _fit_state(rng)
    seal = Untouched(*ds.views, *anchors, *state.zs, state.p, state.delta)
    assert objective(state, ds, anchors, cfg) == objective_ref(state, ds, anchors, cfg)
    seal.check()


@pytest.mark.parametrize("v", [0, 2])
def test_update_z_linear_term_matches_reference(rng, v):
    ds, anchors, state, cfg = _fit_state(rng)
    x, a, delta = ds.views[v], anchors[v], state.delta
    mats = state.zs
    seal = Untouched(x, a, *mats, state.p, delta)
    rest = np.zeros_like(mats[0])
    for i, w in enumerate(mats):
        if i != v:
            rest += delta[i] * w
    fbar = -2.0 * (x.T @ a) + 2.0 * cfg.beta * delta[v] * (rest - state.p)
    h = a.T @ a + (cfg.alpha + cfg.beta * delta[v] ** 2) * np.eye(M)
    ref = solve_simplex_qp_rows(h, -fbar, mats[v])
    got = update_z(v, x, a, state.zs, delta, state.p, cfg.alpha, cfg.beta)
    assert np.array_equal(got, ref)
    seal.check()


def test_solve_equals_its_per_block_solves(rng):
    # a diagonal H of powers of 2: its eigenvectors are exact, so every
    # product over all rows (H^-1 f, the row objectives, the KKT checks) is
    # one term per entry and rounds the same whatever the row count; only
    # the assembly of the blocks is left to differ
    H = np.diag(2.0 ** np.arange(-2, M - 2))
    F = rng.standard_normal((N, M)) * 4
    x0 = _stochastic(rng, N, M)
    seal = Untouched(H, F, x0)
    got = solve_simplex_qp_rows(H, F, x0)
    seal.check()
    blocks = [solve_simplex_qp_rows(H, F[lo:lo + _BLOCK], x0[lo:lo + _BLOCK])
              for lo in range(0, N, _BLOCK)]
    assert np.array_equal(got, np.vstack(blocks))
    assert len(blocks) == 3
