"""Numerical kernels shared across the package: Euclidean simplex
projection, seeded k-means, a Gram-route truncated SVD, and an exact
batched block-pivoting solver for simplex-constrained quadratic programs."""

from __future__ import annotations

import numpy as np

__all__ = [
    "project_rows_onto_simplex",
    "kmeans",
    "truncated_svd",
    "QPConvergenceError",
    "solve_simplex_qp_rows",
    "kkt_residual",
]


# ---------------------------------------------------------------------------
# simplex projection

def project_rows_onto_simplex(mat):
    """Project every row of ``mat`` onto the probability simplex.

    Sort-and-threshold closed form: with u the row sorted descending and
    rho the largest k such that u_k + (1 - sum_{i<=k} u_i)/k > 0, the
    projection is max(v - theta, 0) with theta = (sum_{i<=rho} u_i - 1)/rho.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[1] == 0:
        raise ValueError("expected a nonempty 2-d array")
    if not np.all(np.isfinite(mat)):
        raise ValueError("non-finite input")
    n, m = mat.shape
    u = np.sort(mat, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    k = np.arange(1, m + 1)
    # the condition holds for a prefix of k; its length is rho >= 1
    rho = np.count_nonzero(u + (1.0 - css) / k > 0.0, axis=1)
    theta = (css[np.arange(n), rho - 1] - 1.0) / rho
    return np.maximum(mat - theta[:, None], 0.0)


# ---------------------------------------------------------------------------
# k-means

def _sqdist(a, b, aa):
    # squared Euclidean distances between rows of a and rows of b, with
    # aa = (a * a).sum(axis=1) computed once by the caller
    d2 = aa[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def _kmeanspp(x, xx, k, rng):
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
            idx = int(np.searchsorted(np.cumsum(closest), r, side="right"))
            idx = min(idx, n - 1)
        else:
            # duplicated points: fall back to the first unchosen index
            idx = int(np.flatnonzero(~chosen)[0])
        centers[j] = x[idx]
        chosen[idx] = True
        closest = np.minimum(closest, _sqdist(x, centers[j : j + 1], xx)[:, 0])
    return centers


def _fill_empty(x, xx, centers, assign, d2, counts):
    # each empty cluster, in index order, seizes the point farthest from its
    # center among clusters that keep another member; none is emptied, so
    # one pass fills them all when k <= n
    rows = np.arange(len(assign))
    for j in np.flatnonzero(counts == 0):
        owned = np.where(counts[assign] > 1, d2[rows, assign], -1.0)
        far = int(np.argmax(owned))
        counts[assign[far]] -= 1
        counts[j] = 1
        centers[j] = x[far]
        assign[far] = j
        d2[:, j] = _sqdist(x, centers[j : j + 1], xx)[:, 0]


def _lloyd(x, xx, k, rng, max_iter):
    centers = _kmeanspp(x, xx, k, rng)
    assign = None
    for _ in range(max_iter):
        d2 = _sqdist(x, centers, xx)
        new_assign = np.argmin(d2, axis=1)
        counts = np.bincount(new_assign, minlength=k)
        if not counts.all():
            _fill_empty(x, xx, centers, new_assign, d2, counts)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        # sequential per-cluster sums: bit-identical to x[assign == j].mean(0)
        # for two or more features (numpy sums a single column pairwise)
        for f in range(x.shape[1]):
            centers[:, f] = np.bincount(assign, weights=x[:, f], minlength=k) / counts
    return centers, assign


def kmeans(points, k, seed=0, max_iter=100, n_init=10):
    """Seeded k-means on column-sample data.

    Parameters
    ----------
    points : (d, n) array, samples are columns.
    k : number of clusters, 1 <= k <= n.
    seed : int, drives k-means++ initialization; runs are deterministic
        per seed.
    max_iter : Lloyd iteration cap per restart, >= 1; iteration also stops
        at an assignment fixpoint.
    n_init : independent k-means++ restarts; the run with the lowest
        within-cluster SSE at its end wins.

    Returns
    -------
    centers : (d, k) array.
    assignments : (n,) int array.

    An empty cluster is repaired by seizing the point farthest from its
    current center among clusters that keep another member, so every
    cluster ends nonempty. Ties in assignment go to the lowest center index.
    """
    x = np.asarray(points, dtype=float).T  # n x d
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} must be in [1, n={n}]")
    if n_init < 1:
        raise ValueError("n_init must be >= 1")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    xx = (x * x).sum(axis=1)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        centers, assign = _lloyd(x, xx, k, rng, max_iter)
        sse = float(((x - centers[assign]) ** 2).sum())
        if best is None or sse < best[0]:
            best = (sse, centers, assign)
    _, centers, assign = best
    return centers.T.copy(), assign


# ---------------------------------------------------------------------------
# truncated SVD via the m x m Gram matrix

def _complete_basis(u, missing):
    # fill columns `missing` of u with orthonormal vectors orthogonal to the
    # existing ones, drawn from canonical directions (deterministic)
    n = u.shape[0]
    built = [u[:, j].copy() for j in np.flatnonzero(~missing)]
    probe = 0
    for col in np.flatnonzero(missing):
        while True:
            cand = np.zeros(n)
            cand[probe % n] = 1.0
            probe += 1
            for b in built:
                cand -= (b @ cand) * b
            nrm = np.linalg.norm(cand)
            if nrm > 0.5:
                cand /= nrm
                u[:, col] = cand
                built.append(cand)
                break


def truncated_svd(mat, c):
    """Rank-c truncated SVD of an (n, m) matrix with m <= n.

    Computed through the m x m Gram matrix M^T M: eigendecompose, keep the c
    largest eigenpairs, set sigma = sqrt(eigenvalue) and back-substitute
    U = M V / sigma. The Gram route cannot resolve singular values below
    sigma_max * sqrt(eps) (the eigenvalue is roundoff), so columns with
    sigma <= max(1e-12, 1e-7 * sigma_max) are completed to an orthonormal
    basis instead of divided. A final symmetric polish keeps U^T U = I to
    machine precision without disturbing the U/V pairing.

    Returns (U, sigma, V) with U (n, c), sigma (c,) descending, V (m, c).
    """
    mat = np.asarray(mat, dtype=float)
    n, m = mat.shape
    if c > m:
        raise ValueError(f"c={c} exceeds column count m={m}")
    if m > n:
        raise ValueError("expected m <= n (tall or square input)")
    gram = mat.T @ mat
    w, vecs = np.linalg.eigh(gram)
    order = np.argsort(w)[::-1][:c]
    sigma = np.sqrt(np.clip(w[order], 0.0, None))
    v = vecs[:, order]
    u = np.zeros((n, c))
    ok = sigma > max(1e-12, 1e-7 * float(sigma[0])) if sigma.size else sigma > 0
    if np.any(ok):
        u[:, ok] = (mat @ v[:, ok]) / sigma[ok]
    if not np.all(ok):
        _complete_basis(u, ~ok)
    # Loewdin polish: U (U^T U)^{-1/2}
    wtw = u.T @ u
    if np.abs(wtw - np.eye(c)).max() > 1e-14:
        ew, ev = np.linalg.eigh(wtw)
        u = u @ (ev / np.sqrt(np.clip(ew, 1e-30, None))) @ ev.T
    return u, sigma, v


# ---------------------------------------------------------------------------
# simplex-constrained QP: min_x x^T H x - x^T f  s.t. x >= 0, sum x = 1

KKT_TOL = 1e-6  # a row is certified at a KKT residual of at most this
ACTIVE_TOL = 1e-9  # coordinates above this form a row's support


class QPConvergenceError(RuntimeError):
    pass


def _row_obj(H, F, X):
    return np.einsum("ij,ij->i", X @ H, X) - np.einsum("ij,ij->i", X, F)


def kkt_residual(H, F, X):
    """Max KKT violation of each row of X for its simplex QP (H, F[i]): with
    g = 2 H x - f and lambda its mean over the support, stationarity on the
    support, dual feasibility off it, and primal feasibility."""
    g = 2.0 * (X @ H) - F
    sup = X > ACTIVE_TOL
    lam = (g * sup).sum(axis=1) / np.maximum(sup.sum(axis=1), 1)
    r = np.where(sup, np.abs(g - lam[:, None]), 0.0).max(axis=1)
    r = np.maximum(r, np.where(sup, 0.0, np.maximum(lam[:, None] - g, 0.0)).max(axis=1))
    r = np.maximum(r, np.abs(X.sum(axis=1) - 1.0))
    return np.maximum(r, np.maximum(-X, 0.0).max(axis=1))


def _support_kkt_points(H2, F, sup):
    # equality-constrained minimizers restricted to each row's support sup[i]:
    # [H2_SS, -1; 1^T, 0] [x_S; lam] = [f_S; 1] with H2 = 2 H, i.e.
    # 2 H x - f = lam on S, solved as one stack of (s+1) x (s+1) systems per
    # support size s and scattered into one dense block, zero off the support
    r, m = sup.shape
    x = np.zeros((r, m))
    lam = np.empty(r)
    size = sup.sum(axis=1)
    for s in np.unique(size):
        g = np.flatnonzero(size == s)
        idx = np.nonzero(sup[g])[1].reshape(g.size, s)
        K = np.zeros((g.size, s + 1, s + 1))
        K[:, :s, :s] = H2[idx[:, :, None], idx[:, None, :]]
        K[:, :s, s] = -1.0
        K[:, s, :s] = 1.0
        rhs = np.ones((g.size, s + 1, 1))
        rhs[:, :s, 0] = np.take_along_axis(F[g], idx, axis=1)
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            # singular H_SS (e.g. duplicated views in the delta Gram matrix)
            sol = np.linalg.pinv(K) @ rhs
        x[g[:, None], idx] = sol[:, :s, 0]
        lam[g] = sol[:, s, 0]
    return x, lam


def _active_set(H, F, X, sweep_hook):
    """Block principal pivoting solve of every row of X at once (Judice &
    Pires 1994; Kim & Park 2011).

    Starts from the support of X. Each round solves the KKT systems of all
    unfinished rows on their supports, then per row drops every negative
    support coordinate and adds every off-support coordinate whose dual is
    violated; a row with neither is finished. A row whose count of such
    infeasible coordinates has not fallen for 3 rounds pivots one coordinate
    instead, the most negative one or else the most violated dual, until
    the count falls again. Returns the solutions and a mask of failed rows
    (support emptied, cycled while pivoting single coordinates, or out of
    rounds), which keep their start.
    """
    r, m = X.shape
    H2 = 2.0 * H
    out = X.copy()
    sup = X > ACTIVE_TOL  # nonempty: the rows of X lie on the simplex
    saved = np.zeros_like(sup)
    best = np.full(r, m + 1)  # fewest infeasible coordinates seen
    stall = np.zeros(r, dtype=int)  # rounds since that count last fell
    todo = np.ones(r, dtype=bool)
    failed = np.zeros(r, dtype=bool)
    for rnd in range(3 * m + 30):
        p = np.flatnonzero(todo)
        if not p.size:
            break
        if sweep_hook is not None:
            sweep_hook("active_set", p.size)
        Fp = F[p]
        x, lam = _support_kkt_points(H2, Fp, sup[p])
        xpos = np.maximum(x, 0.0)
        neg = x < -1e-12
        grad = np.where(neg, x, xpos) @ H2 - Fp
        nu = np.where(sup[p], np.inf, grad - lam[:, None])
        flip = neg | (nu < -1e-10 * np.maximum(1.0, np.abs(grad).max(axis=1))[:, None])
        ninf = flip.sum(axis=1)
        done = ninf == 0
        out[p[done]] = xpos[done]
        todo[p[done]] = False
        p, x, neg, nu, flip, ninf = (a[~done] for a in (p, x, neg, nu, flip, ninf))
        stall[p] = np.where(ninf < best[p], 0, stall[p] + 1)
        best[p] = np.minimum(best[p], ninf)
        single = np.flatnonzero(stall[p] >= 3)
        col = np.where(neg[single].any(axis=1), np.argmin(x[single], axis=1),
                       np.argmin(nu[single], axis=1))
        flip[single] = False
        flip[single, col] = True
        sup[p] ^= flip  # negatives lie on the support, violated duals off it
        # an emptied support fails the row, and so does a support seen
        # before while pivoting single coordinates (block rounds that do not
        # cut the count end after 3): compare with the support saved at the
        # end of rounds 1, 2, 4, 8, ... (Brent's cycle detection) and at the
        # row's first single pivot
        stop = p[~sup[p].any(axis=1) | ((stall[p] > 3) & np.all(sup[p] == saved[p], axis=1))]
        failed[stop] = todo[stop] = False
        p = p[todo[p]]
        if rnd & (rnd + 1) != 0:
            p = p[stall[p] == 3]
        saved[p] = sup[p]
    failed |= todo
    return out, failed


def _hyperplane_start(H, F, warm, warm_obj, w):
    # per row, the simplex projection of the minimizer on the hyperplane
    # sum x = 1, 0.5 H^-1 (f + lam 1), where it scores below the warm start;
    # one inverse of H serves every row. A singular H keeps the warm start.
    if not w[0] > 1e-10 * w[-1]:
        return warm
    hinv = np.linalg.inv(H)
    u = hinv.sum(axis=0)  # H^-1 1
    y = F @ hinv  # rows H^-1 f
    eq = 0.5 * (y + ((2.0 - y.sum(axis=1)) / u.sum())[:, None] * u)
    if not np.all(np.isfinite(eq)):
        return warm
    start = project_rows_onto_simplex(eq)
    return np.where((_row_obj(H, F, start) < warm_obj)[:, None], start, warm)


def _restarted_gradient(H, F, X, lam_max, sweep_hook):
    # 500 sweeps of accelerated projected gradient (Beck & Teboulle
    # 2009) with function-value restart (O'Donoghue & Candes 2015), one step
    # size 1 / (2 lambda_max(H)) for every row
    step = 1.0 / (2.0 * max(lam_max, 1e-12))
    y, t = X.copy(), np.ones(len(X))
    obj = _row_obj(H, F, X)
    for _ in range(500):
        nxt = project_rows_onto_simplex(y - step * (2.0 * (y @ H) - F))
        if sweep_hook is not None:
            sweep_hook("gradient", len(X))
        nobj = _row_obj(H, F, nxt)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        restart = nobj > obj
        beta = np.where(restart, 0.0, (t - 1.0) / t_next)
        y = nxt + beta[:, None] * (nxt - X)
        t = np.where(restart, 1.0, t_next)
        X, obj = nxt, nobj
    return X


def solve_simplex_qp_rows(H, F, x0, sweep_hook=None):
    """Solve min_x x H x^T - x f^T over the simplex for every row at once.

    All rows share the same symmetric PSD H (min z H z^T + z fbar maps to
    f = -fbar); F stacks one f per row. Each row starts from whichever
    scores lower: its warm start ``x0`` projected onto the simplex, or the
    projection of its minimizer on the hyperplane sum x = 1,
    0.5 H^-1 (f + lam 1); one inverse of H serves every row, and a singular
    H keeps the warm start. Block principal pivoting then solves all rows
    exactly: each round solves every unfinished row's KKT system on its
    support (one batch per support size), and drops every negative
    coordinate and adds every violated dual of every row at once; a row
    whose count of such coordinates has not fallen for 3 rounds pivots one
    at a time until it falls. Rows that empty their support, cycle, run out
    of rounds or end over KKT_TOL (singular H_SS) are restarted from an
    accelerated projected gradient run from their warm start, then given a
    second pivoting pass. A warm start that scores better than the solution
    and is itself KKT-certified is kept, which makes warm-started solves
    monotone.

    ``sweep_hook(kind, n_rows)``, when given, is called once per pivoting
    round (kind "active_set") and once per gradient sweep (kind
    "gradient") with the number of rows still being worked on.

    Raises ValueError on a misshapen, asymmetric or indefinite input, and
    QPConvergenceError on non-finite 2H or F or a row ending over KKT_TOL.
    """
    H = np.asarray(H, dtype=float)
    F = np.asarray(F, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be square")
    if F.ndim != 2 or F.shape[1] != H.shape[0] or np.shape(x0) != F.shape:
        raise ValueError(f"F and x0 must be (rows, {H.shape[0]}) to match H")
    if not np.abs(H).max() <= 0.5 * np.finfo(float).max:  # 2H finite; NaN fails too
        raise QPConvergenceError("QP data not finite: 2H overflows or H holds inf/NaN")
    if not np.all(np.isfinite(F)):
        raise QPConvergenceError("QP data not finite: F holds inf/NaN")
    if np.abs(H - H.T).max() > 1e-10:
        raise ValueError("H must be symmetric")
    w = np.linalg.eigvalsh(H)
    if w[0] < -1e-8:
        raise ValueError(f"H is not positive semi-definite (lambda_min={w[0]:.3e})")
    warm = project_rows_onto_simplex(x0)
    warm_obj = _row_obj(H, F, warm)
    x, failed = _active_set(H, F, _hyperplane_start(H, F, warm, warm_obj, w), sweep_hook)
    failed |= ~(kkt_residual(H, F, x) <= KKT_TOL)  # NaN fails too
    if failed.any():
        Ff = F[failed]
        pg = _restarted_gradient(H, Ff, warm[failed], float(w[-1]), sweep_hook)
        x2, _ = _active_set(H, Ff, pg, sweep_hook)
        better = kkt_residual(H, Ff, x2) <= kkt_residual(H, Ff, pg)
        x[failed] = np.where(better[:, None], x2, pg)
    keep = (warm_obj < _row_obj(H, F, x)) & (kkt_residual(H, F, warm) <= KKT_TOL)
    x[keep] = warm[keep]
    residuals = kkt_residual(H, F, x)
    over = np.flatnonzero(~(residuals <= KKT_TOL))
    if over.size:
        i = over[0]
        raise QPConvergenceError(
            f"row {i}: KKT residual {residuals[i]:.3e} exceeds {KKT_TOL:g} "
            "after the active-set and gradient passes"
        )
    return x
