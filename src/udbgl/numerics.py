"""Numerical kernels shared across the package: Euclidean simplex
projection, seeded k-means, a Gram-route truncated SVD, and an exact
batched dual semismooth Newton solver for simplex-constrained quadratic
programs (proximal-point steps on the same loop when H is singular).

Memory: no function modifies an array it is given (except an ``out``
buffer). Each (rows, m) pass writes into an array the function owns, and
row-wise work that needs temporaries runs in blocks of ``_BLOCK`` (4096)
rows, so a call holds a fixed number of full-size arrays whatever the row
count: the projection one (its output), k-means the sample-to-center
distances, a QP solve its output and, while it scores the warm start at the
end, two more. Matrix products always span every row at once, because BLAS
rounds a row differently depending on how many rows it is given; every
output is the same bit for bit as with a fresh array per pass.
"""

from __future__ import annotations

import numpy as np
# numpy loads numpy.random on first use; loading it with the package keeps
# that cost out of the first default_rng call inside a timed command
import numpy.random

__all__ = [
    "project_rows_onto_simplex",
    "kmeans",
    "truncated_svd",
    "QPConvergenceError",
    "solve_simplex_qp_rows",
    "kkt_residual",
]

_BLOCK = 4096  # rows per block of row-wise work, and per Newton loop


def _row_blocks(n):
    """Slices of at most _BLOCK consecutive rows that cover range(n)."""
    return (slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK))


# ---------------------------------------------------------------------------
# simplex projection

def project_rows_onto_simplex(mat, out=None):
    """Project every row of ``mat`` onto the probability simplex.

    Sort-and-threshold closed form: with u the row sorted descending and
    rho the largest k such that u_k + (1 - sum_{i<=k} u_i)/k > 0, the
    projection is max(v - theta, 0) with theta = (sum_{i<=rho} u_i - 1)/rho.
    A row whose largest entry lies outside [-1, 1] is first shifted by that
    entry, which leaves its projection unchanged but keeps the 1 from being
    lost to rounding (above 2^53 it is lost entirely); other rows are
    computed as they are.

    Rows are projected in blocks of _BLOCK into ``out`` (a new array when
    None; it may be ``mat`` itself), so the sort and threshold temporaries
    never exceed one block.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[1] == 0:
        raise ValueError("expected a nonempty 2-d array")
    if out is None:
        out = np.empty_like(mat)
    k = np.arange(1, mat.shape[1] + 1)
    for s in _row_blocks(len(mat)):
        v = mat[s]
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite input")
        u = np.sort(v, axis=1)[:, ::-1]
        shift = np.where(np.abs(u[:, 0]) > 1.0, u[:, 0], 0.0)
        # rounding x - s is monotone, so u stays sorted; x - 0.0 keeps every bit
        u -= shift[:, None]
        css = np.cumsum(u, axis=1)
        # the condition u + (1 - css) / k > 0 holds for a prefix of k; its
        # length is rho >= 1
        t = np.subtract(1.0, css)
        t /= k
        t += u
        rho = np.count_nonzero(t > 0.0, axis=1)
        theta = (css[np.arange(len(css)), rho - 1] - 1.0) / rho
        # (v - shift) - theta, formed in the output: v is read before its
        # row is written, so ``out`` may be ``mat``
        o = np.subtract(v, shift[:, None], out=out[s])
        o -= theta[:, None]
        np.maximum(o, 0.0, out=o)
    return out


# ---------------------------------------------------------------------------
# k-means

def _sqdist(a, b, aa, out=None):
    # squared Euclidean distances between rows of a and rows of b, with
    # aa = (a * a).sum(axis=1) computed once by the caller, written into one
    # array (``out`` when given). Bit for bit max(aa + bb - 2 a b^T, 0):
    # x - y rounds as x + (-y), and -2 p as -(2 p)
    d2 = np.matmul(a, b.T, out=out)
    d2 *= -2.0
    bb = (b * b).sum(axis=1)
    for s in _row_blocks(len(d2)):
        d2[s] += aa[s, None] + bb
    return np.maximum(d2, 0.0, out=d2)


def _kmeanspp(x, xx, k, rng):
    # greedy k-means++ (Arthur & Vassilvitskii 2007): each new center is the
    # lowest-potential of 2 + floor(ln k) D^2-weighted candidates
    n = x.shape[0]
    trials = 2 + int(np.log(k))
    centers = np.empty((k, x.shape[1]))
    chosen = np.zeros(n, dtype=bool)
    idx = int(rng.integers(n))
    centers[0] = x[idx]
    chosen[idx] = True
    closest = _sqdist(x, centers[:1], xx)[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            r = rng.random(trials) * total
            cand = np.minimum(np.searchsorted(np.cumsum(closest), r, side="right"), n - 1)
            # the points' norms xx are reused, not recomputed per candidate
            d2 = xx[cand][:, None] + xx[None, :] - 2.0 * (x[cand] @ x.T)
            d2 = np.minimum(np.maximum(d2, 0.0), closest)
            best = int(np.argmin(d2.sum(axis=1)))
            idx = int(cand[best])
            closest = d2[best]
        else:
            # duplicated points: fall back to the first unchosen index
            idx = int(np.flatnonzero(~chosen)[0])
        centers[j] = x[idx]
        chosen[idx] = True
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
    assign = d2 = None
    for _ in range(max_iter):
        d2 = _sqdist(x, centers, xx, out=d2)
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


def _sum_sq_diff(x, r):
    # ((x - r) ** 2).sum() bit for bit, formed in r, which the caller hands
    # over: one array, released on return, and one pass of the sum over it
    return float(np.square(np.subtract(x, r, out=r), out=r).sum())


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
    n_init : independent restarts; the run with the lowest within-cluster
        SSE at its end wins.

    Each restart is seeded by greedy k-means++: the first center is a
    uniformly drawn sample, and each next one is the candidate, among
    2 + floor(ln k) samples drawn with probability proportional to their
    squared distance to the nearest center so far, that leaves the lowest
    total squared distance. When every sample coincides with a center
    (duplicated points) the first unchosen sample is taken.

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
        sse = _sum_sq_diff(x, centers[assign])
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
    support, dual feasibility off it, and primal feasibility. g is one
    array; the per-row checks run in blocks of _BLOCK rows."""
    g = X @ H
    g *= 2.0
    g -= F
    r = np.empty(len(g))
    for s in _row_blocks(len(g)):
        gs, xs = g[s], X[s]
        sup = xs > ACTIVE_TOL
        lam = (gs * sup).sum(axis=1) / np.maximum(sup.sum(axis=1), 1)
        rs = np.where(sup, np.abs(gs - lam[:, None]), 0.0).max(axis=1)
        rs = np.maximum(rs, np.where(sup, 0.0, np.maximum(lam[:, None] - gs, 0.0)).max(axis=1))
        rs = np.maximum(rs, np.abs(xs.sum(axis=1) - 1.0))
        r[s] = np.maximum(rs, np.maximum(-xs, 0.0).max(axis=1))
    return r


def _newton_direction(S, B, outer, rho, G):
    # d = -J^-1 G with J = I + B P_S B^T / rho, where
    # B P_S B^T = sum_{j in S} b_j b_j^T - (B s)(B s)^T / |S|; the outer
    # product is subtracted one row of each k x k matrix at a time, so the
    # (rows, k, k) batch is the only array of its size
    k = len(B)
    if k == 0:  # B is empty, and so is the direction
        return np.zeros_like(G)
    Sf = S.astype(float)
    size = Sf.sum(axis=1)  # at most m, so rho * size is finite below the bound
    scale = (np.sqrt(rho * size) if rho <= np.finfo(float).max / S.shape[1]
             else np.sqrt(rho) * np.sqrt(size))
    bs = (Sf @ B.T) / scale[:, None]
    J = (Sf @ outer).reshape(len(S), k, k)
    del Sf  # (rows, m): not needed beside J
    for i in range(k):
        J[:, i] -= bs[:, i, None] * bs
    J += np.eye(k)
    return -np.linalg.solve(J, G[:, :, None])[:, :, 0]


def _best_start(points):
    # per row, the (u, x(u), D(u)) of the point with the highest D (the
    # first on ties), written over the first point's arrays
    u, x, dual = points[0]
    for alt in points[1:]:
        up = alt[2] > dual
        for a, b in zip((u, x, dual), alt):
            a[up] = b[up]
    return u, x, dual


def _dual_newton(B, rho, F, starts, out, sweep_hook):
    """Dual semismooth Newton solve (Li, Sun & Toh 2018) of
    min_x x^T (B^T B + rho I) x - x^T f over the simplex, rho > 0, for every
    row f of F at once, written into ``out``; F holds one block of at most
    _BLOCK rows, which bounds the memory of a step.

    With x(u) = proj((f - 2 B^T u) / (2 rho)), the optimum is x(u) at the
    root of G(u) = u - B x(u), the maximizer of the concave dual
    D(u) = rho x^T (x - 2 v) - |u|^2 with v = (f - 2 B^T u) / (2 rho), whose
    gradient is -2 G. ``starts`` holds (rows, k) arrays u0 = B x0, one per
    start, which the solve may overwrite; a row starts at the u0 with the
    highest D there. Each step solves J d = -G with
    J = I + B P_S B^T / rho, P_S the projection's Jacobian on the support S
    of x(u), and backtracks (Armijo) until D rises enough. A row is finished
    when a full step keeps its support: G is affine on a fixed support, so
    that step was exact. ``sweep_hook`` sees every step.
    """
    k, m = B.shape
    # b_j b_j^T / rho for every column b_j of B: one product with the
    # support mask sums them over each row's support
    outer = (B.T[:, :, None] * B.T[:, None, :]).reshape(m, k * k) / rho
    tiny_step = 1e-12 * np.sqrt((B * B).sum(axis=1).max(initial=0.0))  # 1e-12 |B|_2

    def dual_point(u, Fp):  # u, x(u) and D(u), from one (rows, m) array v
        v = u @ B
        v *= -2.0
        v += Fp
        v /= 2.0 * rho
        x = project_rows_onto_simplex(v)
        v *= -2.0
        v += x
        return u, x, rho * np.einsum("ij,ij->i", x, v) - np.einsum("ij,ij->i", u, u)

    u, x, dual = _best_start([dual_point(u0, F) for u0 in starts])
    p, Fp = np.arange(len(F)), F
    for _ in range(500):
        if sweep_hook is not None:
            sweep_hook("newton", p.size)
        S = x > 0.0
        G = u - x @ B.T
        d = _newton_direction(S, B, outer, rho, G)
        u_new, x_new, dual_new = dual_point(u + d, Fp)
        # at a degenerate optimum roundoff picks the side of 0 a coordinate
        # lands on, so a step of roundoff size (|d| <= 1e-12 |B|) that only
        # flips coordinates at or below ACTIVE_TOL also finishes a row
        flips = (x_new > 0.0) != S
        done = ~flips.any(axis=1) | ((np.abs(d).max(axis=1, initial=0.0) <= tiny_step)
                                     & ~(flips & ((x > ACTIVE_TOL) | (x_new > ACTIVE_TOL))).any(axis=1))
        out[p[done]] = x_new[done]
        # Armijo on the other rows: D must rise by 1e-4 t grad D . d, with
        # grad D . d = 2 G^T J^-1 G; halvings stop at t = 2^-30
        rise = -2e-4 * np.einsum("ij,ij->i", G, d)
        t = np.ones(p.size)
        short = np.flatnonzero(~done & (dual_new < dual + rise))
        for _ in range(30):
            if not short.size:
                break
            t[short] *= 0.5
            u_new[short], x_new[short], dual_new[short] = dual_point(
                u[short] + t[short, None] * d[short], Fp[short])
            short = short[dual_new[short] < dual[short] + t[short] * rise[short]]
        p, Fp, u, x, dual = (a[~done] for a in (p, Fp, u_new, x_new, dual_new))
        del u_new, x_new, dual_new  # the next step's arrays take their place
        if not p.size:
            break
    out[p] = x


def _keep_certified_warm(H, F, x, x0):
    # rows of x whose warm start scores better and is itself KKT-certified
    # take the warm start; the projection is redone here rather than kept
    # through the solve, and dropped on return
    warm = project_rows_onto_simplex(x0)
    better = np.flatnonzero(_row_obj(H, F, warm) < _row_obj(H, F, x))
    keep = better[kkt_residual(H, F[better], warm[better]) <= KKT_TOL]
    x[keep] = warm[keep]


def solve_simplex_qp_rows(H, F, x0, sweep_hook=None):
    """Solve min_x x H x^T - x f^T over the simplex for every row at once.

    All rows share the same symmetric PSD H (min z H z^T + z fbar maps to
    f = -fbar); F stacks one f per row. One eigendecomposition of H splits
    it as B^T B + rho I, with rho = max(lambda_min, 0) and B of k rows, one
    per eigenvalue above rho (k <= rank of H - rho I). A dual semismooth
    Newton loop (Li, Sun & Toh 2018) over the simplex projection then
    solves every row through its k-dimensional dual: each step solves one
    batch of k x k systems for all unfinished rows and backtracks on the
    concave dual, and a row is finished when a full step keeps its support
    (at most 500 steps). Each row's dual starts from its warm start ``x0``
    projected onto the simplex or, where the dual scores higher there, from
    its minimizer on the hyperplane sum x = 1, 0.5 H^-1 (f + lam 1).

    A singular H (lambda_min <= 1e-10 lambda_max), or an F too large to be
    divided by 2 rho, is solved by proximal-point steps on the same Newton
    loop: H + mu I and f + 2 mu x_t from the warm start, until every row
    passes KKT_TOL (at most 100 steps). mu starts at 1e-2 times the smallest
    eigenvalue above 1e-10 lambda_max and halves after every step, so a row
    that crawls along a flat face speeds up; it is floored at
    max(max|F|, 1) / 2^51 so that f / (2 mu) stays far from overflow. A warm
    start that scores better than the solution and is itself KKT-certified
    is kept, which makes warm-started solves monotone.

    Rows are solved in blocks of 4096. Beside F, x0 and the returned array
    a call holds at most two more (rows, m) arrays, and those only while it
    scores the warm start at the end: the rows H^-1 f are formed in the
    output, and each block's solution overwrites its own rows.

    ``sweep_hook(kind, n_rows)``, when given, is called once per Newton
    step (kind "newton") of each block of up to 4096 rows, with the number
    of rows of the block still being worked on.

    Raises ValueError on a misshapen, asymmetric or indefinite input
    (lambda_min below -1e-8 max(1, lambda_max)), and QPConvergenceError on
    non-finite 2H, F or eigenvalues of H, or a row ending over KKT_TOL.
    """
    H = np.asarray(H, dtype=float)
    F = np.asarray(F, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be square")
    if F.ndim != 2 or F.shape[1] != H.shape[0] or np.shape(x0) != F.shape:
        raise ValueError(f"F and x0 must be (rows, {H.shape[0]}) to match H")
    if not np.abs(H).max() <= 0.5 * np.finfo(float).max:  # 2H finite; NaN fails too
        raise QPConvergenceError("QP data not finite: 2H overflows or H holds inf/NaN")
    # max|F| without an |F| array; NaN and +-inf leave it non-finite
    fmax = float(np.maximum(F.max(initial=0.0), -F.min(initial=0.0)))
    if not np.isfinite(fmax):
        raise QPConvergenceError("QP data not finite: F holds inf/NaN")
    if np.abs(H - H.T).max() > 1e-10:
        raise ValueError("H must be symmetric")
    w, vecs = np.linalg.eigh(H)
    if not np.all(np.isfinite(w)):
        raise QPConvergenceError("QP data not finite: eigenvalues of H overflow")
    # relative to the spectrum: roundoff in lambda_min grows with lambda_max
    if w[0] < -1e-8 * max(1.0, w[-1]):
        raise ValueError(f"H is not positive semi-definite (lambda_min={w[0]:.3e})")
    rho = max(float(w[0]), 0.0)
    top = w - rho > 1e-13 * w[-1]  # eigenvalues above rho by more than roundoff
    B = np.sqrt(w[top] - rho)[:, None] * vecs[:, top].T  # B^T B = H - rho I
    if w[0] > 1e-10 * w[-1] and fmax < 2.0**51 * rho:
        # the hyperplane minimizer eq = 0.5 H^-1 (f + lam 1): 2 H eq - f is a
        # multiple of 1, so x(B eq) = proj(eq)
        hinv = (vecs / w) @ vecs.T
        ones = hinv.sum(axis=0)  # H^-1 1
        x = np.matmul(F, hinv, out=np.empty_like(F))  # rows H^-1 f
        for s in _row_blocks(len(F)):
            y = x[s]
            starts = [project_rows_onto_simplex(x0[s]) @ B.T,
                      0.5 * (y + ((2.0 - y.sum(axis=1)) / ones.sum())[:, None] * ones) @ B.T]
            _dual_newton(B, rho, F[s], starts, y, sweep_hook)
    else:
        lifted = w[w > 1e-10 * w[-1]]
        floor = max(fmax, 1.0) / 2.0**51
        mu = max(1e-2 * float(lifted[0]) if lifted.size else 0.0, floor)
        x = project_rows_onto_simplex(x0)
        todo = np.arange(len(F))
        for _ in range(100):  # proximal-point steps
            for s in _row_blocks(len(todo)):
                rows = todo[s]
                xr = x[rows]
                _dual_newton(B, rho + mu, F[rows] + 2.0 * mu * xr, [xr @ B.T], xr, sweep_hook)
                x[rows] = xr
            todo = todo[~(kkt_residual(H, F[todo], x[todo]) <= KKT_TOL)]  # NaN fails too
            if not todo.size:
                break
            mu = max(0.5 * mu, floor)
    _keep_certified_warm(H, F, x, x0)
    residuals = kkt_residual(H, F, x)
    over = np.flatnonzero(~(residuals <= KKT_TOL))
    if over.size:
        i = over[0]
        raise QPConvergenceError(f"row {i}: KKT residual {residuals[i]:.3e} exceeds {KKT_TOL:g}")
    return x
