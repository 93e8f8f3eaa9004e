"""Shared test oracles, implemented independently of the package internals:
exhaustive active-set enumeration for simplex QPs and a dense-eigendecomposition
component counter for bipartite graphs."""

import itertools
import os
from pathlib import Path

import numpy as np

import udbgl


def simplex_qp_oracle(H, f):
    """Exact minimizer of x^T H x - f^T x over the probability simplex.

    Enumerates every support, solves the equality-constrained KKT system on
    it, and keeps the best feasible candidate. Exponential in the dimension,
    fine for the small instances tests use.
    """
    H = np.asarray(H, dtype=float)
    f = np.asarray(f, dtype=float)
    m = f.size
    best_x, best_val = None, np.inf
    for r in range(1, m + 1):
        for sup in itertools.combinations(range(m), r):
            idx = list(sup)
            kkt = np.zeros((r + 1, r + 1))
            kkt[:r, :r] = 2.0 * H[np.ix_(idx, idx)]
            kkt[:r, r] = -1.0
            kkt[r, :r] = 1.0
            rhs = np.append(f[idx], 1.0)
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            if not np.all(np.isfinite(sol)) or sol[:r].min() < -1e-12:
                continue
            x = np.zeros(m)
            x[idx] = np.maximum(sol[:r], 0.0)
            if abs(x.sum() - 1.0) > 1e-9:
                continue
            val = x @ H @ x - f @ x
            if val < best_val:
                best_val, best_x = val, x
    return best_x


def projection_oracle(v):
    # projecting v onto the simplex is the QP with H = I/... argmin ||x-v||^2
    # = argmin x.x - 2v.x, i.e. H = I and f = 2v
    v = np.asarray(v, dtype=float)
    return simplex_qp_oracle(np.eye(v.size), 2.0 * v)


def acc_by_enumeration(pred, truth, counts):
    """Best bijective cluster-to-class matching by brute force: pad the
    contingency table square and try every permutation."""
    k = max(counts.shape)
    padded = np.zeros((k, k), dtype=int)
    padded[: counts.shape[0], : counts.shape[1]] = counts
    best = max(sum(padded[i, p[i]] for i in range(k))
               for p in itertools.permutations(range(k)))
    return best / len(pred)


def eigen_component_count(w, eps=1e-8, eig_tol=1e-6):
    """Connected components of the (n+m)-node bipartite graph via the
    spectrum of its normalized Laplacian: the multiplicity of eigenvalue 0
    on the positive-degree subgraph, plus one per isolated vertex."""
    w = np.asarray(w, dtype=float)
    n, m = w.shape
    keep = np.where(w > eps, w, 0.0)
    s = np.zeros((n + m, n + m))
    s[:n, n:] = keep
    s[n:, :n] = keep.T
    deg = s.sum(axis=1)
    alive = deg > 0
    isolated = int(np.count_nonzero(~alive))
    if not alive.any():
        return isolated
    sa = s[np.ix_(alive, alive)]
    da = deg[alive]
    lap = np.eye(sa.shape[0]) - sa / np.sqrt(da)[:, None] / np.sqrt(da)[None, :]
    vals = np.linalg.eigvalsh(lap)
    return int(np.count_nonzero(vals < eig_tol)) + isolated


def dense_bipartite_laplacian(w, floor=1e-12):
    """Normalized Laplacian of the full bipartite graph (no thresholding),
    degrees floored like the implementation floors them."""
    w = np.asarray(w, dtype=float)
    n, m = w.shape
    s = np.zeros((n + m, n + m))
    s[:n, n:] = w
    s[n:, :n] = w.T
    deg = np.maximum(s.sum(axis=1), floor)
    return np.eye(n + m) - s / np.sqrt(deg)[:, None] / np.sqrt(deg)[None, :]


def random_bipartite(rng, n, m, density=0.3, block=False):
    """Random nonnegative bipartite weight matrix; with block=True the
    support is block diagonal with sprinkled noise edges."""
    if block:
        k = int(rng.integers(1, min(n, m) + 1))
        row_blk = rng.integers(0, k, size=n)
        col_blk = rng.integers(0, k, size=m)
        w = np.where(row_blk[:, None] == col_blk[None, :], rng.random((n, m)), 0.0)
        noise = rng.random((n, m)) < 0.02
        w = w + noise * rng.random((n, m))
    else:
        w = np.where(rng.random((n, m)) < density, rng.random((n, m)), 0.0)
    return w


def source_env(**extra):
    """Environment whose import path resolves ``udbgl`` to the tested
    source, with ``extra`` variables set on top."""
    env = dict(os.environ)
    src = str(Path(udbgl.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env
