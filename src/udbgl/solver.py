"""Joint optimizer for anchor-based multi-view clustering.

Alternates three blocks until the objective settles: the consensus graph P
(driven toward exactly c connected components by an adaptive spectral
penalty), the per-view graphs Z (row-wise simplex QPs against the anchors
and the consensus), and the view weights delta (a simplex QP on the view
Gram matrix). Cluster labels fall directly out of P's components, so no
k-means postprocessing is involved.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .anchors import build_anchors
from .dataset import _is_int, normalize
from .graphs import (
    EDGE_EPS,
    ConsensusBipartiteGraph,
    SpectralEmbedding,
    ViewBipartiteGraph,
    count_components,
    degrees,
    extract_labels,
    knn_bipartite_init,
    _weights,
)
from .numerics import (
    QPConvergenceError,
    project_rows_onto_simplex,
    solve_simplex_qp_rows,
    truncated_svd,
)

__all__ = [
    "VARIANTS",
    "RankTargetError",
    "SolverConfig",
    "SolverState",
    "FitContext",
    "update_p",
    "update_z",
    "update_delta",
    "objective",
    "fit",
]

VARIANTS = ("full", "knn_fusion_only", "two_phase")


class RankTargetError(RuntimeError):
    """The gamma loop could not reach exactly c connected components."""


def _is_real(v, allow_inf=False):
    # not a bool, not NaN, and finite unless allow_inf
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and (math.isfinite(v) or (allow_inf and not math.isnan(v))))


@dataclass
class SolverConfig:
    """Knobs for :func:`fit`. Defaults follow the reference configuration:
    alpha = beta = 1, m = c anchors, K = min(5, m) for the K-NN seed."""

    c: int
    alpha: float = 1.0
    beta: float = 1.0
    m: int | None = None           # anchor count, None -> c
    K: int | None = None           # K-NN init, None -> min(5, m)
    outer_max_iter: int = 50
    outer_tol: float = 1e-6
    gamma0: float = 0.1
    gamma_min: float = 1e-8
    gamma_max: float = 1e8
    p_inner_max: int = 60
    seed: int = 0
    normalize: str = "minmax"

    def resolved_m(self):
        return self.c if self.m is None else self.m

    def resolved_k(self):
        return min(5, self.resolved_m()) if self.K is None else self.K

    def validate(self, n=None):
        for name in ("c", "m", "K", "outer_max_iter", "p_inner_max", "seed"):
            v = getattr(self, name)
            if not (_is_int(v) or (v is None and name in ("m", "K"))):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        for name in ("alpha", "beta", "outer_tol", "gamma0", "gamma_min", "gamma_max"):
            v = getattr(self, name)
            if not _is_real(v, allow_inf=name == "gamma_max"):
                what = "a number, not NaN" if name == "gamma_max" else "a finite number"
                raise ValueError(f"{name} must be {what}, got {v!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha, beta must be positive")
        if self.c < 1:
            raise ValueError("c must be at least 1")
        m = self.resolved_m()
        if m < self.c:
            raise ValueError(f"m={m} must be at least c={self.c}")
        if n is not None and m > n:
            raise ValueError(f"m={m} exceeds sample count n={n}")
        k = self.resolved_k()
        if not 1 <= k <= m:
            raise ValueError(f"K={k} must lie in [1, m={m}]")
        if self.gamma0 <= 0 or self.gamma_min <= 0 or self.gamma_max < self.gamma_min:
            raise ValueError("gamma bounds must be positive with min <= max")
        if not self.gamma_min <= self.gamma0 <= self.gamma_max:
            raise ValueError("gamma0 must lie within [gamma_min, gamma_max]")
        if self.outer_max_iter < 1 or self.p_inner_max < 1:
            raise ValueError("iteration caps must be positive")
        if self.normalize not in ("minmax", "zscore"):
            raise ValueError(f"unknown normalization scheme {self.normalize!r}")


@dataclass
class SolverState:
    """Mutable snapshot of the optimizer, updated in place per block."""

    zs: list
    p: ConsensusBipartiteGraph
    delta: np.ndarray
    gamma: float
    objective_trace: list = field(default_factory=list)
    iterations: int = 0
    timings: dict = field(default_factory=dict)


@dataclass
class FitContext:
    """What a fit callback needs to recompute anything: the normalized
    dataset, the anchor set, and the config."""

    ds: object
    anchors: object
    cfg: SolverConfig


def blend(zs, delta):
    """Consensus seed B = sum_v delta_v Z_v (convex, stays row-stochastic)."""
    mats = [_weights(z) for z in zs]
    out = np.zeros_like(mats[0])
    for d, w in zip(delta, mats):
        out += d * w
    return out


def update_f(p, c, degs=None):
    """Spectral embedding of a bipartite graph from its top-c singular
    triplets.

    With D_n, D_m the (floored) degree diagonals, the embedding stacks
    F_n = (sqrt(2)/2) U and F_m = (sqrt(2)/2) V where U, V come from the
    rank-c SVD of D_n^{-1/2} P D_m^{-1/2}. The stacked matrix minimizes
    the normalized-Laplacian trace over orthonormal c-column matrices; the
    attained trace equals c - sum(sigma).
    """
    w = _weights(p)
    d_n, d_m = degrees(w) if degs is None else degs
    mat = w / np.sqrt(d_n)[:, None] / np.sqrt(d_m)[None, :]
    u, sigma, v = truncated_svd(mat, c)
    half = np.sqrt(2.0) / 2.0
    return SpectralEmbedding(half * u, half * v, sigma)


def compute_q(emb, d_n, d_m):
    """Pairwise embedding distances q_ij = ||f_n(i)/sqrt(d_n_i) -
    f_m(j)/sqrt(d_m_j)||^2; contracting q with P reproduces the Laplacian
    trace term when the degrees belong to the same P."""
    a = emb.f_n / np.sqrt(d_n)[:, None]
    b = emb.f_m / np.sqrt(d_m)[:, None]
    q = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(q, 0.0)


def update_p_rows(b, q, gamma):
    """Row-wise closed form of the P subproblem at fixed q:
    p_i = simplex projection of b_i - (gamma/2) q_i."""
    return project_rows_onto_simplex(np.asarray(b, dtype=float) - 0.5 * gamma * q)


def _surrogate(b, p, emb, gamma, c):
    # ||B - P||_F^2 + gamma tr(F^T L F); the trace term is c - sum(sigma)
    diff = b - p
    return float((diff * diff).sum() + gamma * (c - emb.singular_values.sum()))


def update_p(b, c, cfg, sweep_hook=None):
    """Solve the consensus subproblem: nearest row-stochastic P to B whose
    thresholded graph has exactly c connected components.

    Seeds degrees and the embedding from B itself, then alternates the row
    update, the degree refresh, and the embedding update while adapting
    gamma from gamma0: doubled while the graph has too few components,
    halved when too many, unchanged on exit. A sweep that would raise the
    fixed-gamma surrogate ||B-P||^2 + gamma tr(F^T L F) is rejected (the
    degree refresh voids the majorization argument during violent support
    changes), which keeps the surrogate non-increasing at fixed gamma by
    construction while gamma keeps adapting; the escalation still terminates
    because a move that lands on exactly c components has trace term 0 and
    is accepted once gamma is large enough. Errors out when gamma leaves
    [gamma_min, gamma_max] or after p_inner_max sweeps.

    Returns (ConsensusBipartiteGraph, SpectralEmbedding, gamma).
    """
    b = np.asarray(b, dtype=float)
    gamma = cfg.gamma0
    degs = degrees(b)
    emb = update_f(b, c, degs)
    p = b
    count = count_components(b, EDGE_EPS)
    for sweep in range(cfg.p_inner_max):
        q = compute_q(emb, *degs)
        before = _surrogate(b, p, emb, gamma, c)
        p_new = update_p_rows(b, q, gamma)
        degs_new = degrees(p_new)
        emb_new = update_f(p_new, c, degs_new)
        after = _surrogate(b, p_new, emb_new, gamma, c)
        accepted = after <= before
        if accepted:
            p, degs, emb = p_new, degs_new, emb_new
            count = count_components(p, EDGE_EPS)
        if sweep_hook is not None:
            sweep_hook({
                "sweep": sweep,
                "gamma": gamma,
                "components": count,
                "accepted": accepted,
                "surrogate_before": before,
                "surrogate_after": after if accepted else before,
                "candidate_surrogate": after,
            })
        if count == c:
            return ConsensusBipartiteGraph(p, components=count), emb, gamma
        gamma = gamma * 2.0 if count < c else gamma * 0.5
        if not cfg.gamma_min <= gamma <= cfg.gamma_max:
            raise RankTargetError(
                f"gamma {gamma:.3e} left [{cfg.gamma_min:.1e}, {cfg.gamma_max:.1e}] "
                f"with {count} components (target {c})"
            )
    raise RankTargetError(
        f"no {c}-component graph within {cfg.p_inner_max} sweeps "
        f"(last count {count}, gamma {gamma:.3e})"
    )


def update_z(v, x, a, zs, delta, p, alpha, beta):
    """Refresh view v's bipartite graph by its n row QPs.

    Every row shares the Hessian H = A^T A + (alpha + beta delta_v^2) I;
    row j's linear term couples its feature column, the other views'
    blended rows, and the consensus row. All rows are solved exactly by
    one batched solve warm-started from the current graph, so a row never
    scores worse than its current value.
    """
    pw = _weights(p)
    mats = [_weights(z) for z in zs]
    rest = np.zeros_like(pw)
    for i, w in enumerate(mats):
        if i != v:
            rest += delta[i] * w
    coupling = 2.0 * beta * delta[v]
    if not math.isfinite(coupling):  # inf * 0 would put NaN into F
        raise QPConvergenceError(f"view {v}: coupling weight 2 beta delta_v = {coupling} "
                                 f"is not finite; beta={beta:g} is too large")
    m = a.shape[1]
    h = a.T @ a + (alpha + beta * delta[v] ** 2) * np.eye(m)
    fbar = -2.0 * (x.T @ a) + coupling * (rest - pw)
    try:
        znew = solve_simplex_qp_rows(h, -fbar, mats[v])
    except QPConvergenceError as exc:
        raise QPConvergenceError(f"view {v}: {exc}") from exc
    return ViewBipartiteGraph(znew)


def update_delta(zs, p, delta_prev=None):
    """Adaptive view weights: minimize ||sum_v delta_v Z_v - P||_F^2 over
    the simplex.

    The QP data never materializes the stacked nm x V matrix: H is the
    V x V Gram of the vectorized graphs, f_v = 2 <Z_v, P>_F. H is singular
    when two views carry the same graph. The solve is warm-started at
    1/V; a ``delta_prev`` that scores better than the solve is kept, so
    the blend penalty never increases across outer iterations.
    """
    mats = [_weights(z) for z in zs]
    pw = _weights(p)
    nviews = len(mats)
    h = np.empty((nviews, nviews))
    for i in range(nviews):
        for j in range(i, nviews):
            h[i, j] = h[j, i] = float((mats[i] * mats[j]).sum())
    f = np.array([2.0 * float((w * pw).sum()) for w in mats])
    delta = solve_simplex_qp_rows(h, f[None, :], np.full((1, nviews), 1.0 / nviews))[0]
    if delta_prev is not None:
        prev = np.asarray(delta_prev, dtype=float)
        if prev @ h @ prev - prev @ f < delta @ h @ delta - delta @ f:
            return prev.copy()
    return delta


def objective(state, ds, anchors, cfg):
    """Unified objective value at the current state:
    sum_v (||X_v - A_v Z_v^T||_F^2 + alpha ||Z_v||_F^2)
    + beta ||sum_v delta_v Z_v - P||_F^2. Raises QPConvergenceError when it
    overflows, which fit's relative stopping test would take for convergence."""
    total = 0.0
    for x, a, z in zip(ds.views, anchors.per_view, state.zs):
        w = _weights(z)
        r = x - a @ w.T
        total += float((r * r).sum()) + cfg.alpha * float((w * w).sum())
    diff = blend(state.zs, state.delta) - _weights(state.p)
    total += cfg.beta * float((diff * diff).sum())
    if not math.isfinite(total):
        raise QPConvergenceError(f"objective is {total} after {state.iterations} iterations; "
                                 f"alpha={cfg.alpha:g} or beta={cfg.beta:g} is too large")
    return total


def fit(ds, cfg, variant="full", callback=None, p_sweep_hook=None):
    """Cluster a multi-view dataset; returns (labels, state).

    Pipeline: normalize features, pick anchors (k-means on the stacked
    views), seed each Z by a K-NN bipartite graph and delta by 1/V, then
    alternate update_p, update_z per view, and update_delta until the
    relative objective change drops below outer_tol or outer_max_iter is
    reached. Labels come straight from the consensus graph's connected
    components.

    ``variant`` selects an ablation: "knn_fusion_only" freezes Z at the
    K-NN seed, "two_phase" first solves the Z subproblems with beta = 0 and
    then fuses with Z frozen. ``callback(stage, state, ctx)`` fires after
    every block update; ``p_sweep_hook`` is forwarded to update_p.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    cfg.validate(n=ds.n)
    t0 = time.perf_counter()
    timings = {}

    t = time.perf_counter()
    ds_n = normalize(ds, cfg.normalize)
    timings["normalize"] = time.perf_counter() - t

    t = time.perf_counter()
    anchors = build_anchors(ds_n, cfg.resolved_m(), seed=cfg.seed)
    timings["anchors"] = time.perf_counter() - t

    t = time.perf_counter()
    k = cfg.resolved_k()
    zs = [knn_bipartite_init(x, a, k) for x, a in zip(ds_n.views, anchors.per_view)]
    nviews = ds_n.n_views
    delta = np.full(nviews, 1.0 / nviews)
    if variant == "two_phase":
        # with beta = 0 the row QPs decouple from P, delta, and the other
        # views, so one exact pass is already the converged first phase
        seed_p = blend(zs, delta)
        zs = [update_z(v, ds_n.views[v], anchors.per_view[v], zs, delta, seed_p, cfg.alpha, 0.0)
              for v in range(nviews)]
    timings["init"] = time.perf_counter() - t

    state = SolverState(
        zs=zs,
        p=ConsensusBipartiteGraph(blend(zs, delta).copy()),
        delta=delta,
        gamma=cfg.gamma0,
        timings=timings,
    )
    ctx = FitContext(ds=ds_n, anchors=anchors, cfg=cfg)
    state.objective_trace.append(objective(state, ds_n, anchors, cfg))
    if callback is not None:
        callback("init", state, ctx)

    per_iter = []
    for it in range(1, cfg.outer_max_iter + 1):
        t_it = time.perf_counter()
        b = blend(state.zs, state.delta)
        state.p, _, state.gamma = update_p(b, cfg.c, cfg, sweep_hook=p_sweep_hook)
        if callback is not None:
            callback("update_p", state, ctx)

        if variant == "full":
            for v in range(nviews):
                state.zs[v] = update_z(v, ds_n.views[v], anchors.per_view[v], state.zs,
                                       state.delta, state.p, cfg.alpha, cfg.beta)
                if callback is not None:
                    callback(f"update_z:{v}", state, ctx)

        state.delta = update_delta(state.zs, state.p, delta_prev=state.delta)
        if callback is not None:
            callback("update_delta", state, ctx)

        state.iterations = it
        obj = objective(state, ds_n, anchors, cfg)
        state.objective_trace.append(obj)
        per_iter.append(time.perf_counter() - t_it)
        prev = state.objective_trace[-2]
        if abs(obj - prev) <= cfg.outer_tol * max(abs(prev), 1e-12):
            break

    timings["outer_iterations"] = per_iter
    timings["optimize"] = float(sum(per_iter))
    timings["total"] = time.perf_counter() - t0
    try:
        labels = extract_labels(state.p, EDGE_EPS, expected_components=cfg.c)
    except ValueError as exc:
        # c total components but some are anchor-only, so the samples split
        # into fewer than c clusters: a solver failure, not a usage error
        raise RankTargetError(str(exc)) from exc
    return labels, state
