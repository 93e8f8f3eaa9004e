"""Joint optimizer for anchor-based multi-view clustering.

Alternates three blocks until the objective settles: the consensus graph P
(driven toward exactly c connected components by an adaptive spectral
penalty), the per-view graphs Z (row-wise simplex QPs against the anchors
and the consensus), and the view weights delta (a simplex QP on the view
Gram matrix). Cluster labels fall directly out of P's components, so no
k-means postprocessing is involved.

Memory: no block modifies an (n, m) graph it is given. Each elementwise
pass writes into an array the block owns and a sum of scaled graphs is
formed 32 KB at a time, so beside the state a block holds a fixed number of
(n, m) arrays of its own: update_p three (q with the candidate P formed
over it, the accepted P, and the degree-scaled graph or (B - P)^2) plus
an (n, m) bool array, the edge set of the last graph it counted (two while
an accepted P's edges are compared with it), update_z two (its linear term
and the new graph; the QP adds two while it scores the warm start at the
end), objective and update_delta one.

Values between the blocks are plain: the spectral embedding is the triple
(f_n, f_m, sigma) of update_f, update_p returns (P, gamma), and fit's
callback gets (stage, state).
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
    check_graph,
    count_components,
    degrees,
    extract_labels,
    knn_bipartite_init,
)
from .numerics import (
    QPConvergenceError,
    _BLOCK,
    _sqdist,
    _sum_sq_diff,
    project_rows_onto_simplex,
    solve_simplex_qp_rows,
    truncated_svd,
)

__all__ = [
    "VARIANTS",
    "RankTargetError",
    "SolverConfig",
    "SolverState",
    "update_p",
    "update_z",
    "update_delta",
    "objective",
    "fit",
]

VARIANTS = ("full", "knn_fusion_only", "two_phase")


class RankTargetError(RuntimeError):
    """The gamma loop could not reach exactly c connected components."""


# the rank loop's gamma schedule: start at _GAMMA0, double or halve per
# sweep, fail once gamma leaves [_GAMMA_MIN, _GAMMA_MAX] or after _P_SWEEPS
_GAMMA0 = 0.1
_GAMMA_MIN, _GAMMA_MAX = 1e-8, 1e8
_P_SWEEPS = 60


def _is_real(v):
    # a finite number, not a bool
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


@dataclass
class SolverConfig:
    """Settings of :func:`fit`. Defaults follow the reference configuration:
    alpha = beta = 1, m = c anchors, K = min(5, m) for the K-NN seed.
    Features are min-max scaled, and the rank loop's gamma schedule is
    fixed (see :func:`update_p`)."""

    c: int
    alpha: float = 1.0
    beta: float = 1.0
    m: int | None = None           # anchor count, None -> c
    K: int | None = None           # K-NN init, None -> min(5, m)
    outer_max_iter: int = 50
    outer_tol: float = 1e-6
    seed: int = 0

    def resolved_m(self):
        return self.c if self.m is None else self.m

    def resolved_k(self):
        return min(5, self.resolved_m()) if self.K is None else self.K

    def validate(self, n=None):
        for name in ("c", "m", "K", "outer_max_iter", "seed"):
            v = getattr(self, name)
            if not (_is_int(v) or (v is None and name in ("m", "K"))):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        for name in ("alpha", "beta", "outer_tol"):
            v = getattr(self, name)
            if not _is_real(v):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
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
        if self.outer_max_iter < 1:
            raise ValueError("iteration caps must be positive")


@dataclass
class SolverState:
    """Mutable snapshot of the optimizer, updated in place per block: the
    view graphs ``zs`` (one (n, m) array per view), the consensus graph
    ``p`` ((n, m)) and the view weights ``delta``."""

    zs: list
    p: np.ndarray
    delta: np.ndarray
    gamma: float
    objective_trace: list = field(default_factory=list)
    iterations: int = 0
    timings: dict = field(default_factory=dict)


def _add_scaled(out, d, w):
    # out += d * w, with the product formed about _BLOCK entries (32 KB) at
    # a time, so a sum of scaled graphs holds one (n, m) array and no more
    rows = max(1, _BLOCK // out.shape[1])
    for lo in range(0, len(out), rows):
        out[lo:lo + rows] += d * w[lo:lo + rows]


def blend(zs, delta):
    """Consensus seed B = sum_v delta_v Z_v (convex, stays row-stochastic)."""
    out = np.zeros_like(zs[0])
    for d, w in zip(delta, zs):
        _add_scaled(out, d, w)
    return out


def update_f(p, c, degs=None):
    """Spectral embedding of a bipartite graph from its top-c singular
    triplets; returns (f_n, f_m, sigma).

    With D_n, D_m the (floored) degree diagonals, f_n = (sqrt(2)/2) U and
    f_m = (sqrt(2)/2) V where U, sigma, V come from the rank-c SVD of
    D_n^{-1/2} P D_m^{-1/2}, so the stacked matrix [f_n; f_m] has
    orthonormal columns: f_n^T f_n + f_m^T f_m = I. It minimizes the
    normalized-Laplacian trace over such matrices; the attained trace
    equals c - sum(sigma).
    """
    d_n, d_m = degrees(p) if degs is None else degs
    mat = p / np.sqrt(d_n)[:, None]
    mat /= np.sqrt(d_m)[None, :]
    u, sigma, v = truncated_svd(mat, c)
    half = np.sqrt(2.0) / 2.0
    return half * u, half * v, sigma


def compute_q(emb, d_n, d_m, out=None):
    """Pairwise embedding distances q_ij = ||f_n(i)/sqrt(d_n_i) -
    f_m(j)/sqrt(d_m_j)||^2 for the triple ``emb`` = (f_n, f_m, sigma) of
    update_f; contracting q with P reproduces the Laplacian trace term when
    the degrees belong to the same P. Written into ``out`` when given."""
    f_n, f_m, _ = emb
    a = f_n / np.sqrt(d_n)[:, None]
    b = f_m / np.sqrt(d_m)[:, None]
    return _sqdist(a, b, (a * a).sum(axis=1), out=out)


def update_p_rows(b, q, gamma, out=None):
    """Row-wise closed form of the P subproblem at fixed q:
    p_i = simplex projection of b_i - (gamma/2) q_i, formed and projected
    in one array (``out`` when given; it may be q, not b)."""
    v = np.multiply(q, -0.5 * gamma, out=out)  # b + (-(g/2) q) rounds as b - (g/2) q
    v += b
    return project_rows_onto_simplex(v, out=v)


def _fit_term(b, p):
    # ||B - P||_F^2 in one (n, m) array, released on return
    diff = b - p
    return np.square(diff, out=diff).sum()


def _surrogate(fit_term, sigma, gamma, c):
    # ||B - P||_F^2 + gamma tr(F^T L F); the trace term is c - sum(sigma)
    return float(fit_term + gamma * (c - sigma.sum()))


def update_p(b, c, sweep_hook=None):
    """Solve the consensus subproblem: nearest row-stochastic P to B whose
    thresholded graph has exactly c connected components.

    Seeds degrees and the embedding from B itself, then alternates the row
    update, the degree refresh, and the embedding update while adapting
    gamma from _GAMMA0 (0.1): doubled while the graph has too few
    components, halved when too many, unchanged on exit. A sweep that would
    raise the fixed-gamma surrogate ||B-P||^2 + gamma tr(F^T L F) is
    rejected (the degree refresh voids the majorization argument during
    violent support changes), which keeps the surrogate non-increasing at
    fixed gamma by construction while gamma keeps adapting; the escalation
    still terminates because a move that lands on exactly c components has
    trace term 0 and is accepted once gamma is large enough. Raises
    RankTargetError when gamma leaves [_GAMMA_MIN, _GAMMA_MAX] = [1e-8, 1e8]
    or after _P_SWEEPS (60) sweeps.

    Returns (P, gamma): P is the accepted (n, m) graph with exactly c
    components, checked by check_graph; it is a new array even when no
    sweep is accepted, so B is left as it was given.
    """
    b = np.asarray(b, dtype=float)
    gamma = _GAMMA0
    degs = degrees(b)
    emb = update_f(b, c, degs)
    p = b
    fit_term = 0.0  # ||B - P||^2 of the accepted P (zero while P is B)
    # the count depends only on the edge set, so it is redone only when an
    # accepted P's edges differ from those of the last graph counted
    counted = b > EDGE_EPS
    count = count_components(b)
    # q is formed in the array of the last rejected or replaced P, and the
    # candidate P over q, so a sweep holds two (n, m) arrays of its own
    spare = None
    for sweep in range(_P_SWEEPS):
        q = compute_q(emb, *degs, out=spare)
        before = _surrogate(fit_term, emb[2], gamma, c)
        p_new = update_p_rows(b, q, gamma, out=q)
        degs_new = degrees(p_new)
        emb_new = update_f(p_new, c, degs_new)
        fit_new = _fit_term(b, p_new)
        after = _surrogate(fit_new, emb_new[2], gamma, c)
        accepted = after <= before
        if accepted:
            spare = None if p is b else p
            p, degs, emb, fit_term = p_new, degs_new, emb_new, fit_new
            edges = p > EDGE_EPS
            if not np.array_equal(edges, counted):
                counted, count = edges, count_components(p)
        else:
            spare = p_new
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
            return check_graph(b.copy() if p is b else p, "consensus graph"), gamma
        gamma = gamma * 2.0 if count < c else gamma * 0.5
        if not _GAMMA_MIN <= gamma <= _GAMMA_MAX:
            raise RankTargetError(
                f"gamma {gamma:.3e} left [{_GAMMA_MIN:.1e}, {_GAMMA_MAX:.1e}] "
                f"with {count} components (target {c})"
            )
    raise RankTargetError(
        f"no {c}-component graph within {_P_SWEEPS} sweeps "
        f"(last count {count}, gamma {gamma:.3e})"
    )


def _qp_linear_term(v, x, a, zs, p, delta, coupling):
    # F = -fbar with fbar = -2 X^T A + coupling (sum_{i != v} delta_i Z_i - P),
    # in two (n, m) arrays of which F is returned; bit for bit the same as
    # that expression: x - y rounds as x + (-y), and sums commute
    rest = np.zeros_like(p)
    for i, w in enumerate(zs):
        if i != v:
            _add_scaled(rest, delta[i], w)
    rest -= p
    rest *= coupling
    f = x.T @ a
    f *= -2.0
    f += rest
    return np.negative(f, out=f)


def update_z(v, x, a, zs, delta, p, alpha, beta):
    """Refresh view v's bipartite graph by its n row QPs.

    Every row shares the Hessian H = A^T A + (alpha + beta delta_v^2) I;
    row j's linear term couples its feature column, the other views'
    blended rows, and the consensus row. All rows are solved exactly by
    one batched solve warm-started from the current graph, so a row never
    scores worse than its current value.
    """
    coupling = 2.0 * beta * delta[v]
    if not math.isfinite(coupling):  # inf * 0 would put NaN into F
        raise QPConvergenceError(f"view {v}: coupling weight 2 beta delta_v = {coupling} "
                                 f"is not finite; beta={beta:g} is too large")
    m = a.shape[1]
    h = a.T @ a + (alpha + beta * delta[v] ** 2) * np.eye(m)
    try:
        znew = solve_simplex_qp_rows(h, _qp_linear_term(v, x, a, zs, p, delta, coupling), zs[v])
    except QPConvergenceError as exc:
        raise QPConvergenceError(f"view {v}: {exc}") from exc
    return check_graph(znew, "view graph")


def update_delta(zs, p, delta_prev=None):
    """Adaptive view weights: minimize ||sum_v delta_v Z_v - P||_F^2 over
    the simplex.

    The QP data never materializes the stacked nm x V matrix: H is the
    V x V Gram of the vectorized graphs, f_v = 2 <Z_v, P>_F. H is singular
    when two views carry the same graph. The solve is warm-started at
    1/V; a ``delta_prev`` that scores better than the solve is kept, so
    the blend penalty never increases across outer iterations.
    """
    nviews = len(zs)
    buf = np.empty_like(p)  # every product below, each summed in one pass
    h = np.empty((nviews, nviews))
    for i in range(nviews):
        for j in range(i, nviews):
            h[i, j] = h[j, i] = float(np.multiply(zs[i], zs[j], out=buf).sum())
    f = np.array([2.0 * float(np.multiply(w, p, out=buf).sum()) for w in zs])
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
    for x, a, z in zip(ds.views, anchors, state.zs):
        total += _sum_sq_diff(x, a @ z.T) + cfg.alpha * float((z * z).sum())
    # (P - B)^2 is (B - P)^2 bit for bit: rounding is symmetric in sign
    total += cfg.beta * _sum_sq_diff(state.p, blend(state.zs, state.delta))
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
    then fuses with Z frozen. ``callback(stage, state)`` fires after the
    initialization ("init") and after every block update ("update_p",
    "update_z:<v>", "update_delta"); ``p_sweep_hook`` is forwarded to
    update_p.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    cfg.validate(n=ds.n)
    t0 = time.perf_counter()
    timings = {}

    t = time.perf_counter()
    ds_n = normalize(ds)
    timings["normalize"] = time.perf_counter() - t

    t = time.perf_counter()
    anchors = build_anchors(ds_n, cfg.resolved_m(), seed=cfg.seed)
    timings["anchors"] = time.perf_counter() - t

    t = time.perf_counter()
    k = cfg.resolved_k()
    zs = [knn_bipartite_init(x, a, k) for x, a in zip(ds_n.views, anchors)]
    nviews = ds_n.n_views
    delta = np.full(nviews, 1.0 / nviews)
    if variant == "two_phase":
        # with beta = 0 the row QPs decouple from P, delta, and the other
        # views, so one exact pass is already the converged first phase
        seed_p = blend(zs, delta)
        zs = [update_z(v, ds_n.views[v], anchors[v], zs, delta, seed_p, cfg.alpha, 0.0)
              for v in range(nviews)]
    timings["init"] = time.perf_counter() - t

    state = SolverState(
        zs=zs,
        p=check_graph(blend(zs, delta), "consensus graph"),
        delta=delta,
        gamma=_GAMMA0,
        timings=timings,
    )
    state.objective_trace.append(objective(state, ds_n, anchors, cfg))
    if callback is not None:
        callback("init", state)

    per_iter = []
    for it in range(1, cfg.outer_max_iter + 1):
        t_it = time.perf_counter()
        b = blend(state.zs, state.delta)
        state.p, state.gamma = update_p(b, cfg.c, sweep_hook=p_sweep_hook)
        if callback is not None:
            callback("update_p", state)

        if variant == "full":
            for v in range(nviews):
                state.zs[v] = update_z(v, ds_n.views[v], anchors[v], state.zs,
                                       state.delta, state.p, cfg.alpha, cfg.beta)
                if callback is not None:
                    callback(f"update_z:{v}", state)

        state.delta = update_delta(state.zs, state.p, delta_prev=state.delta)
        if callback is not None:
            callback("update_delta", state)

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
        labels = extract_labels(state.p, expected_components=cfg.c)
    except ValueError as exc:
        # c total components but some are anchor-only, so the samples split
        # into fewer than c clusters: a solver failure, not a usage error
        raise RankTargetError(str(exc)) from exc
    return labels, state
