"""Working-set bounds of one call of each solver layer, in units of one
(n, m) float array (8 MB here), on synth_blobs(n=20000, c=5, n_views=3,
dims=[20]*3, noise=0.3, seed=0) with m = 50. A call's cost is its
tracemalloc peak above the memory live when it starts: the temporaries it
allocates, not the state it is handed. The sizes make one 4096-row block
0.2 units, so a layer that formed any (n, m) temporary outside its budget
would cross its bound. The state fit keeps between its blocks is bounded
the same way."""

import tracemalloc

import numpy as np
import pytest

import udbgl.solver as solver_mod
from udbgl.anchors import build_anchors
from udbgl.dataset import normalize, synth_blobs
from udbgl.graphs import knn_bipartite_init
from udbgl.solver import SolverConfig, SolverState, blend, fit, objective, update_p, update_z

N, M = 20000, 50
UNIT = N * M * 8  # bytes of one (n, m) float array


def _peak_units(fn, *args):
    """fn(*args)'s tracemalloc peak above the memory traced when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / UNIT
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def state():
    ds = normalize(synth_blobs(n=N, c=5, n_views=3, dims=[20] * 3, noise=0.3, seed=0))
    cfg = SolverConfig(c=5, m=M)
    anchors = build_anchors(ds, M, seed=cfg.seed)
    zs = [knn_bipartite_init(x, a, cfg.resolved_k()) for x, a in zip(ds.views, anchors)]
    delta = np.full(3, 1.0 / 3)
    p, gamma = update_p(blend(zs, delta), cfg.c)
    return ds, anchors, cfg, SolverState(zs=zs, p=p, delta=delta, gamma=gamma)


def test_update_p_holds_at_most_four_graphs(state):
    # q with the candidate P formed over it, the accepted P, one scratch
    # array (the degree-scaled graph or (B - P)^2) and the projection's
    # block temporaries (6.2 at the parent commit)
    ds, anchors, cfg, st = state
    b = blend(st.zs, st.delta)
    assert _peak_units(update_p, b, cfg.c) <= 4.0


def test_update_z_holds_at_most_five_graphs(state):
    # the linear term and the new graph, H^-1 f formed in it, one Newton
    # block and the warm start scored at the end (11.7 at the parent commit)
    ds, anchors, cfg, st = state
    peak = max(_peak_units(update_z, v, ds.views[v], anchors[v], st.zs, st.delta,
                           st.p, cfg.alpha, cfg.beta) for v in range(3))
    assert peak <= 5.0


def test_build_anchors_holds_at_most_three_graphs(state):
    # the stacked views (1.2 units at 60 features) and the distances to
    # the centers with one block beside them (4.3 at the parent commit)
    ds, anchors, cfg, st = state
    assert _peak_units(build_anchors, ds, M, cfg.seed) <= 3.0


def test_objective_holds_one_graph(state):
    # one (n, m) array for every full-size sum; the blend is accumulated
    # 32 KB at a time (2.4 at the parent commit). The 1% allows for the
    # small arrays of the call
    ds, anchors, cfg, st = state
    assert _peak_units(objective, st, ds, anchors, cfg) <= 1.01


def test_normalize_holds_only_its_output(state):
    # each view is scaled in the array that is returned, so the peak is the
    # scaled copy of the views and little else (1.33 at the parent commit)
    ds = state[0]
    views = sum(x.nbytes for x in ds.views)
    assert _peak_units(normalize, ds) * UNIT <= 1.1 * views


class _FirstUpdateZ(Exception):
    pass


def test_fit_holds_no_blend_while_z_updates(state, monkeypatch):
    # when the first update_z starts, fit holds the normalized views (1.2
    # units), the three Z and P, and not the blend B that update_p was
    # given (6.2 at the parent commit). The fit stops there
    ds = state[0]
    live = []

    def first_update_z(*args):
        live.append(tracemalloc.get_traced_memory()[0])
        raise _FirstUpdateZ

    monkeypatch.setattr(solver_mod, "update_z", first_update_z)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(_FirstUpdateZ):
            fit(ds, SolverConfig(c=5, m=M))
    finally:
        tracemalloc.stop()
    assert (live[0] - base) / UNIT <= 5.5
