"""Acceptance suite. Each test covers one numbered acceptance criterion and
prints a single `criterion N: PASS` line with its measured values; under
``pytest -v`` the per-test PASSED/FAILED status doubles as the per-criterion
verdict. Tolerances are pinned in the assertions, not configurable."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import (
    acc_by_enumeration,
    eigen_component_count,
    projection_oracle,
    random_bipartite,
    simplex_qp_oracle,
    source_env,
)

import udbgl.solver as solver_mod
from udbgl.dataset import synth_blobs
from udbgl.graphs import EDGE_EPS, count_components, sample_component_labels
from udbgl.metrics import acc, contingency, nmi, purity
from udbgl.numerics import project_rows_onto_simplex, solve_simplex_qp_rows
from udbgl.solver import SolverConfig, fit, objective, update_f

BLOBS = dict(n=300, c=3, n_views=3, dims=[4, 4, 4], noise=0.1)


def _report(num, detail):
    print(f"criterion {num}: PASS — {detail}")


# ---------------------------------------------------------------------------

def test_criterion_01_synthetic_recovery():
    """10 seeded runs on synth_blobs(300, 3, 3, [4,4,4], 0.1) with default
    config: mean NMI >= 0.95, every run exactly 3 components, < 30 s total."""
    t0 = time.perf_counter()
    scores, totals = [], []
    for seed in range(10):
        ds = synth_blobs(seed=seed, **BLOBS)
        labels, state = fit(ds, SolverConfig(c=3, seed=seed))
        scores.append(nmi(labels, ds.labels))
        _, n_sample, anchor_only = sample_component_labels(state.p)
        totals.append((n_sample, n_sample + anchor_only))
    elapsed = time.perf_counter() - t0
    mean_nmi = float(np.mean(scores))
    assert mean_nmi >= 0.95, f"mean NMI {mean_nmi:.4f} < 0.95 (per-seed {scores})"
    assert all(t == (3, 3) for t in totals), f"component counts off: {totals}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s >= 30s"
    _report(1, f"mean NMI {mean_nmi:.4f} (min {min(scores):.4f}), "
               f"10/10 runs with exactly 3 components, {elapsed:.1f}s total")


def test_criterion_02_constraint_suite():
    """After every solver update over 5 seeded runs: Z and P row sums within
    1e-8 of 1, entries >= -1e-12, delta on the simplex to the same bounds."""
    violations = 0
    checks = 0

    def check(stage, state):
        nonlocal violations, checks
        mats = [*state.zs, state.p]
        for w in mats:
            checks += 1
            if np.abs(w.sum(axis=1) - 1.0).max() > 1e-8 or w.min() < -1e-12:
                violations += 1
        checks += 1
        d = state.delta
        if abs(d.sum() - 1.0) > 1e-8 or d.min() < -1e-12:
            violations += 1

    for seed in range(5):
        ds = synth_blobs(n=100, c=3, n_views=2, noise=0.1, seed=seed)
        fit(ds, SolverConfig(c=3, seed=seed), callback=check)
    assert checks > 0
    assert violations == 0, f"{violations} constraint violations in {checks} checks"
    _report(2, f"0 violations in {checks} constraint checks over 5 runs "
               f"(row sums within 1e-8, entries >= -1e-12)")


def test_criterion_03_component_count_equivalence():
    """200 random bipartite graphs (n <= 40, m <= 8): the anchor-graph component
    count equals the 0-eigenvalue multiplicity (eigen tolerance 1e-6)."""
    rng = np.random.default_rng(0)
    agree = 0
    for trial in range(200):
        n = int(rng.integers(2, 41))
        m = int(rng.integers(1, 9))
        w = random_bipartite(rng, n, m, density=float(rng.uniform(0.05, 0.6)),
                             block=bool(trial % 2))
        if count_components(w) == eigen_component_count(w, EDGE_EPS, 1e-6):
            agree += 1
    assert agree == 200, f"only {agree}/200 graphs agree"
    _report(3, "component count == eigenvalue-0 multiplicity on 200/200 graphs")


def test_criterion_04_qp_oracles():
    """100 QP instances shaped like the solver's Z-row and delta problems
    (dims <= 4): solution within 2e-3 and objective within 1e-6 of the
    exhaustive active-set oracle."""
    rng = np.random.default_rng(1)
    worst_x, worst_obj = 0.0, 0.0
    for trial in range(100):
        m = int(rng.integers(1, 5))
        if trial % 2 == 0:
            # Z-row shape: H = A^T A + (alpha + beta delta^2) I, f from the
            # feature column and the fusion residual
            d = int(rng.integers(2, 7))
            a = rng.standard_normal((d, m))
            alpha, beta = rng.uniform(0.05, 5.0, size=2)
            dv = rng.uniform(0.0, 1.0)
            h = a.T @ a + (alpha + beta * dv ** 2) * np.eye(m)
            x_col = rng.standard_normal(d)
            resid = rng.standard_normal(m)
            f = 2.0 * (a.T @ x_col) - 2.0 * beta * dv * resid
        else:
            # delta shape: Gram of vectorized row-stochastic graphs
            n = int(rng.integers(3, 20))
            k = int(rng.integers(2, 5))
            mats = rng.random((m, n, k)) + 0.05
            mats /= mats.sum(axis=2, keepdims=True)
            h = np.einsum("ank,bnk->ab", mats, mats)
            p = rng.random((n, k)) + 0.05
            p /= p.sum(axis=1, keepdims=True)
            f = 2.0 * np.einsum("ank,nk->a", mats, p)
        x = solve_simplex_qp_rows(h, f[None, :], np.full((1, m), 1.0 / m))[0]
        xs = simplex_qp_oracle(h, f)
        dx = float(np.abs(x - xs).max())
        dobj = float((x @ h @ x - f @ x) - (xs @ h @ xs - f @ xs))
        worst_x, worst_obj = max(worst_x, dx), max(worst_obj, dobj)
        assert dx <= 2e-3, f"instance {trial}: |x - x*| = {dx:.2e} > 2e-3"
        assert dobj <= 1e-6, f"instance {trial}: obj gap {dobj:.2e} > 1e-6"
    _report(4, f"100/100 instances; worst |x - x*| {worst_x:.2e} (<= 2e-3), "
               f"worst objective gap {worst_obj:.2e} (<= 1e-6)")


def test_criterion_05_simplex_projection():
    """1000 random vectors (dim <= 10) match the exhaustive-KKT projection
    oracle within 1e-12."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 11))
        v = rng.uniform(-4, 4, size=dim) * rng.choice([0.01, 1.0, 100.0])
        dx = float(np.abs(project_rows_onto_simplex(v[None, :])[0] - projection_oracle(v)).max())
        worst = max(worst, dx)
        assert dx <= 1e-12, f"projection off by {dx:.2e}"
    _report(5, f"1000/1000 projections within 1e-12 (worst {worst:.2e})")


def test_criterion_06_per_subproblem_monotonicity(monkeypatch):
    """Over 5 seeded runs: the fixed-gamma P surrogate never increases across
    a sweep, and neither update_z nor update_delta increases the unified
    objective / fusion term (slack 1e-9)."""
    sweep_rises = []
    block_rises = []
    sweeps = blocks = 0
    # fit's normalized dataset, anchors and config: the arguments of its
    # first objective call, which comes before the "init" stage
    inputs = []

    def spy(state, *args):
        if not inputs:
            inputs.extend(args)
        return objective(state, *args)

    monkeypatch.setattr(solver_mod, "objective", spy)
    for seed in range(5):
        ds = synth_blobs(n=100, c=3, n_views=2, noise=0.1, seed=seed)
        cfg = SolverConfig(c=3, seed=seed)
        prev = {"obj": None, "delta": None}
        inputs.clear()

        def on_sweep(rec):
            nonlocal sweeps
            sweeps += 1
            sweep_rises.append(rec["surrogate_after"] - rec["surrogate_before"])

        def on_stage(stage, state):
            nonlocal blocks
            obj = objective(state, *inputs)
            if stage.startswith("update_z") or stage == "update_delta":
                blocks += 1
                block_rises.append(obj - prev["obj"])
            if stage == "update_delta" and prev["delta"] is not None:
                # fusion term alone must not increase either
                mix_new = solver_mod.blend(state.zs, state.delta)
                mix_old = solver_mod.blend(state.zs, prev["delta"])
                pw = state.p
                block_rises.append(((mix_new - pw) ** 2).sum()
                                   - ((mix_old - pw) ** 2).sum())
            prev["obj"] = obj
            prev["delta"] = state.delta.copy()

        fit(ds, cfg, callback=on_stage, p_sweep_hook=on_sweep)

    worst_sweep = max(sweep_rises)
    worst_block = max(block_rises)
    assert sweeps > 0 and blocks > 0
    assert worst_sweep <= 1e-9, f"P surrogate rose by {worst_sweep:.3e}"
    assert worst_block <= 1e-9, f"a Z/delta update raised its objective by {worst_block:.3e}"
    _report(6, f"{sweeps} P sweeps (worst rise {worst_sweep:.1e}) and {blocks} "
               f"Z/delta updates (worst rise {worst_block:.1e}) within slack 1e-9")


def test_criterion_07_convergence_shape():
    """Relative objective change falls below 1e-6 within 50 outer iterations
    on every synthetic suite used by the acceptance tests."""
    suites = []
    for seed in range(5):
        suites.append((synth_blobs(seed=seed, **BLOBS), SolverConfig(c=3, seed=seed)))
        suites.append((synth_blobs(n=100, c=3, n_views=2, noise=0.1, seed=seed),
                       SolverConfig(c=3, seed=seed)))
    suites.append((synth_blobs(n=200, c=4, n_views=1, dims=[6], noise=0.1, seed=0),
                   SolverConfig(c=4)))
    suites.append((synth_blobs(n=400, c=3, n_views=3, dims=[12] * 3, noise=0.1, seed=0),
                   SolverConfig(c=3, m=10)))
    worst_iters = 0
    for ds, cfg in suites:
        _, state = fit(ds, cfg)
        trace = state.objective_trace
        rel = abs(trace[-1] - trace[-2]) / max(abs(trace[-2]), 1e-12)
        assert state.iterations <= 50
        assert rel <= 1e-6, f"suite ended at relative change {rel:.2e}"
        worst_iters = max(worst_iters, state.iterations)
    _report(7, f"{len(suites)} suites converged below 1e-6 relative change "
               f"(max {worst_iters} of 50 outer iterations)")


# Run in a child process whose BLAS is pinned to 1 thread, so that its
# process CPU time is the work of one core: a CPU-bound neighbour slows the
# wall clock of every iteration, but barely its CPU time.
_SCALING_CHILD = """
import json, time
import numpy as np
from udbgl.dataset import synth_blobs
from udbgl.solver import SolverConfig, fit

sets = {n: synth_blobs(n=n, c=3, n_views=3, dims=[12] * 3, noise=0.1, seed=0)
        for n in (2000, 4000, 8000)}
times = {n: float("inf") for n in sets}
for _ in range(3):
    for n, ds in sets.items():
        stamps = []

        def on_stage(stage, state):
            if stage == "update_delta":
                stamps.append(time.process_time())

        fit(ds, SolverConfig(c=3, m=10), callback=on_stage)
        times[n] = min(times[n], float(np.median(np.diff(stamps))))
print(json.dumps(times))
"""


def test_criterion_08_linear_scaling():
    """m=10, d=12, V=3: per-outer-iteration time grows by a factor in
    [1.5, 3.0] per doubling of n over 2000 -> 4000 -> 8000. The estimator is
    the median process CPU time of a fit's steady-state iterations, each
    timed from one update_delta stage to the next (so the first iteration,
    which carries the one-off gamma escalation, is left out), the lowest of
    three fits per size run in turn 2000, 4000, 8000, 2000, ... The fits run
    in one child process with BLAS on 1 thread, where CPU time does not
    count the time a busy neighbour takes the core away. A median does not
    depend on how many iterations a fit runs (5, 7 and 6 at n=2000, 4000
    and 8000), as a minimum does, and running the sizes in turn lets each
    of them meet the same phases of a machine whose speed drifts."""
    env = source_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    r = subprocess.run([sys.executable, "-c", _SCALING_CHILD], capture_output=True, text=True,
                       env=env, timeout=600)
    assert r.returncode == 0, r.stderr
    times = {int(n): t for n, t in json.loads(r.stdout).items()}
    r1 = times[4000] / times[2000]
    r2 = times[8000] / times[4000]
    assert 1.5 <= r1 <= 3.0, f"2000->4000 factor {r1:.2f} outside [1.5, 3.0]"
    assert 1.5 <= r2 <= 3.0, f"4000->8000 factor {r2:.2f} outside [1.5, 3.0]"
    _report(8, f"per-iteration CPU time factors {r1:.2f} and {r2:.2f} per doubling "
               f"(bounds [1.5, 3.0])")


def test_criterion_09_embedding_orthonormality(monkeypatch):
    """F^T F = I within 1e-8 on every update_f call during full runs; the
    attained trace term matches the dense-eigen partial sum within 1e-6 on
    n <= 40 instances."""
    calls = {"count": 0, "worst": 0.0}
    real_update_f = update_f

    def spy(p, c, degs=None):
        emb = real_update_f(p, c, degs)
        f_n, f_m, _ = emb
        gram = f_n.T @ f_n + f_m.T @ f_m
        calls["count"] += 1
        calls["worst"] = max(calls["worst"], float(np.abs(gram - np.eye(c)).max()))
        return emb

    monkeypatch.setattr(solver_mod, "update_f", spy)
    for seed in range(2):
        ds = synth_blobs(n=80, c=3, n_views=2, noise=0.1, seed=seed)
        fit(ds, SolverConfig(c=3, seed=seed))
    monkeypatch.undo()
    assert calls["count"] > 0
    assert calls["worst"] <= 1e-8, f"F^T F deviated by {calls['worst']:.2e}"

    # dense-eigen cross-check of the trace term on small graphs
    from conftest import dense_bipartite_laplacian
    rng = np.random.default_rng(3)
    worst_trace = 0.0
    for _ in range(20):
        n, m = int(rng.integers(5, 41)), int(rng.integers(2, 7))
        c = int(rng.integers(1, m + 1))
        p = rng.random((n, m)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        _, _, sigma = real_update_f(p, c)
        vals = np.linalg.eigvalsh(dense_bipartite_laplacian(p))
        gap = abs((c - sigma.sum()) - vals[:c].sum())
        worst_trace = max(worst_trace, float(gap))
        assert gap <= 1e-6, f"trace term off dense eigensolver by {gap:.2e}"
    _report(9, f"{calls['count']} update_f calls orthonormal within 1e-8 "
               f"(worst {calls['worst']:.1e}); trace term within 1e-6 of dense "
               f"eigensolver on 20/20 small graphs (worst {worst_trace:.1e})")


def test_criterion_10_metric_properties():
    """500 random label pairs: relabeling invariance for all three metrics,
    nmi symmetry, purity >= acc; acc equals bijection enumeration at c <= 4."""
    rng = np.random.default_rng(4)
    enum_checked = 0
    for _ in range(500):
        n = int(rng.integers(2, 30))
        pred = rng.integers(0, int(rng.integers(1, 5)), size=n)
        truth = rng.integers(0, int(rng.integers(2, 5)), size=n)
        base = (nmi(pred, truth), acc(pred, truth), purity(pred, truth))
        pmap = rng.permutation(50)[pred]
        tmap = (rng.permutation(50) + 100)[truth]
        remapped = (nmi(pmap, tmap), acc(pmap, tmap), purity(pmap, tmap))
        assert all(abs(a - b) <= 1e-12 for a, b in zip(base, remapped))
        assert abs(nmi(pred, truth) - nmi(truth, pred)) <= 1e-12
        assert base[2] >= base[1] - 1e-12
        ref = acc_by_enumeration(pred, truth,
                                 contingency(pred, truth))
        assert abs(base[1] - ref) <= 1e-12
        enum_checked += 1
    _report(10, f"500/500 pairs pass invariance/symmetry/purity>=acc; "
                f"acc == bijection enumeration on {enum_checked} pairs")


def test_criterion_11_texas_stretch():
    """Non-blocking stretch: with UDBGL_TEXAS_DIR pointing at a WebKB-Texas
    manifest, grid mode reaches NMI within +-5 points of 37.14."""
    root = os.environ.get("UDBGL_TEXAS_DIR")
    if not root:
        pytest.skip("UDBGL_TEXAS_DIR not set; stretch criterion skipped (non-blocking)")
    import json
    import tempfile

    from udbgl.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"manifest": os.path.join(root, "manifest.json"), "c": 5}, fh)
        code = main(["grid", "--config", cfg, "--out", tmp])
        assert code == 0
        with open(os.path.join(tmp, "grid_report.json")) as fh:
            report = json.load(fh)
    best = 100.0 * report["best"]["metrics"]["nmi"]
    assert 37.14 - 5.0 <= best <= 37.14 + 5.0, f"best grid NMI {best:.2f} outside 37.14 +- 5"
    _report(11, f"grid best NMI {best:.2f} within 37.14 +- 5")
