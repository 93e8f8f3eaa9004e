"""Turn the spans one `op.py` process recorded into the benchmark's metrics.

A span is [id, parent id, name, start, end, attrs]; ids are per process.
A layer's self time is its spans' durations minus the durations of their
direct children (calls are synchronous within a process, so children do
not overlap).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

MB = 1024.0  # ru_maxrss is in KiB on Linux

# per-layer self-time metrics and the spans each one sums
SELF_TIME = {
    "dataset.load_views_s": ("dataset.load_views",),
    "dataset.normalize_s": ("dataset.normalize",),
    "anchors.build_anchors_s": ("anchors.build_anchors",),
    "graphs.knn_bipartite_init_s": ("graphs.knn_bipartite_init",),
    "graphs.count_components_s": ("graphs.count_components",),
    "graphs.extract_labels_s": ("graphs.extract_labels",),
    "numerics.solve_simplex_qp_rows_s": ("numerics.solve_simplex_qp_rows",),
    "numerics.truncated_svd_s": ("numerics.truncated_svd",),
    "numerics.project_rows_onto_simplex_s": ("numerics.project_rows_onto_simplex",),
    "solver.update_p_s": ("solver.update_p",),
    "solver.update_z_s": ("solver.update_z",),
    "solver.update_delta_s": ("solver.update_delta",),
    "solver.objective_s": ("solver.objective",),
    "solver.fit_s": ("solver.fit",),
    "metrics.score_s": ("metrics.nmi", "metrics.acc", "metrics.purity"),
    "cli.write_outputs_s": ("cli._write_run_outputs",),
}
CALLS = {
    "dataset.load_views_calls": "dataset.load_views",
    "graphs.count_components_calls": "graphs.count_components",
    "numerics.qp_calls": "numerics.solve_simplex_qp_rows",
    "solver.update_p_calls": "solver.update_p",
}
# counts summed from span attributes filled in by the observation hooks
ATTR_SUMS = {
    "numerics.qp_rows": ("numerics.solve_simplex_qp_rows", "rows"),
    "numerics.qp_sweeps": ("numerics.solve_simplex_qp_rows", "sweeps"),
    "solver.p_sweeps": ("solver.fit", "p_sweeps"),
    "solver.p_sweeps_accepted": ("solver.fit", "p_sweeps_accepted"),
    "solver.outer_iterations": ("solver.fit", "iterations"),
}
RATIOS = {
    "numerics.qp_sweeps_per_call": ("numerics.qp_sweeps", "numerics.qp_calls"),
    "solver.p_sweeps_per_call": ("solver.p_sweeps", "solver.update_p_calls"),
}
GRID = ("cli.grid_cell_s.p50", "cli.grid_cell_s.max", "cli.grid_pool_busy")
TRACED_WALL = "cli.main_s"


def unit(name):
    if name in RATIOS or name == "cli.grid_pool_busy":
        return "ratio"
    return "s" if name.endswith("_s") or name.startswith("cli.grid_cell_s") else "count"


PER_LAYER = [*SELF_TIME, *CALLS, *ATTR_SUMS, *RATIOS, *GRID, TRACED_WALL]


def _all_spans(result):
    return [s for spans in result["spans"].values() for s in spans]


def _main_span(result):
    (span,) = [s for s in result["spans"][result["main_pid"]] if s[2] == "cli.main"]
    return span


def end_to_end(result):
    """wall_s, setup_s and peak_rss_mb of one untraced (or traced) op."""
    main = _main_span(result)
    fits = [s for s in _all_spans(result) if s[2] == "solver.fit"]
    # main's own peak plus the peak of every grid worker
    worker_kb = defaultdict(int)
    for pid, spans in result["spans"].items():
        if pid != result["main_pid"]:
            for s in spans:
                worker_kb[pid] = max(worker_kb[pid], s[5].get("maxrss_kb", 0))
    return {
        "wall_s": main[4] - main[3],
        "setup_s": min(s[3] for s in fits) - main[3],
        "peak_rss_mb": (result["main_maxrss_kb"] + sum(worker_kb.values())) / MB,
    }


def per_layer(result, workers):
    """Every PER_LAYER metric of one traced op (0 for a layer not called)."""
    self_time, calls, attr = defaultdict(float), defaultdict(int), defaultdict(float)
    for spans in result["spans"].values():
        child = defaultdict(float)
        for s in spans:
            if s[1] is not None:
                child[s[1]] += s[4] - s[3]
        for s in spans:
            self_time[s[2]] += s[4] - s[3] - child[s[0]]
            calls[s[2]] += 1
            for key, val in s[5].items():
                attr[s[2], key] += val
    out = {k: sum(self_time[n] for n in names) for k, names in SELF_TIME.items()}
    out.update({k: calls[n] for k, n in CALLS.items()})
    out.update({k: attr[n, a] for k, (n, a) in ATTR_SUMS.items()})
    out.update({k: out[a] / out[b] if out[b] else 0.0 for k, (a, b) in RATIOS.items()})
    main = _main_span(result)
    wall = main[4] - main[3]
    cells = [s[4] - s[3] for s in _all_spans(result) if s[2] == "cli._grid_cell"]
    out["cli.grid_cell_s.p50"] = statistics.median(cells) if cells else 0.0
    out["cli.grid_cell_s.max"] = max(cells, default=0.0)
    out["cli.grid_pool_busy"] = sum(cells) / (workers * wall) if cells else 0.0
    out[TRACED_WALL] = wall
    return out
