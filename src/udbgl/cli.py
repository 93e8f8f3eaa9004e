"""Command line for clustering runs: ``udbgl run|grid|ablate|synth``.

Exit codes: 0 success, 2 invalid config or arguments, 3 solver failure.
``UDBGL_THREADS`` (at least 1; default 1) is the number of grid cells run at
once. The main process runs cells too, so N means N - 1 worker processes, and
a sweep never runs more cells at once than the grid has.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .dataset import MultiViewDataset, load_views, synth_blobs, write_views
from .graphs import dump_graph_csv
from .metrics import acc, nmi, purity
from .numerics import QPConvergenceError
from .solver import VARIANTS, RankTargetError, SolverConfig, _is_int, _is_real, fit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

_SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig))
_TOP_KEYS = set(_SOLVER_KEYS) | {"manifest", "dump_consensus", "grid"}


class ConfigError(ValueError):
    pass


def _finite(parse):
    # a JSON number hook that rejects NaN, +-Infinity and numbers a double
    # cannot hold, such as 1e400 (float() reads it as inf)
    def hook(text):
        if not math.isfinite(float(text)):
            raise ValueError(f"{text} is not a finite double")
        return parse(text)
    return hook


def _load_config(path):
    # every number must be a finite double, so all that report.json echoes is
    # strict JSON
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_finite(float), parse_float=_finite(float),
                            parse_int=_finite(int))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if not isinstance(raw.get("dump_consensus", False), bool):
        raise ConfigError(f"dump_consensus must be true or false, got {raw['dump_consensus']!r}")
    return raw


def _dataset_from_config(raw, base):
    # the manifest path is relative to the config file's directory
    manifest = raw.get("manifest")
    if not isinstance(manifest, str):
        raise ConfigError(f"config must set 'manifest' to a path string, got {manifest!r}")
    try:
        return load_views(Path(base) / manifest)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad dataset: {exc}") from exc


def _solver_config(raw, ds):
    if "c" not in raw:
        raise ConfigError("config must set 'c'")
    try:
        cfg = SolverConfig(**{k: raw[k] for k in _SOLVER_KEYS if k in raw})
        cfg.validate(n=ds.n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _make_out_dir(path):
    """Create the output directory, before any fit or write, so that one
    which cannot be made costs no work."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return Path(path)


def _metrics_block(pred, truth):
    if truth is None:
        return None
    return {
        "nmi": nmi(pred, truth),
        "acc": acc(pred, truth),
        "purity": purity(pred, truth),
    }


def _write_run_outputs(out_dir, labels, state, cfg, raw, ds, variant, extra_timings):
    labels_path = out_dir / "labels.csv"
    # the bytes np.savetxt(fmt="%d") writes, formatted in one pass
    labels_path.write_text(("%d\n" * len(labels)) % tuple(labels.tolist()), encoding="latin1")
    timings = dict(state.timings)
    timings.update(extra_timings)
    resolved = {**asdict(cfg), "m": cfg.resolved_m(), "K": cfg.resolved_k()}
    report = {
        "config": {**raw, "resolved": resolved},  # the file's keys, in its order
        "variant": variant,
        "labels_path": labels_path.name,
        "n": ds.n,
        "metrics": _metrics_block(labels, ds.labels),
        "objective_trace": [float(v) for v in state.objective_trace],
        "iterations": state.iterations,
        "gamma": state.gamma,
        "delta": [float(v) for v in state.delta],
        "timings": timings,
    }
    if raw.get("dump_consensus"):
        dump_graph_csv(state.p, out_dir / "consensus_graph.csv")
        report["consensus_path"] = "consensus_graph.csv"
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
    return report


def cmd_run(args):
    """``run`` (variant "full") and ``ablate --variant``: one fit, its
    outputs, and a one-line summary."""
    raw = _load_config(args.config)
    t0 = time.perf_counter()
    ds = _dataset_from_config(raw, Path(args.config).parent)
    cfg = _solver_config(raw, ds)
    load_time = time.perf_counter() - t0
    out_dir = _make_out_dir(args.out)
    labels, state = fit(ds, cfg, variant=args.variant)
    report = _write_run_outputs(out_dir, labels, state, cfg, raw, ds, args.variant,
                                {"load": load_time})
    met = report["metrics"]
    tail = "" if met is None else f"  nmi={met['nmi']:.4f} acc={met['acc']:.4f}"
    name = "run" if args.command == "run" else f"ablate[{args.variant}]"
    print(f"{name}: {state.iterations} iterations, {cfg.c} clusters{tail}")
    return EXIT_OK


# --- grid mode --------------------------------------------------------------

LOG_GRID = [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3]


def default_grids(c):
    return {"alpha": list(LOG_GRID), "beta": list(LOG_GRID), "m": [c, 50, 100, 200]}


# the grid axes a config may override, and the test each swept value must pass
_GRID_AXES = {"alpha": _is_real, "beta": _is_real, "m": lambda v: _is_int(v) and v > 0}


def _grid_block(raw):
    """The config's grid overrides, each a nonempty list of values."""
    grid = raw.get("grid", {})
    if not isinstance(grid, dict) or not set(grid) <= set(_GRID_AXES):
        raise ConfigError(f"grid must be an object with keys among alpha, beta, m; got {grid!r}")
    for key, values in grid.items():
        if not isinstance(values, list) or not values or not all(map(_GRID_AXES[key], values)):
            raise ConfigError(f"grid {key} must be a nonempty list of finite numbers "
                              f"(positive integers for m), got {values!r}")
    return grid


def grid_cells(raw, c):
    """Deterministic list of (alpha, beta, m) cells from config or the
    default grids (7 x 7 x 4)."""
    grids = {**default_grids(c), **_grid_block(raw)}
    return [
        {"alpha": a, "beta": b, "m": m}
        for a, b, m in itertools.product(grids["alpha"], grids["beta"], grids["m"])
    ]


def _subsample(ds, cap, seed):
    if ds.n <= cap:
        return ds
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(ds.n, size=cap, replace=False))
    views = [x[:, idx] for x in ds.views]
    labels = None if ds.labels is None else ds.labels[idx]
    return MultiViewDataset(views, labels)


def _grid_cell(task):
    raw, cell, ds = task
    row = dict(cell)
    if cell["m"] > ds.n:
        row.update({"skipped": f"m={cell['m']} exceeds n={ds.n}"})
        return row
    try:
        cfg = _solver_config({**raw, **cell}, ds)
        labels, state = fit(ds, cfg)
        row.update({
            "metrics": _metrics_block(labels, ds.labels),
            "objective": float(state.objective_trace[-1]),
            "iterations": state.iterations,
        })
    except (ConfigError, RankTargetError, QPConvergenceError) as exc:
        row.update({"error": str(exc)})
    return row


# a grid worker's share of the sweep, set once by the pool's initializer: the
# shared next-cell counter and the task list
_worker_cells = None


def _start_worker(counter, tasks):
    global _worker_cells
    _worker_cells = (counter, tasks)


def _drain(counter, tasks):
    """Run the cells claimed from `counter` until none is left, as (index,
    row) pairs. On any exception, KeyboardInterrupt included, the counter
    moves past the last cell, so no process starts another one."""
    done = []
    try:
        while True:
            with counter.get_lock():
                i = counter.value
                counter.value = i + 1
            if i >= len(tasks):
                return done
            done.append((i, _grid_cell(tasks[i])))
    except BaseException:
        with counter.get_lock():
            counter.value = len(tasks)
        raise


def _drain_in_worker():
    return _drain(*_worker_cells)


def cmd_grid(args):
    if args.subsample <= 0:
        raise ConfigError(f"--subsample must be positive, got {args.subsample}")
    try:
        workers = int(os.environ.get("UDBGL_THREADS", "1") or "1")
    except ValueError as exc:
        raise ConfigError(f"UDBGL_THREADS must be an integer ({exc})") from exc
    if workers < 1:
        raise ConfigError(f"UDBGL_THREADS must be at least 1, got {workers}")
    raw = _load_config(args.config)
    _grid_block(raw)  # a bad grid fails before the data loads
    ds = _dataset_from_config(raw, Path(args.config).parent)
    cfg = _solver_config(raw, ds)  # validates the base config early
    out_dir = _make_out_dir(args.out)
    ds = _subsample(ds, args.subsample, cfg.seed)
    n_used = ds.n
    tasks = [(raw, cell, ds) for cell in grid_cells(raw, cfg.c)]

    # never more cells at once than the grid has (a fork-started pool starts
    # all its workers up front); the main process runs cells beside
    # workers - 1 children, each process claiming the next cell from a
    # shared counter, and with one worker no pool is started at all
    workers = min(workers, len(tasks))
    counter = multiprocessing.Value("l", 0)
    pool = (ProcessPoolExecutor(max_workers=workers - 1, initializer=_start_worker,
                                initargs=(counter, tasks))
            if workers > 1 else contextlib.nullcontext())
    with pool:
        futures = [pool.submit(_drain_in_worker) for _ in range(workers - 1)]
        done = _drain(counter, tasks)
    for fut in futures:
        done += fut.result()
    rows = [row for _, row in sorted(done, key=lambda pair: pair[0])]

    scored = [r for r in rows if r.get("metrics")]
    if scored:
        best = max(scored, key=lambda r: r["metrics"]["nmi"])
    else:
        done = [r for r in rows if "objective" in r]
        if not done:
            print("grid: every cell failed", file=sys.stderr)
            return EXIT_SOLVER
        best = min(done, key=lambda r: r["objective"])

    with open(out_dir / "grid_report.json", "w") as fh:
        json.dump({"n_used": n_used, "cells": rows, "best": best}, fh, indent=2)
    met = best.get("metrics")
    tail = f" nmi={met['nmi']:.4f}" if met else f" objective={best['objective']:.4g}"
    print(f"grid: {len(rows)} cells, best alpha={best['alpha']} "
          f"beta={best['beta']} m={best['m']}{tail}")
    return EXIT_OK


def cmd_synth(args):
    dims = None
    if args.dims:
        try:
            dims = [int(v) for v in args.dims.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --dims: {exc}") from exc
    try:
        ds = synth_blobs(n=args.n, c=args.c, n_views=args.views, dims=dims,
                         noise=args.noise, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    path = write_views(ds, _make_out_dir(args.out))
    print(path)
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(prog="udbgl",
                                     description="anchor-based multi-view clustering")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="cluster one dataset per a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=".", help="output directory (default .)")
    p_run.set_defaults(func=cmd_run, variant="full")

    p_grid = sub.add_parser("grid", help="sweep alpha/beta/m and surface the best cell")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--subsample", type=int, default=10000,
                        help="tune on at most this many samples (default 10000)")
    p_grid.add_argument("--out", default=".", help="output directory (default .)")
    p_grid.set_defaults(func=cmd_grid)

    p_abl = sub.add_parser("ablate", help="run a reduced variant of the pipeline")
    p_abl.add_argument("--variant", required=True, choices=VARIANTS)
    p_abl.add_argument("--config", required=True)
    p_abl.add_argument("--out", default=".", help="output directory (default .)")
    p_abl.set_defaults(func=cmd_run)

    p_syn = sub.add_parser("synth", help="write a synthetic blob dataset")
    p_syn.add_argument("--n", type=int, required=True)
    p_syn.add_argument("--c", type=int, required=True)
    p_syn.add_argument("--views", type=int, required=True)
    p_syn.add_argument("--dims", default=None, help="comma list, one per view (default 4s)")
    p_syn.add_argument("--noise", type=float, default=0.1)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--out", required=True)
    p_syn.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RankTargetError, QPConvergenceError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
