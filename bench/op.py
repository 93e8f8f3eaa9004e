"""Run one `udbgl` command through `udbgl.cli.main` in this process, with
spans recorded around the package's public functions from outside.

    python3 bench/op.py --trace 0|1 --result FILE [--capture DIR] -- <udbgl args>

With --trace 0 only `cli.main` and `solver.fit` get spans: that is enough for
wall time, set-up time (main's start to the first fit's start) and peak
memory, and adds one wrapper call per fit. With --trace 1 every layer
function in TARGETS gets a span, and the program's observation hooks
(`fit(p_sweep_hook=...)`, `solve_simplex_qp_rows(sweep_hook=...)`) are filled
in to count gamma sweeps and QP sweeps.

Grid cells run in forked worker processes, which inherit the wrappers. A
worker appends its spans to DIR/spans-<pid>.jsonl when its outermost span
ends; the main process writes its own when `main` returns. The result file
holds the exit code and the per-process spans; `spans.py` turns them into
metrics.

--capture DIR saves every fit's labels and first view, so the benchmark can
score grid cells, which write no labels, with its own NMI.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, function, scope): scope "all" rebinds the name in every udbgl
# module that imported it; "solver" only where the solver looks it up, so
# the numerics-internal calls inside the QP sweeps stay unwrapped.
TARGETS = [
    ("cli", "main", "all"),
    ("cli", "_write_run_outputs", "all"),
    ("cli", "_grid_cell", "all"),
    ("dataset", "load_views", "all"),
    ("dataset", "normalize", "all"),
    ("anchors", "build_anchors", "all"),
    ("graphs", "knn_bipartite_init", "all"),
    ("graphs", "count_components", "all"),
    ("graphs", "extract_labels", "all"),
    ("numerics", "solve_simplex_qp_rows", "all"),
    ("numerics", "truncated_svd", "solver"),
    ("numerics", "project_rows_onto_simplex", "solver"),
    ("solver", "update_p", "all"),
    ("solver", "update_z", "all"),
    ("solver", "update_delta", "all"),
    ("solver", "objective", "all"),
    ("solver", "fit", "all"),
    ("metrics", "nmi", "all"),
    ("metrics", "acc", "all"),
    ("metrics", "purity", "all"),
]
UNTRACED = {"cli.main", "solver.fit"}


class Tracer:
    """In-memory spans of one process: [id, parent, name, start, end, attrs]."""

    def __init__(self, spans_dir, capture_dir=None):
        self.spans_dir = Path(spans_dir)
        self.capture_dir = capture_dir
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans = []
        self.stack = []
        self.next_id = 0

    def _own_process(self):
        # a forked grid worker starts its own record; the spans it inherited
        # belong to the parent, which writes them itself
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.stack = []
            self.next_id = 0

    def begin(self, name):
        self._own_process()
        span = [self.next_id, self.stack[-1][0] if self.stack else None,
                name, time.perf_counter(), None, {}]
        self.next_id += 1
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span):
        span[4] = time.perf_counter()
        self.stack.pop()
        if not self.stack and self.pid != self.main_pid:
            self.flush()

    def flush(self):
        if not self.spans:
            return
        with open(self.spans_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        self.spans = []

    def wrap(self, name, fn, traced):
        hooks = traced and name in ("solver.fit", "numerics.solve_simplex_qp_rows")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            attrs = span[5]
            try:
                if hooks and name == "solver.fit":
                    kwargs["p_sweep_hook"] = _p_sweep_counter(attrs, kwargs.get("p_sweep_hook"))
                elif hooks:
                    attrs["rows"] = int(len(args[1] if len(args) > 1 else kwargs["F"]))
                    kwargs["sweep_hook"] = _qp_sweep_counter(attrs, kwargs.get("sweep_hook"))
                out = fn(*args, **kwargs)
                if name == "solver.fit":
                    labels, state = out
                    attrs["iterations"] = int(state.iterations)
                    attrs["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    if self.capture_dir is not None:
                        _capture(self.capture_dir, args, kwargs, labels)
                return out
            finally:
                self.end(span)

        return wrapper


def _p_sweep_counter(attrs, inner):
    attrs["p_sweeps"] = attrs["p_sweeps_accepted"] = 0

    def hook(info):
        attrs["p_sweeps"] += 1
        attrs["p_sweeps_accepted"] += bool(info["accepted"])
        if inner is not None:
            inner(info)
    return hook


def _qp_sweep_counter(attrs, inner):
    attrs["sweeps"] = 0

    def hook(*a):
        attrs["sweeps"] += 1
        if inner is not None:
            inner(*a)
    return hook


def _capture(capture_dir, args, kwargs, labels):
    import numpy as np

    ds = args[0]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    key = f"{cfg.alpha!r}_{cfg.beta!r}_{cfg.resolved_m()}"
    np.savez(Path(capture_dir) / f"fit-{key}.npz", labels=np.asarray(labels),
             view0=ds.views[0])


def install(tracer, traced):
    """Rebind each target name to a wrapper in the udbgl modules that
    look it up."""
    import importlib

    mods = {m: importlib.import_module(f"udbgl.{m}")
            for m in ("cli", "dataset", "anchors", "graphs", "numerics", "solver", "metrics")}
    everywhere = list(mods.values()) + [importlib.import_module("udbgl")]
    for mod, fn_name, scope in TARGETS:
        name = f"{mod}.{fn_name}"
        if not traced and name not in UNTRACED:
            continue
        fn = getattr(mods[mod], fn_name)
        wrapper = tracer.wrap(name, fn, traced)
        for m in (everywhere if scope == "all" else [mods["solver"]]):
            for attr, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, attr, wrapper)
    return mods["cli"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--capture", default=None)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import udbgl

    if Path(udbgl.__file__).resolve().parent != (src / "udbgl").resolve():
        sys.exit(f"imported udbgl from {udbgl.__file__}, not from {src}")
    if argv[:1] == ["grid"] and multiprocessing.get_start_method() != "fork":
        sys.exit("grid workers must be forked to inherit the span wrappers")
    result = Path(opts.result)
    tracer = Tracer(result.parent, opts.capture)
    cli = install(tracer, bool(opts.trace))
    rc = cli.main(argv)
    tracer.flush()
    spans = {}
    for path in sorted(result.parent.glob("spans-*.jsonl")):
        with open(path) as fh:
            spans[path.stem.split("-", 1)[1]] = [json.loads(line) for line in fh]
    with open(result, "w") as fh:
        json.dump({
            "rc": rc,
            "main_pid": str(tracer.main_pid),
            "main_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "spans": spans,
        }, fh)


if __name__ == "__main__":
    main()
