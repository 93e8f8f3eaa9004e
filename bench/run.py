"""End-to-end and per-layer benchmark of the `udbgl` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It writes the workload's inputs for the
seed (once; later runs reuse them), then for S seconds runs the workload's
`udbgl` command again and again, cycling through the workload's datasets,
each time in a fresh process through `udbgl.cli.main` (see op.py), checks
every output (see checks.py) and deletes it. The last line of standard
output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, each the median over
the commands of the run; with --trace 1 they are the per-layer ones from
spans around the package's functions (see spans.py). An operation is one
command for `run` and `ablate`, and one grid cell for `grid`.

Exits with 2, printing no result, when the checkout holds no udbgl sources
or BENCHMARK.json does not name the metrics this file reports.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS, cli_args, make_dataset, prepare_inputs, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / ".inputs"
RUNS = HERE / ".runs"

BLAS_THREADS = "1"        # every process; grid parallelism comes from its workers
GRID_WORKERS = 2          # UDBGL_THREADS for `grid`, capped at the core count
DEADLINE_S = 165          # a run stops starting commands past this, and kills
                          # one still going at it
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "nmi": "score"}


class BenchError(RuntimeError):
    pass


def _declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return ({m["name"] for m in bench["end_to_end"]}, {m["name"] for m in bench["per_layer"]},
            {w["name"] for w in bench["workloads"]})


def _preflight():
    if not (ROOT / "src" / "udbgl" / "cli.py").is_file():
        raise BenchError(f"no udbgl sources under {ROOT / 'src'}")
    if _declared_metrics() != (set(END_TO_END), set(spans.PER_LAYER), set(WORKLOADS)):
        raise BenchError("BENCHMARK.json does not list the workloads and metrics run.py reports")


def _env(workers):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["UDBGL_THREADS"] = str(workers)
    return env


def _run_process(cmd, op_dir, env, deadline):
    """Run cmd in its own session; kill the whole session at the deadline."""
    with open(op_dir / "stdout.txt", "w") as out, open(op_dir / "stderr.txt", "w") as err:
        proc = subprocess.Popen(cmd, cwd=op_dir, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"command still running at the {DEADLINE_S} s deadline: {cmd}")
    return proc.returncode


class Run:
    def __init__(self, w, seed, trace):
        self.w, self.trace = w, trace
        self.workers = min(GRID_WORKERS, os.cpu_count() or 1) if w.command == "grid" else 1
        self.dir = RUNS / f"{w.name}-seed{seed}-trace{trace}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.inputs = []    # (config path, planted labels, first view) per dataset
        for part in range(w.datasets):
            views, truth = make_dataset(w, seed, part)
            config = write_config(w, prepare_inputs(w, seed, part, INPUTS),
                                  self.dir / f"config{part}.json")
            self.inputs.append((config, truth, views[0]))
        self.env = _env(self.workers)
        self.attempted = self.failed = 0
        self.correct = True
        self.samples = []

    def op(self, k, deadline):
        """Run, check and time one command; delete its directory unless it
        failed or a check did."""
        w = self.w
        op_dir = self.dir / f"op{k}"
        capture = op_dir / "capture"
        capture.mkdir(parents=True)
        config, truth, view0 = self.inputs[k % len(self.inputs)]
        cmd = [sys.executable, str(HERE / "op.py"), "--trace", str(self.trace),
               "--result", str(op_dir / "result.json")]
        if w.command == "grid":
            cmd += ["--capture", str(capture)]
        cmd += ["--", *cli_args(w, config, op_dir / "out")]
        code = _run_process(cmd, op_dir, self.env, deadline)
        ops = len(w.cells) if w.command == "grid" else 1
        self.attempted += ops
        result = None
        if code == 0:
            with open(op_dir / "result.json") as fh:
                result = json.load(fh)
        if result is None or result["rc"] != 0:
            self.failed += ops
            print(f"{w.name} op{k}: exit {code}, udbgl status "
                  f"{result and result['rc']}; see {op_dir}", file=sys.stderr)
            return
        try:
            nmi = self._check(op_dir, capture, truth, view0)
        except (checks.CheckError, OSError, KeyError, ValueError) as exc:
            self.correct = False
            nmi = 0.0
            print(f"{w.name} op{k}: check failed: {exc!r}; see {op_dir}", file=sys.stderr)
        if self.trace:
            sample = spans.per_layer(result, self.workers)
            key = spans.TRACED_WALL
        else:
            sample = {**spans.end_to_end(result), "nmi": nmi}
            key = "wall_s"
        self.samples.append(sample)
        print(f"{w.name} op{k}: {key}={sample[key]:.6g}", file=sys.stderr)
        if self.correct:
            shutil.rmtree(op_dir)

    def _check(self, op_dir, capture, truth, view0):
        w = self.w
        if w.command == "grid":
            with open(op_dir / "out" / "grid_report.json") as fh:
                report = json.load(fh)
            self.failed += checks.grid_errors(report)
            scores = checks.check_grid(report, capture, w.cells, truth, view0, w.c,
                                       w.subsample)
            return max(scores)
        return checks.check_run(op_dir / "out", truth, w.c, w.config["outer_max_iter"],
                                w.config["outer_tol"], w.fixed_iterations)

    def metrics(self):
        if not self.samples:
            raise BenchError(f"every command of {self.w.name} failed; see {self.dir}")
        names = spans.PER_LAYER if self.trace else END_TO_END
        return {
            name: {"value": statistics.median(s[name] for s in self.samples),
                   "unit": spans.unit(name) if self.trace else END_TO_END[name]}
            for name in names
        }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    deadline = start + DEADLINE_S
    try:
        _preflight()
        run = Run(WORKLOADS[args.workload], args.seed, args.trace)
        t0 = time.monotonic()
        k = 0
        last = 0.0
        while k == 0 or (time.monotonic() - t0 < args.seconds
                         and time.monotonic() + 2 * last < deadline):
            t = time.monotonic()
            run.op(k, deadline)
            last = time.monotonic() - t
            k += 1
        metrics = run.metrics()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if run.correct and not run.failed:
        shutil.rmtree(run.dir)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
