"""Show that the output checks reject corrupted outputs.

    python3 bench/selftest.py

Builds a small valid `run` output and a valid `grid` output by hand, checks
that both pass, then corrupts one thing at a time and checks that the
corresponding check raises CheckError. Exits 1 if a check accepts a
corrupted output or rejects a valid one.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
C, N, M = 5, 50, 10
CAP, TOL = 3, 1e-6


def write_run(out):
    """A valid run: P links each cluster to two anchors of its own."""
    out.mkdir(parents=True)
    truth = np.arange(N) % C
    p = np.zeros((N, M))
    p[np.arange(N), 2 * truth] = 0.5
    p[np.arange(N), 2 * truth + 1] = 0.5
    np.savetxt(out / "labels.csv", truth, fmt="%d")
    np.savetxt(out / "consensus_graph.csv", p, delimiter=",", fmt="%.17g")
    with open(out / "report.json", "w") as fh:
        json.dump({"delta": [0.2, 0.3, 0.5], "iterations": 2,
                   "objective_trace": [10.0, 5.0, 5.0 - 1e-11],
                   "metrics": {"nmi": 1.0}}, fh)
    return truth


def check_run(out, truth):
    checks.check_run(out, truth, C, CAP, TOL, must_hit_cap=False)


def merge_two_clusters(out):
    labels = np.loadtxt(out / "labels.csv", dtype=int)
    labels[labels == 1] = 0
    np.savetxt(out / "labels.csv", labels, fmt="%d")


def move_row_off_simplex(out):
    p = np.loadtxt(out / "consensus_graph.csv", delimiter=",")
    p[3] *= 1.01
    np.savetxt(out / "consensus_graph.csv", p, delimiter=",", fmt="%.17g")


CELLS = [(0.01, 1.0, 5), (1.0, 1.0, 5)]
SUB = 20


def write_grid(out):
    """A valid grid of two cells on 20 of 40 samples."""
    rng = np.random.default_rng(0)
    view0 = rng.standard_normal((2 * SUB, 3))
    truth = np.arange(2 * SUB) % C
    idx = np.sort(rng.choice(2 * SUB, SUB, replace=False))
    capture = out / "capture"
    capture.mkdir(parents=True)
    rows = []
    for alpha, beta, m in CELLS:
        np.savez(capture / f"fit-{alpha!r}_{beta!r}_{m}.npz", labels=truth[idx],
                 view0=view0[idx].T)
        rows.append({"alpha": alpha, "beta": beta, "m": m, "metrics": {"nmi": 1.0}})
    report = {"n_used": SUB, "cells": rows, "best": rows[0]}
    return report, capture, truth, view0


def check_grid(report, capture, truth, view0):
    checks.check_grid(report, capture, CELLS, truth, view0, C, SUB)


def main():
    work = HERE / ".runs" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    bad = 0

    def expect(passes, what, fn, *args):
        nonlocal bad
        try:
            fn(*args)
            ok = passes
        except checks.CheckError as exc:
            ok = not passes
            what += f": {exc}"
        print(f"{'ok ' if ok else 'BAD'} {what}")
        bad += not ok

    for name, corrupt in (("two clusters merged in labels.csv", merge_two_clusters),
                          ("a consensus row off the simplex", move_row_off_simplex)):
        out = work / name.replace(" ", "_")
        truth = write_run(out)
        expect(True, "valid run output accepted", check_run, out, truth)
        corrupt(out)
        expect(False, f"rejected: {name}", check_run, out, truth)

    report, capture, truth, view0 = write_grid(work / "grid")
    expect(True, "valid grid output accepted", check_grid, report, capture, truth, view0)
    report["cells"][1] = {**report["cells"][1], "error": "gamma left its range"}
    del report["cells"][1]["metrics"]
    expect(False, "rejected: a grid row with an error", check_grid, report, capture,
           truth, view0)
    if checks.grid_errors(report) != 1:
        print("BAD grid_errors does not count the error row")
        bad += 1

    shutil.rmtree(work)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
