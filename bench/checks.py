"""Output checks, computed apart from the program: the benchmark's own NMI,
scipy's connected components, and simplex and convergence properties read
straight from the files `udbgl` writes."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

EDGE_EPS = 1e-8     # consensus entries above this are edges
SIMPLEX_TOL = 1e-8
NMI_FLOOR = 0.95    # the planted clusters are separable
NMI_AGREE = 1e-9    # own NMI vs the one the program reports


class CheckError(AssertionError):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def nmi(pred, truth):
    """NMI with sqrt(H_pred H_truth) normalization; 0 when either side has
    a single cluster."""
    _, pi = np.unique(np.asarray(pred), return_inverse=True)
    _, ti = np.unique(np.asarray(truth), return_inverse=True)
    joint = np.zeros((pi.max() + 1, ti.max() + 1))
    np.add.at(joint, (pi, ti), 1.0)
    joint /= pi.size
    pp, pt = joint.sum(axis=1), joint.sum(axis=0)
    nz = joint > 0
    mi = float((joint[nz] * np.log(joint[nz] / np.outer(pp, pt)[nz])).sum())
    hp = float(-(pp * np.log(pp)).sum())
    ht = float(-(pt * np.log(pt)).sum())
    return mi / np.sqrt(hp * ht) if hp > 0 and ht > 0 else 0.0


def same_partition(a, b):
    """True when label vectors a and b group the samples identically."""
    pairs = np.unique(np.stack([a, b]), axis=1).shape[1]
    return pairs == np.unique(a).size == np.unique(b).size


def check_labels(labels, n, c):
    _require(labels.shape == (n,), f"labels.csv holds {labels.size} labels, expected {n}")
    k = np.unique(labels).size
    _require(k == c, f"labels.csv has {k} distinct ids, expected {c}")


def check_consensus(p, labels, c):
    """Rows of P on the simplex; the thresholded (n+m)-node bipartite graph
    has exactly c sample-bearing components that match the labels."""
    n, m = p.shape
    _require(p.min() >= 0.0, f"consensus entry {p.min():.3e} is negative")
    dev = float(np.abs(p.sum(axis=1) - 1.0).max())
    _require(dev <= SIMPLEX_TOL, f"consensus row sums deviate from 1 by {dev:.3e}")
    rows, cols = np.nonzero(p > EDGE_EPS)
    g = coo_matrix((np.ones(rows.size), (rows, cols + n)), shape=(n + m, n + m))
    _, comp = connected_components(g, directed=False)
    k = np.unique(comp[:n]).size
    _require(k == c, f"consensus graph has {k} sample-bearing components, expected {c}")
    _require(same_partition(comp[:n], labels),
             "consensus components and labels.csv group the samples differently")


def check_converged(report, cap, tol, must_hit_cap):
    trace = report["objective_trace"]
    it = report["iterations"]
    _require(len(trace) == it + 1, f"{len(trace)} objective values for {it} iterations")
    prev, last = trace[-2], trace[-1]
    settled = abs(last - prev) <= tol * max(abs(prev), 1e-12)
    _require(settled or it == cap,
             f"stopped after {it} of {cap} iterations with relative change "
             f"{abs(last - prev) / max(abs(prev), 1e-12):.3e} > {tol:g}")
    if must_hit_cap:
        _require(it == cap, f"used {it} iterations, expected exactly its cap {cap}")


def check_run(out_dir, truth, c, cap, tol, must_hit_cap):
    """Check one `run` / `ablate` output directory; returns the own NMI."""
    out_dir = Path(out_dir)
    n = truth.size
    labels = np.loadtxt(out_dir / "labels.csv", dtype=np.int64, ndmin=1)
    check_labels(labels, n, c)
    p = np.loadtxt(out_dir / "consensus_graph.csv", delimiter=",", ndmin=2)
    _require(p.shape[0] == n, f"consensus graph has {p.shape[0]} rows, expected {n}")
    check_consensus(p, labels, c)
    with open(out_dir / "report.json") as fh:
        report = json.load(fh)
    delta = np.asarray(report["delta"], dtype=float)
    _require(delta.min() >= 0.0 and abs(delta.sum() - 1.0) <= SIMPLEX_TOL,
             f"delta {delta.tolist()} is off the simplex")
    check_converged(report, cap, tol, must_hit_cap)
    own = nmi(labels, truth)
    _require(own >= NMI_FLOOR, f"NMI {own:.4f} below {NMI_FLOOR}")
    theirs = report["metrics"]["nmi"]
    _require(abs(own - theirs) <= NMI_AGREE, f"own NMI {own!r} vs reported {theirs!r}")
    return own


def grid_errors(report):
    """Cells whose fit raised: the failed operations of a grid command."""
    return sum("error" in row for row in report["cells"])


def check_grid(report, capture_dir, cells, truth, view0, c, subsample):
    """Check one `grid` report. `cells` lists the configured (alpha, beta,
    m) in order; `truth` and `view0` are the generated labels and first view
    (n x d). Every cell's labels were captured from its fit together with
    the samples it ran on; those samples are found in `view0` to score the
    cell against the planted labels.

    Returns the own NMI of every cell, in order."""
    rows = report["cells"]
    _require(len(rows) == len(cells), f"{len(rows)} grid rows for {len(cells)} cells")
    n_used = min(subsample, truth.size)
    _require(report["n_used"] == n_used, f"n_used {report['n_used']}, expected {n_used}")
    index = {x.tobytes(): i for i, x in enumerate(view0)}
    scores = []
    for row, cell in zip(rows, cells):
        _require((row["alpha"], row["beta"], row["m"]) == cell,
                 f"grid row {row} is not cell {cell}")
        _require("error" not in row and "skipped" not in row,
                 f"cell {cell} did not run: {row.get('error', row.get('skipped'))}")
        alpha, beta, m = cell
        fit = np.load(Path(capture_dir) / f"fit-{alpha!r}_{beta!r}_{m}.npz")
        labels, used = fit["labels"], fit["view0"]
        _require(used.shape[1] == n_used, f"cell {cell} ran on {used.shape[1]} samples")
        idx = np.array([index.get(x.tobytes(), -1) for x in used.T])
        _require(idx.min() >= 0 and np.unique(idx).size == idx.size,
                 f"cell {cell} ran on samples not in the dataset")
        check_labels(labels, idx.size, c)
        own = nmi(labels, truth[idx])
        theirs = row["metrics"]["nmi"]
        _require(abs(own - theirs) <= NMI_AGREE,
                 f"cell {cell}: own NMI {own!r} vs reported {theirs!r}")
        scores.append(own)
    best = report["best"]
    best_own = scores[cells.index((best["alpha"], best["beta"], best["m"]))]
    _require(best_own >= max(scores) - NMI_AGREE,
             f"best cell scores {best_own}, another scores {max(scores)}")
    _require(best_own >= NMI_FLOOR, f"best grid NMI {best_own:.4f} below {NMI_FLOOR}")
    return scores
