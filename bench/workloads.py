"""Seeded synthetic inputs and the CLI command of each benchmark workload.

Inputs are planted Gaussian blobs made with numpy alone, so no change to the
program can change what the benchmark feeds it. Each of a workload's datasets
is written once per seed as view CSVs plus a manifest (the layout `udbgl`
reads) and reused by every later run with that seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

# Bump when the generator changes, so cached inputs are rebuilt (a change to
# a workload's fields rebuilds its inputs by itself).
GENERATOR_VERSION = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                    # udbgl subcommand: run, ablate or grid
    n: int                          # samples in the generated dataset
    c: int
    views: int
    dim: int                        # features per view
    sep: float                      # distance between any two planted centers
    noise: float                    # per-feature Gaussian noise of every sample
    config: dict                    # solver keys written into the config file
    overlap: float = 0.0            # extra noise scale, see make_dataset
    fixed_iterations: bool = False  # every fit must run to outer_max_iter
    variant: str | None = None      # ablate --variant
    subsample: int | None = None    # grid --subsample
    grid: dict = field(default_factory=dict)
    datasets: int = 1               # datasets per seed; commands cycle through them

    @property
    def cells(self):
        """Grid cells in the order `udbgl grid` lists them."""
        return [(a, b, m) for a in self.grid["alpha"] for b in self.grid["beta"]
                for m in self.grid["m"]]


# Sizes keep one command to a few seconds, so that a run of the benchmark
# holds several and reports their median. Left alone, full-qp fits converge
# after 7 to 18 outer iterations and fusion-overlap fits after 2 to 16,
# depending on the seed; a cap of 2 gives every seed the same outer work.
# A fit cannot settle in its first iteration (P moves off the blend there),
# so fusion-overlap always reports exactly 2 iterations. Even so, its
# command's time depends on the dataset (5 seeds took 24 to 29 gamma sweeps
# per command), and the medians of 8 seeds run alternately were up to 18%
# apart. Cycling each run through four datasets makes its median one of a
# mix rather than of a single draw.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="full-qp", command="run", n=240, c=5, views=3, dim=20,
            sep=4.0, noise=0.3, config={"m": 30, "outer_max_iter": 2, "outer_tol": 1e-6},
        ),
        Workload(
            name="fusion-overlap", command="ablate", variant="knn_fusion_only",
            n=2000, c=5, views=3, dim=20, sep=4.0, noise=0.3, overlap=1.0,
            fixed_iterations=True, datasets=4,
            config={"m": 30, "outer_max_iter": 2, "outer_tol": 1e-6},
        ),
        Workload(
            name="grid-subsample", command="grid", n=4000, c=5, views=3, dim=20,
            sep=4.0, noise=0.3, subsample=200,
            config={"outer_max_iter": 2, "outer_tol": 1e-6},
            grid={"alpha": [0.01, 1.0], "beta": [1.0, 100.0], "m": [5, 20]},
        ),
    )
}


def make_dataset(w, seed, part=0):
    """Planted blobs, dataset `part` of the seed: (views as n x dim arrays,
    labels).

    Cluster sizes are balanced and the assignment is shuffled. Each view
    places the c centers on orthonormal directions scaled so that any two
    are `sep` apart, then adds N(0, noise^2) to every feature. With
    `overlap` > 0 each sample also gets N(0, overlap^2) noise in one view
    drawn at random, which makes single-view neighbourhoods cross clusters
    while the other views still agree.
    """
    rng = np.random.default_rng([seed, GENERATOR_VERSION, part])
    labels = rng.permutation(np.arange(w.n) % w.c)
    views = []
    for _ in range(w.views):
        basis, _ = np.linalg.qr(rng.standard_normal((w.dim, w.c)))
        centers = basis.T * (w.sep / np.sqrt(2.0))
        views.append(centers[labels] + w.noise * rng.standard_normal((w.n, w.dim)))
    if w.overlap > 0:
        hit = rng.integers(w.views, size=w.n)
        for v, x in enumerate(views):
            rows = hit == v
            x[rows] += w.overlap * rng.standard_normal((int(rows.sum()), w.dim))
    return views, labels


def prepare_inputs(w, seed, part, data_root):
    """Write (once) and return the directory of dataset `part` for workload
    `w` and `seed`: view_<v>.csv, labels.csv and manifest.json."""
    make_up = json.dumps([GENERATOR_VERSION, asdict(w)], sort_keys=True)
    tag = hashlib.sha1(make_up.encode()).hexdigest()[:10]
    out = Path(data_root) / f"{w.name}-seed{seed}-{part}-{tag}"
    manifest = out / "manifest.json"
    if manifest.exists():
        return out
    views, labels = make_dataset(w, seed, part)
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    tmp.mkdir(parents=True, exist_ok=True)
    names = []
    for v, x in enumerate(views):
        names.append(f"view_{v}.csv")
        np.savetxt(tmp / names[-1], x, delimiter=",", fmt="%.17g")
    np.savetxt(tmp / "labels.csv", labels, fmt="%d")
    with open(tmp / "manifest.json", "w") as fh:
        json.dump({"views": names, "labels": "labels.csv", "delimiter": ","}, fh)
    tmp.rename(out)
    return out


def write_config(w, data_dir, out_path):
    """The JSON config `udbgl` reads for this workload."""
    cfg = {"manifest": str(Path(data_dir).resolve() / "manifest.json"), "c": w.c,
           **w.config}
    if w.command == "grid":
        cfg["grid"] = w.grid
    else:
        cfg["dump_consensus"] = True
    with open(out_path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    return out_path


def cli_args(w, config_path, out_dir):
    """argv for udbgl.cli.main."""
    args = [w.command]
    if w.variant:
        args += ["--variant", w.variant]
    args += ["--config", str(config_path), "--out", str(out_dir)]
    if w.subsample is not None:
        args += ["--subsample", str(w.subsample)]
    return args
