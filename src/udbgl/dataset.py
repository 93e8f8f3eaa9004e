"""Multi-view dataset containers, CSV/JSON manifest I/O, feature scaling,
and a synthetic blob generator used by tests and the CLI."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "MultiViewDataset",
    "load_views",
    "write_views",
    "normalize",
    "synth_blobs",
]


@dataclass
class MultiViewDataset:
    """A collection of V feature matrices over the same n samples.

    views : list of (d_v, n) float arrays, one per view (features are rows,
        samples are columns).
    labels : optional (n,) int array of ground-truth class ids in 0..c-1,
        used only for evaluation.
    """

    views: list = field(default_factory=list)
    labels: np.ndarray | None = None

    def __post_init__(self):
        if not self.views:
            raise ValueError("dataset needs at least one view")
        self.views = [np.asarray(x, dtype=float) for x in self.views]
        for v, x in enumerate(self.views):
            if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
                raise ValueError(f"empty view {v}")
            if not np.all(np.isfinite(x)):
                raise ValueError(f"non-finite value in view {v}")
        counts = {x.shape[1] for x in self.views}
        if len(counts) != 1:
            raise ValueError(f"sample count mismatch across views: {sorted(counts)}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            if self.labels.shape != (self.n,):
                raise ValueError("labels length does not match sample count")

    @property
    def n(self):
        return self.views[0].shape[1]

    @property
    def n_views(self):
        return len(self.views)

    @property
    def dims(self):
        return [x.shape[0] for x in self.views]


def load_views(manifest_path):
    """Load a multi-view dataset described by a JSON manifest.

    The manifest holds ``{"views": [csv paths...], "labels": path or null,
    "delimiter": ","}`` with paths resolved relative to the manifest file.
    Each view CSV has one sample per row and no header unless the manifest
    sets ``"header": true``.  Label ids are remapped to a dense 0..c-1 range
    in sorted order of the original values.
    """
    manifest_path = Path(manifest_path)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object")
    if not manifest.get("views"):
        raise ValueError("manifest lists no views")
    views, labels = manifest["views"], manifest.get("labels")
    delimiter, header = manifest.get("delimiter", ","), manifest.get("header", False)
    if not (isinstance(views, list) and all(isinstance(rel, str) for rel in views)):
        raise ValueError(f"manifest views must be a list of path strings, got {views!r}")
    if not (labels is None or isinstance(labels, str)):
        raise ValueError(f"manifest labels must be a path string or null, got {labels!r}")
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ValueError(f"manifest delimiter must be one character, got {delimiter!r}")
    if not isinstance(header, bool):
        raise ValueError(f"manifest header must be true or false, got {header!r}")
    base = manifest_path.parent
    skip = 1 if header else 0

    arrays = []
    for rel in views:
        path = base / rel
        try:
            arr = np.loadtxt(path, delimiter=delimiter, skiprows=skip, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"non-numeric cell in view file {path}: {exc}") from exc
        if arr.size == 0:
            raise ValueError(f"empty view file {path}")
        arrays.append(arr.T)  # stored as d_v x n

    if labels:
        raw = np.loadtxt(base / labels, ndmin=1)
        _, labels = np.unique(raw, return_inverse=True)
    else:
        labels = None
    return MultiViewDataset(arrays, labels)


def write_views(ds, out_dir):
    """Write ``ds`` under ``out_dir`` as comma-separated view CSVs and a manifest.

    Values are printed with %.17g so finite doubles round-trip exactly
    through load_views.  Returns the manifest path.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for v, x in enumerate(ds.views):
        name = f"view_{v}.csv"
        np.savetxt(out_dir / name, x.T, delimiter=",", fmt="%.17g")
        names.append(name)
    manifest = {"views": names, "labels": None, "delimiter": ","}
    if ds.labels is not None:
        np.savetxt(out_dir / "labels.csv", ds.labels, fmt="%d")
        manifest["labels"] = "labels.csv"
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return path


def normalize(ds):
    """Return a copy of ``ds`` with every feature (row) of every view
    min-max scaled onto [0, 1]. Constant features become all zeros, and
    the scaling is idempotent. A feature whose range hi - lo exceeds the
    float maximum is scaled by halves, (x/2 - lo/2) / (hi/2 - lo/2), which
    is exact for normal doubles. Each view is scaled in the one array that
    is returned, and in one more when a range is that wide."""
    out = []
    for x in ds.views:
        lo, hi = x.min(axis=1, keepdims=True), x.max(axis=1, keepdims=True)
        half = np.where(hi / 2 - lo / 2 > np.finfo(float).max / 2, 0.5, 1.0)
        if (half < 1.0).any():  # hi - lo would overflow
            x, lo, hi = x * half, lo * half, hi * half
        span = hi - lo
        y = np.subtract(x, lo)
        y /= np.where(span > 0, span, 1.0)
        y[span[:, 0] <= 0] = 0.0  # +0.0, also where a constant row mixes -0.0 and 0.0
        out.append(y)
    return MultiViewDataset(out, None if ds.labels is None else ds.labels.copy())


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _separated_centers(c, dim, sep, rng):
    # rejection-sample c centers with pairwise distance >= sep; widen the
    # box if a draw keeps colliding so the loop always terminates
    side = sep * max(2.0, 2.0 * c ** (1.0 / dim))
    centers = []
    tries = 0
    while len(centers) < c:
        cand = rng.uniform(0.0, side, size=dim)
        if all(np.linalg.norm(cand - p) >= sep for p in centers):
            centers.append(cand)
            tries = 0
        else:
            tries += 1
            if tries > 200:
                side *= 1.5
                tries = 0
    return np.array(centers)


def synth_blobs(n, c, n_views, dims=None, noise=0.1, seed=0):
    """Generate a labeled synthetic multi-view blob dataset.

    Each view draws its own c well-separated centers (pairwise distance at
    least 1 + 10*noise), samples are assigned to clusters round-robin
    (sample i -> cluster i mod c), and isotropic Gaussian noise of the given
    scale is added.  Deterministic for a fixed seed.
    """
    for name, v in (("n", n), ("c", c), ("n_views", n_views)):
        if not _is_int(v):
            raise ValueError(f"{name} must be an integer, got {v!r}")
    if c < 1 or n < c:
        raise ValueError("need n >= c >= 1")
    if dims is None:
        dims = [4] * n_views
    if len(dims) != n_views:
        raise ValueError("dims must list one dimensionality per view")
    if not all(_is_int(d) and d > 0 for d in dims):
        raise ValueError(f"dims must be positive integers, got {list(dims)!r}")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % c
    sep = 1.0 + 10.0 * noise
    views = []
    for d in dims:
        centers = _separated_centers(c, d, sep, rng)
        x = centers[labels].T
        if noise > 0:
            x = x + noise * rng.standard_normal((d, n))
        views.append(x)
    return MultiViewDataset(views, labels)
