import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from conftest import eigen_component_count, source_env, wide_feature_view

from udbgl.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    default_grids,
    grid_cells,
    main,
)
from udbgl.dataset import synth_blobs, write_views

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def blobs(tmp_path_factory):
    """The data keys of a config on 60 samples of 3 separable blobs in 2
    views, written once as a manifest; its path is absolute, so a config
    anywhere can name it."""
    data = tmp_path_factory.mktemp("blobs")
    write_views(synth_blobs(60, 3, 2, noise=0.1, seed=0), data)
    return {"manifest": str(data / "manifest.json"), "c": 3}


def write_config(tmp_path, name="cfg.json", **raw):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# run

def test_run_on_synth_config(tmp_path, capsys, blobs):
    cfg = write_config(tmp_path, **blobs)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    labels = np.loadtxt(out / "labels.csv", dtype=int)
    assert labels.shape == (60,)
    assert np.unique(labels).size == 3
    report = read_report(out)
    assert report["variant"] == "full"
    assert report["n"] == 60
    assert report["metrics"]["nmi"] >= 0.9
    assert len(report["objective_trace"]) == report["iterations"] + 1
    assert abs(sum(report["delta"]) - 1.0) <= 1e-8
    assert {"normalize", "anchors", "init", "optimize", "total", "load"} <= set(report["timings"])
    assert report["config"]["resolved"]["c"] == 3
    assert "nmi=" in capsys.readouterr().out


def test_run_on_manifest_config(tmp_path):
    assert main(["synth", "--n", "45", "--c", "3", "--views", "2",
                 "--out", str(tmp_path / "data")]) == EXIT_OK
    cfg = write_config(tmp_path, manifest="data/manifest.json", c=3)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert np.loadtxt(out / "labels.csv", dtype=int).shape == (45,)


def test_run_without_labels_omits_metrics(tmp_path):
    main(["synth", "--n", "30", "--c", "2", "--views", "1", "--out", str(tmp_path / "d")])
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    manifest["labels"] = None
    (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
    cfg = write_config(tmp_path, manifest="d/manifest.json", c=2)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert read_report(out)["metrics"] is None


@pytest.mark.parametrize("labels", [[0, 1, 2, 1, 0], [12, 3, 105, 0, 7, 99999], [4]])
def test_labels_csv_has_the_bytes_savetxt_writes(tmp_path, labels):
    import types

    from udbgl.cli import _write_run_outputs
    from udbgl.solver import SolverConfig

    labels = np.array(labels)
    state = types.SimpleNamespace(timings={}, objective_trace=[1.0], iterations=0, gamma=1.0,
                                  delta=np.ones(1), p=types.SimpleNamespace(components=1))
    ds = types.SimpleNamespace(n=len(labels), labels=None)
    _write_run_outputs(tmp_path, labels, state, SolverConfig(c=1), {}, ds, "full", {})
    np.savetxt(tmp_path / "reference.csv", labels, fmt="%d")
    assert (tmp_path / "labels.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_run_deterministic_outputs(tmp_path, blobs):
    cfg = write_config(tmp_path, **blobs)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg, "--out", str(out1)])
    main(["run", "--config", cfg, "--out", str(out2)])
    assert (out1 / "labels.csv").read_bytes() == (out2 / "labels.csv").read_bytes()
    r1, r2 = read_report(out1), read_report(out2)
    r1.pop("timings"), r2.pop("timings")
    assert r1 == r2


def test_run_dumps_consensus_when_asked(tmp_path, blobs):
    cfg = write_config(tmp_path, dump_consensus=True, **blobs)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    report = read_report(out)
    assert report["consensus_path"] == "consensus_graph.csv"
    w = np.loadtxt(out / "consensus_graph.csv", delimiter=",")
    assert w.shape == (60, 3)
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-8
    assert w.min() >= 0.0
    # a dense-eigen count of the dumped graph finds the config's c
    # components, and the labels name c clusters
    labels = np.loadtxt(out / "labels.csv", dtype=int)
    assert eigen_component_count(w, 1e-8) == np.unique(labels).size == 3


def test_report_echoes_the_config_in_file_order(tmp_path, blobs):
    # the echo follows the file, not the order of a set of key names
    raw = {"seed": 0, "outer_tol": 1e-6, "manifest": blobs["manifest"], "m": 6,
           "dump_consensus": False, "c": 3}
    cfg = write_config(tmp_path, **raw)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert list(read_report(out)["config"]) == [*raw, "resolved"]


def test_report_resolves_m_and_k(tmp_path, blobs):
    # unset, m reads c and K reads min(5, m): the values the fit used
    for extra, want in (({}, (3, 3)), ({"m": 10}, (10, 5)), ({"m": 10, "K": 2}, (10, 2))):
        cfg = write_config(tmp_path, **blobs, **extra)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        resolved = read_report(out)["config"]["resolved"]
        assert (resolved["m"], resolved["K"]) == want


def test_run_out_dir_from_config(tmp_path, capsys, monkeypatch, blobs):
    # --out alone names the output directory and the manifest alone the
    # data: an out_dir key or a synth block is an unknown key, and exits 2
    # before any data loads
    import udbgl.cli as cli

    def no_load(*args):
        raise AssertionError("the dataset loaded before the config keys were checked")

    monkeypatch.setattr(cli, "_dataset_from_config", no_load)
    out = tmp_path / "cfg_out"
    for key, value in (("out_dir", str(out)), ("synth", {"n": 60, "c": 3, "views": 2})):
        cfg = write_config(tmp_path, **blobs, **{key: value})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"error: unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,out", [
    ("run", "afile"), ("ablate", "afile"), ("grid", "afile/x"), ("synth", "afile"),
])
def test_unusable_out_dir_exits_2_before_any_work(tmp_path, capsys, monkeypatch, blobs,
                                                   command, out):
    # an --out that cannot be made fails after the config and data checks,
    # before any fit or write
    import udbgl.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output directory was made")

    monkeypatch.setattr(cli, "fit", no_work)
    monkeypatch.setattr(cli, "write_views", no_work)
    (tmp_path / "afile").write_text("kept")
    cfg = write_config(tmp_path, **blobs)
    argv = {"run": ["run", "--config", cfg],
            "ablate": ["ablate", "--variant", "two_phase", "--config", cfg],
            "grid": ["grid", "--config", cfg],
            "synth": ["synth", "--n", "30", "--c", "3", "--views", "1"]}[command]
    assert main([*argv, "--out", str(tmp_path / out)]) == EXIT_CONFIG
    assert "error: cannot create output directory" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == "kept"


# ---------------------------------------------------------------------------
# config errors (exit 2)

# stands for the path of the blobs manifest in the configs below
MANIFEST = "@blobs"
BASE = {"manifest": MANIFEST, "c": 3}


@pytest.mark.parametrize("raw", [
    # (config, a fragment of the error it must exit with)
    ({**BASE, "bogus_key": 1}, "unknown config keys: ['bogus_key']"),
    ({}, "config must set 'manifest'"),
    ({**BASE, "synth": {"n": 60, "c": 3, "views": 2}}, "unknown config keys: ['synth']"),
    ({"synth": {"n": 60, "c": 3, "views": 2}, "c": 3}, "unknown config keys: ['synth']"),
    ({**BASE, "c": 0}, "c must be at least 1"),
    ({**BASE, "alpha": 0.0}, "alpha, beta must be positive"),
    ({**BASE, "m": 200}, "m=200 exceeds sample count n=60"),
    ({**BASE, "dump_consensus": "no"}, "dump_consensus must be true or false, got 'no'"),
    ({"manifest": "missing/manifest.json", "c": 3}, "bad dataset"),
    ({"manifest": 5, "c": 3}, "'manifest' to a path string, got 5"),
    ({**BASE, "dump_consensus": 1}, "dump_consensus must be true or false, got 1"),
    ({**BASE, "m": 2}, "m=2 must be at least c=3"),
    # solver keys of the wrong type or out of range
    *(({**BASE, key: value}, fragment) for key, value, fragment in (
        ("c", 2.5, "c must be an integer, got 2.5"),
        ("c", True, "c must be an integer, got True"),
        ("m", 3.5, "m must be an integer, got 3.5"),
        ("m", 2.0, "m must be an integer, got 2.0"),
        ("K", 1.5, "K must be an integer, got 1.5"),
        ("outer_max_iter", 2.5, "outer_max_iter must be an integer, got 2.5"),
        ("outer_max_iter", 0, "outer_max_iter must be positive"),
        ("seed", "a", "seed must be an integer, got 'a'"),
        ("seed", -1, "seed must be nonnegative, got -1"),
        ("outer_tol", "x", "outer_tol must be a finite number, got 'x'"),
        ("alpha", float("nan"), "NaN is not a finite double"),
        ("beta", float("inf"), "Infinity is not a finite double"),
    )),
    # non-finite numbers where nothing validates them; json.dumps writes NaN
    # and -Infinity as those bare words
    ({**BASE, "dump_consensus": float("nan")}, "NaN is not a finite double"),
    ({**BASE, "grid": {"m": [{"nested": float("nan")}]}}, "NaN is not a finite double"),
    ({**BASE, "grid": {"alpha": [float("-inf")]}}, "-Infinity is not a finite double"),
    # numbers a double cannot hold, written as JSON text
    pytest.param(('{"manifest": "@blobs", "c": 3, "dump_consensus": 1e400}',
                  "1e400 is not a finite double"), id="decimal-1e400"),
    pytest.param(('{"manifest": "@blobs", "c": 3, "alpha": 1%s}' % ("0" * 400),
                  "is not a finite double"), id="integer-1e400"),
    # valid JSON, but not an object
    pytest.param(('[{"manifest": "@blobs", "c": 3}]', "config must be a JSON object"),
                 id="not-an-object"),
])
def test_bad_configs_exit_2(tmp_path, capsys, blobs, raw):
    config, fragment = raw
    text = config if isinstance(config, str) else json.dumps(config)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace(json.dumps(MANIFEST), json.dumps(blobs["manifest"])))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("manifest", [
    5,
    {"views": [1]},
    {"views": ["v.csv"], "labels": 5},
    {"views": ["v.csv"], "delimiter": 5},
    {"views": ["v.csv"], "delimiter": ";;"},
    {"views": ["v.csv"], "header": "x"},  # truthy: would drop the first row
    {"views": ["v.csv"], "labels": "nan.csv"},  # NaN would load as a class of its own
])
def test_malformed_manifest_exits_2(tmp_path, capsys, command, manifest):
    np.savetxt(tmp_path / "v.csv", np.arange(12.0).reshape(6, 2), delimiter=",")
    (tmp_path / "nan.csv").write_text("0\nnan\n1\nnan\n0\n1\n")
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    cfg = write_config(tmp_path, manifest="manifest.json", c=2)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "error: bad dataset" in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_manifest_config_without_c_exits_2(tmp_path, capsys):
    main(["synth", "--n", "30", "--c", "3", "--views", "1", "--out", str(tmp_path / "d")])
    capsys.readouterr()
    cfg = write_config(tmp_path, manifest="d/manifest.json")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "error: config must set 'c'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::UserWarning")  # numpy's loadtxt "no data" notice
def test_empty_view_file_exits_2(tmp_path, capsys):
    (tmp_path / "v.csv").write_text("")
    (tmp_path / "manifest.json").write_text(json.dumps({"views": ["v.csv"]}))
    cfg = write_config(tmp_path, manifest="manifest.json", c=2)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "empty view file" in capsys.readouterr().err


def test_synth_bad_dims_exits_2(tmp_path, capsys):
    code = main(["synth", "--n", "10", "--c", "2", "--views", "2",
                 "--dims", "4,oops", "--out", str(tmp_path / "d")])
    assert code == EXIT_CONFIG
    assert "bad --dims" in capsys.readouterr().err


def test_synth_nonpositive_dims_exits_2(tmp_path, capsys):
    code = main(["synth", "--n", "30", "--c", "3", "--views", "1",
                 "--dims", "0", "--out", str(tmp_path / "d")])
    assert code == EXIT_CONFIG
    assert "dims must be positive integers" in capsys.readouterr().err


def test_synth_invalid_shape_exits_2(tmp_path):
    assert main(["synth", "--n", "2", "--c", "5", "--views", "1",
                 "--out", str(tmp_path / "d")]) == EXIT_CONFIG


@pytest.mark.parametrize("noise, message", [
    ("nan", "noise must be a finite number >= 0"),
    ("inf", "noise must be a finite number >= 0"),
    ("-0.5", "noise must be a finite number >= 0"),
    ("-0.05", "noise must be a finite number >= 0"),
    ("1e308", "noise is too large"),
    ("1e307", "noise is too large"),
], ids=["nan", "inf", "-0.5", "-0.05", "1e308", "1e307"])
def test_synth_bad_noise_exits_2(tmp_path, capsys, noise, message):
    out = tmp_path / "d"
    assert main(["synth", "--n", "30", "--c", "3", "--views", "1", f"--noise={noise}",
                 "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_unknown_variant_is_an_argparse_error(tmp_path, blobs):
    cfg = write_config(tmp_path, **blobs)
    with pytest.raises(SystemExit):
        main(["ablate", "--variant", "bogus", "--config", cfg])


# ---------------------------------------------------------------------------
# solver failures (exit 3)

def one_point_manifest(tmp_path):
    """A dataset that no graph splits: 30 copies of one point, unlabeled.
    Every sample sits at the same distance from every anchor, so the
    gamma loop escalates until gamma leaves its range."""
    from udbgl.dataset import MultiViewDataset, write_views
    write_views(MultiViewDataset([np.ones((2, 30))]), tmp_path / "one")
    return "one/manifest.json"


def test_unreachable_rank_target_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, manifest=one_point_manifest(tmp_path), c=3, m=3)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_SOLVER
    assert "solver failure: gamma" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_anchor_only_component_exits_3(tmp_path, capsys):
    # with K = 1 an anchor can be left without samples: update_p reaches 3
    # components of which one holds no sample, and fit raises for it
    cfg = write_config(tmp_path, manifest=one_point_manifest(tmp_path), c=3, m=3, K=1)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_SOLVER
    assert ("solver failure: component count mismatch: 2 sample-bearing components, "
            "expected 3") in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command,key,value", [
    (["run"], "alpha", 1e308),  # the objective overflows at the K-NN seed
    (["run"], "beta", 1e308),  # a Z-row QP's F overflows
    (["run"], "alpha", 1e307),  # finite QP data, infinite objective
    (["ablate", "--variant", "knn_fusion_only"], "alpha", 1e307),
    (["ablate", "--variant", "two_phase"], "alpha", 1e308),  # 2H overflows
])
def test_extreme_regularization_exits_3(tmp_path, capsys, blobs, command, key, value):
    cfg = write_config(tmp_path, m=10, K=5, **{key: value}, **blobs)
    out = tmp_path / "o"
    assert main([*command, "--config", cfg, "--out", str(out)]) == EXIT_SOLVER
    assert "solver failure:" in capsys.readouterr().err
    assert not (out / "report.json").exists()


# ---------------------------------------------------------------------------
# synth

def test_synth_writes_loadable_dataset(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--n", "20", "--c", "4", "--views", "2",
                 "--dims", "3,5", "--seed", "7", "--out", str(out)]) == EXIT_OK
    from udbgl.dataset import load_views
    ds = load_views(out / "manifest.json")
    assert ds.n == 20 and ds.dims == [3, 5]
    assert np.array_equal(np.unique(ds.labels), np.arange(4))


# ---------------------------------------------------------------------------
# ablate

@pytest.mark.parametrize("variant", ["full", "knn_fusion_only", "two_phase"])
def test_ablate_variants(tmp_path, capsys, blobs, variant):
    cfg = write_config(tmp_path, m=10, K=5, **blobs)
    out = tmp_path / variant
    assert main(["ablate", "--variant", variant, "--config", cfg,
                 "--out", str(out)]) == EXIT_OK
    assert read_report(out)["variant"] == variant
    assert f"ablate[{variant}]" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# grid

def test_default_grid_planner():
    grids = default_grids(3)
    assert grids["alpha"] == grids["beta"] == [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3]
    assert grids["m"] == [3, 50, 100, 200]
    cells = grid_cells({}, 3)
    assert len(cells) == 7 * 7 * 4
    assert cells[0] == {"alpha": 1e-3, "beta": 1e-3, "m": 3}
    # config overrides replace whole axes
    cells = grid_cells({"grid": {"alpha": [1.0], "m": [3]}}, 3)
    assert len(cells) == 7
    assert all(c["alpha"] == 1.0 and c["m"] == 3 for c in cells)


def grid_config(tmp_path, blobs):
    return write_config(
        tmp_path,
        grid={"alpha": [1.0, 0.1], "beta": [1.0], "m": [3, 200]},
        **blobs,
    )


def test_grid_sweeps_and_reports(tmp_path, capsys, blobs):
    cfg = grid_config(tmp_path, blobs)
    out = tmp_path / "out"
    assert main(["grid", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "grid_report.json").read_text())
    assert report["n_used"] == 60
    assert len(report["cells"]) == 4
    skipped = [r for r in report["cells"] if "skipped" in r]
    scored = [r for r in report["cells"] if "metrics" in r]
    assert len(skipped) == 2 and all("m=200" in r["skipped"] for r in skipped)
    assert len(scored) == 2
    best = report["best"]
    assert best["metrics"]["nmi"] == max(r["metrics"]["nmi"] for r in scored)
    assert "best" in capsys.readouterr().out


def test_grid_subsample_caps_n(tmp_path, blobs):
    # m=c cells are fragile at 30 samples (uniform K-NN seed); sweep m=10
    cfg = write_config(tmp_path, grid={"alpha": [1.0, 0.1], "beta": [1.0],
                                       "m": [10, 200]}, **blobs)
    out = tmp_path / "out"
    assert main(["grid", "--config", cfg, "--subsample", "30",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "grid_report.json").read_text())
    assert report["n_used"] == 30
    assert len([r for r in report["cells"] if "metrics" in r]) == 2


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_grid_nonpositive_subsample_exits_2(tmp_path, capsys, blobs, cap):
    cfg = grid_config(tmp_path, blobs)
    out = tmp_path / "out"
    assert main(["grid", "--config", cfg, "--subsample", cap,
                 "--out", str(out)]) == EXIT_CONFIG
    assert "--subsample must be positive" in capsys.readouterr().err
    assert not (out / "grid_report.json").exists()


def test_grid_non_integer_threads_exits_2(tmp_path, capsys, blobs, monkeypatch):
    monkeypatch.setenv("UDBGL_THREADS", "two")
    cfg = grid_config(tmp_path, blobs)
    assert main(["grid", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error:" in err and "UDBGL_THREADS" in err and "'two'" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_grid_threads_below_one_exit_2(tmp_path, capsys, blobs, monkeypatch, threads):
    monkeypatch.setenv("UDBGL_THREADS", threads)
    cfg = grid_config(tmp_path, blobs)
    out = tmp_path / "out"
    assert main(["grid", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "UDBGL_THREADS must be at least 1" in capsys.readouterr().err
    assert not (out / "grid_report.json").exists()


def use_fake_executor(monkeypatch, sizes, drained, eager):
    """Replace the grid's ProcessPoolExecutor with a pool that starts no
    process: it runs the initializer in this process and records the pool
    size. An eager pool runs each submitted drain at once, before the main
    process claims a cell; a lazy one runs them when it closes, after the
    main process has drained every cell it could. `drained` gets the cell
    count of each drain."""
    import udbgl.cli as cli

    def settle(fut, fn):
        try:
            pairs = fn()
        except BaseException as exc:
            fut.set_exception(exc)
        else:
            drained.append(len(pairs))
            fut.set_result(pairs)

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)
            self.pending = []

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            for fut, fn in self.pending:
                settle(fut, fn)
            return False

        def submit(self, fn):
            fut = Future()
            if eager:
                settle(fut, fn)
            else:
                self.pending.append((fut, fn))
            return fut

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    # the initializer sets the worker state in this process: undo it after
    monkeypatch.setattr(cli, "_worker_cells", None)


def test_grid_pool_never_exceeds_cell_count(tmp_path, blobs, monkeypatch):
    sizes = []
    use_fake_executor(monkeypatch, sizes, [], eager=False)
    cfg = grid_config(tmp_path, blobs)  # 2 x 1 x 2 = 4 cells
    # the main process is one of the cells run at once: min(threads, cells) - 1
    # children, and none at all for UDBGL_THREADS=1
    for threads, expected in (("100000", [3]), ("3", [2]), ("2", [1]), ("1", [])):
        sizes.clear()
        monkeypatch.setenv("UDBGL_THREADS", threads)
        assert main(["grid", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert sizes == expected


@pytest.mark.parametrize("eager, child_cells", [(False, [0, 0]), (True, [4, 0])])
def test_grid_rows_do_not_depend_on_who_runs_them(tmp_path, blobs, monkeypatch, eager,
                                                 child_cells):
    # lazy: the children claim nothing and the main process runs every cell;
    # eager: the first child runs every cell and the main process none
    cfg = grid_config(tmp_path, blobs)
    monkeypatch.setenv("UDBGL_THREADS", "1")
    assert main(["grid", "--config", cfg, "--out", str(tmp_path / "serial")]) == EXIT_OK
    drained = []
    use_fake_executor(monkeypatch, [], drained, eager)
    monkeypatch.setenv("UDBGL_THREADS", "3")
    assert main(["grid", "--config", cfg, "--out", str(tmp_path / "fake")]) == EXIT_OK
    assert drained == child_cells
    assert ((tmp_path / "fake" / "grid_report.json").read_text()
            == (tmp_path / "serial" / "grid_report.json").read_text())


@pytest.mark.parametrize("eager", [False, True])
@pytest.mark.parametrize("exc_type", [RuntimeError, KeyboardInterrupt])
def test_grid_failure_starts_no_later_cell(tmp_path, blobs, monkeypatch, eager, exc_type):
    # a cell that raises past _grid_cell's error rows ends the sweep: the
    # process that saw it re-raises, and no process claims another cell
    import udbgl.cli as cli

    started = []

    def failing_cell(task):
        started.append(task[1])
        if len(started) == 2:
            raise exc_type("cell failed")
        return dict(task[1])

    monkeypatch.setattr(cli, "_grid_cell", failing_cell)
    use_fake_executor(monkeypatch, [], [], eager)
    monkeypatch.setenv("UDBGL_THREADS", "2")
    cfg = grid_config(tmp_path, blobs)  # 4 cells
    with pytest.raises(exc_type, match="cell failed"):
        main(["grid", "--config", cfg, "--out", str(tmp_path / "out")])
    assert started == grid_cells(json.loads(Path(cfg).read_text()), 3)[:2]


def test_readme_lists_the_solver_keys():
    # the bullets under "Solver keys" in README.md, each led by its keys
    import udbgl.cli as cli

    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Solver keys"))
    bullets = itertools.dropwhile(lambda line: not line.startswith("- "), lines[start:])
    listed = []
    for line in bullets:
        if line.startswith("- "):
            listed += re.findall(r"`(\w+)`", line.split(" — ")[0])
        elif not line.startswith("  "):
            break
    assert listed == list(cli._SOLVER_KEYS)


def test_readme_config_examples_are_accepted(tmp_path):
    # every JSON block under "### Config file" in README.md passes the
    # config checks (no unknown key among them) and names a manifest and c
    from udbgl.cli import _load_config

    section = README.read_text().split("\n### Config file\n", 1)[1].split("\n#", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    assert blocks
    for block in blocks:
        path = tmp_path / "cfg.json"
        path.write_text(block)
        raw = _load_config(path)
        assert "manifest" in raw and "c" in raw, block


def test_readme_library_example_runs():
    # the python block under "## Library" in README.md, run as written
    readme = README.read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=source_env(), timeout=120)
    assert r.returncode == 0, r.stderr


def test_removed_qp_keys_exit_2(tmp_path, capsys, blobs):
    for key, value in (("qp_tol", 1e-8), ("qp_max_iter", 1000),
                       ("gamma_reset", False), ("delta_warm_start", True),
                       ("gamma0", 0.1), ("gamma_min", 1e-8), ("gamma_max", 1e8),
                       ("p_inner_max", 60), ("normalize", "minmax")):
        cfg = write_config(tmp_path, **blobs, **{key: value})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [
    [1, 2],
    {"alpha": 5},
    {"m": ["x"]},
    {"gamma": [1.0]},
    {"alpha": []},
])
def test_grid_bad_block_exits_2_before_loading(tmp_path, capsys, blobs, monkeypatch, grid):
    import udbgl.cli as cli

    def no_load(*args):
        raise AssertionError("the dataset loaded before the grid block was checked")

    monkeypatch.setattr(cli, "_dataset_from_config", no_load)
    cfg = write_config(tmp_path, grid=grid, **blobs)
    out = tmp_path / "out"
    assert main(["grid", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "error: grid" in capsys.readouterr().err
    assert not (out / "grid_report.json").exists()


def test_grid_parallel_matches_serial(tmp_path, blobs, monkeypatch):
    # 2 runs cells in the main process and one child, 3 beside two children
    cfg = grid_config(tmp_path, blobs)
    monkeypatch.setenv("UDBGL_THREADS", "1")
    main(["grid", "--config", cfg, "--out", str(tmp_path / "serial")])
    serial = json.loads((tmp_path / "serial" / "grid_report.json").read_text())
    for threads in ("2", "3"):
        monkeypatch.setenv("UDBGL_THREADS", threads)
        main(["grid", "--config", cfg, "--out", str(tmp_path / threads)])
        assert json.loads((tmp_path / threads / "grid_report.json").read_text()) == serial


def test_grid_loads_the_dataset_once(tmp_path, monkeypatch):
    import udbgl.cli as cli
    from udbgl.dataset import load_views
    from udbgl.metrics import nmi
    from udbgl.solver import SolverConfig, fit

    main(["synth", "--n", "80", "--c", "3", "--views", "2", "--out", str(tmp_path / "d")])
    grid = {"alpha": [1.0, 0.1], "beta": [1.0], "m": [10]}
    cfg = write_config(tmp_path, manifest="d/manifest.json", c=3, seed=5, grid=grid)
    calls = []

    def counting_load(path):
        calls.append(path)
        return load_views(path)

    monkeypatch.setattr(cli, "load_views", counting_load)
    monkeypatch.setenv("UDBGL_THREADS", "1")
    out = tmp_path / "out"
    assert main(["grid", "--config", cfg, "--subsample", "50", "--out", str(out)]) == EXIT_OK
    assert len(calls) == 1
    rows = json.loads((out / "grid_report.json").read_text())["cells"]
    assert len(rows) == 2
    # each cell scores as if it had loaded and subsampled the data itself
    for row in rows:
        ds = cli._subsample(load_views(tmp_path / "d" / "manifest.json"), 50, 5)
        labels, state = fit(ds, SolverConfig(c=3, seed=5, alpha=row["alpha"],
                                             beta=row["beta"], m=row["m"]))
        assert row["metrics"]["nmi"] == nmi(labels, ds.labels)
        assert row["objective"] == float(state.objective_trace[-1])


def test_grid_without_labels_ranks_by_objective(tmp_path):
    main(["synth", "--n", "40", "--c", "2", "--views", "1", "--out", str(tmp_path / "d")])
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    manifest["labels"] = None
    (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
    cfg = write_config(tmp_path, manifest="d/manifest.json", c=2,
                       grid={"alpha": [1.0, 0.1], "beta": [1.0], "m": [2]})
    out = tmp_path / "out"
    assert main(["grid", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "grid_report.json").read_text())
    done = [r for r in report["cells"] if "objective" in r]
    assert report["best"]["objective"] == min(r["objective"] for r in done)


@pytest.mark.parametrize("command", ["run", "grid"])
def test_feature_range_beyond_the_float_maximum_exits_0(tmp_path, command):
    # a finite view whose min-max range overflows float64 clusters like any
    # other, under run and under every grid cell
    from udbgl.dataset import MultiViewDataset, write_views
    write_views(MultiViewDataset([wide_feature_view()]), tmp_path / "wide")
    cfg = write_config(tmp_path, manifest="wide/manifest.json", c=2,
                       grid={"alpha": [1.0, 0.1], "beta": [1.0], "m": [2]})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
    if command == "grid":
        cells = json.loads((out / "grid_report.json").read_text())["cells"]
        assert all("objective" in row for row in cells)


def test_grid_all_cells_failing_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, manifest=one_point_manifest(tmp_path), c=3,
                       grid={"alpha": [1.0, 0.1], "beta": [1.0], "m": [3]})
    assert main(["grid", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    assert "every cell failed" in capsys.readouterr().err


@pytest.mark.parametrize("grid, subsample, reason", [
    # --subsample 2 leaves fewer samples than the only m, so every cell is skipped
    ({"m": [3]}, "2", "m=3 exceeds sample count n=2"),
    ({"m": [2]}, "10000", "m=2 must be at least c=3"),
    ({"alpha": [-1.0, 0.0]}, "10000", "alpha, beta must be positive"),
], ids=["every-m-above-n", "every-m-below-c", "every-alpha-nonpositive"])
def test_grid_no_cell_can_run_exits_2_before_any_fit(tmp_path, capsys, blobs, monkeypatch,
                                                     grid, subsample, reason):
    # a usage error, not a solver failure ("every cell failed", exit 3)
    import udbgl.cli as cli

    def no_fit(*args, **kwargs):
        raise AssertionError("a grid cell ran a fit")

    monkeypatch.setattr(cli, "fit", no_fit)
    cfg = write_config(tmp_path, grid={"alpha": [1.0], "beta": [1.0], **grid}, **blobs)
    out = tmp_path / "o"
    assert main(["grid", "--config", cfg, "--subsample", subsample,
                 "--out", str(out)]) == EXIT_CONFIG
    assert f"error: no grid cell can run: {reason}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# console entry point

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def console_script_command():
    """Command that runs the declared ``udbgl`` entry point in a fresh process.

    The entry is read from ``[project.scripts]`` and called the way pip's
    generated wrapper calls it, ``sys.exit(main())``, so ``main``'s return
    value becomes the process status.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["udbgl"]
    module, func = entry.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code]


def synth_run_round_trip(tmp_path, cmd, env=None):
    data = tmp_path / "data"
    r = subprocess.run([*cmd, "synth", "--n", "30", "--c", "2", "--views", "2",
                        "--out", str(data)], capture_output=True, text=True, env=env)
    assert r.returncode == EXIT_OK, r.stderr
    cfg = write_config(tmp_path, manifest="data/manifest.json", c=2)
    out = tmp_path / "out"
    r = subprocess.run([*cmd, "run", "--config", cfg, "--out", str(out)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == EXIT_OK, r.stderr
    assert (out / "report.json").exists()


def test_console_script_round_trip(tmp_path):
    cmd = console_script_command()
    env = source_env()
    synth_run_round_trip(tmp_path, cmd, env)
    # the exit code must survive the process boundary, not only main's return
    r = subprocess.run([*cmd, "run", "--config", str(tmp_path / "missing.json")],
                       capture_output=True, text=True, env=env)
    assert r.returncode == EXIT_CONFIG, r.stderr
    assert any(line.startswith("error:") for line in r.stderr.splitlines()), r.stderr


@pytest.mark.skipif(shutil.which("udbgl") is None,
                    reason="udbgl console script not installed")
def test_installed_console_script_round_trip(tmp_path):
    synth_run_round_trip(tmp_path, [shutil.which("udbgl")])


def test_cli_import_loads_no_scipy():
    # scipy.sparse and csgraph cost about 25 MB per process, and the package
    # uses no scipy module; numpy.random is loaded with the package, so a
    # command's first default_rng does not load it inside the timed run
    code = ("import sys, udbgl.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'numpy.random' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=source_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[] True"


def _import_peak_mb(module):
    # VmHWM of a fresh interpreter after importing module; ru_maxrss would
    # carry the parent's (pytest's) peak across exec
    code = (f"import {module}\n"
            "for line in open('/proc/self/status'):\n"
            "    if line.startswith('VmHWM:'):\n"
            "        print(int(line.split()[1]) / 1024)\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=source_env())
    assert r.returncode == 0, r.stderr
    return float(r.stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_cli_import_footprint_over_numpy():
    # about 10 MB over numpy alone; with scipy.sparse and csgraph it was 36 MB
    extra = _import_peak_mb("udbgl.cli") - _import_peak_mb("numpy")
    assert extra < 15.0, f"import udbgl.cli peaks {extra:.1f} MB above import numpy"
