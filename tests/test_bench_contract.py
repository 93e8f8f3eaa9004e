"""The benchmark's contract with the package: every function bench/op.py
wraps, and both observation hooks it fills, must exist. The benchmark's own
smoke runs find a missing name only after minutes; this finds it at once."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import udbgl.numerics
import udbgl.solver

OP_PATH = Path(__file__).resolve().parent.parent / "bench" / "op.py"


def _load_op(monkeypatch):
    # loaded from its file, so bench/ needs no package marker, and without
    # bytecode, so nothing is written under bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_op", OP_PATH)
    op = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(op)
    return op


def test_bench_targets_resolve(monkeypatch):
    op = _load_op(monkeypatch)
    assert op.TARGETS
    for mod, name, scope in op.TARGETS:
        fn = getattr(importlib.import_module(f"udbgl.{mod}"), name, None)
        assert callable(fn), f"bench/op.py wraps udbgl.{mod}.{name}, which is missing"
        assert scope in ("all", "solver"), (mod, name, scope)
        if scope == "solver":
            assert getattr(udbgl.solver, name, None) is fn, \
                f"udbgl.solver does not bind {mod}.{name}, which bench/op.py wraps there"


def test_bench_hooks_exist():
    assert "p_sweep_hook" in inspect.signature(udbgl.solver.fit).parameters
    assert "sweep_hook" in inspect.signature(udbgl.numerics.solve_simplex_qp_rows).parameters
