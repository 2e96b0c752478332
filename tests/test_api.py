"""The public API: every exported name exists, so a deleted class cannot
leave a stale export behind, and every function the benchmark traces
exists."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import mahlercf


def test_every_exported_name_resolves():
    missing = [name for name in mahlercf.__all__ if not hasattr(mahlercf, name)]
    assert missing == []
    assert len(set(mahlercf.__all__)) == len(mahlercf.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from mahlercf import *", namespace)
    assert set(mahlercf.__all__) <= set(namespace)


def test_benchmark_trace_targets_resolve(monkeypatch):
    """Every function perfbench/tracing.py traces is still a function of its
    mahlercf layer, so a rename cannot silently empty a per-layer metric.
    The file is loaded by path and only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = []
    for layer, names in tracing.TARGETS.items():
        module = importlib.import_module(f"mahlercf.{layer}")
        for dotted in names:
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if not inspect.isfunction(vars(owner).get(attr) if owner is not None else None):
                missing.append(f"{layer}.{dotted}")
    assert missing == []
