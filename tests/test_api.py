"""The public API: every exported name exists, so a deleted class cannot
leave a stale export behind, and every function the benchmark traces
exists."""

import importlib
import importlib.util
import inspect
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mahlercf
from mahlercf.conditions import ConditionWitness
from mahlercf.patterns import LemmaReport, LemmaSpec, Violation
from mahlercf.recurrence import BETA_ZERO, Failure
from mahlercf.search import DensityReport


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


SPEC = LemmaSpec(lemma=7, p=7, u=1, v=2, delta=2, blocks=5)

# Each value record with one of its fields.
RECORDS = [
    (ConditionWitness("C3", 7, 2, 0, phi=2), "u"),
    (Failure(2, BETA_ZERO), "index"),
    (SPEC, "blocks"),
    (Violation(2, "alpha", 0, 5), "actual"),
    (LemmaReport(SPEC, passed=False, run_failure=Failure(2, BETA_ZERO)), "passed"),
    (DensityReport(12, 20, 625, 512), "covered"),
]


@pytest.mark.parametrize("record,field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_read_only(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    assert getattr(record, field) == before


def test_record_properties_and_equality():
    assert ConditionWitness("C3", 7, 2, 0, phi=2).pair == (2, 0)
    assert SPEC.depth == 54
    assert DensityReport(12, 20, 625, 512).fraction == Fraction(512, 625)
    assert Failure(2, BETA_ZERO) == Failure(2, "beta_zero") != Failure(3, BETA_ZERO)
    # the records are tuples: equal to a plain tuple of their fields
    assert Failure(2, BETA_ZERO) == (2, "beta_zero")
