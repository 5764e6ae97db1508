"""Checks that the CI workflow otherwise makes only in its own steps: the
benchmark tracer patches every name it targets and restores it, one round of
each benchmark workload passes its checks, and every name of
``idqsim.__all__`` resolves, so ``from idqsim import *`` works."""

import importlib.util
import sys
from pathlib import Path

import pytest

import idqsim
from idqsim import comparator, reduction, scenarios

BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"


def load_benchmark(monkeypatch, stem: str):
    """``perfbench/<stem>.py`` as a fresh module, read without writing
    bytecode beside it. It is in ``sys.modules`` for the test's duration, as
    ``dataclasses`` needs to resolve its annotations."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_benchmark_{stem}", BENCHMARK / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_installs_and_uninstalls_cleanly(monkeypatch):
    tracer = load_benchmark(monkeypatch, "tracer")
    targets = [(owner, attr) for owner, attr, _, _ in tracer._TARGETS]
    # a traced name that the package no longer has fails here, by its name
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if not hasattr(owner, attr)]
    assert missing == []
    originals = [getattr(owner, attr) for owner, attr in targets]
    tr = tracer.Tracer()
    try:
        tracer.install(tr)
        for (owner, attr), original in zip(targets, originals):
            assert getattr(owner, attr).__wrapped__ is original, attr
        # through the module, as the benchmark calls it; the hooks read what
        # the package returns
        scenarios.run_spec(scenarios.get_builtin("overlap"))
    finally:
        tr.uninstall()
    assert all(getattr(o, a) is f for (o, a), f in zip(targets, originals))
    assert tr.layers["scenarios.run_spec"].calls == 1
    assert tr.layers["entanglement.analyze"].calls == 1
    assert not any(layer.errors for layer in tr.layers.values())


def test_every_public_name_resolves():
    names = idqsim.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(idqsim, n)] == []
    namespace: dict = {}
    exec("from idqsim import *", namespace)
    assert set(names) <= namespace.keys()


@pytest.mark.parametrize("name", ["paper", "sweep-wide", "sweep-deep", "verify"])
def test_one_round_of_each_benchmark_workload_passes_its_checks(monkeypatch, name):
    # a name or a result the benchmark relies on, broken, fails here offline
    workload = load_benchmark(monkeypatch, "workloads").WORKLOADS[name]
    batch = next(workload.rounds(workload.build(0), 0))
    assert batch
    for case in batch:
        assert workload.check(case, workload.run(case)) is None


REMOVED = {
    "partial_trace_one": reduction,
    "oracle_trace": comparator,
    "distinguishable_trace": comparator,
    "run_builtin": scenarios,
    "run_file": scenarios,
}


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_a_trace_or_a_run_has_one_entry_point(name):
    # one stage is partial_trace_iterate(phi, (basis,)) and its twins; a run
    # is run_spec(get_builtin(name)) or run_spec(load_scenario(path))
    assert not hasattr(idqsim, name)
    assert not hasattr(REMOVED[name], name)
    assert name not in idqsim.__all__
