"""Checks that the CI workflow otherwise makes only in its own steps: the
benchmark tracer patches every name it targets and restores it, and every
name of ``idqsim.__all__`` resolves, so ``from idqsim import *`` works."""

import importlib.util
import sys
from pathlib import Path

import idqsim
from idqsim import scenarios

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    """``perfbench/tracer.py`` as a fresh module, read without writing bytecode
    beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_installs_and_uninstalls_cleanly(monkeypatch):
    tracer = load_tracer(monkeypatch)
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
