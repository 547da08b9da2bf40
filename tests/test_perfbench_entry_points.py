"""The benchmark harness still finds every battfault name it wraps or calls.

perfbench/tracing.py wraps the functions its TARGETS list names, looking each
up in its owner's ``__dict__``, and perfbench/worker.py warms the package up
with a call to ``encode_batch(X, params, cfg)``. A src/ rename or a new
signature would otherwise fail only when the benchmark runs. Both files are
loaded as they are, without writing bytecode next to them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench(monkeypatch):
    """(tracing, worker), loaded from perfbench/; sys.path and sys.modules are restored after."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # worker imports tracing by its bare name
    tracing = _load("tracing", monkeypatch)
    return tracing, _load("worker", monkeypatch)


def test_every_traced_target_resolves(perfbench):
    tracing, _ = perfbench
    missing = [f"{owner}.{attr}" for owner, attr, _ in tracing.TARGETS
               if not callable(tracing._resolve(owner).__dict__.get(attr))]
    assert not missing, "TARGETS names no function at: " + ", ".join(missing)
    # installing wraps every target and puts each original back afterwards
    originals = [tracing._resolve(owner).__dict__[attr] for owner, attr, _ in tracing.TARGETS]
    with tracing.Tracer().installed():
        pass
    assert [tracing._resolve(owner).__dict__[attr]
            for owner, attr, _ in tracing.TARGETS] == originals


def test_the_worker_warm_up_runs(perfbench):
    _, worker = perfbench
    worker._warm_up()
