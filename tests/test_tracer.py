"""The benchmark's per-layer tracer patches names of the package from
outside it (perfbench/tracing.py).  Installing and removing it here makes a
deletion or rebinding of any name it patches fail in the test suite, not
only in a benchmark run."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    patched = [(tracing.gf.Field, attr) for attr in tracing.SCALAR_METHODS]
    for owner, attr, binders in tracing.SPANS.values():
        patched += [(owner, attr)] + [(module, attr) for module in binders]
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in patched}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in before.items())
    finally:
        tracer.remove()
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in before.items())
