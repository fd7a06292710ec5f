"""The benchmark's per-layer tracer patches names of the package from
outside it (perfbench/tracing.py).  Installing and removing it here makes a
deletion or rebinding of any name it patches fail in the test suite, not
only in a benchmark run."""

import importlib
import inspect
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


def test_tracer_counts_the_rows_each_kernel_call_receives(monkeypatch):
    # insdel.lcs.symbols reads the kernel's rows off its positional arguments;
    # a recorder that binds them by name sees what the kernel really got, so
    # reordering the kernel's parameters fails here
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    analyze, insdel = tracing.analyze, tracing.insdel
    from rsinsdel.gf import field_new
    from rsinsdel.rscode import EvaluationVector, RsCode

    kernel = insdel.lcs_from_masks
    signature = inspect.signature(kernel)
    received = []

    def recorder(*args, **kwargs):
        received.append(len(signature.bind(*args, **kwargs).arguments["rows"]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(insdel, "lcs_from_masks", recorder)
    monkeypatch.setattr(analyze, "lcs_from_masks", recorder)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        analyze.lcs_code_bruteforce(RsCode(EvaluationVector(field_new(7), (0, 1, 2, 3, 6, 4)), 3))
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    assert metrics["insdel.lcs_from_masks.calls"] == len(received) > 0
    assert metrics["insdel.lcs.symbols"] == sum(received)
