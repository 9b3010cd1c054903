"""The benchmark's view of the program still resolves and still checks out.

``perfbench`` wraps named bindings of the package (``tracing.SPANNED``)
and runs seeded items through its public API with known-answer checks.
This runs the tiny size of every workload in-process, so an API change
that would break the benchmark fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("module, attr, metric", tracing.SPANNED,
                         ids=[s[2] for s in tracing.SPANNED])
def test_spanned_bindings_resolve(module, attr, metric):
    importlib.import_module(module)
    owner, last = tracing._resolve(module, attr)
    assert callable(getattr(owner, last))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOAD_ITEMS))
def test_tiny_workload_items_pass_their_checks(workload):
    items, traffic = workloads.build(workload, 3, "tiny")
    assert items and traffic
    for item in items:
        out = item.run()
        assert item.check(out), item.label
        assert isinstance(item.text(out), str)
