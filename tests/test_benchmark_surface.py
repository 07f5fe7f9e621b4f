"""The library surface the benchmark harness in ``perfbench/`` and ``tools/plan_digest.py`` rely on.

The harness spans library functions by name and calls them through their
modules, and the digest tool wraps some by name to count work; a rename
or deletion there would otherwise only show when the benchmark's own
tests or the tool run.
"""

import importlib
import pathlib
import sys

from wcmopt import cli, gflinalg, removal, workers

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
HARNESS = ("spans", "layers", "inputs", "workloads")


def test_harness_spans_and_imports_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in HARNESS:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        spans = importlib.import_module("spans")
        layers = importlib.import_module("layers")
        tracer = spans.Tracer()
        try:
            layers.install(tracer)
        finally:
            tracer.uninstall()
        importlib.import_module("workloads")
        importlib.import_module("inputs")
    finally:
        for name in HARNESS:
            sys.modules.pop(name, None)


def test_removal_binds_the_null_space_the_harness_rebinds():
    # the harness's own tests check that rebinding gflinalg.null_space
    # reaches this binding, although nothing in removal calls it
    assert removal.null_space is gflinalg.null_space


def test_plan_digest_patches_names_that_exist():
    source = (ROOT / "tools" / "plan_digest.py").read_text(encoding="utf-8")
    patched = {
        "removal._ColumnMembership._reduce": removal._ColumnMembership,
        "cli.optimize_code": cli,
        "cli.grow_tree": cli,
        "workers.available": workers,
    }
    for dotted, owner in patched.items():
        assert dotted in source
        assert callable(getattr(owner, dotted.rpartition(".")[2], None)), dotted
