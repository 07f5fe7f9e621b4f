"""The library surface the benchmark harness in ``perfbench/`` relies on.

The harness spans library functions by name and calls them through their
modules; a rename or deletion there would otherwise only show when the
benchmark's own tests run.
"""

import importlib
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
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
