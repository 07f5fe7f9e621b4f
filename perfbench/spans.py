"""Span recording around the library's public functions, from outside it.

A ``Tracer`` rebinds each wrapped function in the module that defines it
and in every ``wcmopt`` module that imported it by name, so calls made
through ``from ... import`` names are seen too.  Each call becomes a span
(name, start, end, parent) appended to flat arrays kept in memory; the
arrays are written out once, when the run ends.  ``FieldContext.mul`` runs
millions of times per object, so it is only counted.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable

_NOW = time.perf_counter_ns


class Tracer:
    """Spans and counters of one traced run.

    Recording happens only while ``active`` is true, so output checks can
    call the library between ops without adding spans.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counters: dict[str, float] = {}
        self.active = False
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def bump(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def spanned(self, name: str, fn: Callable, on_result: Callable | None = None,
                on_error: Callable | None = None) -> Callable:
        """``fn`` wrapped so that each active call records a span.

        ``on_result(args, kwargs, result)`` and ``on_error(args, kwargs, exc)``
        let a layer count what a call did; the exception is re-raised.
        """
        nid = self._id(name)
        stack, starts, ends = self._stack, self.start, self.end

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(_NOW())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = _NOW()
                stack.pop()
                if on_error is not None:
                    on_error(args, kwargs, exc)
                raise
            ends[idx] = _NOW()
            stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each active call only bumps ``counters[key]``."""
        counters = self.counters
        counters[key] = 0

        def wrapper(*args):
            if self.active:
                counters[key] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def rebind(self, owner: object, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` and every ``wcmopt`` module name bound to the same object."""
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod is owner or not mod_name.startswith("wcmopt"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Put back every name ``rebind`` replaced, latest first."""
        self.active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Spans as text: the name table, then one ``name start end parent`` line each."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# names " + " ".join(self.names) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name_id[i]} {self.start[i]} {self.end[i]} {self.parent[i]}\n")


def self_times(start, end, parent) -> array:
    """Per span: its duration minus the part of it that its child spans cover.

    Spans must be in start order, as recording appends them; the children of
    one parent are then met in start order, so the union of their
    intervals, clipped to the parent's, is accumulated in one pass.
    """
    n = len(start)
    covered = array("q", bytes(8 * n))
    reach = array("q", start)  # per parent: end of the union of its children so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("q", (end[i] - start[i] - covered[i] for i in range(n)))


def per_name(tracer: Tracer) -> dict[str, tuple[int, float]]:
    """(calls, self seconds) per span name.

    A span nested directly in a span of the same name (``apply_changes``
    building a ``CodeGraph``) adds self time but is not another call.
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = [0] * len(tracer.names)
    secs = [0] * len(tracer.names)
    ids, parents = tracer.name_id, tracer.parent
    for i, s in enumerate(selfs):
        nid = ids[i]
        secs[nid] += s
        p = parents[i]
        if p < 0 or ids[p] != nid:
            calls[nid] += 1
    return {name: (calls[k], secs[k] / 1e9) for k, name in enumerate(tracer.names)}
