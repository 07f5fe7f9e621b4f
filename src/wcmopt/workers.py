"""Forked workers: independent shares of one job on every CPU this process may run on.

``enumerate`` splits its subset walk by root and ``optimize_code`` its
targets by group; each hands ``run`` the work of one piece and every
piece's load, and ``run`` deals the pieces out with ``deal``.  Workers
are forked, not spawned: a spawned worker re-imports the package, which
costs about as much as the work it would take over.  ``available`` is the one place the worker count is decided,
and tests pin it there.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading
from typing import Callable, NoReturn, Sequence


def available() -> int:
    """Processes a job may run on: one per CPU this process may run on.

    One where there is no ``os.fork`` or the process runs other threads: a
    forked child holds only the thread that forked it, and a lock another
    thread held stays locked there.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def deal(loads: Sequence[int], workers: int) -> list[list[int]]:
    """The indices with a nonzero load dealt out to at most ``workers`` shares.

    Largest load first, each to the least-loaded share (the first on a
    tie), so the largest lands in the first share; each share ascending.
    At least one share, empty when no load is nonzero.
    """
    shares: list[list[int]] = [[] for _ in range(workers)]
    held = [0] * workers
    for i in sorted((i for i, load in enumerate(loads) if load), key=lambda i: -loads[i]):
        w = held.index(min(held))
        shares[w].append(i)
        held[w] += loads[i]
    return [sorted(share) for share in shares if share] or [[]]


def run(work: Callable[[int], list], loads: Sequence[int], name: str) -> list:
    """``work(i)`` of every piece i with a nonzero load, joined share by share.

    The pieces are dealt to ``available()`` shares with ``deal``, and a
    share's lists are joined in ascending piece order.  The first share is
    worked in this process, each other one in a forked child, which sends
    ``marshal.dumps`` of its list (exit status 0) or of its error's message
    (status 1) through a pipe and leaves through ``os._exit``: it runs no
    caller's ``finally``, no atexit hook and no flush of a copied stdout
    buffer.  A child's non-zero exit is raised here as a ``RuntimeError``
    naming the job ``name`` and carrying the child's message.  Every child
    is reaped before this returns or raises; on an error here the children
    still running are killed first.
    """
    shares = deal(loads, available())
    children: dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(work, share, w, [r, *children.values()])
            os.close(w)
            children[pid] = r
        out = [record for i in shares[0] for record in work(i)]
        for pid, r in list(children.items()):
            with os.fdopen(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            os.close(r)
            if code:
                try:
                    message = marshal.loads(data)
                except (EOFError, ValueError, TypeError):
                    message = f"exited with status {code}"
                raise RuntimeError(f"{name} worker {pid} failed: {message}")
            out.extend(marshal.loads(data))
        return out
    finally:
        for pid, r in children.items():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.close(r)
            os.waitpid(pid, 0)


def _child(work: Callable[[int], list], share: list[int], w: int, others: list[int]) -> NoReturn:
    """A forked child's whole life: work its share's pieces, send the outcome, exit."""
    status = 1
    try:
        for fd in others:
            os.close(fd)
        try:
            payload, done = marshal.dumps([record for i in share for record in work(i)]), 0
        except Exception as exc:  # sent to the parent, which raises it
            payload, done = marshal.dumps(f"{type(exc).__name__}: {exc}"), 1
        with os.fdopen(w, "wb") as pipe:
            pipe.write(payload)
        status = done
    finally:
        os._exit(status)
