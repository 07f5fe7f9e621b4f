"""Forked workers: independent pieces of one job on every CPU this process may run on.

``enumerate_code`` splits its subset walk by root and ``optimize_code`` its
targets by group; each hands ``run`` the work of one piece and every
piece's load.  ``run`` puts the loaded pieces, largest load first, on one
queue that every process pulls from, so a piece's load orders the queue
but decides nothing about who works it.  Workers are forked, not spawned:
a spawned worker re-imports the package, which costs about as much as the
work it would take over.  ``available`` is the one place the worker count
is decided, and tests pin it there.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading
from typing import Callable, Iterator, NoReturn, Sequence

# Bytes of whole queue records one pipe write puts in at once or not at all:
# POSIX makes writes of up to 512 bytes (its least PIPE_BUF) atomic.
_ATOMIC = 512


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


def run(work: Callable[[int], list], loads: Sequence[int], name: str) -> list:
    """``work(i)`` of every piece i with a nonzero load, joined in ascending piece order.

    With one process, or at most one loaded piece, this process works the
    pieces in ascending order.  Otherwise it forks ``available() - 1``
    children, or one fewer than the loaded pieces, and then writes the
    loaded pieces into one queue, a pipe of 4-byte records, largest load
    first; every process, this one included, takes the next piece off the
    queue until it is empty, so no guess at a piece's cost decides who
    works it.  A child sends ``marshal.dumps`` of
    a dict from each piece it worked to that piece's list (exit status 0),
    or of its error's message (status 1), through its own pipe and leaves
    through ``os._exit``: it runs no caller's ``finally``, no atexit hook
    and no flush of a copied stdout buffer.  A child's non-zero exit is
    raised here as a ``RuntimeError`` naming the job ``name`` and carrying
    the child's message.  Every child is reaped before this returns or
    raises; on an error here the children still running are killed first.
    """
    pieces = sorted((i for i, load in enumerate(loads) if load), key=lambda i: -loads[i])
    count = min(available(), len(pieces))
    if count < 2:
        return [record for i in sorted(pieces) for record in work(i)]
    done: dict[int, list] = {}
    children: dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    queue, feed = os.pipe()
    try:
        for _ in range(count - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(work, queue, w, [feed, r, *children.values()])
            os.close(w)
            children[pid] = r
        # Written after the fork and without blocking: a queue larger than
        # the pipe holds is topped up between this process's pieces, so it
        # never waits on children that may have died.
        left = b"".join(i.to_bytes(4, "little") for i in pieces)
        os.set_blocking(feed, False)
        while True:
            while left:
                try:
                    os.write(feed, left[:_ATOMIC])
                except BlockingIOError:  # full: the next read finds a record
                    break
                left = left[_ATOMIC:]
                if not left:
                    os.close(feed)
                    feed = -1
            record = os.read(queue, 4)
            if not record:
                break
            i = int.from_bytes(record, "little")
            done[i] = work(i)
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
            done.update(marshal.loads(data))
        return [record for i in sorted(done) for record in done[i]]
    finally:
        os.close(queue)
        if feed >= 0:
            os.close(feed)
        for pid, r in children.items():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.close(r)
            os.waitpid(pid, 0)


def _pull(queue: int) -> Iterator[int]:
    """The pieces taken off ``queue``, one record at a time, until it is empty and closed.

    A pipe read is atomic among its readers, and the queue is written in
    atomic writes of whole records, so the pipe always holds whole records
    and each read takes one.
    """
    while record := os.read(queue, 4):
        yield int.from_bytes(record, "little")


def _child(work: Callable[[int], list], queue: int, w: int, others: list[int]) -> NoReturn:
    """A forked child's whole life: work the pieces it pulls, send the outcome, exit."""
    status = 1
    try:
        for fd in others:
            os.close(fd)
        try:
            payload, done = marshal.dumps({i: work(i) for i in _pull(queue)}), 0
        except Exception as exc:  # sent to the parent, which raises it
            payload, done = marshal.dumps(f"{type(exc).__name__}: {exc}"), 1
        with os.fdopen(w, "wb") as pipe:
            pipe.write(payload)
        status = done
    finally:
        os._exit(status)
