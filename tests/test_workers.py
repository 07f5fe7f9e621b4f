"""``workers.run`` on its own: which pieces run, where, and in what order."""

import os
import signal

import pytest

from conftest import note, noted, pin_workers, wait_until
from wcmopt import workers

LOADS = [3, 0, 7, 1, 0, 5, 2, 2, 9, 0, 4]
LOADED = [i for i, load in enumerate(LOADS) if load]


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_run_works_every_loaded_piece_once_in_piece_order(monkeypatch, count):
    pin_workers(monkeypatch, count)

    def work(i):
        assert LOADS[i], f"piece {i} has no load"  # raised here or by the child's RuntimeError
        return [(i, "first", os.getpid()), (i, "second", os.getpid())]

    out = workers.run(work, LOADS, "test")
    no_child_left()
    # each piece's records in its order, the pieces ascending, whoever worked them
    assert [(i, part) for i, part, _ in out] == [(i, part) for i in LOADED for part in ("first", "second")]
    pids = {i: pid for i, _, pid in out}
    assert all(pid == pids[i] for i, _, pid in out)
    assert len(set(pids.values())) <= count
    if count == 1:
        assert set(pids.values()) == {os.getpid()}


@pytest.mark.parametrize("count", [2, 3])
def test_run_children_work_every_other_piece_while_this_process_stalls(monkeypatch, tmp_path, count):
    # this process's first piece waits until every other piece is done; the
    # children hold their first piece until that wait has begun, so this
    # process is sure to take one
    pin_workers(monkeypatch, count)
    parent, log, stalled = os.getpid(), tmp_path / "worked.txt", tmp_path / "stalled.txt"

    def work(i):
        if os.getpid() == parent:
            if not stalled.exists():
                note(stalled, i)
                wait_until(lambda: len(noted(log)) == len(LOADED) - 1, "the children")
        else:
            wait_until(stalled.exists, "this process's first piece")
            note(log, f"{i} {os.getpid()}")
        return [(i, os.getpid())]

    out = workers.run(work, LOADS, "test")
    no_child_left()
    first = int(noted(stalled)[0])
    assert [i for i, _ in out] == LOADED
    assert [pid for i, pid in out if i == first] == [parent]
    elsewhere = {int(i): int(pid) for i, pid in map(str.split, noted(log))}
    assert sorted(elsewhere) == [i for i in LOADED if i != first]
    assert {i: pid for i, pid in out if i != first} == elsewhere
    assert parent not in elsewhere.values() and len(set(elsewhere.values())) <= count - 1


# one worker, or one piece with a load, or none
SINGLE_SHARES = [(1, LOADS)] + [(count, loads) for count in (1, 2, 3) for loads in ([0, 4, 0], [0, 0], [])]


@pytest.mark.parametrize("count, loads", SINGLE_SHARES)
def test_run_never_forks_for_a_single_share(monkeypatch, count, loads):
    pin_workers(monkeypatch, count)

    def refuse_fork():
        raise AssertionError("a single share forked")

    monkeypatch.setattr(os, "fork", refuse_fork)
    ran = []

    def work(i):
        ran.append(i)
        return [i]

    assert workers.run(work, loads, "test") == [i for i, load in enumerate(loads) if load]
    assert ran == [i for i, load in enumerate(loads) if load]
    no_child_left()


@pytest.mark.parametrize("fault, message", [
    ("raise", r"test worker \d+ failed: ValueError: worked in a child"),
    ("kill", rf"test worker \d+ failed: exited with status -{signal.SIGKILL}"),
])
def test_run_raises_a_failed_child_and_never_waits_on_it(monkeypatch, tmp_path, fault, message):
    # a child fails at its first piece while this process holds its own;
    # the queue is larger than a pipe holds, so this process must write the
    # rest of it without waiting for the dead child to read
    pin_workers(monkeypatch, 2)
    parent, failed = os.getpid(), tmp_path / "failed.txt"
    loads = [1] * 20_000

    def work(i):
        if os.getpid() != parent:
            note(failed, i)
            if fault == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("worked in a child")
        wait_until(failed.exists, "the child's failure")
        return [i]

    def hung(signum, frame):
        raise AssertionError("run waited on a dead child")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match=message):
            workers.run(work, loads, "test")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    no_child_left()
