"""``workers.run`` on its own: which pieces run, where, and in what order."""

import os

import pytest

from conftest import pin_workers
from wcmopt import workers

LOADS = [3, 0, 7, 1, 0, 5, 2, 2, 9, 0, 4]


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_run_works_every_loaded_piece_once_share_by_share(monkeypatch, count):
    pin_workers(monkeypatch, count)
    parent = os.getpid()

    def work(i):
        assert LOADS[i], f"piece {i} has no load"  # raised here or by the child's RuntimeError
        return [(i, "first", os.getpid()), (i, "second", os.getpid())]

    out = workers.run(work, LOADS, "test")
    no_child_left()
    shares = workers.deal(LOADS, count)
    assert len(shares) == count
    # each piece's records in its order, the pieces of a share ascending,
    # the shares in deal order
    want = [(i, part) for share in shares for i in share for part in ("first", "second")]
    assert [(i, part) for i, part, _ in out] == want
    assert sorted({i for i, _, _ in out}) == [i for i, load in enumerate(LOADS) if load]
    pids = {i: pid for i, _, pid in out}
    share_pids = [{pids[i] for i in share} for share in shares]
    assert all(len(held) == 1 for held in share_pids)
    assert [held.pop() == parent for held in share_pids] == [True] + [False] * (count - 1)
    assert len({pids[share[0]] for share in shares}) == count
    assert pids[LOADS.index(max(LOADS))] == parent


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

