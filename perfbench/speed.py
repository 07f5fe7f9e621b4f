"""Machine-speed probes: timings normalised against a fixed reference task.

The benchmark runs on shared hosts whose speed swings by up to a factor of
two within seconds: the same pure-Python loop takes 2.6 ms or 5.3 ms
depending on the moment, and one object of ``remove_gf8`` takes 1.4 s to
2.5 s.  A raw time therefore measures the host as much as the program.

``SpeedProbe`` runs a small fixed task (``reference_task``) from a
``SIGALRM`` timer every ``INTERVAL_S`` seconds, in the benchmark's only
thread, so the probes fall inside the timed calls and sample the speed the
program actually ran at.  A call's time is its wall time minus the probes
that fired during it, scaled by ``REF_S`` / (mean probe time around it).
The result reads as the call's time on a host where one reference task
takes ``REF_S``.  The reference task is written here and never touches the
library, so a faster library shows as a shorter normalised time while a
slower host does not.  See NOTES.md for the measurements behind this.
"""

from __future__ import annotations

import bisect
import random
import signal
import time

#: Seconds between probes: about 2% of the run goes to probing.
INTERVAL_S = 0.05
#: The reference task's time on the nominal host; normalised times are on it.
REF_S = 0.001
#: A scale uses the probes of the call, or the latest this many if fewer fired.
MIN_PROBES = 20

_POLY = 0b10011  # GF(16), x^4 + x + 1
_EXP = [0] * 30
_LOG = [0] * 16
_x = 1
for _i in range(15):
    _EXP[_i] = _EXP[_i + 15] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 16:
        _x ^= _POLY
_rng = random.Random("perfbench.speed")
_MATRIX = [[_rng.randrange(1, 16) for _ in range(10)] for _ in range(12)]
_VECTORS = [[(k * 7 + j) % 15 + 1 for j in range(10)] for k in range(40)]


def _mul(a: int, b: int) -> int:
    return _EXP[_LOG[a] + _LOG[b]] if a and b else 0


def reference_task() -> int:
    """Forty GF(16) matrix-vector products of a 12x10 matrix, in pure Python.

    The same kind of work as the library's inner loops (table lookups,
    XOR, small function calls), about 1 ms on a 2.1 GHz Xeon core.
    """
    acc = 0
    for v in _VECTORS:
        for row in _MATRIX:
            s = 0
            for a, b in zip(row, v):
                s ^= _mul(a, b)
            acc ^= s
    return acc


class SpeedProbe:
    """Reference-task times sampled by a timer signal while the benchmark runs."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (perf_counter() at start, duration)

    def _probe(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        reference_task()
        self.probes.append((t, time.perf_counter() - t))

    def start(self) -> None:
        """Take MIN_PROBES probes now, then one every INTERVAL_S seconds."""
        for _ in range(MIN_PROBES):
            self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalised(self, t0: float, t1: float) -> float:
        """The span [t0, t1) of ``perf_counter()``, less its probes, on the nominal host.

        ``t1`` must come after ``start()``.  A signal handler runs to
        completion between two bytecodes, so the probes inside the span are
        exactly those that started in it.  The scale is REF_S over their
        mean time, or over the latest MIN_PROBES probes when fewer fired.
        """
        lo = bisect.bisect_left(self.probes, (t0,))
        hi = bisect.bisect_left(self.probes, (t1,))
        inside = sum(d for _, d in self.probes[lo:hi])
        window = [d for _, d in self.probes[min(lo, hi - MIN_PROBES):hi]]
        return (t1 - t0 - inside) * REF_S * len(window) / sum(window)
