"""Benchmark of wcmopt: one workload, one process, one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload remove_gf16 --seed 1 --seconds 30 --trace 0

The run is a closed loop: each call starts when the previous one has
finished and its output has been checked.  ``--trace 0`` prints the
end-to-end metrics, with every time normalised to a nominal host by the
speed probes of ``speed.py``; ``--trace 1`` the per-layer metrics of a
traced run together with the tracing overhead, in raw time.  The last
line of standard output is one JSON object; every other line is for
people.  A wrong output ends the run with exit code 1 and no JSON line.
See NOTES.md for the workloads.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import NamedTuple  # noqa: E402

from speed import REF_S, SpeedProbe  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


def _import_library() -> None:
    """Import wcmopt from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, SRC)
    try:
        import wcmopt
    except ImportError as exc:
        sys.exit(f"cannot import wcmopt from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(wcmopt.__file__))) != SRC:
        sys.exit(f"wcmopt was imported from {wcmopt.__file__}, not from {SRC}")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Sample(NamedTuple):
    seconds: float    # the call's time: normalised to the nominal host when probed
    outcome: object   # the checked ``workloads.Outcome``
    wall: float       # the call's wall time, probes included


def timed_call(wl, i: int, tracer=None, probe: SpeedProbe | None = None) -> Sample:
    """One call of the closed loop, its time and its checked outcome.

    The clock runs only around the call; checking the output is not timed.
    An exception from the call is a failed call, not a wrong output.
    """
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        raw = wl.call(i)
    except Exception as exc:  # a call that raises is a failed op
        raw = exc
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.active = False
    dt = probe.normalised(t0, t1) if probe is not None else t1 - t0
    if isinstance(raw, Exception):
        print(f"call {i} raised {raw!r}", file=sys.stderr)
        return Sample(dt, wl.failure(), t1 - t0)
    return Sample(dt, wl.check(i, raw), t1 - t0)


def timed_calls(wl, seconds: float, min_calls: int, probe: SpeedProbe | None = None):
    """Calls until ``seconds`` of wall call time have passed and ``min_calls`` are done."""
    samples = []
    wall = 0.0
    while wall < seconds or len(samples) < min_calls:
        samples.append(timed_call(wl, len(samples), probe=probe))
        wall += samples[-1].wall
    return samples


def percentile(xs: list[float], p: int) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def end_to_end(samples, setup_s: float, finished) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced run, and a line of context for each."""
    from workloads import CheckError

    durations = [s.seconds for s in samples]
    per_op_ms = [1000 * s.seconds / s.outcome.ops for s in samples]
    ops = sum(s.outcome.ops for s in samples)
    failed = sum(s.outcome.failed for s in samples)
    removed, changes = finished or (
        sum(s.outcome.removed for s in samples),
        sum(s.outcome.changes for s in samples),
    )
    if removed == 0:
        raise CheckError("no object was removed, so changes_per_removed is undefined")
    n = len(samples)
    p90 = percentile(per_op_ms, 90)
    beyond = sum(1 for x in per_op_ms if x > p90)
    values = {
        "setup_s": (setup_s, "s", f"imports + median of {SETUP_REPEATS} input builds"),
        "ops_per_s": (ops / sum(durations), "ops/s", f"{ops} ops in {sum(durations):.2f} s"),
        "op_ms_p50": (statistics.median(per_op_ms), "ms", f"{n} samples"),
        "op_ms_p90": (p90, "ms", f"{n} samples, {beyond} beyond p90"),
        "call_s_p50": (statistics.median(durations), "s", f"{n} calls"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "whole process"),
        "ok_ratio": ((ops - failed) / ops, "ratio", f"{failed} of {ops} ops failed"),
        "changes_per_removed": (changes / removed, "changes/obj", f"{changes} over {removed} objects"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()}
    lines = [f"{k} = {v:.6g} {u}  ({note})" for k, (v, u, note) in values.items()]
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_library()
    import workloads

    if args.workload not in workloads.NAMES:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    wl = workloads.make(args.workload, args.seed)
    workroot = os.path.join(HERE, "_work")
    workdir = os.path.join(workroot, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # An untraced run normalises every time it reports to the nominal host
    # (speed.py); a traced run reports raw times, whose overhead is a difference.
    probe = None if args.trace else SpeedProbe()
    try:
        if probe is not None:
            probe.start()
        span = probe.normalised if probe is not None else (lambda t0, t1: t1 - t0)
        imported = span(T_START, time.perf_counter())
        builds = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.setup(workdir)
            builds.append(span(t, time.perf_counter()))
        setup_s = imported + statistics.median(builds)
        print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
        if args.trace:
            metrics, lines, samples = traced(wl, args.seconds, workroot)
        else:
            samples = timed_calls(wl, args.seconds, workloads.MIN_CALLS[args.workload], probe)
            metrics, lines = end_to_end(samples, setup_s, wl.finish())
            lines.append(speed_line(probe, samples))
    except workloads.CheckError as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if probe is not None:
            probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    digest_calls = samples[:wl.cycle]
    print(f"digest={workloads.digest(*(s.outcome.digest for s in digest_calls))} "
          f"(first {len(digest_calls)} calls)")
    for line in lines:
        print(line)
    attempted = sum(s.outcome.ops for s in samples)
    failed = sum(s.outcome.failed for s in samples)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def speed_line(probe: SpeedProbe, samples) -> str:
    """How fast the host ran: the probes, and raw against normalised call time."""
    times = [d for _, d in probe.probes]
    wall = sum(s.wall for s in samples)
    return (f"host speed: {len(times)} probes, median {1000 * statistics.median(times):.3f} ms "
            f"against {1000 * REF_S:.3f} ms nominal; calls took {wall:.2f} s wall, "
            f"{sum(s.seconds for s in samples):.2f} s normalised")


def traced(wl, seconds: float, workroot: str):
    """A traced run: each call is made twice in a row, untraced and then traced.

    The per-layer metrics come from the traced calls.  The overhead is the
    traced minus the untraced time over all pairs; making the two calls of
    a pair back to back keeps drift in the machine's speed out of it.
    Spans are written to ``<workroot>/spans-<workload>.txt`` when the run ends.
    """
    import layers
    from spans import Tracer

    tracer = Tracer()
    layers.install(tracer)
    plain, samples = [], []
    try:
        while sum(s.wall for s in plain + samples) < seconds or len(samples) < wl.cycle:
            i = len(samples)
            plain.append(timed_call(wl, i))
            samples.append(timed_call(wl, i, tracer))
    finally:
        tracer.uninstall()
    ops = sum(s.outcome.ops for s in samples)
    metrics = layers.report(tracer, ops)
    busy = sum(s.seconds for s in samples)
    extra = busy - sum(s.seconds for s in plain)
    metrics["trace.overhead_s_per_op"] = extra / ops
    metrics["trace.overhead_ratio"] = extra / sum(s.seconds for s in plain)
    tracer.write(os.path.join(workroot, f"spans-{wl.name}.txt"))
    units = layers.metric_units()
    lines = [f"traced: {len(samples)} calls, {ops} ops, {busy:.2f} s, {len(tracer.start)} spans"]
    for name in units:
        share = ""
        if name.endswith(".self_s"):
            share = f"  ({100 * metrics[name] * ops / busy:.1f}% of traced time)"
        lines.append(f"{name} = {metrics[name]:.6g} {units[name]}{share}")
    for module in ("gflinalg", "config", "wcmtree", "removal", "cli"):
        secs = sum(v for k, v in metrics.items() if k.startswith(module + ".") and k.endswith(".self_s"))
        lines.append(f"layer {module}: {100 * secs * ops / busy:.1f}% of traced time")
    return {k: {"value": metrics[k], "unit": u} for k, u in units.items()}, lines, samples


if __name__ == "__main__":
    sys.exit(main())
