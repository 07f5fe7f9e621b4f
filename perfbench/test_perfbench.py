"""The benchmark's own tests: run with ``python3 -m pytest perfbench -q``.

They cover generator determinism, the self-time arithmetic, the tracer's
rebinding, and a reduced-size pass of every workload through the same
output checks the benchmark applies, including corrupted outputs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import inputs
import layers
import run
import speed
import workloads
from spans import Tracer, per_name, self_times
from wcmopt import gflinalg, removal

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ inputs


@pytest.mark.parametrize("workload", ["remove_gf8", "remove_gf16"])
def test_members_are_deterministic_and_satisfied(workload):
    field = inputs.field_for(workload)
    a = inputs.members(workload, 7, 10, field)
    b = inputs.members(workload, 7, 10, field)
    c = inputs.members(workload, 8, 10, field)
    assert [(n, m.edges) for n, m in a] == [(n, m.edges) for n, m in b]
    assert [m.edges for _, m in a] != [m.edges for _, m in c]
    cycle = inputs.SHAPE_CYCLES[workload]
    assert [n for n, _ in a] == [cycle[i % len(cycle)] for i in range(10)]
    for _, member in a:
        # a labeling that satisfies every degree->=2 check is a member with b = d1
        wcms = workloads.wcmtree.extract_wcms(member, workloads.wcmtree.build_tree(member))
        assert removal.is_in_Z(member, wcms)


@pytest.mark.parametrize("make", [
    lambda s: inputs.overlap_tile_code(s, tiles=3, padding=20),
    inputs.planted_scan_code,
])
def test_codes_are_byte_identical_per_seed(make):
    assert make(5).text == make(5).text
    assert make(5).objects == make(5).objects
    assert make(5).text != make(6).text


def test_overlap_tiles_share_one_column_each():
    code = inputs.overlap_tile_code(3, tiles=4, padding=32)
    assert len(code.objects) == 8
    assert code.text.count("\n") == 2 + len(code.weights)
    cols = [c for _, c in code.weights]
    assert all(cols.count(c) == code.gamma for c in range(code.cols))
    firsts, seconds = code.objects[0::2], code.objects[1::2]
    for a, b in zip(firsts, seconds):
        assert set(a) & set(b) == {a[0]} == {b[0]}


# ------------------------------------------------------------- self times


def test_self_times_of_nested_spans():
    # root [0,100] holds A [10,30] and B [40,70]; B holds C [45,50]
    start = [0, 10, 40, 45]
    end = [100, 30, 70, 50]
    parent = [-1, 0, 0, 2]
    assert list(self_times(start, end, parent)) == [50, 20, 25, 5]


def test_self_times_clip_and_merge_children():
    # children overlap each other and run past the parent: covered is [2,10]
    start = [0, 2, 4, 5]
    end = [10, 6, 12, 8]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == 2


def test_same_name_nesting_is_one_call():
    t = Tracer()
    build = t._id("config.codegraph_build")
    other = t._id("config.induce")
    for nid, s, e, p in [(build, 0, 10, -1), (build, 2, 8, 0), (other, 20, 30, -1)]:
        t.name_id.append(nid)
        t.start.append(s)
        t.end.append(e)
        t.parent.append(p)
    got = per_name(t)
    assert got["config.codegraph_build"] == (1, 10e-9)
    assert got["config.induce"] == (1, 10e-9)


def test_rebinding_reaches_imported_names_and_is_undone():
    original = gflinalg.null_space
    t = Tracer()
    layers.install(t)
    try:
        assert removal.null_space is gflinalg.null_space is not original
        assert removal.null_space.__wrapped__ is original
    finally:
        t.uninstall()
    assert removal.null_space is gflinalg.null_space is original


# ------------------------------------------------------------ speed probes


def _probed(*probes):
    p = speed.SpeedProbe()
    p.probes = [(float(i), speed.REF_S) for i in range(speed.MIN_PROBES)] + list(probes)
    return p


def test_normalised_drops_the_probes_and_rescales_by_their_mean():
    # 25 probes inside [100, 110), each twice the nominal time: the host ran at half speed
    p = _probed(*((100.0 + k / 4, 2 * speed.REF_S) for k in range(25)))
    assert p.normalised(100.0, 110.0) == pytest.approx((10.0 - 50 * speed.REF_S) / 2)


def test_normalised_falls_back_to_the_latest_probes():
    # one probe inside the span: the scale also uses the 19 nominal probes before it
    p = _probed((100.5, 3 * speed.REF_S), (200.0, 9 * speed.REF_S))
    mean = (19 + 3) * speed.REF_S / speed.MIN_PROBES
    assert p.normalised(100.0, 101.0) == pytest.approx((1.0 - 3 * speed.REF_S) * speed.REF_S / mean)


def test_probe_starts_primed_and_stops_cleanly():
    p = speed.SpeedProbe()
    p.start()
    try:
        assert len(p.probes) >= speed.MIN_PROBES
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            speed.reference_task()
        assert p.normalised(t0, time.perf_counter()) > 0
    finally:
        p.stop()
    assert len(p.probes) > speed.MIN_PROBES
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


# ------------------------------------------------------------- workloads


def _pass(wl, tmp_path, calls):
    wl.setup(str(tmp_path))
    return [wl.check(i, wl.call(i)) for i in range(calls)]


def test_remove_gf16_smoke_and_corrupted_plans(tmp_path):
    wl = workloads.RemoveWorkload("remove_gf16", 2, pool=5)
    outcomes = _pass(wl, tmp_path, 6)  # the sixth call repeats the first object
    assert all(o.failed == 0 and o.removed == 1 for o in outcomes)
    assert outcomes[5].digest == outcomes[0].digest
    cfg, wcms, plan = wl.call(0)
    cn, vn, old, new = plan.changes[0]
    with pytest.raises(workloads.CheckError, match="fewer than e_min"):
        workloads.check_plan(cfg, wcms, dataclasses.replace(plan, changes=()))
    with pytest.raises(workloads.CheckError, match="does not match"):
        bad = ((cn, vn, new, old),) + plan.changes[1:]
        workloads.check_plan(cfg, wcms, dataclasses.replace(plan, changes=bad))
    # e_min is the topological lower bound here, so one change cannot remove it
    one = dataclasses.replace(plan, e_min=1, changes=plan.changes[:1])
    with pytest.raises(workloads.CheckError, match="still in its family"):
        workloads.check_plan(cfg, wcms, one)


def test_remove_gf8_smoke(tmp_path):
    wl = workloads.RemoveWorkload("remove_gf8", 2, pool=3)
    (outcome,) = _pass(wl, tmp_path, 1)
    assert outcome.removed == 1 and outcome.changes >= 1


def test_optimize_smoke_and_corrupted_graph(tmp_path):
    wl = workloads.OptimizeWorkload(4, tiles=2, padding=16)
    first, second = _pass(wl, tmp_path, 2)
    assert first.ops == 4 and first.failed == 0 and first.removed == 4
    assert first.digest == second.digest
    rc, text = wl.call(2)
    with open(wl.out_path, encoding="utf-8") as fh:
        written = fh.read()
    lines = written.splitlines()
    r, c, w = lines[2].split()
    lines[2] = f"{r} {c} {int(w) % 3 + 1}"
    with open(wl.out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckError, match="--out file"):
        wl.check(2, (rc, text))
    rc, text = wl.call(3)
    intact = text.split("reverified_intact=")[1].split("\n")[0]
    dropped = text.replace(intact, intact.split("; ", 1)[1])
    with pytest.raises(workloads.CheckError, match="re-verified"):
        wl.check(3, (rc, dropped))


def test_enumerate_smoke_and_corrupted_output(tmp_path):
    wl = workloads.EnumerateWorkload(4)
    (outcome,) = _pass(wl, tmp_path, 1)
    assert outcome.ops == 2509 and outcome.failed == 0
    rc, text = wl.call(1)
    planted = "vns=" + ",".join(str(v + 1) for v in wl.code.objects[0]) + " "
    (record,) = [line for line in text.splitlines() if planted in line]
    with pytest.raises(workloads.CheckError):
        wl.check(1, (rc, text.replace(record + "\n", "")))
    with pytest.raises(workloads.CheckError, match="truncated"):
        wl.check(1, (rc, text.replace("truncated=no", "truncated=yes")))
    assert wl.finish() == (1, 2)


def test_same_seed_same_digest(tmp_path):
    digests = []
    for sub in ("a", "b"):
        path = tmp_path / sub
        path.mkdir()
        wl = workloads.OptimizeWorkload(9, tiles=2, padding=16)
        digests.append(_pass(wl, path, 1)[0].digest)
    assert digests[0] == digests[1]


# ----------------------------------------------------- report and contract


def test_reports_match_benchmark_json(tmp_path):
    bench = _bench()
    wl = workloads.OptimizeWorkload(1, tiles=2, padding=16)
    wl.setup(str(tmp_path))
    probe = speed.SpeedProbe()
    probe.start()
    try:
        samples = run.timed_calls(wl, 0, 2, probe)
    finally:
        probe.stop()
    assert all(0 < s.seconds < 10 * s.wall for s in samples)
    metrics, _ = run.end_to_end(samples, 0.1, None)
    assert list(metrics) == [m["name"] for m in bench["end_to_end"]]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()}
    metrics, _, _ = run.traced(wl, 0, str(tmp_path))
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: v["unit"] for k, v in metrics.items()}
    assert metrics["removal.protected_checks"]["value"] > 0
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "remove_gf16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
