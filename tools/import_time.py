"""Time fresh-interpreter imports of ``wcmopt.cli`` on two checkouts, alternating.

Each sample starts a new Python process that imports ``wcmopt.cli`` from
a copy of the checkout's ``src`` and prints the seconds the import took,
measured inside the process.  The two sides run in turn, this checkout
first, so drift on the host hits both alike.  The copies live in a
scratch directory, so no bytecode cache is written into the checkouts:
by default each copy keeps its cache, filled by an unmeasured import
first (warm); with ``--cold`` bytecode writing is off and the copies have
no cache, so every sample compiles the package, as a benchmark run in a
fresh checkout with ``PYTHONDONTWRITEBYTECODE`` set does.  It prints the
median and the interquartile range per side and the change in the median:

    python3 tools/import_time.py --root ../parent --pairs 30
    python3 tools/import_time.py --root ../parent --pairs 30 --cold

It uses the standard library only; 30 warm pairs take about 5 s.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PROBE = "import time; t = time.perf_counter(); import wcmopt.cli; print(time.perf_counter() - t)"


def sample(src: str, cold: bool) -> float:
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if cold:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, check=True, capture_output=True, text=True
    )
    return float(out.stdout)


def summary(times: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(times, n=4)
    return f"median {med * 1e3:.2f} ms  IQR {(q3 - q1) * 1e3:.2f} ms ({q1 * 1e3:.2f}..{q3 * 1e3:.2f})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path, help="the other checkout")
    parser.add_argument("--pairs", type=int, default=30, help="samples per side (default 30)")
    parser.add_argument("--cold", action="store_true", help="compile the sources in every sample")
    args = parser.parse_args()
    sides = {"this": Path(__file__).resolve().parent.parent / "src", "root": args.root.resolve() / "src"}
    times: dict[str, list[float]] = {name: [] for name in sides}
    with tempfile.TemporaryDirectory(prefix="import-time-") as scratch:
        copies = {}
        for name, src in sides.items():
            copies[name] = os.path.join(scratch, name)
            shutil.copytree(src, copies[name], ignore=shutil.ignore_patterns("__pycache__"))
            if not args.cold:
                sample(copies[name], cold=False)
        for _ in range(args.pairs):
            for name in sides:
                times[name].append(sample(copies[name], args.cold))
    for name, src in sides.items():
        print(f"{name:5} {summary(times[name])}  ({src})")
    this, root = (statistics.median(times[name]) for name in sides)
    print(f"change in median: {(this - root) * 1e3:+.2f} ms ({(this / root - 1) * 100:+.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
