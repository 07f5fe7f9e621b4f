"""Digest the wcmopt command line over a fixed grid of commands.

Prints one ``sha256  argv`` line per command.  The digest covers the exit
code, stdout and the bytes of the ``--out`` file, so running the script on
two checkouts and diffing the listings shows which commands changed:

    python3 tools/cli_grid.py > change.txt
    python3 tools/cli_grid.py --root ../parent > parent.txt
    diff parent.txt change.txt

Each command gets only the options it takes.  The grid: every
``fixtures/*.cfg`` under analyze and remove in each ``--mode``, and under
verify, in each ``--format`` with four cap settings; optimize on both
toy codes in both formats and cap settings; enumerate on both toy
codes for both kinds and formats, with and without ``--out``, and with
budgets and a support cap that make its output depend on scan order.
Commands run as ``python -m wcmopt`` subprocesses on the checkout's
``src``, from a scratch directory where ``fixtures`` links to the
checkout's fixtures, so paths in the output are the same for every
checkout.  It takes about 50 s on two cores (one command runs per usable
core), which is why no test runs it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

MODES = ("gast", "ost", "eas", "bast")
FORMATS = ("text", "json-lines")
CAPS = ((), ("--oracle-cap", "10"), ("--oracle-cap", "728"), ("--support-cap", "0"))
# Budgets that stop toy_code.txt's scan inside sizes 3 and 5, and a support
# cap that skips, with a warning each, every shape hit whose family has a
# matrix with a nonzero null space.
ENUMERATE_LIMITS = (("--budget", "100"), ("--budget", "1500"), ("--support-cap", "0"))
CODES = (
    ("fixtures/toy_code.txt", "fixtures/toy_targets.txt"),
    ("fixtures/toy_code_overlap.txt", "fixtures/toy_targets_overlap.txt"),
)


def grid(root: Path) -> list[list[str]]:
    """Every command of the grid; ``OUT`` stands for a fresh output path."""
    cfgs = sorted(f"fixtures/{p.name}" for p in (root / "fixtures").glob("*.cfg"))
    commands = []
    for cfg in cfgs:
        for command in ("analyze", "verify", "remove"):
            out = ["--out", "OUT"] if command == "remove" else []
            for mode in MODES if command != "verify" else (None,):
                for fmt in FORMATS:
                    for cap in CAPS:
                        flags = ["--mode", mode] if mode else []
                        commands.append([command, cfg, *flags, "--format", fmt, *cap, *out])
    for code, targets in CODES:
        for fmt in FORMATS:
            for cap in CAPS:
                commands.append(["optimize", code, targets, "--format", fmt, *cap, "--out", "OUT"])
        for kind in ("gast", "ost"):
            for fmt in FORMATS:
                for extra in ([], ["--out", "OUT"], *ENUMERATE_LIMITS):
                    commands.append([
                        "enumerate", code, "--max-a", "6", "--kind", kind, "--format", fmt, *extra,
                    ])
    return commands


def digest(argv: list[str], index: int, workdir: Path, env: dict[str, str]) -> str:
    out_path = f"out/{index:04d}.txt"
    argv = [out_path if a == "OUT" else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "wcmopt", *argv],
        cwd=workdir, env=env, capture_output=True, check=False,
    )
    h = hashlib.sha256(f"exit={proc.returncode}\n".encode())
    h.update(proc.stdout)
    out_file = workdir / out_path
    if out_file.exists():
        h.update(b"\n--out--\n" + out_file.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src and fixtures are run (default: this one)")
    args = parser.parse_args()
    root = args.root.resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    commands = grid(root)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "fixtures").symlink_to(root / "fixtures")
        (workdir / "out").mkdir()
        with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
            digests = list(pool.map(digest, commands, range(len(commands)),
                                    [workdir] * len(commands), [env] * len(commands)))
    for argv, d in zip(commands, digests):
        print(f"{d}  {shlex.join(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
