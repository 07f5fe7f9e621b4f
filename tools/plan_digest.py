"""Digest the removal plans of the benchmark's labeled pools and its optimize and enumerate runs.

Prints one line per pool with its plan count and the sha256 of the
``repr`` of every ``remove_object`` plan in pool order, then the same over
all pools.  The pools are the ``remove_gf8`` members of seeds 1-3 and the
``remove_gf16`` members of seed 1, as ``perfbench/inputs.py`` generates
them; each object goes through ``build_tree`` and ``extract_wcms`` with the
defaults, as in the benchmark.  Then one line per ``optimize_code`` seed
(1 and 41): the sha256 of ``wcmopt optimize code targets --out`` on the
benchmark's overlap-tile code, over its standard output, with the scratch
directory masked, and the bytes of the ``--out`` file.  Last one line per
``enumerate_scan`` seed (1 and 41): the sha256 of the standard output of
``wcmopt enumerate code --max-a 6`` on the benchmark's planted scan code.
Running the script on two checkouts and diffing the listings shows whether
any plan, optimize or enumerate output changed:

    python3 tools/plan_digest.py > change.txt
    python3 tools/plan_digest.py --root ../parent > parent.txt
    diff parent.txt change.txt

It takes about 3 s on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

POOLS = (("remove_gf8", 1, 24), ("remove_gf8", 2, 24), ("remove_gf8", 3, 24), ("remove_gf16", 1, 200))
OPTIMIZE_SEEDS = (1, 41)
ENUMERATE_SEEDS = (1, 41)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src and perfbench inputs are run (default: this one)")
    root = parser.parse_args().root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import inputs
    from wcmopt import cli, removal, wcmtree

    total, count = hashlib.sha256(), 0
    for workload, seed, size in POOLS:
        h = hashlib.sha256()
        for _, cfg in inputs.members(workload, seed, size, inputs.field_for(workload)):
            wcms = wcmtree.extract_wcms(cfg, wcmtree.build_tree(cfg))
            plan = repr(removal.remove_object(cfg, wcms)).encode() + b"\n"
            h.update(plan)
            total.update(plan)
        count += size
        print(f"{workload} seed={seed} plans={size} sha256={h.hexdigest()}")
    print(f"all plans={count} sha256={total.hexdigest()}")
    for seed in OPTIMIZE_SEEDS:
        code = inputs.overlap_tile_code(seed)
        with tempfile.TemporaryDirectory() as work:
            paths = [f"{work}/code.txt", f"{work}/targets.txt", f"{work}/out.txt"]
            Path(paths[0]).write_text(code.text, encoding="utf-8")
            Path(paths[1]).write_text(inputs.targets_text(code.objects), encoding="utf-8")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(["optimize", *paths[:2], "--out", paths[2]])
            h = hashlib.sha256(stdout.getvalue().replace(work, "<work>").encode())
            h.update(Path(paths[2]).read_bytes())
        print(f"optimize_code seed={seed} exit={rc} sha256={h.hexdigest()}")
    for seed in ENUMERATE_SEEDS:
        with tempfile.TemporaryDirectory() as work:
            path = f"{work}/code.txt"
            Path(path).write_text(inputs.planted_scan_code(seed).text, encoding="utf-8")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(["enumerate", path, "--max-a", "6"])
            h = hashlib.sha256(stdout.getvalue().replace(work, "<work>").encode())
        print(f"enumerate_scan seed={seed} exit={rc} sha256={h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
