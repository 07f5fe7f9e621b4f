"""Digest the removal plans of the benchmark's labeled pools.

Prints one line per pool with its plan count and the sha256 of the
``repr`` of every ``remove_object`` plan in pool order, then the same over
all pools.  The pools are the ``remove_gf8`` members of seeds 1-3 and the
``remove_gf16`` members of seed 1, as ``perfbench/inputs.py`` generates
them; each object goes through ``build_tree`` and ``extract_wcms`` with the
defaults, as in the benchmark.  Running the script on two checkouts and
diffing the listings shows whether any plan changed:

    python3 tools/plan_digest.py > change.txt
    python3 tools/plan_digest.py --root ../parent > parent.txt
    diff parent.txt change.txt

It takes about 3 s on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

POOLS = (("remove_gf8", 1, 24), ("remove_gf8", 2, 24), ("remove_gf8", 3, 24), ("remove_gf16", 1, 200))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src and perfbench inputs are run (default: this one)")
    root = parser.parse_args().root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import inputs
    from wcmopt import removal, wcmtree

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
