"""Digest the removal plans of the benchmark's labeled pools and its optimize and enumerate runs.

Prints one line per pool with its plan count, the sha256 of the ``repr``
of every ``remove_object`` plan in pool order, the matrix reductions the
pool's removals made and the oracle's majority judgements, then the plan
count and sha256 over all pools.  The pools are the ``remove_gf8``
members of seeds 1-3 and the ``remove_gf16`` members of seed 1, as
``perfbench/inputs.py`` generates them; each object goes through
``build_tree`` and ``extract_wcms`` with the defaults, as in the
benchmark.  Then one line per ``optimize_code`` seed (1 and 41): the
sha256 of ``wcmopt optimize code targets --out`` on the benchmark's
overlap-tile code, over its standard output, with the scratch directory
masked, and the bytes of the ``--out`` file, with the run's matrix
reductions, protected checks and majority judgements, and how its final
re-verifications ran: on a kernel a removal's record kept
(``_ObjectColumns.in_family``) or on ``is_in_Z`` over the re-induced
object (every one of them in checkouts without ``in_family``).  Last two lines
per ``enumerate_scan`` seed (1 and 41): the sha256 of the standard
output of ``wcmopt enumerate code --max-a 6`` on the benchmark's planted
scan code, with the run's shape hits (subsets whose class is in the
family, each of which grows a tree) and matrix reductions; then the same
for a run whose ``--budget`` stops inside size 5 and whose
``--support-cap 0`` skips, with a warning each, the shape hits whose
family has a matrix with a nonzero null space (about 50 per seed), so
truncation and warning order are covered too.  A matrix reduction is one
``_ColumnMembership._reduce`` call, a majority judgement one
``removal.keeps_majority`` call (from the exhaustive oracle's scan), and
a shape hit one call of ``removal.grow_tree`` (of ``cli.grow_tree`` in
checkouts whose walk still sits in the command line); the counters are
deterministic, so running the script on two checkouts and diffing the
listings shows whether any plan, optimize or enumerate output changed,
and whether the removals and optimize runs did the same work.
The counters wrap functions in this process, so ``enumerate`` and
``optimize`` are pinned to one worker (``workers.available``): every shape
hit is judged and every target removed here, not in forked workers:

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
from math import comb
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
    from wcmopt import cli, removal, wcmtree, workers

    counts = {"reductions": 0, "protected_checks": 0, "shape_hits": 0, "judged": 0, "on_kernel": 0, "on_is_in_Z": 0}
    reduce, optimize, grow = removal._ColumnMembership._reduce, cli.optimize_code, wcmtree.grow_tree
    keeps_majority, is_in_Z = removal.keeps_majority, removal.is_in_Z
    in_family = getattr(removal._ObjectColumns, "in_family", None)

    def counted_reduce(self, group):
        counts["reductions"] += 1
        return reduce(self, group)

    def counted_optimize(*args, **kwargs):
        new_graph, report = optimize(*args, **kwargs)
        counts["protected_checks"] += report.protected_checks
        return new_graph, report

    def counted_grow(*args, **kwargs):
        counts["shape_hits"] += 1
        return grow(*args, **kwargs)

    def counted_keeps_majority(*args):
        counts["judged"] += 1
        return keeps_majority(*args)

    def counted_is_in_Z(*args):
        counts["on_is_in_Z"] += 1
        return is_in_Z(*args)

    def counted_in_family(self, c):
        before = counts["on_is_in_Z"]
        verdict = in_family(self, c)
        counts["on_kernel"] += counts["on_is_in_Z"] == before
        return verdict

    removal._ColumnMembership._reduce, cli.optimize_code = counted_reduce, counted_optimize
    removal.keeps_majority, removal.is_in_Z = counted_keeps_majority, counted_is_in_Z
    if in_family is not None:
        removal._ObjectColumns.in_family = counted_in_family
    for owner in (cli, removal):  # the module whose enumerate walk calls grow_tree
        if hasattr(owner, "grow_tree"):
            owner.grow_tree = counted_grow
    workers.available = lambda: 1
    total, count = hashlib.sha256(), 0
    for workload, seed, size in POOLS:
        h = hashlib.sha256()
        counts.update(reductions=0, judged=0)
        for _, cfg in inputs.members(workload, seed, size, inputs.field_for(workload)):
            wcms = wcmtree.extract_wcms(cfg, wcmtree.build_tree(cfg))
            plan = repr(removal.remove_object(cfg, wcms)).encode() + b"\n"
            h.update(plan)
            total.update(plan)
        count += size
        print(f"{workload} seed={seed} plans={size} reductions={counts['reductions']} "
              f"judged={counts['judged']} sha256={h.hexdigest()}")
    print(f"all plans={count} sha256={total.hexdigest()}")
    for seed in OPTIMIZE_SEEDS:
        code = inputs.overlap_tile_code(seed)
        with tempfile.TemporaryDirectory() as work:
            paths = [f"{work}/code.txt", f"{work}/targets.txt", f"{work}/out.txt"]
            Path(paths[0]).write_text(code.text, encoding="utf-8")
            Path(paths[1]).write_text(inputs.targets_text(code.objects), encoding="utf-8")
            stdout = io.StringIO()
            counts.update(reductions=0, protected_checks=0, judged=0, on_kernel=0, on_is_in_Z=0)
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(["optimize", *paths[:2], "--out", paths[2]])
            h = hashlib.sha256(stdout.getvalue().replace(work, "<work>").encode())
            h.update(Path(paths[2]).read_bytes())
        print(f"optimize_code seed={seed} exit={rc} reductions={counts['reductions']} "
              f"protected_checks={counts['protected_checks']} judged={counts['judged']} "
              f"final_on_kernel={counts['on_kernel']} final_on_is_in_Z={counts['on_is_in_Z']} sha256={h.hexdigest()}")
    for seed in ENUMERATE_SEEDS:
        code = inputs.planted_scan_code(seed)
        inside = sum(comb(code.cols, k) for k in range(1, 5)) + comb(code.cols, 5) // 2
        cut = ("", []), (f" budget={inside} support_cap=0", ["--budget", str(inside), "--support-cap", "0"])
        for label, limits in cut:
            with tempfile.TemporaryDirectory() as work:
                path = f"{work}/code.txt"
                Path(path).write_text(code.text, encoding="utf-8")
                stdout = io.StringIO()
                counts.update(reductions=0, shape_hits=0)
                with contextlib.redirect_stdout(stdout):
                    rc = cli.main(["enumerate", path, "--max-a", "6", *limits])
                h = hashlib.sha256(stdout.getvalue().replace(work, "<work>").encode())
            print(f"enumerate_scan seed={seed}{label} exit={rc} shape_hits={counts['shape_hits']} "
                  f"reductions={counts['reductions']} sha256={h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
