"""The four workloads: inputs, one timed call, and the check of its output.

A workload's ``call(i)`` is the timed part; ``check(i, raw)`` verifies the
output outside the timed region and returns an ``Outcome``.  A wrong output
raises ``CheckError`` and is never turned into a metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
from dataclasses import dataclass
from math import comb

# Library functions are called through their modules, never bound here by
# name, so that a traced run's rebinding of the module attributes sees them.
from wcmopt import cli, config, removal, wcmtree

import inputs


class CheckError(Exception):
    """An output of the program is wrong."""


@dataclass
class Outcome:
    ops: int        # library ops the call completed: objects, targets or subsets
    failed: int     # ops that raised, came back unremovable, or ran in a failed CLI call
    removed: int    # objects removed
    changes: int    # edge changes of the removed objects
    digest: str     # hash of the call's output


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def check_plan(cfg, wcms, plan) -> None:
    """A removed plan must break every matrix and make at least e_min changes."""
    if plan.result != "removed":
        raise CheckError(f"satisfied labeling came back {plan.result}")
    if len(plan.changes) < plan.e_min:
        raise CheckError(f"{len(plan.changes)} changes, fewer than e_min={plan.e_min}")
    changes = {}
    for cn, vn, old, new in plan.changes:
        if cfg.weight_of(cn, vn) != old or new == old:
            raise CheckError(f"change on (c{cn + 1},v{vn + 1}) does not match the input")
        changes[(cn, vn)] = new
    reweighted = cfg.with_weights(changes)
    if removal.is_in_Z(reweighted, wcms.rebuilt(reweighted)):
        raise CheckError("re-weighted object is still in its family")


class RemoveWorkload:
    """``build_tree`` -> ``extract_wcms`` -> ``remove_object`` on labeled members.

    One call is one object.  The pool cycles when a run outlasts it, and a
    repeated object must give the same plan as its first run.
    """

    def __init__(self, name: str, seed: int, pool: int):
        self.name = name
        self.seed = seed
        self.pool_size = pool
        self.cycle = len(inputs.SHAPE_CYCLES[name])
        self.first: dict[int, str] = {}

    def setup(self, workdir: str) -> None:
        field = inputs.field_for(self.name)
        self.pool = inputs.members(self.name, self.seed, self.pool_size, field)

    def call(self, i: int):
        _, cfg = self.pool[i % self.pool_size]
        wcms = wcmtree.extract_wcms(cfg, wcmtree.build_tree(cfg))
        return cfg, wcms, removal.remove_object(cfg, wcms)

    def failure(self) -> Outcome:
        return Outcome(1, 1, 0, 0, "")

    def check(self, i: int, raw) -> Outcome:
        cfg, wcms, plan = raw
        plan_digest = digest(self.pool[i % self.pool_size][0], repr(plan))
        if self.first.setdefault(i % self.pool_size, plan_digest) != plan_digest:
            raise CheckError(f"object {i % self.pool_size} gave a different plan on repeat")
        if plan.result == "unremovable":
            return Outcome(1, 1, 0, 0, plan_digest)
        check_plan(cfg, wcms, plan)
        return Outcome(1, 0, 1, len(plan.changes), plan_digest)

    def finish(self) -> tuple[int, int] | None:
        return None


def _capture(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def parse_blocks(text: str) -> dict[str, dict[str, str]]:
    """The CLI's ``[name]`` blocks of ``key=value`` lines; other lines are skipped."""
    blocks: dict[str, dict[str, str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = blocks.setdefault(line[1:-1], {})
        elif current is not None and "=" in line:
            key, value = line.split("=", 1)
            current[key] = value
    return blocks


_CHANGE = re.compile(r"\(c(\d+),v(\d+)\): (\d+) -> (\d+)")


def replay(code: inputs.Code, changes: str) -> str:
    """The code text after applying the reported changes to the generated input."""
    weights = dict(code.weights)
    for r, c, old, new in _CHANGE.findall(changes):
        key = (int(r) - 1, int(c) - 1)
        if weights.get(key) != int(old):
            raise CheckError(f"reported change at (c{r},v{c}) does not match the input")
        weights[key] = int(new)
    return inputs.code_text(code.rows, code.cols, code.gamma, code.field, weights)


class OptimizeWorkload:
    """``wcmopt optimize code targets --out`` on the padded overlap-tile code.

    One call is one CLI run; its ops are the targets.  Every call reads the
    same files, so every call must print and write the same bytes.
    """

    cycle = 1

    def __init__(self, seed: int, tiles: int = 40, padding: int = 2560):
        self.name = "optimize_code"
        self.seed = seed
        self.tiles = tiles
        self.padding = padding
        self.first: str | None = None

    def setup(self, workdir: str) -> None:
        self.workdir = workdir
        self.code = inputs.overlap_tile_code(self.seed, self.tiles, self.padding)
        self.code_path = os.path.join(workdir, "code.txt")
        self.targets_path = os.path.join(workdir, "targets.txt")
        self.out_path = os.path.join(workdir, "out.txt")
        with open(self.code_path, "w", encoding="utf-8") as fh:
            fh.write(self.code.text)
        with open(self.targets_path, "w", encoding="utf-8") as fh:
            fh.write(inputs.targets_text(self.code.objects))

    def call(self, i: int):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        return _capture(["optimize", self.code_path, self.targets_path, "--out", self.out_path])

    def failure(self) -> Outcome:
        return Outcome(len(self.code.objects), len(self.code.objects), 0, 0, "")

    def check(self, i: int, raw) -> Outcome:
        rc, text = raw
        if rc != 0:
            return self.failure()
        targets = len(self.code.objects)
        blocks = parse_blocks(text)
        opt = blocks.get("optimization")
        if opt is None:
            raise CheckError("no [optimization] block")
        plans = {k[len("object_"):]: v for k, v in blocks.items() if k.startswith("object_")}
        expected = {",".join(str(v + 1) for v in obj) for obj in self.code.objects}
        if set(plans) != expected or opt["skipped"] != "-":
            raise CheckError("the report does not cover exactly the generated targets")
        unremovable = [p for p in plans.values() if p["result"] == "unremovable"]
        processed = {k for k, p in plans.items() if p["result"] in ("removed", "not_in_z")}
        if int(opt["processed"]) != len(processed):
            raise CheckError("processed count disagrees with the object blocks")
        intact = set(opt["reverified_intact"].split("; ")) - {"-"}
        if not processed <= intact:
            raise CheckError(f"not re-verified intact: {sorted(processed - intact)[:3]}")
        if int(opt["protected_checks"]) <= 0:
            raise CheckError("no protected re-verification ran")
        with open(self.out_path, encoding="utf-8") as fh:
            written = fh.read()
        if replay(self.code, opt["changes"]) != written:
            raise CheckError("replaying the reported changes does not give the --out file")
        removed = sum(1 for p in plans.values() if p["result"] == "removed")
        out_digest = digest(text.replace(self.workdir, "<work>"), written)
        if self.first is None:
            self.first = out_digest
        elif out_digest != self.first:
            raise CheckError("a repeated optimize call gave different output")
        return Outcome(targets, len(unremovable), removed, int(opt["total_changes"]), out_digest)

    def finish(self) -> tuple[int, int] | None:
        return None


class EnumerateWorkload:
    """``wcmopt enumerate code --max-a 6`` on the small planted code.

    One call is one CLI run; its ops are the VN subsets examined.
    """

    cycle = 1
    max_a = 6

    def __init__(self, seed: int):
        self.name = "enumerate_scan"
        self.seed = seed
        self.first: str | None = None

    def setup(self, workdir: str) -> None:
        self.workdir = workdir
        self.code = inputs.planted_scan_code(self.seed)
        self.code_path = os.path.join(workdir, "code.txt")
        with open(self.code_path, "w", encoding="utf-8") as fh:
            fh.write(self.code.text)

    def call(self, i: int):
        return _capture(["enumerate", self.code_path, "--max-a", str(self.max_a)])

    def subsets(self) -> int:
        return sum(comb(self.code.cols, k) for k in range(1, self.max_a + 1))

    def failure(self) -> Outcome:
        return Outcome(self.subsets(), self.subsets(), 0, 0, "")

    def check(self, i: int, raw) -> Outcome:
        rc, text = raw
        if rc != 0:
            return self.failure()
        subsets = self.subsets()
        summary = parse_blocks(text).get("enumerate", {})
        if summary.get("truncated") != "no":
            raise CheckError("enumeration was truncated")
        if int(summary["subsets_examined"]) != subsets:
            raise CheckError(f"examined {summary['subsets_examined']} subsets, expected {subsets}")
        found = {
            tuple(sorted(int(v) - 1 for v in line.split("vns=")[1].split()[0].split(",")))
            for line in text.splitlines()
            if line.startswith("kind=") and " vns=" in line
        }
        if len(found) != int(summary["found"]):
            raise CheckError("found count disagrees with the target records")
        missing = [obj for obj in self.code.objects if obj not in found]
        if missing:
            raise CheckError(f"planted objects not found: {missing}")
        out_digest = digest(text)
        if self.first is None:
            self.first = out_digest
        elif out_digest != self.first:
            raise CheckError("a repeated enumerate call gave different output")
        return Outcome(subsets, 0, 0, 0, out_digest)

    def finish(self) -> tuple[int, int]:
        """Remove each planted object the scan found: (removed, changes).

        The scan removes nothing; this gives the workload its change count,
        from the objects its own output lists, outside the timed calls.
        """
        code = self.code
        graph = config.CodeGraph(code.rows, code.cols, code.gamma, code.field, code.weights)
        changes = 0
        for obj in code.objects:
            cfg = graph.induce(obj)
            wcms = wcmtree.extract_wcms(cfg, wcmtree.build_tree(cfg))
            plan = removal.remove_object(cfg, wcms)
            check_plan(cfg, wcms, plan)
            changes += len(plan.changes)
        return len(code.objects), changes


def make(name: str, seed: int):
    if name == "remove_gf8":
        return RemoveWorkload(name, seed, pool=24)
    if name == "remove_gf16":
        return RemoveWorkload(name, seed, pool=200)
    if name == "optimize_code":
        return OptimizeWorkload(seed)
    if name == "enumerate_scan":
        return EnumerateWorkload(seed)
    raise KeyError(name)


#: Calls an untraced run makes at least, whatever ``--seconds`` says:
#: remove_gf16 needs 110 objects so that ten samples lie beyond its p90.
MIN_CALLS = {"remove_gf8": 3, "remove_gf16": 110, "optimize_code": 3, "enumerate_scan": 3}

NAMES = tuple(MIN_CALLS)
