"""Unlabeled search tree over simultaneously-unsatisfiable degree-2 CNs.

Each tree node is a degree-2 CN; a root-to-node path is an ordered set of
degree-2 CNs that can be unsatisfied together while the object keeps its
class.  Leaves (plus the always-removed degree-1 rows) yield the weight
consistency matrices (WCMs); deduplicating the leaf row-sets gives the
minimum matrix family the removal step has to operate on.  The counting
functions evaluate that family's size directly from the tree profile so
formula and construction can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterator

from .config import (
    Configuration,
    ConfigurationError,
    allowance,
    classify_unlabeled,
)
from .gflinalg import GfMatrix


class TreeError(Exception):
    pass


class WrongTreeShapeError(TreeError):
    pass


class USymmetryViolationError(TreeError):
    pass


@dataclass(frozen=True)
class UnlabeledTree:
    """Materialized tree: child CN lists keyed by the ordered path from the root."""

    mode: str  # the family: 'gast' or 'ost'
    loop_max: int
    children: dict[tuple[int, ...], tuple[int, ...]]
    b_et: int
    b_st: int

    def u(self, path: tuple[int, ...]) -> int:
        return len(self.children.get(path, ()))

    @property
    def u0(self) -> int:
        return self.u(())

    def paths(self) -> Iterator[tuple[int, ...]]:
        """All node paths, root first, in deterministic DFS order."""
        stack = [()]
        while stack:
            path = stack.pop()
            yield path
            for child in reversed(self.children.get(path, ())):
                stack.append(path + (child,))

    def leaves(self) -> list[tuple[int, ...]]:
        return [p for p in self.paths() if not self.children.get(p)]

    def nodes_at_level(self, level: int) -> list[tuple[int, ...]]:
        return [p for p in self.paths() if len(p) == level]

    def level_node_counts(self) -> list[int]:
        counts = [0] * (self.b_et + 1)
        for p in self.paths():
            counts[len(p)] += 1
        return counts

    def u_profile(self) -> tuple[int, ...] | None:
        """Per-level child count when it is uniform across the level, else None."""
        profile = []
        for level in range(self.b_et):
            us = {self.u(p) for p in self.nodes_at_level(level)}
            if len(us) != 1:
                return None
            profile.append(us.pop())
        return tuple(profile)


def build_tree(c: Configuration, mode: str = "gast") -> UnlabeledTree:
    """Construct the unlabeled tree for a configuration.

    ``mode`` is 'gast' or 'ost', whose depth is the degree bound b_ut or
    b_o_ut, or a GAST subclass with a narrower family: 'eas' caps the depth
    at 0 (b = d1, no degree-2 CN ever unsatisfied) and 'bast' at
    floor(a*g/2) - d1 (at most floor(a*g/2) unsatisfied CNs in total).  The
    tree's ``mode`` is the family, 'gast' or 'ost'.  Children are generated
    in ascending CN-index order for determinism; b_et is the deepest level
    attained, b_st the shallowest leaf depth.
    """
    if mode not in ("gast", "ost", "eas", "bast"):
        raise ValueError(f"unknown mode {mode!r}")
    kind = "ost" if mode == "ost" else "gast"
    topo = classify_unlabeled(c)
    if not topo.supports(mode):
        raise ConfigurationError(f"configuration is not an unlabeled {kind}")
    loop_max = topo.b_o_ut if kind == "ost" else topo.b_ut
    top = allowance(c.gamma, kind)
    capped = mode in ("eas", "bast")
    if mode == "eas":
        loop_max = 0
    elif mode == "bast":
        loop_max = min(loop_max, max(0, c.num_vns * top // 2 - c.d1))

    # Depth-first with an explicit stack, keeping each VN's unsatisfied count
    # for the current path: a CN's two VNs gain one on entering it and lose
    # it on leaving.  Counts only grow down the path, so a node's partners
    # are among its parent's.
    pairs = {cn: [v for v, _ in c.cn_neighbors[cn]] for cn in sorted(c.deg2_cns)}
    unsat = list(c.vn_deg1_counts)
    path: list[int] = []
    children: dict[tuple[int, ...], tuple[int, ...]] = {}
    b_et = 0
    leaf_depths: list[int] = []
    # (cn, its parent's partners) enters cn, the root as cn None; (cn, None) leaves cn
    todo: list[tuple[int | None, tuple[int, ...] | None]] = [(None, tuple(pairs))]
    while todo:
        cn, pool = todo.pop()
        if pool is None:
            path.pop()
            for v in pairs[cn]:
                unsat[v] -= 1
            continue
        if cn is not None:
            path.append(cn)
            for v in pairs[cn]:
                unsat[v] += 1
            todo.append((cn, None))
        depth = len(path)
        b_et = max(b_et, depth)
        partners = tuple(
            p for p in pool if p != cn and all(unsat[v] < top for v in pairs[p])
        )
        if depth >= loop_max:
            if not capped and partners:
                # the degree bound guarantees no partner survives this deep
                raise TreeError(
                    f"flippable partner beyond the degree bound at path {tuple(path)}"
                )
            leaf_depths.append(depth)
        elif not partners:
            leaf_depths.append(depth)
        else:
            children[tuple(path)] = partners
            todo.extend((p, partners) for p in reversed(partners))
    b_st = min(leaf_depths)
    return UnlabeledTree(mode=kind, loop_max=loop_max, children=children, b_et=b_et, b_st=b_st)


@dataclass(frozen=True)
class WcmRecord:
    """One consistency matrix: the rows removed from A, and what remains."""

    removed_rows: tuple[int, ...]   # sorted CN indices: degree-1 rows plus the group
    deg2_group: tuple[int, ...]     # sorted degree-2 part only
    matrix: GfMatrix


@dataclass(frozen=True)
class WcmSet:
    wcms: tuple[WcmRecord, ...]
    t: int
    t_prime: int
    kind: str
    b_st: int
    b_et: int

    def rebuilt(self, c: Configuration) -> "WcmSet":
        """Same removal groups re-extracted from a re-weighted configuration."""
        a = c.adjacency()
        new = tuple(
            WcmRecord(w.removed_rows, w.deg2_group, a.drop_rows(w.removed_rows))
            for w in self.wcms
        )
        return WcmSet(new, self.t, self.t_prime, self.kind, self.b_st, self.b_et)


def extract_wcms(c: Configuration, tree: UnlabeledTree) -> WcmSet:
    """Deduplicate leaf row-groups into the minimum consistency-matrix family.

    Every leaf removes its path's degree-2 CNs plus all degree-1 CNs from the
    adjacency matrix; two leaves whose paths permute the same CN set collapse
    to one record.  Records are ordered lexicographically by their sorted
    degree-2 group so indices are stable across runs.
    """
    a = c.adjacency()
    o_rows = tuple(sorted(c.deg1_cns))
    groups = {tuple(sorted(path)) for path in tree.leaves()}
    records = []
    for group in sorted(groups):
        removed = tuple(sorted(set(group) | set(o_rows)))
        records.append(WcmRecord(removed, group, a.drop_rows(removed)))
    t_prime, _ = count_suboptimal(tree)
    return WcmSet(
        wcms=tuple(records),
        t=len(records),
        t_prime=t_prime,
        kind=tree.mode,
        b_st=tree.b_st,
        b_et=tree.b_et,
    )


def count_wcms_general(tree: UnlabeledTree) -> int:
    """Distinct-matrix count evaluated from the tree profile.

    Leaves at depth k each appear k! times (one per ordering of the same CN
    set), so the distinct count is the leaf count per depth divided by k!,
    summed over depths.  A childless root means the single matrix that drops
    only the degree-1 rows.
    """
    if tree.b_et == 0:
        return 1
    per_depth: dict[int, int] = {}
    for leaf in tree.leaves():
        per_depth[len(leaf)] = per_depth.get(len(leaf), 0) + 1
    total = 0
    for depth, count in per_depth.items():
        if count % factorial(depth) != 0:
            raise TreeError(
                f"leaf count {count} at depth {depth} is not divisible by {depth}!"
            )
        total += count // factorial(depth)
    return total


def count_wcms_same_size(tree: UnlabeledTree) -> int:
    """Count for trees whose leaves all sit at the deepest level."""
    depths = {len(p) for p in tree.leaves()}
    if depths != {tree.b_et}:
        raise WrongTreeShapeError(
            f"leaves at depths {sorted(depths)}; same-size form needs all at {tree.b_et}"
        )
    if tree.b_et == 0:
        return 1
    full = len(tree.nodes_at_level(tree.b_et))
    return full // factorial(tree.b_et)


def count_wcms_u_symmetric(u_profile: "list[int] | tuple[int, ...]") -> int:
    """Closed form for uniform per-level child counts: prod(u)/b_et!."""
    profile = tuple(u_profile)
    if not profile or any(u <= 0 for u in profile):
        raise USymmetryViolationError("profile must be positive")
    for earlier, later in zip(profile, profile[1:]):
        if later >= earlier:
            raise USymmetryViolationError("profile must be strictly decreasing")
    num = 1
    for u in profile:
        num *= u
    denom = factorial(len(profile))
    if num % denom != 0:
        raise USymmetryViolationError(
            f"product {num} not divisible by {len(profile)}!; profile is not u-symmetric"
        )
    return num // denom


def count_suboptimal(tree: UnlabeledTree) -> tuple[int, int]:
    """Size of the full distinct-submatrix family, and the saving over WCMs.

    Every tree node (the root included) is linked to one matrix; level-j node
    counts divide by j! to deduplicate orderings, and the root contributes
    the drop-degree-1-rows-only matrix.  The reduction is that total minus
    the WCM count.
    """
    counts = tree.level_node_counts()
    t_prime = 1
    for level in range(1, tree.b_et + 1):
        n = counts[level]
        if n % factorial(level) != 0:
            raise TreeError(
                f"node count {n} at level {level} is not divisible by {level}!"
            )
        t_prime += n // factorial(level)
    t = count_wcms_general(tree)
    return t_prime, t_prime - t


def b_max(c: Configuration, tree: UnlabeledTree) -> int:
    """Largest unsatisfied-CN count over the family: d1 + b_et."""
    return c.d1 + tree.b_et


def z_family(c: Configuration, tree: UnlabeledTree) -> tuple[tuple[int, ...], ...]:
    """Parameter tuples (a, b', d1, d2, d3) for d1 <= b' <= b_max."""
    top = b_max(c, tree)
    return tuple(
        (c.num_vns, b, c.d1, c.d2, c.d3) for b in range(c.d1, top + 1)
    )
