"""Unlabeled search tree over simultaneously-unsatisfiable degree-2 CNs.

In the paper's tree a root-to-node path is an ordered set of degree-2 CNs
that can be unsatisfied together while the object keeps its class.  Every
ordering of such a set is also a path, so a set of size j stands for j!
nodes and the paper's counts divide by j!.  Here the tree is that set
family: each flippable CN set, sorted, maps to the CNs that can join it.
Leaf sets (plus the always-removed degree-1 rows) yield the weight
consistency matrices (WCMs), the minimum matrix family the removal step
has to operate on; all sets together are the t' submatrices of the
suboptimal family.  The same-size and u-symmetric counting functions
evaluate the paper's closed forms from the set counts so formula and
construction can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Mapping, Sequence

from .config import (
    Configuration,
    ConfigurationError,
    TopoClass,
    allowance,
    classify_unlabeled,
)


class TreeError(Exception):
    pass


class WrongTreeShapeError(TreeError):
    pass


class USymmetryViolationError(TreeError):
    pass


@dataclass(frozen=True)
class UnlabeledTree:
    """The tree as its set family, in lexicographic order from the root ``()``.

    ``family`` maps each sorted flippable CN set to the CNs that can join it,
    ascending; a leaf set, or one at the depth cap, maps to ``()``.
    """

    mode: str  # the family: 'gast' or 'ost'
    loop_max: int
    family: dict[tuple[int, ...], tuple[int, ...]]
    b_et: int
    b_st: int

    @property
    def u0(self) -> int:
        return len(self.family[()])

    def leaf_sets(self) -> list[tuple[int, ...]]:
        return [s for s, pool in self.family.items() if not pool]

    def level_node_counts(self) -> list[int]:
        """Ordered nodes per level: j! orderings of each set of size j."""
        counts = [0] * (self.b_et + 1)
        for s in self.family:
            counts[len(s)] += factorial(len(s))
        return counts

    def u_profile(self) -> tuple[int, ...] | None:
        """Per-level child count when it is uniform across the level, else None."""
        us: dict[int, set[int]] = {}
        for s, pool in self.family.items():
            us.setdefault(len(s), set()).add(len(pool))
        profile = [us[level] for level in range(self.b_et)]
        if any(len(u) != 1 for u in profile):
            return None
        return tuple(u.pop() for u in profile)


def build_tree(c: Configuration, mode: str = "gast") -> UnlabeledTree:
    """``grow_tree`` on a configuration's degree-2 checks, degree-1 counts and class."""
    pairs = {cn: tuple(v for v, _ in c.cn_neighbors[cn]) for cn in sorted(c.deg2_cns)}
    return grow_tree(pairs, c.vn_deg1_counts, classify_unlabeled(c), c.gamma, mode)


def grow_tree(
    pairs: Mapping[int, tuple[int, int]],
    vn_deg1_counts: Sequence[int],
    topo: TopoClass,
    gamma: int,
    mode: str = "gast",
) -> UnlabeledTree:
    """Construct the unlabeled tree of an object from what its set walk reads.

    ``pairs`` maps each degree-2 CN, ascending, to its two VNs;
    ``vn_deg1_counts`` holds each VN's number of degree-1 CNs and ``topo``
    is the object's unlabeled class.  ``mode`` is 'gast' or 'ost', whose
    depth is the degree bound b_ut or b_o_ut, or a GAST subclass with a
    narrower family: 'eas' caps the depth at 0 (b = d1, no degree-2 CN
    ever unsatisfied) and 'bast' at floor(a*g/2) - d1 (at most
    floor(a*g/2) unsatisfied CNs in total).  The tree's ``mode`` is the
    family, 'gast' or 'ost'.  Each set is visited once, in lexicographic
    order; b_et is the largest set size, b_st the smallest leaf set size.
    """
    if mode not in ("gast", "ost", "eas", "bast"):
        raise ValueError(f"unknown mode {mode!r}")
    kind = "ost" if mode == "ost" else "gast"
    if not topo.supports(mode):
        raise ConfigurationError(f"configuration is not an unlabeled {kind}")
    loop_max = topo.b_o_ut if kind == "ost" else topo.b_ut
    top = allowance(gamma, kind)
    capped = mode in ("eas", "bast")
    if mode == "eas":
        loop_max = 0
    elif mode == "bast":
        loop_max = min(loop_max, max(0, len(vn_deg1_counts) * top // 2 - sum(vn_deg1_counts)))

    # Depth-first with an explicit stack, keeping each VN's unsatisfied count
    # for the current set: a CN's two VNs gain one on entering it and lose it
    # on leaving.  Counts only grow as a set grows, so a set's partner pool is
    # filtered from its parent's; a sorted set grows only by partners above
    # its last CN, so each set is entered once.
    unsat = list(vn_deg1_counts)
    path: list[int] = []
    family: dict[tuple[int, ...], tuple[int, ...]] = {}
    # (cn, its parent's pool) enters cn, the root as cn -1; (cn, None) leaves cn
    todo: list[tuple[int, tuple[int, ...] | None]] = [(-1, tuple(pairs))]
    while todo:
        cn, pool = todo.pop()
        if pool is None:
            path.pop()
            x, y = pairs[cn]
            unsat[x] -= 1
            unsat[y] -= 1
            continue
        if cn >= 0:
            path.append(cn)
            x, y = pairs[cn]
            unsat[x] += 1
            unsat[y] += 1
            todo.append((cn, None))
        pool = tuple(
            p for p in pool if p != cn and unsat[pairs[p][0]] < top and unsat[pairs[p][1]] < top
        )
        if len(path) < loop_max:
            family[tuple(path)] = pool
            todo.extend((p, pool) for p in reversed(pool) if p > cn)
        elif pool and not capped:
            # the degree bound guarantees no partner survives this deep
            raise TreeError(f"flippable partner beyond the degree bound at path {tuple(path)}")
        else:
            family[tuple(path)] = ()
    b_et = max(len(s) for s in family)
    b_st = min(len(s) for s, pool in family.items() if not pool)
    return UnlabeledTree(mode=kind, loop_max=loop_max, family=family, b_et=b_et, b_st=b_st)


@dataclass(frozen=True)
class WcmRecord:
    """One consistency matrix, named by the rows it removes from A.

    The tree fixes the rows; the weights come from whichever labeled
    configuration the matrix is taken from.
    """

    removed_rows: tuple[int, ...]   # sorted CN indices: degree-1 rows plus the group
    deg2_group: tuple[int, ...]     # sorted degree-2 part only


@dataclass(frozen=True)
class WcmSet:
    """The WCM family: t records, one per leaf set, out of the tree's t' sets."""

    wcms: tuple[WcmRecord, ...]
    t: int
    t_prime: int
    kind: str

    def rebuilt(self, c: Configuration) -> "WcmSet":
        """This set: records hold no weights, so re-weighting leaves nothing to rebuild.

        Kept for the benchmark harness, which still calls it.
        """
        return self


def extract_wcms(c: Configuration, tree: UnlabeledTree) -> WcmSet:
    """The minimum consistency-matrix family: one record per leaf set.

    Each record removes a leaf set's CNs plus all degree-1 CNs from the
    adjacency matrix.  Records follow the family's lexicographic order of
    their sorted degree-2 group, so indices are stable across runs.
    """
    records = tuple(
        WcmRecord(tuple(sorted(c.deg1_cns.union(group))), group) for group in tree.leaf_sets()
    )
    return WcmSet(
        wcms=records,
        t=len(records),
        t_prime=len(tree.family),
        kind=tree.mode,
    )


def count_wcms_same_size(tree: UnlabeledTree) -> int:
    """Count for trees whose leaves all sit at the deepest level."""
    depths = {len(s) for s in tree.leaf_sets()}
    if depths != {tree.b_et}:
        raise WrongTreeShapeError(
            f"leaves at depths {sorted(depths)}; same-size form needs all at {tree.b_et}"
        )
    return sum(1 for s in tree.family if len(s) == tree.b_et)


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


def z_family(c: Configuration, tree: UnlabeledTree) -> tuple[tuple[int, ...], ...]:
    """Parameter tuples (a, b', d1, d2, d3) for d1 <= b' <= d1 + b_et."""
    return tuple(
        (c.num_vns, b, c.d1, c.d2, c.d3) for b in range(c.d1, c.d1 + tree.b_et + 1)
    )
