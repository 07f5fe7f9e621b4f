"""Labeled-object analysis and removal.

Membership of a labeled configuration in its removal family is certified by
the consistency matrices: the object is present exactly when some matrix
still has a full-support vector in its null space.  Removal searches for
the smallest set of degree-2 edge re-weightings that breaks every matrix at
once, and the full-code optimizer replays that per object while protecting
earlier removals that share edges.  ``enumerate_code`` lists the family
members among a code's small VN subsets.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field as dataclass_field, fields, replace
from functools import reduce
from math import comb
from operator import and_, xor
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import workers
from .config import (
    CodeGraph,
    Configuration,
    NotApplicableError,
    allowance,
    classify_unlabeled,
    keeps_majority,
)
from .gf import FieldContext
from .gflinalg import (
    DEFAULT_SUPPORT_CAP,
    SearchTooLargeError,
    check_search_size,
    eliminate,
    null_basis,
    null_space,  # noqa: F401 -- the benchmark harness's tests read removal.null_space
    support_scan,
)
from .wcmtree import UnlabeledTree, WcmSet, build_tree, extract_wcms, grow_tree

DEFAULT_ORACLE_CAP = 10_000_000
DEFAULT_BUDGET = 200_000  # subsets ``enumerate_code`` examines
EXTRA_CHANGES = 2  # set sizes tried beyond the topological bound


class RemovalError(Exception):
    pass


class OracleTooLargeError(RemovalError):
    pass


@dataclass(frozen=True)
class WcmCondition:
    """Null-space verdict for one consistency matrix."""

    removed_rows: tuple[int, ...]
    deg2_group: tuple[int, ...]
    broken: bool
    p: int
    witness: tuple[int, ...] | None
    delta: int
    component_dims: tuple[int, ...]


@dataclass(frozen=True)
class WeightConditionReport:
    records: tuple[WcmCondition, ...]

    @property
    def all_broken(self) -> bool:
        return all(r.broken for r in self.records)

    def unbroken_indices(self) -> tuple[int, ...]:
        """1-based positions of matrices whose conditions still hold."""
        return tuple(i + 1 for i, r in enumerate(self.records) if not r.broken)


def _components(count: int, links: Iterable[Sequence[int]]) -> list[list[int]]:
    """Connected components of 0..count-1, each link joining the indices it lists.

    Each component ascending, components ordered by their smallest index.
    """
    parent = list(range(count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for link in links:
        for v in link[1:]:
            ra, rb = find(link[0]), find(v)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for v in range(count):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


class _Reduced(NamedTuple):
    """One reduced matrix of a ``_ColumnMembership``, built whole by ``_reduce``.

    Packed P x, the multiples of P e_r per kept changeable row r and the
    multiples of each vector of null(B)'s basis.
    """

    tx: int
    terms: dict[int, list[int]]
    null_multiples: list[list[int]]


def _pack_rows(rows: Sequence[tuple[int, ...]], vn: int, field: FieldContext) -> list[int]:
    """Row tuples packed in ``_ColumnMembership``'s layout: B's columns, then column ``vn`` as x."""
    scan = support_scan(field, len(rows[0]))
    return [scan.pack(row[:vn] + row[vn + 1 :] + (row[vn],)) for row in rows]


class _ColumnMembership:
    """The one membership test: the first matrix with unbroken conditions.

    ``packed`` holds an adjacency matrix's rows over ``ncols`` columns, B's
    ncols - 1 columns in the first slots and x in the next one (see
    ``_pack_rows``).  The kernel's layouts are its own: ``scan`` spans B,
    and ``wide`` spans B, x and one slot per row.  Each group lists the
    rows one matrix drops.  ``first_unbroken(deltas)`` judges the rows
    with ``deltas[cn]`` added to column vn at row cn, for rows in
    ``changeable``.  Matrices are tried in group order up to the first
    unbroken one, so a support-cap overrun raises only on a matrix the scan
    reaches.  None means every matrix is broken.

    Each matrix is [B | x] up to column order, B the kept rows without
    column vn and x that column.  A full-support null vector has a nonzero
    entry at vn; scaled to 1 it is y with B y = x and y of full support.
    The rows are packed once, B's columns in the first slots and x after
    them.  When the scan first reaches a matrix, one ``eliminate`` over
    B's columns turns the kept rows of [B | x | e_r for r in changeable]
    into P [B | x | e_r], P the transform that takes B to its reduced
    row-echelon form, and the whole reduced matrix is built then.  P x
    nonzero below the rank means x is outside B's column space and the
    matrix is broken; otherwise y0 is read off P x and the matrix is
    unbroken iff some y0 + n, n in null(B), has full support.  A delta
    moves P x by delta P e_r.  Any transform T with T B reduced gives the
    same verdicts: T = S P with S = [[I, *], [0, invertible]], so T x
    vanishes below the rank exactly when P x does, and then the upper
    parts agree.  P x and P e_r are packed ints: the entries of the pivot
    rows in the slots of their pivot columns, so P x holds y0, and the rows
    below the rank in the slots after B's.
    """

    def __init__(
        self,
        packed: Sequence[int],
        ncols: int,
        field: FieldContext,
        groups: Sequence[Sequence[int]],
        support_cap: int,
        changeable: frozenset[int],
    ):
        self.packed, self.groups, self.support_cap, self.changeable = packed, groups, support_cap, changeable
        self.scan, self.wide = support_scan(field, ncols - 1), support_scan(field, ncols + len(packed))
        self.reduced: list[_Reduced | None] = [None] * len(groups)

    def _reduce(self, group: Sequence[int]) -> _Reduced:
        n, scan, wide = self.scan.length, self.scan, self.wide
        kept = [r for r in range(len(self.packed)) if r not in group]
        units = [r for r in kept if r in self.changeable]
        slot = {u: n + 1 + i for i, u in enumerate(units)}
        rows = [self.packed[r] | (1 << wide.width * slot[r] if r in slot else 0) for r in kept]
        pivots = eliminate(rows, n, wide)
        slots = pivots + list(range(n, n + len(rows) - len(pivots)))
        terms = {u: wide.multiples(wide.column(rows, s, slots)) for u, s in slot.items()}
        null_multiples = [scan.multiples(b) for b in null_basis(rows, pivots, n, wide)]
        return _Reduced(wide.column(rows, n, slots), terms, null_multiples)

    def first_unbroken(self, deltas: Mapping[int, int]) -> int | None:
        """Position of the first unbroken matrix with ``deltas[cn]`` added at row cn."""
        hit = self.first_solution(deltas)
        return None if hit is None else hit[0]

    def first_solution(
        self, deltas: Mapping[int, int], order: Sequence[int] | None = None
    ) -> tuple[int, int] | None:
        """(position, y) for the first unbroken matrix, as ``first_unbroken`` finds it.

        y is packed over B's columns, has full support and solves B y = x,
        so y with a 1 at vn is a full-support null vector of the matrix.
        ``order`` lists the positions to try, in the order to try them; by
        default every matrix in group order.
        """
        if not self.changeable.issuperset(deltas):
            raise ValueError(f"rows {sorted(set(deltas) - self.changeable)} are not changeable")
        scan = self.scan
        shift = scan.width * scan.length
        for i, group in enumerate(self.groups) if order is None else ((i, self.groups[i]) for i in order):
            m = self.reduced[i]
            if m is None:
                m = self.reduced[i] = self._reduce(group)
            tx, terms, null_multiples = m
            for cn, delta in deltas.items():
                if cn in terms:
                    tx ^= terms[cn][delta]
            solvable = not tx >> shift
            check_search_size(len(null_multiples) + solvable, self.support_cap)
            if solvable:
                y = scan.first(tx, null_multiples)
                if y is not None:
                    return i, y
        return None


def _add_deltas(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """Row deltas ``a`` plus ``b``, row by row."""
    return {cn: a.get(cn, 0) ^ b.get(cn, 0) for cn in a.keys() | b.keys()}


class _ObjectColumns:
    """One object's record: its ids, its WCMs and its column kernels.

    The kernels work on the object's adjacency rows as re-weighted so far.
    The rows start as ``c``'s and the matrices are ``w``'s removal groups;
    ``vn_ids`` and ``cn_ids`` are ``c``'s graph ids (None when ``c`` was
    not induced from a graph) and ``wcms`` is ``w``.  ``kernels[vn]`` is a
    ``_ColumnMembership`` with column vn as x and every row at vn
    changeable, and the row deltas column vn has taken since the kernel's
    rows were packed; its other columns are as packed.
    ``first_unbroken(vn, deltas)`` judges the rows with ``deltas`` added to
    column vn, packing the kernel at vn from ``rows`` on first use.  Every
    choice of x gives each matrix the same verdict and the same null-space
    dimension, dim null(B) + [x in B's column space], so any column answers
    as ``is_in_Z`` does, support-cap overruns included.
    """

    def __init__(self, c: Configuration, w: WcmSet, support_cap: int):
        self.rows = list(c.adjacency())
        self.field, self.support_cap = c.field, support_cap
        self.vn_ids, self.cn_ids, self.wcms = c.vn_ids, c.cn_ids, w
        self.groups = [rec.removed_rows for rec in w.wcms]
        self.kernels: dict[int, tuple[_ColumnMembership, dict[int, int]]] = {}

    def moved(self, changes: Mapping[tuple[int, int], int]) -> tuple[int, dict[int, int]]:
        """The column and row deltas of ``changes`` to graph edges at one of the object's VNs."""
        vn, deltas = -1, {}
        for (cn, v), wt in changes.items():
            vn, row = self.vn_ids.index(v), self.cn_ids.index(cn)
            deltas[row] = self.rows[row][vn] ^ wt
        return vn, deltas

    def first_unbroken(self, vn: int, deltas: Mapping[int, int]) -> int | None:
        """Position of the first unbroken matrix with ``deltas[cn]`` added at (cn, vn)."""
        if vn not in self.kernels:
            packed = _pack_rows(self.rows, vn, self.field)
            changeable = frozenset(cn for cn, row in enumerate(self.rows) if row[vn])
            kernel = _ColumnMembership(packed, len(self.rows[0]), self.field, self.groups, self.support_cap,
                                       changeable)
            self.kernels[vn] = kernel, {}
        kernel, held = self.kernels[vn]
        return kernel.first_unbroken(_add_deltas(held, deltas) if held else deltas)

    def fold(self, vn: int, deltas: Mapping[int, int]) -> None:
        """Add accepted ``deltas`` to column vn: to the rows and to the kernel at vn.

        Every other kernel has column vn in B as packed, so it is dropped.
        """
        for cn, delta in deltas.items():
            row = self.rows[cn]
            self.rows[cn] = row[:vn] + (row[vn] ^ delta,) + row[vn + 1 :]
        kernel, held = self.kernels.get(vn, (None, {}))
        self.kernels = {} if kernel is None else {vn: (kernel, _add_deltas(held, deltas))}

    def in_family(self, c: Configuration) -> bool:
        """``is_in_Z(c, self.wcms, self.support_cap)``, on a kept kernel when ``c`` has its B.

        ``c`` is the object re-induced from a graph.  Its rows are packed
        with the column of the first kernel kept as x.  When every packed
        row equals the kernel's in B's slots and x differs only at the
        kernel's changeable rows, the kernel's reductions are this B's, and
        x's deltas against the kernel's packed x, read from ``c`` alone, are
        judged on them; otherwise ``is_in_Z`` answers.  The verdict and any
        support-cap overrun are ``is_in_Z``'s: every choice of x gives each
        matrix dim null(B) + [x in B's column space].  In ``optimize_code``
        a kernel is always kept: every fold at a column u follows a
        protected check, or the removal's own search, that packed the
        kernel at u, and ``fold`` keeps it.  The kernel route shares the
        unit-column arithmetic of ``_ColumnMembership._reduce`` with the
        search instead of recomputing it with x riding along; the kernel's
        tests against the dense references cover that arithmetic.
        """
        if not self.kernels or (c.num_cns, c.num_vns) != (len(self.rows), len(self.rows[0])):
            return is_in_Z(c, self.wcms, self.support_cap)
        vn, (kernel, _) = next(iter(self.kernels.items()))
        shift = kernel.scan.width * kernel.scan.length  # B's slots lie below, x's at it
        diffs = [p ^ k for p, k in zip(_pack_rows(c.adjacency(), vn, self.field), kernel.packed)]
        deltas = {cn: d >> shift for cn, d in enumerate(diffs) if d}
        if any(d & ((1 << shift) - 1) for d in diffs) or not kernel.changeable.issuperset(deltas):
            return is_in_Z(c, self.wcms, self.support_cap)
        return kernel.first_unbroken(deltas) is not None


def evaluate_weight_conditions(
    c: Configuration, w: WcmSet, support_cap: int = DEFAULT_SUPPORT_CAP
) -> WeightConditionReport:
    """Full-support verdict, null-space dimension and component split for every matrix.

    This is the full diagnostic behind ``analyze``, which prints each
    matrix's status, dimensions and witness; yes/no membership, ``verify``'s
    included, goes through ``is_in_Z``, which stops at the first unbroken
    matrix.  The matrices are ``w``'s removal groups taken from ``c``'s own
    weights, each judged on the same ``_ColumnMembership`` reduction as in
    ``is_in_Z``, with the last column as x.  So p = dim null([B | x]) =
    dim null(B) + [x in B's column space], and a witness is y with a 1 at
    the last VN, where B y = x.  The component split of the residual graph
    (all VNs plus the kept CNs) is computed alongside: p always equals the
    sum of per-component dimensions, and for an unbroken matrix every
    component contributes at least 1.
    """
    a, field = c.num_vns, c.field
    packed = _pack_rows(c.adjacency(), a - 1, field)
    column = _ColumnMembership(packed, a, field, [rec.removed_rows for rec in w.wcms], support_cap, frozenset())
    shift, full = column.scan.width * (a - 1), support_scan(field, a)
    records = []
    for i, rec in enumerate(w.wcms):
        hit = column.first_solution({}, (i,))
        tx, _, null_multiples = column.reduced[i]
        p = len(null_multiples) + (not tx >> shift)
        removed = set(rec.removed_rows)
        kept = [r for r in range(c.num_cns) if r not in removed]
        comps = _components(a, ([v for v, _ in c.cn_neighbors[r]] for r in kept))
        # A component's rows are zero outside its columns, so their rank is
        # the rank of the component's own matrix, in any column order.
        dims = [
            len(comp) - len(eliminate([packed[r] for r in kept if c.cn_neighbors[r][0][0] in comp], a, full))
            for comp in comps
        ]
        if sum(dims) != p:
            raise AssertionError(f"component dimensions {dims} do not sum to {p}")
        records.append(
            WcmCondition(
                removed_rows=rec.removed_rows,
                deg2_group=rec.deg2_group,
                broken=hit is None,
                p=p,
                witness=None if hit is None else column.scan.unpack(hit[1]) + (1,),
                delta=len(comps),
                component_dims=tuple(dims),
            )
        )
    return WeightConditionReport(tuple(records))


def is_in_Z(
    c: Configuration, w: WcmSet, support_cap: int = DEFAULT_SUPPORT_CAP
) -> bool:
    """Family membership: true iff some matrix has unbroken conditions.

    The matrices are ``w``'s removal groups taken from ``c``'s own weights,
    tried in order up to the first unbroken one, so a support-cap overrun
    raises only on a matrix the test reaches.  It is ``_ColumnMembership``
    with no changeable rows; with the last column as x, [B | x] is the
    adjacency rows as they stand.
    """
    groups = [rec.removed_rows for rec in w.wcms]
    packed = _pack_rows(c.adjacency(), c.num_vns - 1, c.field)
    column = _ColumnMembership(packed, c.num_vns, c.field, groups, support_cap, frozenset())
    return column.first_unbroken({}) is not None


def smallest_b_on_rows(
    rows: Sequence[int],
    deg1_rows: Sequence[int],
    tree: UnlabeledTree,
    ncols: int,
    field: FieldContext,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> tuple[int, tuple[int, ...]] | None:
    """Smallest b over ``tree``'s family and an assignment attaining it; None when out of it.

    ``rows`` are an object's adjacency rows over ``ncols`` columns, packed
    in ``_ColumnMembership``'s layout with x its last column, and
    ``deg1_rows`` its degree-1 rows.  One matrix per flippable set: the
    rows without the degree-1 rows and the set's.  Sets are tried by size,
    in the family's lexicographic order within a size, up to the first
    matrix with a full-support null vector, which is the witness.  Its
    unsatisfied checks are the degree-1 ones and a subset of the set;
    every subset of a flippable set is flippable and was tried first, so
    they are exactly the set's and b = d1 + its size is the smallest.  A
    support-cap overrun raises only on a matrix the walk reaches.

    The leaf sets' matrices (the WCMs) are judged first.  Every set S lies
    in some leaf set L, whose matrix drops more rows, so its null space
    holds S's and is at least as large.  So when every leaf's matrix is
    broken and none overruns the cap, no set's matrix is unbroken or
    overruns, and the object is out of the family.  Otherwise the walk by
    size runs as above, on the matrices already reduced.
    """
    sets = sorted(tree.family, key=len)
    groups = [tuple(sorted((*deg1_rows, *s))) for s in sets]
    column = _ColumnMembership(rows, ncols, field, groups, support_cap, frozenset())
    try:
        if column.first_solution({}, [i for i, s in enumerate(sets) if not tree.family[s]]) is None:
            return None
    except SearchTooLargeError:
        pass
    hit = column.first_solution({})
    if hit is None:
        return None
    i, y = hit
    return len(deg1_rows) + len(sets[i]), column.scan.unpack(y) + (1,)


def smallest_b(
    c: Configuration, tree: UnlabeledTree, support_cap: int = DEFAULT_SUPPORT_CAP
) -> tuple[int, tuple[int, ...]] | None:
    """``smallest_b_on_rows`` on a configuration's adjacency rows."""
    rows = _pack_rows(c.adjacency(), c.num_vns - 1, c.field)
    return smallest_b_on_rows(rows, sorted(c.deg1_cns), tree, c.num_vns, c.field, support_cap)


@dataclass(frozen=True)
class OracleResult:
    is_member: bool
    smallest_b: int | None
    witness: tuple[int, ...] | None
    unsatisfied: tuple[int, ...] | None  # the witness's unsatisfied CNs, ascending


def _scan(
    c: Configuration, cap: int, kind: str, satisfied: Iterable[int] = ()
) -> OracleResult:
    """First assignment, in product order, at the smallest b that keeps ``kind``'s majorities.

    Syndromes are ``SupportScan`` vectors over the CNs: an assignment's is one
    XOR of two half-sums, and the scan's carry moves the unsatisfied CNs into
    its guard bits.  The witness's unsatisfied CNs are the guard bits of its
    mask.

    A row is the assignments that share their first half.  Its unsatisfied
    masks not seen before are judged fewest CNs first, and only while their
    count is below the best b so far or equal to the first count that passes
    in the row; every other new mask is cached as a loser.  A judged mask that
    meets the guard bits of a CN in ``satisfied`` fails with one AND; any
    other is judged by ``keeps_majority`` on the worst VN's unsatisfied count.
    The cut is exact: best never rises, so a mask at or above it can never
    lower it, and a mask larger than a passing one in its row can be neither
    that row's first smallest nor below best afterwards.  Every mask at the
    row's smallest passing count is judged, so the witness is the first.
    """
    q, a, ell = c.field.q, c.num_vns, c.num_cns
    if (total := (q - 1) ** a) > cap:
        raise OracleTooLargeError(f"(q-1)^a = {total} assignments exceeds oracle cap {cap}")
    scan = support_scan(c.field, ell)
    carry, guards = scan.carry, scan.guards
    forbidden = sum(1 << scan.width * cn for cn in satisfied) << c.field.lam
    # x times column vn, for x = 1 .. q - 1: VN vn's syndrome term at value x
    terms = [scan.multiples(scan.pack(col))[1:] for col in zip(*c.adjacency())]
    head = [reduce(xor, vals, 0) for vals in itertools.product(*terms[: a // 2])]
    tail = [reduce(xor, vals, 0) for vals in itertools.product(*terms[a // 2 :])]
    vn_masks = [(t[0] + carry) & guards for t in terms]
    verdicts: dict[int, int] = {}
    best, where, won = ell + 1, 0, 0
    for i, p in enumerate(head):
        masks = [((p ^ t) + carry) & guards for t in tail]
        try:
            bs = list(map(verdicts.__getitem__, masks))
        except KeyError:  # judge each new unsatisfied set once, fewest CNs first
            cut = best
            for m in sorted(set(masks).difference(verdicts), key=int.bit_count):
                b = m.bit_count()
                if b < cut and not m & forbidden and keeps_majority(
                    c.gamma, (max(map(int.bit_count, map(and_, itertools.repeat(m), vn_masks))),), kind
                ):
                    verdicts[m], cut = b, b + 1
                else:
                    verdicts[m] = ell + 1
            bs = list(map(verdicts.__getitem__, masks))
        if min(bs) < best:
            j = bs.index(min(bs))
            best, where, won = bs[j], i * len(tail) + j, masks[j]
    if best > ell:
        return OracleResult(False, None, None, None)
    witness = tuple(where // (q - 1) ** k % (q - 1) + 1 for k in reversed(range(a)))
    unsatisfied = tuple(cn for cn in range(ell) if won >> scan.width * cn + c.field.lam & 1)
    return OracleResult(True, best, witness, unsatisfied)


def oracle_is_gas(
    c: Configuration, kind: str = "gas", cap: int = DEFAULT_ORACLE_CAP
) -> OracleResult:
    """Exhaustive ground truth: the smallest b over all nonzero assignments.

    An assignment counts when its unsatisfied CNs keep the per-VN majorities
    (strict for 'gas', weak with an equality for 'os'); a witness is returned.
    """
    if kind not in ("gas", "os"):
        raise ValueError(f"unknown oracle kind {kind!r}")
    return _scan(c, cap, kind)


def oracle_in_family(
    c: Configuration, kind: str = "gast", cap: int = DEFAULT_ORACLE_CAP
) -> OracleResult:
    """Structural family membership checked exhaustively.

    'gast': some assignment satisfies the strict per-VN majorities with all
    unsatisfied CNs of degree <= 2.  'ost': the same with weak majorities
    (the family deliberately spans both shapes, so equality is permitted but
    not required).  No cap on b is needed: the unsatisfied degree-2 set of
    such an assignment is a set of ``build_tree``'s family, so b is at most
    d1 + b_et.
    """
    if kind not in ("gast", "ost"):
        raise ValueError(f"unknown family kind {kind!r}")
    return _scan(c, cap, kind, c.high_cns)


def _e_bound(c: Configuration, kind: str) -> int:
    """Topological bound on the change count: allowance - d1_vn_max + 1."""
    return allowance(c.gamma, kind) - max(c.vn_deg1_counts) + 1


def compute_e_min(
    c: Configuration,
    kind: str = "gast",
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> tuple[int, int, bool]:
    """Minimum edge-change count and its topological bound.

    For the strict-majority family the minimum is g - b_vn_max + 1, with g
    the ``allowance`` and b_vn_max the most unsatisfied checks at one VN
    among those the oracle returns with its witness at the smallest b; when
    the oracle is infeasible the always-available bound g - d1_vn_max + 1
    doubles as the minimum estimate (third return value is False then).
    Oscillating objects always need exactly one change; their bound uses
    the weak allowance gamma/2.
    """
    bound = _e_bound(c, kind)
    if kind == "ost":
        return 1, bound, True
    try:
        oracle = oracle_is_gas(c, "gas", cap=oracle_cap)
    except OracleTooLargeError:
        return bound, bound, False
    if oracle.unsatisfied is None:  # not a member
        return bound, bound, False
    unsat = set(oracle.unsatisfied)
    b_vn_max = max(sum(cn in unsat for cn, _ in nbrs) for nbrs in c.vn_neighbors)
    return allowance(c.gamma, kind) - b_vn_max + 1, bound, True


def select_candidate_edges(
    c: Configuration, max_size: int, min_size: int = 1
) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    """Yield (vn, edge set) candidates in deterministic order.

    Selection follows the maximum-degree-1 rule: the VNs attaining the
    largest number of degree-1 neighbors come first (ascending index), and
    for each the subsets of its degree-2-CN edges, of ``min_size`` to
    ``max_size`` edges, are emitted smallest first, one edge per CN.  Edges
    on degree->2 CNs are never candidates, so a VN with none yields none.
    For oscillating objects the same rule lands on the topologically
    oscillating VNs automatically, since they attain the degree-1 maximum.
    """
    d1_counts = c.vn_deg1_counts
    d1_max = max(d1_counts)
    for v in (v for v, cnt in enumerate(d1_counts) if cnt == d1_max):
        edges = [(cn, v) for cn, _ in sorted(c.vn_neighbors[v]) if cn in c.deg2_cns]
        for size in range(max(1, min_size), max_size + 1):
            for combo in itertools.combinations(edges, size):
                yield v, combo


@dataclass(frozen=True)
class RemovalPlan:
    object_id: str
    kind: str
    result: str  # removed | unremovable | not_in_z
    e_min: int
    e_bound: int
    e_min_exact: bool  # False when e_min is the topological bound, not the oracle's
    selected_vn: int | None
    changes: tuple[tuple[int, int, int, int], ...]  # (cn, vn, old, new)
    candidates_tried: int = 0
    protected_checks: int = 0
    protected_rejections: int = 0


def remove_object(
    c: Configuration,
    w: WcmSet,
    protected_ok: Callable[[Mapping[tuple[int, int], int]], bool] | None = None,
    *,
    support_cap: int = DEFAULT_SUPPORT_CAP,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    object_id: str = "",
    columns: _ObjectColumns | None = None,
) -> RemovalPlan:
    """Search degree-2 edge re-weightings that break every matrix at once.

    Candidate edge sets and replacement weights are tried in a fixed order
    (ascending VN, CN, then integer weight encoding, old value skipped); the
    first assignment that breaks all matrices and keeps every protected
    object out of its family wins.  Set sizes escalate to the topological
    bound and then ``EXTRA_CHANGES`` beyond it before the object is declared
    unremovable.  The entry check and every candidate are judged on
    ``columns``, the object's column kernels; when given it must be built
    on ``c``, ``w`` and ``support_cap``, and it keeps the kernels the
    search packs, the selected VN's with every matrix reduced.
    """
    kind = w.kind
    columns = _ObjectColumns(c, w, support_cap) if columns is None else columns
    # The entry check runs on the first VN the candidates re-weight, so the
    # candidate loop reuses the matrices it reduced.
    first_vn = c.vn_deg1_counts.index(max(c.vn_deg1_counts))
    if columns.first_unbroken(first_vn, {}) is None:
        return RemovalPlan(object_id, kind, "not_in_z", 0, _e_bound(c, kind), True, None, ())
    e_min, e_bound, exact = compute_e_min(c, kind, oracle_cap)
    tried = 0
    prot_checks = 0
    prot_rejections = 0
    start = e_min if exact else 1
    for vn, edge_set in select_candidate_edges(c, e_bound + EXTRA_CHANGES, start):
        old = {edge: c.weight_of(*edge) for edge in edge_set}
        options = [[wt for wt in range(1, c.field.q) if wt != old[edge]] for edge in edge_set]
        for combo in itertools.product(*options):
            tried += 1
            changes = dict(zip(edge_set, combo))
            deltas = {cn: old[cn, v] ^ wt for (cn, v), wt in changes.items()}
            if columns.first_unbroken(vn, deltas) is not None:
                continue
            if protected_ok is not None:
                prot_checks += 1
                if not protected_ok(changes):
                    prot_rejections += 1
                    continue
            return RemovalPlan(
                object_id,
                kind,
                "removed",
                e_min,
                e_bound,
                exact,
                vn,
                tuple((cn, v, old[(cn, v)], new) for (cn, v), new in changes.items()),
                tried,
                prot_checks,
                prot_rejections,
            )
    return RemovalPlan(
        object_id, kind, "unremovable", e_min, e_bound, exact, None, (), tried,
        prot_checks, prot_rejections,
    )


@dataclass(frozen=True)
class Target:
    """One object instance in the full graph, as a VN-id subset."""

    vn_ids: tuple[int, ...]  # 0-based column indices, sorted
    kind: str = "gast"
    expected_params: tuple[int, ...] | None = None

    @property
    def object_id(self) -> str:
        return ",".join(str(v + 1) for v in self.vn_ids)


@dataclass
class OptimizationReport:
    """Bookkeeping of a full-code run, read off its plan log.

    ``plan_log`` keeps every plan in processing order, failures included.
    ``processed`` is the plans of objects now out of their family (P),
    ``unremovable`` the ids of objects the search gave up on (X) and
    ``changes`` every edge change of the processed plans in order; all
    three are views of ``plan_log``, so P and X are disjoint.
    """

    plan_log: list[RemovalPlan] = dataclass_field(default_factory=list)
    skipped: list[str] = dataclass_field(default_factory=list)
    reverified: list[str] = dataclass_field(default_factory=list)
    protected_checks: int = 0
    protected_rejections: int = 0

    @property
    def processed(self) -> list[RemovalPlan]:
        return [plan for plan in self.plan_log if plan.result != "unremovable"]

    @property
    def unremovable(self) -> list[str]:
        return [plan.object_id for plan in self.plan_log if plan.result == "unremovable"]

    @property
    def changes(self) -> list[tuple[int, int, int, int]]:
        return [change for plan in self.plan_log for change in plan.changes]

    @property
    def total_changes(self) -> int:
        return len(self.changes)


def optimize_code(
    graph: CodeGraph,
    targets: Sequence[Target],
    *,
    support_cap: int = DEFAULT_SUPPORT_CAP,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> tuple[CodeGraph, OptimizationReport]:
    """Remove target objects from the full graph, smallest first.

    The strict-majority targets come first and the oscillating ones after
    them, each smallest first and then by VN ids; an oscillating target's
    family check spans both shapes, so no oscillating object is ever
    converted into the strict kind.  A kind other than 'gast' or 'ost'
    raises ``ValueError``.  A target whose shape is outside its kind's
    family is skipped, as every oscillating one is on an odd column weight.
    Edge changes are written back between objects.  A candidate re-weights
    edges at one VN, and it re-verifies every earlier removal that holds
    that VN before being accepted, on the column kernels that removal's
    record keeps, with no re-induced object; an index by VN finds those
    removals without a walk over all of them.  The run re-weights one copy
    of ``graph`` in place and returns it; ``graph`` is left as it was.
    Every removal is re-verified at the end on the object re-induced from
    the optimized graph, judged on a kernel its record kept when the
    object's B is the kernel's and on ``is_in_Z`` otherwise
    (``_ObjectColumns.in_family``).

    A removal reads and writes only edges at its target's VNs, so targets
    that share no VN, directly or through a chain of targets over both
    kinds, are removed independently: each such group runs in processing
    order on its own, ``workers.run`` splits the groups over its
    processes, and the report is merged in processing order; the returned
    graph takes the merged report's changes.  Plans, counters and the
    returned graph are those of one process; an error is raised as the one
    the first failing target in processing order raised, with that
    target's traceback in its cause.
    """
    unknown = {t.kind for t in targets} - {"gast", "ost"}
    if unknown:
        raise ValueError(f"unknown target kinds {sorted(unknown)}")
    order = sorted(targets, key=lambda t: (t.kind == "ost", len(t.vn_ids), t.vn_ids))
    groups = _sharing_groups([target.vn_ids for target in order])
    current = graph.apply_changes({})

    def work(g: int) -> list[tuple]:
        return _remove_group(current, order, groups[g], support_cap, oracle_cap)

    report = OptimizationReport()
    for key, kind, value in sorted(workers.run(work, [len(group) for group in groups], "optimize")):
        if kind == "error":
            module, name, args, trace = value
            raise getattr(sys.modules[module], name)(*args) from RuntimeError(f"in a target group:\n{trace}")
        object_id = order[key % len(order)].object_id
        if kind == "skipped":
            report.skipped.append(object_id)
        elif kind == "intact":
            report.reverified.append(object_id)
        else:
            plan_fields, checks, rejections = value
            report.plan_log.append(RemovalPlan(*plan_fields))
            report.protected_checks += checks
            report.protected_rejections += rejections
    current.weights.update({(cn, vn): new for cn, vn, _, new in report.changes})
    return current, report


def _sharing_groups(vn_sets: Sequence[Sequence[int]]) -> list[list[int]]:
    """Positions in ``vn_sets`` grouped by shared VNs, directly or through a chain of sets.

    Each group ascending, groups ordered by their first position.
    """
    holding: dict[int, list[int]] = {}  # VN -> positions of the sets holding it
    for i, vns in enumerate(vn_sets):
        for v in vns:
            holding.setdefault(v, []).append(i)
    return _components(len(vn_sets), holding.values())


def _remove_group(
    current: CodeGraph,
    order: Sequence[Target],
    group: Sequence[int],
    support_cap: int,
    oracle_cap: int,
) -> list[tuple]:
    """Remove the targets at ``group``'s positions in ``order`` from ``current``, then re-verify them.

    Each target is judged in the family its ``kind`` names.  No target
    outside the group shares a VN with these, so none reads or writes an
    edge they do.  A candidate or plan at a VN asks or folds into the
    records of the removed objects held under that VN.  The final
    re-verification re-induces each removed object from ``current`` and
    asks its record's ``in_family``, which reuses a kept kernel's
    reductions when the re-induced B is the kernel's.  Returns
    marshal-able records ``(key, kind, value)``, key i for target i's plan
    and len(order) + i for its final re-verification: kind 'skipped'
    (value None), 'plan' (the plan's fields, then the protected checks and
    rejections its search cost), 'intact' (value None) or 'error' (the
    exception's module, type name, args and traceback; the group stops
    there).
    """
    records: list[tuple] = []
    removed: list[tuple[int, _ObjectColumns]] = []  # (position in order, object), in removal order
    holding: dict[int, list[_ObjectColumns]] = {}  # graph VN -> removed objects holding it, in removal order
    counts = [0, 0]  # the current search's protected checks and rejections
    key = 0
    try:
        for key in group:
            target = order[key]
            cfg = current.induce(target.vn_ids)
            if not classify_unlabeled(cfg).supports(target.kind):
                records.append((key, "skipped", None))
                continue
            wcms = extract_wcms(cfg, build_tree(cfg, target.kind))
            assert cfg.cn_ids is not None and cfg.vn_ids is not None
            cn_ids, vn_ids = cfg.cn_ids, cfg.vn_ids

            def protected_ok(changes: Mapping[tuple[int, int], int]) -> bool:
                """Re-verify the removals that hold the VN the changes re-weight."""
                graph_changes = {(cn_ids[cn], vn_ids[vn]): wt for (cn, vn), wt in changes.items()}
                for held in holding.get(next(iter(graph_changes))[1], ()):
                    counts[0] += 1
                    if held.first_unbroken(*held.moved(graph_changes)) is not None:
                        counts[1] += 1
                        return False
                return True

            counts[:] = 0, 0
            columns = _ObjectColumns(cfg, wcms, support_cap)
            plan = remove_object(
                cfg,
                wcms,
                protected_ok=protected_ok,
                support_cap=support_cap,
                oracle_cap=oracle_cap,
                object_id=target.object_id,
                columns=columns,
            )
            plan = replace(
                plan,
                changes=tuple(
                    (cn_ids[cn], vn_ids[vn], old_w, new_w)
                    for cn, vn, old_w, new_w in plan.changes
                ),
                selected_vn=vn_ids[plan.selected_vn] if plan.selected_vn is not None else None,
            )
            shallow = tuple(getattr(plan, f.name) for f in fields(plan))  # no deep copy of the changes
            records.append((key, "plan", (shallow, *counts)))
            if plan.result == "unremovable":
                continue
            if plan.changes:
                graph_changes = {(cn, vn): new for cn, vn, _, new in plan.changes}
                for held in (*holding.get(plan.selected_vn, ()), columns):
                    held.fold(*held.moved(graph_changes))
                current.weights.update(graph_changes)
            for v in vn_ids:
                holding.setdefault(v, []).append(columns)
            removed.append((key, columns))
        for position, held in removed:
            key = len(order) + position
            if not held.in_family(current.induce(held.vn_ids)):
                records.append((key, "intact", None))
    except Exception as exc:  # raised by the merge, in processing order
        import traceback  # here, not at the top: importing it costs every run a few ms

        error = type(exc).__module__, type(exc).__name__, exc.args, traceback.format_exc()
        records.append((key, "error", error))
    return records


class EnumerationReport(NamedTuple):
    """An ``enumerate_code`` scan: the members found, the subsets examined, whether the
    budget cut the scan and the shape hits skipped at the support cap, in scan order."""

    targets: list[Target]
    examined: int
    truncated: bool
    skipped: list[tuple[int, ...]]


def enumerate_code(
    graph: CodeGraph, kind: str, max_a: int, *, budget: int = DEFAULT_BUDGET, support_cap: int = DEFAULT_SUPPORT_CAP
) -> EnumerationReport:
    """Members of ``kind``'s family among the first ``budget`` subsets of 1 .. ``max_a`` columns.

    Subsets are scanned size by size, lexicographic within a size.  A shape
    hit, a subset whose class supports ``kind``, grows its tree from the
    walk's running state and ``smallest_b_on_rows`` judges it; a hit whose
    family walk meets a null space wider than ``support_cap`` is skipped.
    ``workers.run`` gets one piece per root, a subset's smallest column.
    A kind other than 'gast' or 'ost' raises ``ValueError`` and 'ost' on
    an odd column weight ``NotApplicableError``, before any walk.
    """
    if kind not in ("gast", "ost"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "ost" and graph.gamma % 2:
        raise NotApplicableError(f"kind 'ost' needs an even column weight; the code has gamma={graph.gamma}")
    n = graph.cols
    # The budget takes the first subsets in size-then-lexicographic order:
    # every subset of the sizes it covers whole, then the first ``limit`` of
    # the next size, which the walk stops at.
    counts = [comb(n, size) for size in range(1, min(max_a, n) + 1)]
    total, top, limit, left = sum(counts), len(counts), None, budget
    for size, count in enumerate(counts, start=1):
        if left < count:
            top, limit = size, left
            break
        left -= count
    # The walk splits by each subset's smallest column, its root: root f
    # holds comb(n - 1 - f, size - 1) subsets of each size, so the cut at
    # size ``top`` takes the first ``limit`` of them root by root.
    shares: list[int | None] = [None] * n
    loads = []  # subsets walked from each root
    for f in range(n):
        last = comb(n - 1 - f, top - 1)
        if limit is not None:
            last = shares[f] = min(limit, last)
            limit -= last
        loads.append(sum(comb(n - 1 - f, k) for k in range(top - 1)) + last)

    def judge(root: int) -> list[tuple[tuple[int, ...], tuple[int, ...] | None]]:
        """(subset, params) per family member of the root's walk; params
        None marks a shape hit skipped at the support cap."""
        records = []
        for subset, topo, read in graph.shapes(top, shares[root], first=root):
            if not topo.supports(kind):
                continue
            shape = read()
            tree = grow_tree(shape.pairs, shape.vn_deg1_counts, topo, graph.gamma, kind)
            try:
                hit = smallest_b_on_rows(
                    shape.rows, shape.deg1_rows, tree, len(subset), graph.field, support_cap
                )
            except SearchTooLargeError:
                records.append((subset, None))
                continue
            if hit is not None:
                records.append((subset, shape.params(hit[0])))
        return records

    records = sorted(workers.run(judge, loads, "enumerate"), key=lambda record: (len(record[0]), record[0]))
    found = [Target(subset, kind, params) for subset, params in records if params is not None]
    skipped = [subset for subset, params in records if params is None]
    return EnumerationReport(found, min(total, budget), total > budget, skipped)
