"""Shared helpers: independent oracles and randomized labeling generators."""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import replace
from typing import NamedTuple, Sequence

from wcmopt import workers
from wcmopt.config import (
    CodeGraph,
    Configuration,
    ConfigurationError,
    allowance,
    classify_unlabeled,
    cn_flippable_partners,
)
from wcmopt.gf import FieldContext, gf4, gf8
from wcmopt.gflinalg import (
    DEFAULT_SUPPORT_CAP,
    DimensionMismatchError,
    GfMatrix,
    NullSpaceBasis,
    SearchTooLargeError,
    has_full_support_vector,
    mat_vec,
    null_space,
    rref,
)
from wcmopt.removal import (
    DEFAULT_BUDGET,
    DEFAULT_ORACLE_CAP,
    EXTRA_CHANGES,
    OptimizationReport,
    OracleResult,
    OracleTooLargeError,
    RemovalPlan,
    Target,
    WcmCondition,
    WeightConditionReport,
    _ColumnMembership,
    _components,
    _e_bound,
    compute_e_min,
    is_in_Z,
    remove_object,
    select_candidate_edges,
    smallest_b,
)
from wcmopt.wcmtree import TreeError, UnlabeledTree, build_tree, extract_wcms


def gf_matrix(rows, field: FieldContext) -> GfMatrix:
    """The matrix of ``rows``, every entry checked to be an element of ``field``."""
    tup = tuple(tuple(field.validate(v) for v in row) for row in rows)
    ncols = len(tup[0]) if tup else 0
    for row in tup:
        if len(row) != ncols:
            raise DimensionMismatchError("ragged rows")
    return GfMatrix(len(tup), ncols, tup, field)


def identity_matrix(n: int, field: FieldContext) -> GfMatrix:
    return GfMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), field)


def zero_matrix(rows: int, cols: int, field: FieldContext) -> GfMatrix:
    return GfMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)), field)


def rank(m: GfMatrix) -> int:
    """Rank over GF(q), read off ``rref``."""
    return rref(m)[1]


def in_span(vectors, v, field: FieldContext) -> bool:
    """True iff ``v`` lies in the span of ``vectors``."""
    if not vectors:
        return all(x == 0 for x in v)
    base = gf_matrix(vectors, field)
    stacked = gf_matrix(list(vectors) + [list(v)], field)
    return rank(base) == rank(stacked)


def spans_equal(a, b, field: FieldContext) -> bool:
    """Mutual-membership test: the two vector lists generate the same space."""
    return all(in_span(b, v, field) for v in a) and all(in_span(a, v, field) for v in b)


def drop_rows(m: GfMatrix, indices) -> GfMatrix:
    """The submatrix of ``m`` without the given rows, columns in order."""
    drop = set(indices)
    kept = tuple(row for i, row in enumerate(m.entries) if i not in drop)
    return GfMatrix(len(kept), m.cols, kept, m.field)


def reference_rref(m: GfMatrix) -> tuple[GfMatrix, int]:
    """Slow reference for ``rref``: Gauss-Jordan on lists, one field product per entry."""
    f = m.field
    work = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        sel = next((r for r in range(pivot_row, nrows) if work[r][col] != 0), None)
        if sel is None:
            continue
        work[pivot_row], work[sel] = work[sel], work[pivot_row]
        inv = f.inv(work[pivot_row][col])
        work[pivot_row] = [f.mul(inv, v) for v in work[pivot_row]]
        prow = work[pivot_row]
        for r in range(nrows):
            factor = work[r][col]
            if r != pivot_row and factor != 0:
                work[r] = [v ^ f.mul(factor, pv) for v, pv in zip(work[r], prow)]
        pivot_row += 1
    return GfMatrix(nrows, ncols, tuple(tuple(row) for row in work), f), pivot_row


def reference_null_space(m: GfMatrix) -> NullSpaceBasis:
    """Slow reference for ``null_space``: one basis vector per free column of ``reference_rref``.

    Characteristic 2: the pivot value solving a row's equation is the
    row's free-column entry itself.
    """
    reduced, rk = reference_rref(m)
    rows = reduced.entries[:rk]
    pivot_cols = [next(c for c in range(m.cols) if row[c] != 0) for row in rows]
    basis = []
    for free in (c for c in range(m.cols) if c not in pivot_cols):
        vec = [0] * m.cols
        vec[free] = 1
        for row, pc in zip(rows, pivot_cols):
            vec[pc] = row[free]
        basis.append(tuple(vec))
    return NullSpaceBasis(len(basis), tuple(basis), m.cols, m.field)


def random_matrices(rng, count):
    """Random GF(4)/GF(8)/GF(16) matrices: zero-row, wide and tall, many rank-deficient."""
    for _ in range(count):
        field = rng.choice([gf4(), gf8(), gf16()])
        cols = rng.randrange(1, 7)
        rows = [[rng.choice([0, rng.randrange(field.q)]) for _ in range(cols)]
                for _ in range(rng.randrange(0, cols + 3))]
        if len(rows) > 1 and rng.random() < 0.5:  # one row a multiple of another
            c = rng.randrange(1, field.q)
            rows[-1] = [field.mul(c, x) for x in rng.choice(rows[:-1])]
        yield GfMatrix(len(rows), cols, tuple(map(tuple, rows)), field)


def reference_first_unbroken(rows, groups, field: FieldContext, support_cap: int) -> int | None:
    """Slow reference for ``_ColumnMembership.first_unbroken``: whole-matrix scans.

    Each group lists the rows one matrix drops from ``rows``; each matrix
    gets a ``reference_null_space`` and a ``has_full_support_vector`` in
    group order, up to the first with a full-support null vector.  None
    means every matrix is broken.
    """
    ncols = len(rows[0])
    for i, group in enumerate(groups):
        kept = tuple(row for r, row in enumerate(rows) if r not in group)
        found, _ = has_full_support_vector(
            reference_null_space(GfMatrix(len(kept), ncols, kept, field)), support_cap
        )
        if found:
            return i
    return None


def reference_evaluate_weight_conditions(
    c: Configuration, w, support_cap: int = DEFAULT_SUPPORT_CAP
) -> WeightConditionReport:
    """Slow reference for ``evaluate_weight_conditions``: each matrix's ``null_space`` and scan.

    p and the witness come from ``null_space`` of the kept rows and
    ``has_full_support_vector``, which fixes the lead coefficient of a
    basis combination to 1, so at p >= 2 its witness may differ from the
    kernel's; each component's dimension comes from ``rank`` of its rows.
    """
    a = gf_matrix(c.adjacency(), c.field)
    records = []
    for rec in w.wcms:
        ns = null_space(drop_rows(a, rec.removed_rows))
        found, witness = has_full_support_vector(ns, support_cap)
        kept = [r for r in range(c.num_cns) if r not in rec.removed_rows]
        comps = _components(c.num_vns, ([v for v, _ in c.cn_neighbors[r]] for r in kept))
        dims = []
        for comp in comps:
            rows = tuple(a.entries[r] for r in kept if c.cn_neighbors[r][0][0] in comp)
            dims.append(len(comp) - rank(GfMatrix(len(rows), a.cols, rows, c.field)))
        assert sum(dims) == ns.dimension
        records.append(
            WcmCondition(rec.removed_rows, rec.deg2_group, not found, ns.dimension, witness, len(comps), tuple(dims))
        )
    return WeightConditionReport(tuple(records))


def reference_full_support(ns: NullSpaceBasis) -> tuple[bool, tuple[int, ...] | None]:
    """Slow reference for ``has_full_support_vector``: the projective walk, one vector at a time.

    Leads in order, then the remaining coefficients in product order, so
    the witness is the fast scanner's.
    """
    f = ns.field
    if ns.dimension > DEFAULT_SUPPORT_CAP:
        raise SearchTooLargeError("over the cap")
    for lead in range(ns.dimension):
        for rest in itertools.product(range(f.q), repeat=ns.dimension - lead - 1):
            acc = [0] * ns.length
            for c, vec in zip((1,) + rest, ns.basis_vectors[lead:]):
                acc = [a ^ f.mul(c, x) for a, x in zip(acc, vec)]
            if all(acc):
                return True, tuple(acc)
    return False, None


def naive_full_support(ns: NullSpaceBasis) -> tuple[bool, tuple[int, ...] | None]:
    """Scan all q^p coefficient vectors; independent of the projective scan."""
    f = ns.field
    for coeffs in itertools.product(range(f.q), repeat=ns.dimension):
        if all(c == 0 for c in coeffs):
            continue
        acc = [0] * ns.length
        for c, vec in zip(coeffs, ns.basis_vectors):
            if c == 0:
                continue
            for i, x in enumerate(vec):
                if x:
                    acc[i] ^= f.mul(c, x)
        if all(x != 0 for x in acc):
            return True, tuple(acc)
    return False, None


def span_size_rank(m: GfMatrix) -> int:
    """Rank via the size of the row space, grown one row at a time.

    |span| = q^rank; exhaustive over row combinations without ever running
    an elimination, so it cross-checks rref independently.
    """
    f = m.field
    span = {(0,) * m.cols}
    for row in m.entries:
        additions = []
        for vec in span:
            for c in range(1, f.q):
                scaled = tuple(f.mul(c, x) if x else 0 for x in row)
                additions.append(tuple(a ^ b for a, b in zip(vec, scaled)))
        span.update(additions)
    size = len(span)
    rank = 0
    while size > 1:
        size //= f.q
        rank += 1
    return rank


def _reference_majorities(c: Configuration, unsat: set[int]) -> tuple[bool, bool, bool]:
    """(strict everywhere, weak everywhere, equality somewhere) per-VN verdicts."""
    strict = True
    weak = True
    any_equal = False
    for vn in range(c.num_vns):
        u = sum(1 for cn, _ in c.vn_neighbors[vn] if cn in unsat)
        if 2 * u >= c.gamma:
            strict = False
        if 2 * u > c.gamma:
            weak = False
        if 2 * u == c.gamma:
            any_equal = True
    return strict, weak, any_equal


def compute_b_for_values(c: Configuration, values) -> tuple[int, int, tuple[int, ...]]:
    """Unsatisfied-CN count, its degree-2 part, and the unsatisfied index set, by one ``mat_vec``."""
    if len(values) != c.num_vns:
        raise ValueError(f"expected {c.num_vns} values, got {len(values)}")
    if any(v == 0 for v in values):
        raise ValueError("all VN values must be nonzero")
    syndromes = mat_vec(gf_matrix(c.adjacency(), c.field), values)
    unsat = tuple(i for i, s in enumerate(syndromes) if s != 0)
    b2 = sum(1 for i in unsat if i in c.deg2_cns)
    return len(unsat), b2, unsat


def reference_oracle_is_gas(c: Configuration, kind: str = "gas", cap: int = 10_000_000):
    """Slow reference for ``oracle_is_gas``: one ``mat_vec`` per assignment."""
    if (c.field.q - 1) ** c.num_vns > cap:
        raise OracleTooLargeError("over the cap")
    adjacency = gf_matrix(c.adjacency(), c.field)
    best_b = best_witness = best_unsat = None
    for values in itertools.product(range(1, c.field.q), repeat=c.num_vns):
        syndromes = mat_vec(adjacency, values)
        unsat = {i for i, s in enumerate(syndromes) if s != 0}
        strict, weak, any_equal = _reference_majorities(c, unsat)
        ok = strict if kind == "gas" else (weak and any_equal)
        if ok and (best_b is None or len(unsat) < best_b):
            best_b = len(unsat)
            best_witness = values
            best_unsat = tuple(sorted(unsat))
    return OracleResult(best_b is not None, best_b, best_witness, best_unsat)


def reference_oracle_in_family(c: Configuration, b_cap: int, kind: str = "gast"):
    """Slow reference for ``oracle_in_family``: one ``mat_vec`` per assignment."""
    adjacency = gf_matrix(c.adjacency(), c.field)
    best_b = best_witness = best_unsat = None
    for values in itertools.product(range(1, c.field.q), repeat=c.num_vns):
        syndromes = mat_vec(adjacency, values)
        unsat = {i for i, s in enumerate(syndromes) if s != 0}
        if len(unsat) > b_cap or any(i in c.high_cns for i in unsat):
            continue
        strict, weak, _ = _reference_majorities(c, unsat)
        ok = strict if kind == "gast" else weak
        if ok and (best_b is None or len(unsat) < best_b):
            best_b = len(unsat)
            best_witness = values
            best_unsat = tuple(sorted(unsat))
    return OracleResult(best_b is not None, best_b, best_witness, best_unsat)


def reference_induce(graph: CodeGraph, vns) -> Configuration:
    """Slow reference for ``CodeGraph.induce``: one scan over every nonzero."""
    vset = sorted(set(vns))
    vpos = {v: i for i, v in enumerate(vset)}
    touched: dict[int, list[tuple[int, int]]] = {}
    for (r, col), w in graph.weights.items():
        if col in vpos:
            touched.setdefault(r, []).append((vpos[col], w))
    cn_ids = tuple(sorted(touched))
    cpos = {r: i for i, r in enumerate(cn_ids)}
    edges = [(cpos[r], v, w) for r, pairs in touched.items() for v, w in pairs]
    return Configuration(
        graph.gamma, graph.field, len(vset), len(cn_ids), edges,
        vn_ids=tuple(vset), cn_ids=cn_ids,
    )


def random_code(
    rng: random.Random, rows: int, cols: int, gamma: int = 3, field: FieldContext | None = None
) -> CodeGraph:
    """Code graph (GF(4) by default) with ``gamma`` random rows and random weights per column."""
    field = field or gf4()
    weights = {
        (r, c): rng.randrange(1, field.q) for c in range(cols) for r in rng.sample(range(rows), gamma)
    }
    return CodeGraph(rows, cols, gamma, field, weights)


def reference_smallest_b_on_rows(
    rows, deg1_rows, tree: UnlabeledTree, ncols: int, field: FieldContext, support_cap: int = DEFAULT_SUPPORT_CAP
) -> tuple[int, tuple[int, ...]] | None:
    """``smallest_b_on_rows`` by the walk over all t' sets alone, with no leaf set judged first.

    Every flippable set's matrix by size, lexicographic within a size, up
    to the first unbroken one; a support-cap overrun raises on the first
    matrix the walk reaches that overruns.
    """
    sets = sorted(tree.family, key=len)
    groups = [tuple(sorted((*deg1_rows, *s))) for s in sets]
    column = _ColumnMembership(rows, ncols, field, groups, support_cap, frozenset())
    hit = column.first_solution({})
    if hit is None:
        return None
    i, y = hit
    return len(deg1_rows) + len(sets[i]), column.scan.unpack(y) + (1,)


def reference_enumerate(
    graph: CodeGraph, max_a: int, kind: str = "gast", budget: int = DEFAULT_BUDGET,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> tuple[list[Target], int, bool, list[tuple[int, ...]]]:
    """Slow reference for ``removal.enumerate_code``: size by size, every subset through ``induce``.

    Each subset is classified with ``classify_unlabeled`` and each shape hit
    judged with ``smallest_b`` on the induced configuration.  Returns the
    targets found, the subsets examined, whether the budget cut the scan,
    and the shape hits whose family walk overran ``support_cap``, in scan
    order: the fields of ``enumerate_code``'s ``EnumerationReport``, in
    their order, so the two compare equal.
    """
    found: list[Target] = []
    skipped: list[tuple[int, ...]] = []
    examined = 0
    truncated = False
    for size in range(1, max_a + 1):
        for subset in itertools.combinations(range(graph.cols), size):
            examined += 1
            if examined > budget:
                truncated = True
                break
            cfg = graph.induce(subset)
            if not classify_unlabeled(cfg).supports(kind):
                continue
            try:
                hit = smallest_b(cfg, build_tree(cfg, kind), support_cap)
            except SearchTooLargeError:
                skipped.append(subset)
                continue
            if hit is not None:
                found.append(Target(subset, kind, cfg.params(hit[0])))
        if truncated:
            break
    return found, budget if truncated else examined, truncated, skipped


def rows_with_weights(rows, changes) -> list[tuple[int, ...]]:
    """Adjacency rows with the (cn, vn) -> weight replacements written in."""
    out = list(rows)
    for (cn, vn), wt in changes.items():
        row = list(out[cn])
        row[vn] = wt
        out[cn] = tuple(row)
    return out


def reference_remove_object(c: Configuration, w, protected_ok=None, *,
                            support_cap=DEFAULT_SUPPORT_CAP, oracle_cap=10_000_000):
    """Slow reference for ``remove_object``: a whole ``reference_first_unbroken`` per candidate.

    Every candidate writes its weights into the adjacency rows and scans
    every matrix from scratch; order, counters and plan are the fast path's.
    """
    kind = w.kind
    rows = c.adjacency()
    groups = [rec.removed_rows for rec in w.wcms]
    if reference_first_unbroken(rows, groups, c.field, support_cap) is None:
        return RemovalPlan("", kind, "not_in_z", 0, _e_bound(c, kind), True, None, ())
    e_min, e_bound, exact = compute_e_min(c, kind, oracle_cap)
    tried = checks = rejections = 0
    start = e_min if exact else 1
    for vn, edge_set in select_candidate_edges(c, e_bound + EXTRA_CHANGES, start):
        old = {edge: c.weight_of(*edge) for edge in edge_set}
        options = [[wt for wt in range(1, c.field.q) if wt != old[e]] for e in edge_set]
        for combo in itertools.product(*options):
            tried += 1
            changes = dict(zip(edge_set, combo))
            if reference_first_unbroken(rows_with_weights(rows, changes), groups, c.field, support_cap) is not None:
                continue
            if protected_ok is not None:
                checks += 1
                if not protected_ok(changes):
                    rejections += 1
                    continue
            return RemovalPlan(
                "", kind, "removed", e_min, e_bound, exact, vn,
                tuple((cn, v, old[(cn, v)], new) for (cn, v), new in changes.items()),
                tried, checks, rejections,
            )
    return RemovalPlan("", kind, "unremovable", e_min, e_bound, exact, None, (), tried, checks, rejections)


def reference_optimize_code(graph: CodeGraph, targets, *,
                            support_cap=DEFAULT_SUPPORT_CAP, oracle_cap=DEFAULT_ORACLE_CAP):
    """Slow reference for ``optimize_code``: a new graph per accepted plan, protected checks re-induced.

    Every protected check writes the candidate into a copy of the graph,
    re-induces the removed object and runs ``is_in_Z`` on it; order,
    counters, plans and the final re-verification are the fast path's.
    """
    report = OptimizationReport()
    registry = []  # (object_id, vn_ids, wcms, graph edges)
    current = graph
    for target in sorted(targets, key=lambda t: (t.kind == "ost", len(t.vn_ids), t.vn_ids)):
        cfg = current.induce(target.vn_ids)
        if not classify_unlabeled(cfg).supports(target.kind):
            report.skipped.append(target.object_id)
            continue
        wcms = extract_wcms(cfg, build_tree(cfg, target.kind))
        cn_ids, vn_ids = cfg.cn_ids, cfg.vn_ids

        def protected_ok(changes):
            changes = {(cn_ids[cn], vn_ids[vn]): wt for (cn, vn), wt in changes.items()}
            affected = [e for e in registry if e[3] & set(changes)]
            if not affected:
                return True
            tentative = current.apply_changes(changes)
            for _, ids, family, _ in affected:
                report.protected_checks += 1
                if is_in_Z(tentative.induce(ids), family, support_cap):
                    report.protected_rejections += 1
                    return False
            return True

        plan = remove_object(cfg, wcms, protected_ok=protected_ok, support_cap=support_cap,
                             oracle_cap=oracle_cap, object_id=target.object_id)
        plan = replace(
            plan,
            changes=tuple((cn_ids[cn], vn_ids[vn], old, new) for cn, vn, old, new in plan.changes),
            selected_vn=vn_ids[plan.selected_vn] if plan.selected_vn is not None else None,
        )
        report.plan_log.append(plan)
        if plan.result == "unremovable":
            continue
        if plan.changes:
            current = current.apply_changes({(cn, vn): new for cn, vn, _, new in plan.changes})
        edges = frozenset((cn_ids[cn], vn_ids[vn]) for cn, vn, _ in cfg.edges)
        registry.append((target.object_id, vn_ids, wcms, edges))
    for object_id, ids, family, _ in registry:
        if not is_in_Z(current.induce(ids), family, support_cap):
            report.reverified.append(object_id)
    return current, report


class OrderedTree(NamedTuple):
    """The paper's ordered tree: child CN lists keyed by the ordered path from the root."""

    mode: str
    loop_max: int
    children: dict[tuple[int, ...], tuple[int, ...]]
    b_et: int
    b_st: int

    def nodes(self) -> list[tuple[int, ...]]:
        return [()] + [path + (cn,) for path, kids in self.children.items() for cn in kids]


def ordered_view(tree: UnlabeledTree) -> OrderedTree:
    """The ordered tree of ``build_tree``'s set family: every ordering of every set.

    A path's children are its sorted set's partners; paths come in DFS order.
    """
    children = {}
    stack = [()]
    while stack:
        path = stack.pop()
        kids = tree.family[tuple(sorted(path))]
        if kids:
            children[path] = kids
            stack.extend(path + (cn,) for cn in reversed(kids))
    return OrderedTree(tree.mode, tree.loop_max, children, tree.b_et, tree.b_st)


def reference_build_tree(c: Configuration, mode: str = "gast") -> OrderedTree:
    """Slow reference for ``build_tree``: every ordered path, one ``cn_flippable_partners`` per node."""
    kind = "ost" if mode == "ost" else "gast"
    topo = classify_unlabeled(c)
    if not topo.supports(mode):
        raise ConfigurationError(f"configuration is not an unlabeled {kind}")
    loop_max = topo.b_o_ut if kind == "ost" else topo.b_ut
    capped = mode in ("eas", "bast")
    if mode == "eas":
        loop_max = 0
    elif mode == "bast":
        loop_max = min(loop_max, max(0, c.num_vns * allowance(c.gamma, kind) // 2 - c.d1))
    children = {}
    depths = []

    def grow(path):
        if len(path) >= loop_max:
            if not capped and cn_flippable_partners(c, path, mode=kind):
                raise TreeError(f"flippable partner beyond the degree bound at path {path}")
            depths.append(len(path))
            return
        partners = sorted(cn_flippable_partners(c, path, mode=kind))
        if not partners:
            depths.append(len(path))
            return
        children[path] = tuple(partners)
        for cn in partners:
            grow(path + (cn,))

    grow(())
    return OrderedTree(kind, loop_max, children, max(depths), min(depths))


def not_gas_single_vn() -> Configuration:
    """One VN whose checks are all degree-1: never an absorbing shape."""
    return Configuration(3, gf4(), 1, 3, [(0, 0, 1), (1, 0, 1), (2, 0, 1)])


def sub_configuration(cfg: Configuration, vns) -> Configuration:
    """The configuration a VN subset of ``cfg`` induces."""
    weights = {(cn, vn): w for cn, vn, w in cfg.edges}
    return CodeGraph(cfg.num_cns, cfg.num_vns, cfg.gamma, cfg.field, weights).induce(vns)


def random_weights(cfg: Configuration, rng: random.Random) -> Configuration:
    """Same topology, independently random nonzero weights."""
    q = cfg.field.q
    edges = [(cn, vn, rng.randrange(1, q)) for cn, vn, _ in cfg.edges]
    return Configuration(
        cfg.gamma, cfg.field, cfg.num_vns, cfg.num_cns, edges,
        vn_ids=cfg.vn_ids, cn_ids=cfg.cn_ids,
    )


def satisfied_labeling(
    cfg: Configuration, rng: random.Random, values: Sequence[int] | None = None
) -> Configuration:
    """Random labeling under which every degree->=2 check is satisfied.

    Draws a full-support value vector (or takes ``values``), then solves
    each check's last edge weight so the row annihilates it; degree-1
    checks get random weights (they are unsatisfied regardless).  The
    result has exactly d1 unsatisfied checks.
    """
    f = cfg.field
    q = f.q
    if values is None:
        values = [rng.randrange(1, q) for _ in range(cfg.num_vns)]
    changes: dict[tuple[int, int], int] = {}
    for cn in range(cfg.num_cns):
        nbrs = cfg.cn_neighbors[cn]
        if len(nbrs) == 1:
            changes[(cn, nbrs[0][0])] = rng.randrange(1, q)
            continue
        while True:
            acc = 0
            chosen = []
            for vn, _ in nbrs[:-1]:
                w = rng.randrange(1, q)
                chosen.append((vn, w))
                acc ^= f.mul(w, values[vn])
            last_vn = nbrs[-1][0]
            if acc != 0:
                w_last = f.div(acc, values[last_vn])
                for vn, w in chosen:
                    changes[(cn, vn)] = w
                changes[(cn, last_vn)] = w_last
                break
    return cfg.with_weights(changes)


def random_reweighting(cfg: Configuration, rng: random.Random) -> dict[tuple[int, int], int]:
    """New weights, each different from the old one, on one to three random edges."""
    q = cfg.field.q
    edges = rng.sample([(cn, vn) for cn, vn, _ in cfg.edges], rng.randint(1, 3))
    return {e: rng.choice([w for w in range(1, q) if w != cfg.weight_of(*e)]) for e in edges}


def assert_valid_witness(cfg: Configuration, removed_rows, witness) -> None:
    sub = drop_rows(gf_matrix(cfg.adjacency(), cfg.field), removed_rows)
    assert all(x == 0 for x in mat_vec(sub, witness))
    assert all(x != 0 for x in witness)


GF16_POLY = 0b10011


def gf16() -> FieldContext:
    return FieldContext(4, GF16_POLY)


def pin_workers(monkeypatch, count: int) -> None:
    """Make ``enumerate_code`` and ``optimize_code`` work on ``count`` processes, whatever the host has."""
    monkeypatch.setattr(workers, "available", lambda: count)


def note(path, line) -> None:
    """Append one line to ``path`` from any process; an O_APPEND write of a short line is never interleaved."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, f"{line}\n".encode())
    finally:
        os.close(fd)


def noted(path) -> list[str]:
    """The lines ``note`` appended to ``path`` so far."""
    return path.read_text().splitlines() if path.exists() else []


def wait_until(done, what: str, seconds: float = 30) -> None:
    """Poll ``done()`` until it is true; fail the test after ``seconds``."""
    deadline = time.monotonic() + seconds
    while not done():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.001)


def disjoint_union(parts) -> tuple[CodeGraph, list[Target]]:
    """Codes side by side, block-diagonally, each with its targets moved along.

    ``parts`` holds (graph, targets) pairs over one field and column
    weight; no target of one part shares a VN with another part's.
    """
    weights, targets, rows, cols = {}, [], 0, 0
    for graph, part_targets in parts:
        weights.update({(r + rows, c + cols): w for (r, c), w in graph.weights.items()})
        targets += [replace(t, vn_ids=tuple(v + cols for v in t.vn_ids)) for t in part_targets]
        rows, cols = rows + graph.rows, cols + graph.cols
    return CodeGraph(rows, cols, graph.gamma, graph.field, weights), targets
