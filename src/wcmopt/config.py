"""Tanner subgraph data model and topological classification.

A Configuration is a labeled subgraph induced by a VN subset: check nodes
partitioned by in-configuration degree into O (degree 1), T (degree 2) and
H (degree > 2), every variable node carrying exactly gamma incident edges,
and all edge weights nonzero.  Classification of the unlabeled shape
(GAS/GAST/OS/OST) and the degree-bound formulas live here; anything that
depends on the actual weights lives in removal.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .gf import FieldContext
from .gflinalg import GfMatrix


class ConfigurationError(Exception):
    pass


class MalformedConfigurationError(ConfigurationError):
    pass


class NotApplicableError(ConfigurationError):
    """Requested an even-column-weight quantity on an odd-gamma code."""


class Configuration:
    """Immutable weighted Tanner subgraph with degree bookkeeping.

    CN and VN indices are 0-based here; the file parser and report emitters
    translate to the 1-based c1../v1.. convention.  Edge-weight changes
    produce new Configuration values so an optimizer can backtrack cheaply.
    """

    def __init__(
        self,
        gamma: int,
        field: FieldContext,
        num_vns: int,
        num_cns: int,
        edges: Iterable[tuple[int, int, int]],
        vn_ids: tuple[int, ...] | None = None,
        cn_ids: tuple[int, ...] | None = None,
    ):
        self.gamma = gamma
        self.field = field
        self.num_vns = num_vns
        self.num_cns = num_cns
        self.edges = tuple(sorted(edges))
        self.vn_ids = vn_ids
        self.cn_ids = cn_ids
        # One pass checks and indexes the edges; sorting puts a repeated
        # (cn, vn) right after its first copy.
        cn_nbrs: list[list[tuple[int, int]]] = [[] for _ in range(num_cns)]
        vn_nbrs: list[list[tuple[int, int]]] = [[] for _ in range(num_vns)]
        last = None
        for cn, vn, w in self.edges:
            if not (0 <= cn < num_cns and 0 <= vn < num_vns):
                raise MalformedConfigurationError(f"edge ({cn},{vn}) out of range")
            if w == 0:
                raise MalformedConfigurationError(f"edge ({cn},{vn}) has zero weight")
            field.validate(w)
            if (cn, vn) == last:
                raise MalformedConfigurationError(f"duplicate edge ({cn},{vn})")
            last = cn, vn
            cn_nbrs[cn].append((vn, w))
            vn_nbrs[vn].append((cn, w))
        for vn, nbrs in enumerate(vn_nbrs):
            if len(nbrs) != gamma:
                raise MalformedConfigurationError(
                    f"VN v{vn + 1} has degree {len(nbrs)}, column weight is {gamma}"
                )
        for cn, nbrs in enumerate(cn_nbrs):
            if not nbrs:
                raise MalformedConfigurationError(f"CN c{cn + 1} has no edges")
        self.cn_neighbors = tuple(map(tuple, cn_nbrs))
        self.vn_neighbors = tuple(map(tuple, vn_nbrs))
        self.deg1_cns = frozenset(i for i, x in enumerate(cn_nbrs) if len(x) == 1)
        self.deg2_cns = frozenset(i for i, x in enumerate(cn_nbrs) if len(x) == 2)
        self.high_cns = frozenset(i for i, x in enumerate(cn_nbrs) if len(x) > 2)
        self.d1 = len(self.deg1_cns)
        self.d2 = len(self.deg2_cns)
        self.d3 = len(self.high_cns)
        deg1_counts = [0] * num_vns
        for cn in self.deg1_cns:
            deg1_counts[cn_nbrs[cn][0][0]] += 1
        self.vn_deg1_counts = tuple(deg1_counts)
        self._adjacency: GfMatrix | None = None

    def weight_of(self, cn: int, vn: int) -> int:
        for v, w in self.cn_neighbors[cn]:
            if v == vn:
                return w
        raise KeyError(f"no edge ({cn},{vn})")

    def adjacency(self) -> GfMatrix:
        """The adjacency matrix, built on the first call and shared after.

        Every matrix the pipeline takes of a configuration is cut from this
        one; a re-weighting is a new configuration with its own.
        """
        if self._adjacency is None:
            rows = [[0] * self.num_vns for _ in range(self.num_cns)]
            for cn, vn, w in self.edges:
                rows[cn][vn] = w
            entries = tuple(map(tuple, rows))
            self._adjacency = GfMatrix(self.num_cns, self.num_vns, entries, self.field)
        return self._adjacency

    def with_weights(self, changes: Mapping[tuple[int, int], int]) -> "Configuration":
        """New configuration with the given (cn, vn) -> weight replacements."""
        for (cn, vn), w in changes.items():
            if w == 0:
                raise MalformedConfigurationError("replacement weights must be nonzero")
            self.field.validate(w)
        new_edges = [
            (cn, vn, changes.get((cn, vn), w)) for cn, vn, w in self.edges
        ]
        touched = set(changes) - {(cn, vn) for cn, vn, _ in self.edges}
        if touched:
            raise KeyError(f"changes reference missing edges: {sorted(touched)}")
        return Configuration(
            self.gamma, self.field, self.num_vns, self.num_cns, new_edges,
            vn_ids=self.vn_ids, cn_ids=self.cn_ids,
        )

    def params(self, b: int | None = None) -> tuple[int, ...]:
        """(a, d1, d2, d3), or (a, b, d1, d2, d3) when b is supplied."""
        if b is None:
            return (self.num_vns, self.d1, self.d2, self.d3)
        return (self.num_vns, b, self.d1, self.d2, self.d3)

    def __repr__(self) -> str:
        return (
            f"Configuration(a={self.num_vns}, d1={self.d1}, d2={self.d2}, "
            f"d3={self.d3}, gamma={self.gamma}, GF({self.field.q}))"
        )


def allowance(gamma: int, kind: str) -> int:
    """Most unsatisfied checks a VN can have and keep its majority under ``kind``.

    The majority of satisfied checks is strict for 'gas'/'gast', which
    allows floor((gamma-1)/2), and weak for 'os'/'ost', which allows
    floor(gamma/2).  Every majority test and degree bound derives from this.
    """
    if kind in ("gas", "gast"):
        return (gamma - 1) // 2
    if kind in ("os", "ost"):
        return gamma // 2
    raise ValueError(f"unknown kind {kind!r}")


def keeps_majority(gamma: int, unsat_counts: Sequence[int], kind: str) -> bool:
    """Whether every VN keeps its majority of satisfied checks under ``kind``.

    ``unsat_counts`` holds each VN's number of unsatisfied checks.  'os'
    further needs some VN without a strict majority, i.e. an equality.
    """
    worst = max(unsat_counts, default=0)
    if worst > allowance(gamma, kind):
        return False
    return kind != "os" or worst > allowance(gamma, "gas")


@dataclass(frozen=True)
class TopoClass:
    is_unlabeled_gas: bool
    is_unlabeled_gast: bool
    is_unlabeled_os: bool
    is_unlabeled_ost: bool
    b_ut: int
    b_o_ut: int | None

    def supports(self, mode: str) -> bool:
        """Whether the shape is in ``mode``'s family: OST for 'ost', else GAST."""
        return self.is_unlabeled_ost if mode == "ost" else self.is_unlabeled_gast


def _degree_bound(a: int, gamma: int, d1: int, kind: str) -> int:
    """floor((a*allowance - d1)/2), a negative operand clamped to 0.

    No valid absorbing topology has a negative operand; arbitrary subsets
    classified in bulk do, and get 0.
    """
    top = a * allowance(gamma, kind)
    return max(0, top - d1) // 2


def shape_class(
    gamma: int, d1: int, d2: int, d3: int, vn_deg1_counts: Sequence[int]
) -> TopoClass:
    """Classify an unlabeled shape from its check-degree counts alone.

    Degree-1 CNs are the unsatisfied ones: GAS keeps the strict majority of
    ``keeps_majority`` at every VN, OS the weak one with an equality.  The
    -T variants additionally require d2 > d3.  ``vn_deg1_counts`` holds
    each VN's number of degree-1 CNs, so its length is a.
    """
    a = len(vn_deg1_counts)
    is_gas = keeps_majority(gamma, vn_deg1_counts, "gas")
    is_os = keeps_majority(gamma, vn_deg1_counts, "os")
    type_two = d2 > d3
    return TopoClass(
        is_unlabeled_gas=is_gas,
        is_unlabeled_gast=is_gas and type_two,
        is_unlabeled_os=is_os,
        is_unlabeled_ost=is_os and type_two,
        b_ut=_degree_bound(a, gamma, d1, "gast"),
        b_o_ut=_degree_bound(a, gamma, d1, "ost") if gamma % 2 == 0 else None,
    )


def classify_unlabeled(c: Configuration) -> TopoClass:
    """``shape_class`` of the configuration's counts; never depends on edge weights."""
    return shape_class(c.gamma, c.d1, c.d2, c.d3, c.vn_deg1_counts)


def cn_flippable_partners(
    c: Configuration, marked_unsat: Iterable[int], mode: str = "gast"
) -> frozenset[int]:
    """Degree-2 CNs that could additionally be marked unsatisfied.

    Degree-1 CNs are always unsatisfied and degree->2 CNs always satisfied;
    ``marked_unsat`` lists the degree-2 CNs currently marked.  A candidate is
    flippable when both its VNs stay within their ``allowance`` after the
    flip: strict majority in gast mode, weak majority in ost mode.
    """
    marked = frozenset(marked_unsat)
    bad = marked - (c.deg2_cns | c.deg1_cns)
    if bad:
        raise ConfigurationError(f"marked CNs {sorted(bad)} are not degree <= 2")
    if mode not in ("gast", "ost"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "ost" and c.gamma % 2 != 0:
        raise NotApplicableError("ost marking requires even gamma")
    top = allowance(c.gamma, mode)

    unsat = [0] * c.num_vns
    for cn in c.deg1_cns | marked:
        for v, _ in c.cn_neighbors[cn]:
            unsat[v] += 1
    return frozenset(
        cn
        for cn in c.deg2_cns - marked
        if all(unsat[v] < top for v, _ in c.cn_neighbors[cn])
    )


class CodeGraph:
    """Full-code Tanner graph: a parity-check matrix H over GF(q).

    Rows are CNs, columns are VNs; every column carries exactly gamma
    nonzero entries.  Immutable; apply_changes returns a new graph.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        gamma: int,
        field: FieldContext,
        weights: Mapping[tuple[int, int], int],
    ):
        self.rows = rows
        self.cols = cols
        self.gamma = gamma
        self.field = field
        self.weights = dict(weights)
        col_rows: list[list[int]] = [[] for _ in range(cols)]
        for (r, c), w in self.weights.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise MalformedConfigurationError(f"entry ({r},{c}) out of range")
            if w == 0:
                raise MalformedConfigurationError(f"entry ({r},{c}) is zero")
            field.validate(w)
            col_rows[c].append(r)
        for c, rs in enumerate(col_rows):
            if len(rs) != gamma:
                raise MalformedConfigurationError(
                    f"column {c + 1} has {len(rs)} entries, column weight is {gamma}"
                )
        # Row ids of each column's entries; shared by every re-weighted graph.
        self._col_rows = tuple(tuple(sorted(rs)) for rs in col_rows)

    def induce(self, vns: Sequence[int]) -> Configuration:
        """Configuration induced by a VN subset.

        Includes every CN adjacent to the subset, with only the edges into
        the subset; CN degrees are therefore in-configuration degrees.
        """
        vset = sorted(set(vns))
        if vset and not (0 <= vset[0] and vset[-1] < self.cols):
            raise MalformedConfigurationError(
                f"VN ids {vset[0]}..{vset[-1]} outside the code's {self.cols} columns"
            )
        touched: dict[int, list[tuple[int, int]]] = {}
        for i, v in enumerate(vset):
            for r in self._col_rows[v]:
                touched.setdefault(r, []).append((i, self.weights[r, v]))
        cn_ids = tuple(sorted(touched))
        cpos = {r: i for i, r in enumerate(cn_ids)}
        edges = [
            (cpos[r], v, w)
            for r, pairs in touched.items()
            for v, w in pairs
        ]
        return Configuration(
            self.gamma, self.field, len(vset), len(cn_ids), edges,
            vn_ids=tuple(vset), cn_ids=cn_ids,
        )

    def shapes(
        self, size: int
    ) -> Iterator[tuple[tuple[int, ...], TopoClass, Callable[[], "ShapeHit"]]]:
        """Every VN subset of ``size`` in lexicographic order, with its unlabeled class.

        Yields (subset, class, hit).  The walk adds and removes one column
        at a time and keeps each check's in-subset degree, the number of
        checks at each degree and each check's packed row over the chosen
        columns: adding the i-th column ORs its weight into slot i of its
        checks' rows, removing it ANDs the slot away.  A subset's class
        comes from the running counts without building a Configuration and
        equals ``classify_unlabeled(self.induce(subset))``; ``hit()``
        returns the rest of what ``induce`` would give, read from the
        running state, so it holds only until the walk moves on.
        """
        col_rows, width = self._col_rows, self.field.lam + 1
        deg, packed = [0] * self.rows, [0] * self.rows
        terms = [tuple((r, self.weights[r, v]) for r in rs) for v, rs in enumerate(col_rows)]
        at = [self.rows] + [0] * (self.cols + 2)  # checks per in-subset degree
        classes: dict[tuple, TopoClass] = {}
        chosen: list[int] = []
        v, last = 0, self.cols - size
        while True:
            if len(chosen) == size:
                deg1 = tuple([[deg[r] for r in col_rows[u]].count(1) for u in chosen])
                key = at[1], at[2], self.rows - at[0] - at[1] - at[2], deg1
                if key not in classes:  # few distinct shapes: classify each once
                    classes[key] = shape_class(self.gamma, *key)
                subset = tuple(chosen)
                yield subset, classes[key], partial(_shape_hit, col_rows, deg, packed, subset, key)
            elif v <= last + len(chosen):
                shift = width * len(chosen)
                for r, w in terms[v]:
                    at[deg[r]] -= 1
                    deg[r] += 1
                    at[deg[r]] += 1
                    packed[r] |= w << shift
                chosen.append(v)
                v += 1
                continue
            if not chosen:
                return
            v = chosen.pop()
            keep = (1 << width * len(chosen)) - 1
            for r in col_rows[v]:
                at[deg[r]] -= 1
                deg[r] -= 1
                at[deg[r]] += 1
                packed[r] &= keep
            v += 1

    def apply_changes(self, changes: Mapping[tuple[int, int], int]) -> "CodeGraph":
        """New graph with existing entries re-weighted.

        Only the changed entries are checked: re-weighting cannot alter the
        structure, so the new graph shares this graph's column index.
        """
        for (r, c), w in changes.items():
            if (r, c) not in self.weights:
                raise KeyError(f"no entry at ({r},{c})")
            if w == 0:
                raise MalformedConfigurationError("replacement weights must be nonzero")
            self.field.validate(w)
        new = copy.copy(self)
        new.weights = {**self.weights, **changes}
        return new

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CodeGraph):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.gamma == other.gamma
            and self.field == other.field
            and self.weights == other.weights
        )


class ShapeHit(NamedTuple):
    """What the subset walk holds of one subset, numbered as ``induce`` numbers it.

    Checks are in ascending order and columns in subset order.  ``rows``
    are the checks' adjacency rows packed as ``SupportScan`` vectors: lam +
    1 bits per slot, slot i the i-th column.  ``deg1_rows`` lists the
    degree-1 checks, ``pairs`` maps each degree-2 check to its two columns,
    ascending, and ``vn_deg1_counts`` holds each column's number of
    degree-1 checks.
    """

    rows: tuple[int, ...]
    deg1_rows: tuple[int, ...]
    pairs: dict[int, tuple[int, int]]
    vn_deg1_counts: tuple[int, ...]
    d1: int
    d2: int
    d3: int

    def params(self, b: int) -> tuple[int, ...]:
        """(a, b, d1, d2, d3), as ``Configuration.params(b)``."""
        return (len(self.vn_deg1_counts), b, self.d1, self.d2, self.d3)


def _shape_hit(
    col_rows: Sequence[Sequence[int]],
    deg: Sequence[int],
    packed: Sequence[int],
    subset: tuple[int, ...],
    key: tuple,
) -> ShapeHit:
    """``CodeGraph.shapes``'s data for ``subset``: its checks' degrees and packed rows."""
    d1, d2, d3, deg1 = key
    slots: dict[int, list[int]] = {}
    for i, u in enumerate(subset):
        for r in col_rows[u]:
            slots.setdefault(r, []).append(i)
    checks = sorted(slots)
    return ShapeHit(
        rows=tuple([packed[r] for r in checks]),
        deg1_rows=tuple([p for p, r in enumerate(checks) if deg[r] == 1]),
        pairs={p: tuple(slots[r]) for p, r in enumerate(checks) if deg[r] == 2},
        vn_deg1_counts=deg1,
        d1=d1,
        d2=d2,
        d3=d3,
    )
