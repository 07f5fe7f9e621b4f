"""Dense linear algebra over GF(2^lambda).

Everything here is exact integer arithmetic through a FieldContext; the
matrices in play are configuration adjacency matrices and their row
submatrices, a few dozen entries at most, so dense tuples are the right
representation and no external library is used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .gf import FieldContext


class LinalgError(Exception):
    pass


class DimensionMismatchError(LinalgError):
    pass


class SearchTooLargeError(LinalgError):
    """The full-support scan would exceed the configured dimension cap."""


#: Above this null-space dimension the exhaustive (q^p - 1)/(q - 1) scan is
#: refused rather than silently skipped.  Observed dimensions in practice are
#: tiny (almost always the component count of the WCM graph).
DEFAULT_SUPPORT_CAP = 12


@dataclass(frozen=True)
class GfMatrix:
    """Immutable row-major matrix over a fixed field."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]
    field: FieldContext

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], field: FieldContext) -> "GfMatrix":
        tup = tuple(tuple(field.validate(v) for v in row) for row in rows)
        ncols = len(tup[0]) if tup else 0
        for row in tup:
            if len(row) != ncols:
                raise DimensionMismatchError("ragged rows")
        return cls(len(tup), ncols, tup, field)

    @classmethod
    def zeros(cls, rows: int, cols: int, field: FieldContext) -> "GfMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)), field)

    @classmethod
    def identity(cls, n: int, field: FieldContext) -> "GfMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), field)

    def keep_rows(self, indices: Sequence[int]) -> "GfMatrix":
        """Submatrix of the given rows, preserving column order."""
        kept = tuple(self.entries[i] for i in indices)
        return GfMatrix(len(kept), self.cols, kept, self.field)

    def drop_rows(self, indices: Iterable[int]) -> "GfMatrix":
        drop = set(indices)
        return self.keep_rows([i for i in range(self.rows) if i not in drop])

    def __str__(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.entries)


@dataclass(frozen=True)
class NullSpaceBasis:
    """Basis of the right null space {v : M v = 0} of a source matrix."""

    dimension: int
    basis_vectors: tuple[tuple[int, ...], ...]
    length: int
    field: FieldContext


def rref(m: GfMatrix) -> tuple[GfMatrix, int]:
    """Reduced row-echelon form and rank over GF(q).

    Pivots are normalized to 1 and eliminated above and below, so the result
    is canonical and idempotent.
    """
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
        pivot = work[pivot_row][col]
        if pivot != 1:
            scale = f.mul_row(f.inv(pivot))
            work[pivot_row] = [scale[v] for v in work[pivot_row]]
        prow = work[pivot_row]
        for r in range(nrows):
            factor = work[r][col]
            if r != pivot_row and factor != 0:
                times = f.mul_row(factor)
                work[r] = [v ^ times[pv] for v, pv in zip(work[r], prow)]
        pivot_row += 1
    reduced = GfMatrix(nrows, ncols, tuple(tuple(row) for row in work), f)
    return reduced, pivot_row


def rank(m: GfMatrix) -> int:
    return rref(m)[1]


def null_space(m: GfMatrix) -> NullSpaceBasis:
    """Basis of {v : m v = 0}; dimension = cols - rank (rank-nullity)."""
    f = m.field
    reduced, rk = rref(m)
    pivot_cols: list[int] = []
    for r in range(rk):
        row = reduced.entries[r]
        pivot_cols.append(next(c for c in range(m.cols) if row[c] != 0))
    free_cols = [c for c in range(m.cols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vec = [0] * m.cols
        vec[free] = 1
        # Characteristic 2: the pivot value solving the row equation is the
        # free-column entry itself (negation is the identity).
        for r, pc in enumerate(pivot_cols):
            vec[pc] = reduced.entries[r][free]
        basis.append(tuple(vec))
    return NullSpaceBasis(len(basis), tuple(basis), m.cols, f)


def mat_vec(m: GfMatrix, v: Sequence[int]) -> tuple[int, ...]:
    if len(v) != m.cols:
        raise DimensionMismatchError(f"vector length {len(v)} != cols {m.cols}")
    times = [m.field.mul_row(b) for b in v]
    out = []
    for row in m.entries:
        acc = 0
        for a, t in zip(row, times):
            acc ^= t[a]
        out.append(acc)
    return tuple(out)


def _combine(basis: Sequence[Sequence[int]], coeffs: Sequence[int], f: FieldContext, length: int) -> tuple[int, ...]:
    acc = [0] * length
    for c, vec in zip(coeffs, basis):
        if c != 0:
            times = f.mul_row(c)
            acc = [a ^ times[x] for a, x in zip(acc, vec)]
    return tuple(acc)


def has_full_support_vector(
    ns: NullSpaceBasis, support_cap: int = DEFAULT_SUPPORT_CAP
) -> tuple[bool, tuple[int, ...] | None]:
    """Search the span of ``ns`` for a vector with every coordinate nonzero.

    The support of a vector is invariant under nonzero scaling, so the scan
    fixes the first nonzero coefficient to 1 (projective normalization) and
    walks the remaining (q^p - 1)/(q - 1) combinations exhaustively.  Returns
    the first witness found, or (False, None) when no combination works.
    """
    p = ns.dimension
    if p == 0:
        return False, None
    if p > support_cap:
        raise SearchTooLargeError(
            f"null-space dimension {p} exceeds support search cap {support_cap}"
        )
    f = ns.field
    for lead in range(p):
        tail = p - lead - 1
        for rest in itertools.product(range(f.q), repeat=tail):
            coeffs = (0,) * lead + (1,) + rest
            v = _combine(ns.basis_vectors, coeffs, f, ns.length)
            if all(x != 0 for x in v):
                return True, v
    return False, None


def in_span(vectors: Sequence[Sequence[int]], v: Sequence[int], field: FieldContext) -> bool:
    """True iff ``v`` lies in the span of ``vectors``."""
    if not vectors:
        return all(x == 0 for x in v)
    base = GfMatrix.from_rows(vectors, field)
    stacked = GfMatrix.from_rows(list(vectors) + [list(v)], field)
    return rank(base) == rank(stacked)


def spans_equal(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], field: FieldContext) -> bool:
    """Mutual-membership test: the two vector lists generate the same space."""
    return all(in_span(b, v, field) for v in a) and all(in_span(a, v, field) for v in b)
