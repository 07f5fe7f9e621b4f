"""Dense linear algebra over GF(2^lambda).

Everything here is exact integer arithmetic through a FieldContext; the
matrices in play are configuration adjacency matrices and their row
submatrices, a few dozen entries at most, so dense tuples are the right
representation and no external library is used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import xor
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


def _null_basis(
    reduced_rows: Sequence[Sequence[int]], pivot_cols: Sequence[int], ncols: int
) -> tuple[tuple[int, ...], ...]:
    """Null-space basis from the nonzero rows of a reduced row-echelon form."""
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        vec = [0] * ncols
        vec[free] = 1
        # Characteristic 2: the pivot value solving the row equation is the
        # free-column entry itself (negation is the identity).
        for r, pc in enumerate(pivot_cols):
            vec[pc] = reduced_rows[r][free]
        basis.append(tuple(vec))
    return tuple(basis)


def null_space(m: GfMatrix) -> NullSpaceBasis:
    """Basis of {v : m v = 0}; dimension = cols - rank (rank-nullity)."""
    reduced, rk = rref(m)
    rows = reduced.entries[:rk]
    pivot_cols = [next(c for c in range(m.cols) if row[c] != 0) for row in rows]
    basis = _null_basis(rows, pivot_cols, m.cols)
    return NullSpaceBasis(len(basis), basis, m.cols, m.field)


def reduce_with_transform(
    m: GfMatrix, ncols: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], NullSpaceBasis]:
    """One ``rref`` of m = [a | columns], a its first ``ncols`` columns.

    Returns a's pivot columns, P x for each later column x, and null(a).
    P is the invertible row transform of the elimination, so P a is the
    reduced row-echelon form of a; columns pivot left to right, so the
    later ones change none of a's pivots.  a y = x is solvable iff P x
    vanishes below a's rank, and then y0 with y0[pivots[i]] = (P x)[i] and
    zeros elsewhere is a solution.
    """
    reduced, rk = rref(m)
    rows = reduced.entries
    # A reduced row's first nonzero entry is its pivot, a 1.
    pivots = tuple(c for c in (row.index(1) for row in rows[:rk]) if c < ncols)
    basis = _null_basis(rows, pivots, ncols)
    columns = list(zip(*rows))[ncols:] or [()] * (m.cols - ncols)
    return pivots, tuple(columns), NullSpaceBasis(len(basis), basis, ncols, m.field)


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


def check_search_size(p: int, support_cap: int) -> None:
    """Refuse a full-support scan over a null space wider than ``support_cap``."""
    if p and p > support_cap:
        raise SearchTooLargeError(
            f"null-space dimension {p} exceeds support search cap {support_cap}"
        )


class SupportScan:
    """Full-support search over cosets ``offset + span(basis)`` in GF(q)^length.

    Vectors are packed into ints with lam + 1 bits per coordinate, the top
    bit a guard kept at 0, so a vector sum is one XOR, and adding 2^lam - 1
    to every coordinate carries exactly the nonzero ones into their guards.
    """

    def __init__(self, field: FieldContext, length: int):
        self.field = field
        self.length = length
        self.width = field.lam + 1
        ones = sum(1 << self.width * i for i in range(length))
        self.carry = ones * (field.q - 1)
        self.guards = ones << field.lam

    def unpack(self, packed: int) -> tuple[int, ...]:
        mask = self.field.q - 1
        return tuple(packed >> self.width * i & mask for i in range(self.length))

    def multiples(self, vec: Sequence[int]) -> list[int]:
        """c vec packed, for c = 0 .. q - 1.

        Multiplying by c is linear over GF(2): 2^k vec, for k < lam, is the
        XOR over bits b of 2^k 2^b times the 0/1 vector of vec's bit b, and
        every other c vec is (c without its lowest bit) vec XOR (that bit) vec.
        """
        f = self.field
        packed = sum(x << self.width * i for i, x in enumerate(vec))
        ones = ((1 << self.width * len(vec)) - 1) // ((1 << self.width) - 1)
        bits = [(packed >> b & ones, 1 << b) for b in range(f.lam)]
        out = [0] * f.q
        for k in range(f.lam):
            times = f.mul_row(1 << k)
            out[1 << k] = reduce(xor, (e * times[x] for e, x in bits), 0)
        for c in range(3, f.q):
            if c & (c - 1):
                out[c] = out[c & (c - 1)] ^ out[c & -c]
        return out

    def first(self, offset: int, multiples: Sequence[Sequence[int]]) -> int | None:
        """First full-support vector offset + sum c_i b_i, with the c_i in product order.

        ``multiples[i]`` is ``self.multiples(b_i)``; c_0 varies slowest.
        """
        carry, guards = self.carry, self.guards
        for terms in itertools.product(*multiples):
            v = reduce(xor, terms, offset)
            if (v + carry) & guards == guards:
                return v
        return None


def has_full_support_vector(
    ns: NullSpaceBasis, support_cap: int = DEFAULT_SUPPORT_CAP
) -> tuple[bool, tuple[int, ...] | None]:
    """Search the span of ``ns`` for a vector with every coordinate nonzero.

    The support of a vector is invariant under nonzero scaling, so the scan
    fixes the first nonzero coefficient to 1 (projective normalization): for
    each lead it walks the coset basis[lead] + span(basis[lead + 1:]), which
    makes (q^p - 1)/(q - 1) combinations in all.  Returns the first witness
    found, or (False, None) when no combination works.
    """
    p = ns.dimension
    if p == 0:
        return False, None
    check_search_size(p, support_cap)
    scan = SupportScan(ns.field, ns.length)
    multiples = [scan.multiples(vec) for vec in ns.basis_vectors]
    for lead in range(p):
        hit = scan.first(multiples[lead][1], multiples[lead + 1 :])
        if hit is not None:
            return True, scan.unpack(hit)
    return False, None
