"""Dense linear algebra over GF(2^lambda).

Everything here is exact integer arithmetic through a FieldContext; the
matrices in play are configuration adjacency matrices and their row
submatrices, a few dozen entries at most.  Elimination runs on rows packed
into ints, one ``SupportScan`` vector each, and no external library is
used.  The package's membership decisions all run on ``eliminate``,
``null_basis`` and ``SupportScan`` through ``removal._ColumnMembership``.
``rref``, ``null_space`` and ``has_full_support_vector`` on dense
``GfMatrix`` rows are references: the tests check the kernel against them
and the benchmark spans them by name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, reduce
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


@dataclass(frozen=True)
class NullSpaceBasis:
    """Basis of the right null space {v : M v = 0} of a source matrix."""

    dimension: int
    basis_vectors: tuple[tuple[int, ...], ...]
    length: int
    field: FieldContext


class SupportScan:
    """Packed vectors over GF(q)^length and full-support search over cosets ``offset + span(basis)``.

    A vector is one int with lam + 1 bits per coordinate, the top bit a
    guard kept at 0, so a vector sum is one XOR, a coordinate is one shift
    and mask, and adding 2^lam - 1 to every coordinate carries exactly the
    nonzero ones into their guards.  The elimination kernel's rows are such
    vectors too.
    """

    def __init__(self, field: FieldContext, length: int):
        self.field = field
        self.length = length
        self.width = field.lam + 1
        ones = sum(1 << self.width * i for i in range(length))
        self.carry = ones * (field.q - 1)
        self.guards = ones << field.lam

    def pack(self, vec: Iterable[int]) -> int:
        return sum(x << self.width * i for i, x in enumerate(vec))

    def unpack(self, packed: int) -> tuple[int, ...]:
        mask = self.field.q - 1
        return tuple(packed >> self.width * i & mask for i in range(self.length))

    def column(self, rows: Sequence[int], col: int, slots: Iterable[int]) -> int:
        """Coordinate ``col`` of each packed row, row i's put in slot ``slots[i]``."""
        shift, width, mask = self.width * col, self.width, self.field.q - 1
        return sum((row >> shift & mask) << width * slot for row, slot in zip(rows, slots))

    def multiples(self, packed: int) -> list[int]:
        """c packed, for c = 0 .. q - 1.

        Doubling shifts every coordinate up one bit; a coordinate that
        reaches its guard is reduced by the field polynomial, which clears
        the guard.  The multiples below 2^(k+1) are those below 2^k and
        each of them plus 2^k packed.
        """
        lam, poly, guards = self.field.lam, self.field.primitive_poly, self.guards
        out = [0, packed]
        for _ in range(1, lam):
            packed <<= 1
            packed ^= ((packed & guards) >> lam) * poly
            out += [v ^ packed for v in out]
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


@cache
def support_scan(field: FieldContext, length: int) -> SupportScan:
    """The one ``SupportScan`` over GF(q)^length; every scan the package uses comes from here."""
    return SupportScan(field, length)


def eliminate(rows: list[int], ncols: int, scan: SupportScan) -> list[int]:
    """Gauss-Jordan elimination of packed rows, in place, pivoting in the first ``ncols`` columns.

    Later columns ride along and never pivot; ``scan`` spans every column.
    Pivots are normalized to 1 and cleared above and below, so the first
    ``ncols`` columns end in their canonical reduced row-echelon form.
    Returns the pivot columns, row i's pivot first; the rows past them
    are zero in the first ``ncols`` columns.
    """
    width, mask, f = scan.width, scan.field.q - 1, scan.field
    pivots: list[int] = []
    for col in range(ncols):
        rk = len(pivots)
        shift = width * col
        for sel in range(rk, len(rows)):
            if rows[sel] >> shift & mask:
                break
        else:
            continue
        row = rows[sel]
        rows[sel] = rows[rk]
        times = scan.multiples(row)
        # factor c of a row clears with (c / pivot) times the pivot row, the
        # pivot row itself included; it then becomes its normalized copy
        scale = f.mul_row(f.inv(row >> shift & mask))
        rows[rk] = row
        rows[:] = [v ^ times[scale[v >> shift & mask]] for v in rows]
        rows[rk] = times[scale[1]]
        pivots.append(col)
    return pivots


def null_basis(rows: Sequence[int], pivots: Sequence[int], ncols: int, scan: SupportScan) -> list[int]:
    """Packed null-space basis of the first ``ncols`` columns of rows ``eliminate`` reduced.

    One vector per free column, 1 there.  Characteristic 2: the pivot value
    solving a row's equation is the row's free-column entry itself
    (negation is the identity).
    """
    return [
        scan.column(rows, free, pivots) | 1 << scan.width * free
        for free in range(ncols)
        if free not in pivots
    ]


def _reduced(m: GfMatrix) -> tuple[SupportScan, list[int], list[int]]:
    scan = support_scan(m.field, m.cols)
    rows = [scan.pack(row) for row in m.entries]
    return scan, rows, eliminate(rows, m.cols, scan)


def rref(m: GfMatrix) -> tuple[GfMatrix, int]:
    """Reduced row-echelon form and rank over GF(q); a reference, nothing in the package calls it.

    Pivots are normalized to 1 and eliminated above and below, so the result
    is canonical and idempotent.
    """
    scan, rows, pivots = _reduced(m)
    return GfMatrix(m.rows, m.cols, tuple(map(scan.unpack, rows)), m.field), len(pivots)


def null_space(m: GfMatrix) -> NullSpaceBasis:
    """Basis of {v : m v = 0}, dimension cols - rank; a reference for ``null_basis``."""
    scan, rows, pivots = _reduced(m)
    basis = tuple(map(scan.unpack, null_basis(rows, pivots, m.cols, scan)))
    return NullSpaceBasis(len(basis), basis, m.cols, m.field)


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


def has_full_support_vector(
    ns: NullSpaceBasis, support_cap: int = DEFAULT_SUPPORT_CAP
) -> tuple[bool, tuple[int, ...] | None]:
    """Search the span of ``ns`` for a vector with every coordinate nonzero.

    The support of a vector is invariant under nonzero scaling, so the scan
    fixes the first nonzero coefficient to 1 (projective normalization): for
    each lead it walks the coset basis[lead] + span(basis[lead + 1:]), which
    makes (q^p - 1)/(q - 1) combinations in all.  Returns the first witness
    found, or (False, None) when no combination works.  At p >= 2 the witness
    may differ from ``removal._ColumnMembership``'s, which fixes x's entry to 1.
    """
    p = ns.dimension
    if p == 0:
        return False, None
    check_search_size(p, support_cap)
    scan = support_scan(ns.field, ns.length)
    multiples = [scan.multiples(scan.pack(vec)) for vec in ns.basis_vectors]
    for lead in range(p):
        hit = scan.first(multiples[lead][1], multiples[lead + 1 :])
        if hit is not None:
            return True, scan.unpack(hit)
    return False, None
