"""Arithmetic over GF(2^lambda) with log/antilog lookup tables.

Elements are integers in [0, q-1] under the polynomial-basis encoding:
bit i of the integer is the coefficient of x^i.  With the default GF(4)
polynomial x^2+x+1 this fixes the primitive element at 2 and its square
(= alpha + 1) at 3, so serialized values are unambiguous across tools.
"""

from __future__ import annotations


class FieldError(Exception):
    """Base class for field construction and arithmetic failures."""


class FieldDivisionError(FieldError, ZeroDivisionError):
    """Inversion or division by the zero element."""


#: Default primitive polynomials, keyed by extension degree.  Only the two
#: fields the worked examples use get defaults; other degrees must be given
#: an explicit polynomial by the caller.
DEFAULT_PRIMITIVE_POLYS = {2: 0b111, 3: 0b1011}

_MAX_LAMBDA = 16


class FieldContext:
    """GF(2^lambda) with a fixed primitive polynomial.

    The field itself is fixed at construction and every operation is a pure
    function of the integer encodings.  The one mutable part is the row
    cache behind ``mul_row``: slot x is filled on the first request for x and
    always with the same tuple, so a context can still be shared freely
    across threads.  A filled slot holds q entries; the linear algebra only
    asks for the multipliers its matrices contain.
    """

    __slots__ = ("lam", "q", "primitive_poly", "log_table", "antilog_table", "_mul_rows")

    def __init__(self, lam: int, primitive_poly: int | None = None):
        if lam < 2:
            raise FieldError(f"extension degree must be >= 2, got {lam}")
        if lam > _MAX_LAMBDA:
            raise FieldError(f"extension degree {lam} exceeds table limit {_MAX_LAMBDA}")
        if primitive_poly is None:
            primitive_poly = DEFAULT_PRIMITIVE_POLYS.get(lam)
            if primitive_poly is None:
                raise FieldError(
                    f"no default primitive polynomial for lambda={lam}; pass one explicitly"
                )
        q = 1 << lam
        if primitive_poly.bit_length() != lam + 1:
            raise FieldError(
                f"polynomial 0b{primitive_poly:b} does not have degree exactly {lam}"
            )
        log_table = [0] * q
        antilog_table = [0] * q
        x = 1
        for i in range(q - 1):
            if x == 1 and i > 0:
                # x returned to 1 early: the generator's order divides i < q-1.
                raise FieldError(f"polynomial 0b{primitive_poly:b} is not primitive")
            antilog_table[i] = x
            log_table[x] = i
            x <<= 1
            if x & q:
                x ^= primitive_poly
        if x != 1:
            raise FieldError(f"polynomial 0b{primitive_poly:b} is not primitive")
        self.lam = lam
        self.q = q
        self.primitive_poly = primitive_poly
        self.log_table = tuple(log_table)
        self.antilog_table = tuple(antilog_table)
        self._mul_rows: list[tuple[int, ...] | None] = [None] * q

    # Integer-level arithmetic; the linear algebra reads products from mul_row.

    def add(self, x: int, y: int) -> int:
        return x ^ y

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.antilog_table[(self.log_table[x] + self.log_table[y]) % (self.q - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise FieldDivisionError("zero has no multiplicative inverse")
        return self.antilog_table[(self.q - 1 - self.log_table[x]) % (self.q - 1)]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def mul_row(self, x: int) -> tuple[int, ...]:
        """The products x*y for every y, indexed by y; built on first use."""
        row = self._mul_rows[x]
        if row is None:
            row = self._mul_rows[x] = tuple(self.mul(x, y) for y in range(self.q))
        return row

    def validate(self, value: int) -> int:
        if not 0 <= value < self.q:
            raise FieldError(f"value {value} outside GF({self.q})")
        return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldContext):
            return NotImplemented
        return self.lam == other.lam and self.primitive_poly == other.primitive_poly

    def __hash__(self) -> int:
        return hash((self.lam, self.primitive_poly))

    def __repr__(self) -> str:
        return f"FieldContext(GF({self.q}), poly=0b{self.primitive_poly:b})"


def format_element(field: FieldContext, value: int) -> str:
    """Render a field value as a power of the generator: 0, 1, a, a^2, ..."""
    field.validate(value)
    if value == 0:
        return "0"
    k = field.log_table[value]
    if k == 0:
        return "1"
    if k == 1:
        return "a"
    return f"a^{k}"


def gf4() -> FieldContext:
    return FieldContext(2)


def gf8() -> FieldContext:
    return FieldContext(3)
