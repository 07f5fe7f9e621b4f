import itertools

import pytest

from conftest import gf16
from wcmopt.gf import (
    FieldContext,
    FieldDivisionError,
    FieldError,
    format_element,
    gf4,
    gf8,
)

A, A2 = 2, 3


def test_gf4_defaults():
    f = gf4()
    assert f.q == 4 and f.lam == 2 and f.primitive_poly == 0b111


def test_gf8_defaults():
    f = gf8()
    assert f.q == 8 and f.primitive_poly == 0b1011


def test_construction_rejections():
    with pytest.raises(FieldError):
        FieldContext(1)
    with pytest.raises(FieldError):
        FieldContext(5)  # no default polynomial
    with pytest.raises(FieldError):
        FieldContext(2, 0b1011)  # degree 3 polynomial for lambda=2
    # x^2 + 1 = (x+1)^2 is reducible, hence not primitive
    with pytest.raises(FieldError):
        FieldContext(2, 0b101)
    # x^4 + x^3 + x^2 + x + 1 divides x^5 - 1: order 5 < 15, not primitive
    with pytest.raises(FieldError):
        FieldContext(4, 0b11111)


def test_addition_examples():
    f = gf4()
    assert f.add(A, 1) == A2          # alpha + 1 = alpha^2
    for x in range(4):
        assert f.add(x, x) == 0       # characteristic 2
    assert gf8().add(5, 3) == 6


def test_multiplication_examples():
    f = gf4()
    assert f.mul(A, A) == A2          # alpha^2
    assert f.mul(A, A2) == 1          # alpha^3 = 1
    for q_field in (gf4(), gf8()):
        for x in range(q_field.q):
            assert q_field.mul(x, 1) == x
            assert q_field.mul(x, 0) == 0


def test_inverse_examples():
    f = gf4()
    assert f.inv(A) == A2
    # exhaustive cross-check of the inverse against its defining property
    assert [y for y in range(1, 4) if f.mul(A, y) == 1] == [A2]
    assert f.inv(1) == 1
    g = gf8()
    for x in range(1, 8):
        assert g.mul(x, g.inv(x)) == 1
    with pytest.raises(FieldDivisionError):
        f.inv(0)


@pytest.mark.parametrize("field", [gf4(), gf8(), gf16()])
def test_field_laws_exhaustive(field):
    els = range(field.q)
    for x, y, z in itertools.product(els, repeat=3):
        assert field.mul(x, y) == field.mul(y, x)
        assert field.add(x, y) == field.add(y, x)
        assert field.mul(field.mul(x, y), z) == field.mul(x, field.mul(y, z))
        assert field.add(field.add(x, y), z) == field.add(x, field.add(y, z))
        assert field.mul(x, field.add(y, z)) == field.add(field.mul(x, y), field.mul(x, z))


@pytest.mark.parametrize("field", [gf4(), gf8(), gf16()])
def test_multiplicative_group_cyclic(field):
    powers = set()
    x = 1
    for _ in range(field.q - 1):
        powers.add(x)
        x = field.mul(x, 2)
    assert powers == set(range(1, field.q))
    assert x == 1


@pytest.mark.parametrize("field", [gf4(), gf8(), gf16()])
def test_log_antilog_round_trip(field):
    for x in range(1, field.q):
        assert field.antilog_table[field.log_table[x]] == x


@pytest.mark.parametrize("field", [gf4(), gf8(), gf16()])
def test_mul_row_matches_mul_exhaustive(field):
    for x in range(field.q):
        row = field.mul_row(x)
        assert row == tuple(field.mul(x, y) for y in range(field.q))
        assert field.mul_row(x) is row  # filled once, then reused


def test_format_element():
    f = gf4()
    assert [format_element(f, v) for v in range(4)] == ["0", "1", "a", "a^2"]
    assert format_element(gf8(), 7) == "a^5"
