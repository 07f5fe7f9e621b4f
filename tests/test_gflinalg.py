import random
from functools import reduce
from operator import xor

import pytest

from conftest import (
    drop_rows,
    gf16,
    identity_matrix,
    in_span,
    naive_full_support,
    random_matrices,
    rank,
    reference_full_support,
    reference_null_space,
    reference_rref,
    span_size_rank,
    spans_equal,
    zero_matrix,
)
from wcmopt import fixtures as fx
from wcmopt.gf import gf4, gf8
from wcmopt.gflinalg import (
    DimensionMismatchError,
    GfMatrix,
    NullSpaceBasis,
    SearchTooLargeError,
    SupportScan,
    has_full_support_vector,
    mat_vec,
    null_space,
    rref,
    support_scan,
)

A, A2 = 2, 3


def test_rref_identity_and_zero():
    f = gf4()
    eye = identity_matrix(3, f)
    reduced, rk = rref(eye)
    assert rk == 3 and reduced.entries == eye.entries
    zero = zero_matrix(3, 4, f)
    assert rref(zero)[1] == 0


def test_rref_rank_matches_span_size_oracle():
    # the 9x6 adjacency with both tunable weights at 1 has rank 5
    m = fx.gast_6_0_0_9_0().adjacency()
    assert rank(m) == 5
    assert span_size_rank(m) == 5


def test_rref_idempotent_random():
    rng = random.Random(1)
    for field in (gf4(), gf8()):
        for _ in range(50):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            m = GfMatrix.from_rows(
                [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)], field
            )
            once, rk1 = rref(m)
            twice, rk2 = rref(once)
            assert once.entries == twice.entries and rk1 == rk2


def test_null_space_identity_empty():
    ns = null_space(identity_matrix(4, gf4()))
    assert ns.dimension == 0 and ns.basis_vectors == ()


def test_null_space_basis_properties():
    rng = random.Random(7)
    for field in (gf4(), gf8()):
        for _ in range(40):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            m = GfMatrix.from_rows(
                [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)], field
            )
            ns = null_space(m)
            assert ns.dimension == cols - rank(m)
            for vec in ns.basis_vectors:
                assert all(x == 0 for x in mat_vec(m, vec))
            if ns.basis_vectors:
                stacked = GfMatrix.from_rows(ns.basis_vectors, field)
                assert rank(stacked) == ns.dimension


def test_null_space_worked_example_two_components():
    # drop the rows of (c1, c4, c9): two-dimensional null space with the
    # documented basis, up to change of basis
    cfg = fx.gast_6_0_0_9_0()
    m = drop_rows(cfg.adjacency(), [0, 3, 8])
    ns = null_space(m)
    assert ns.dimension == 2
    assert spans_equal(ns.basis_vectors, [(A, 0, 0, 0, 1, 1), (0, 1, 1, A, 0, 0)], cfg.field)


def test_null_space_worked_example_short_matrix():
    cfg = fx.gast_6_2_2_5_2()
    m = drop_rows(cfg.adjacency(), [1, 3, 7, 8])
    ns = null_space(m)
    assert ns.dimension == 2
    for v in [(0, 1, 1, A2, 1, 0), (1, 1, 1, 0, 0, A2)]:
        assert in_span(ns.basis_vectors, v, cfg.field)


def test_full_support_witness_found():
    cfg = fx.gast_6_0_0_9_0()
    m = drop_rows(cfg.adjacency(), [0, 3, 8])
    ns = null_space(m)
    found, witness = has_full_support_vector(ns)
    assert found
    assert all(x != 0 for x in witness)
    assert all(x == 0 for x in mat_vec(m, witness))
    # the documented full-support vector lies in the same null space
    assert in_span(ns.basis_vectors, (A, 1, 1, A, 1, 1), cfg.field)


def test_full_support_empty_basis():
    ns = NullSpaceBasis(0, (), 6, gf4())
    assert has_full_support_vector(ns) == (False, None)


def test_full_support_broken_after_reweight():
    cfg = fx.gast_6_0_0_9_0(w61=A2)
    ns = null_space(drop_rows(cfg.adjacency(), [0, 3, 8]))
    assert ns.dimension == 1
    assert spans_equal(ns.basis_vectors, [(0, 1, 1, A, 0, 0)], cfg.field)
    assert has_full_support_vector(ns) == (False, None)


def test_full_support_cap():
    f = gf4()
    # first basis vector already has full support, so the override scan
    # terminates on its first candidate
    basis = ((1,) * 13,) + tuple(
        tuple(1 if i == j else 0 for j in range(13)) for i in range(1, 13)
    )
    ns = NullSpaceBasis(13, basis, 13, f)
    with pytest.raises(SearchTooLargeError):
        has_full_support_vector(ns)
    found, witness = has_full_support_vector(ns, support_cap=13)
    assert found and witness == (1,) * 13


def test_full_support_agrees_with_naive_oracle():
    rng = random.Random(21)
    for _ in range(200):
        field = rng.choice([gf4(), gf8()])
        length = rng.randrange(2, 6)
        rows = rng.randrange(1, length + 1)
        m = GfMatrix.from_rows(
            [[rng.randrange(field.q) for _ in range(length)] for _ in range(rows)], field
        )
        ns = null_space(m)
        if ns.dimension > 4:
            continue
        mine = has_full_support_vector(ns)[0]
        naive = naive_full_support(ns)[0]
        assert mine == naive


def random_null_spaces(rng, count):
    for _ in range(count):
        field = rng.choice([gf4(), gf8(), gf16()])
        length = rng.randrange(2, 7)
        m = GfMatrix.from_rows(
            [[rng.choice([0, rng.randrange(field.q)]) for _ in range(length)]
             for _ in range(rng.randrange(1, length + 1))],
            field,
        )
        yield m, null_space(m)


def test_full_support_witness_matches_projective_walk():
    # the witness is the first hit of the projective walk, lead by lead; a
    # null_space basis can only hit at lead 0 (each vector is 0 at the other
    # free columns), so random recombinations of it are scanned too
    rng = random.Random(22)
    hits = 0
    for _, ns in random_null_spaces(rng, 300):
        if not 0 < ns.dimension <= 3:
            continue
        f, p = ns.field, ns.dimension
        mixed = []
        for _ in range(p):
            coeffs = [rng.randrange(f.q) for _ in range(p)]
            mixed.append(tuple(
                reduce(xor, (f.mul(c, x) for c, x in zip(coeffs, column)))
                for column in zip(*ns.basis_vectors)
            ))
        for basis in (ns.basis_vectors, tuple(mixed)):
            nsb = NullSpaceBasis(p, basis, ns.length, f)
            found = has_full_support_vector(nsb)
            assert found == reference_full_support(nsb)
            hits += found[0]
    assert hits > 40


@pytest.mark.parametrize("field", [gf4(), gf8(), gf16()], ids=["gf4", "gf8", "gf16"])
def test_support_scan_multiples_match_field_products(field):
    rng = random.Random(field.q)
    for length in (0, 1, 15):
        scan = SupportScan(field, length)
        for _ in range(20):
            vec = [rng.randrange(field.q) for _ in range(length)]
            assert scan.multiples(scan.pack(vec)) == [
                sum(field.mul(c, x) << scan.width * i for i, x in enumerate(vec))
                for c in range(field.q)
            ]


def test_support_scan_is_one_per_field_and_length():
    # equal fields share their scans, so a kernel's layouts cost a lookup
    scan, fresh = support_scan(gf4(), 5), SupportScan(gf4(), 5)
    assert scan is support_scan(gf4(), 5)
    assert (scan.field, scan.length, scan.carry, scan.guards) == (fresh.field, fresh.length, fresh.carry, fresh.guards)
    assert support_scan(gf4(), 6) is not scan and support_scan(gf8(), 5) is not scan


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_packed_rref_matches_reference(seed):
    # the packed kernel and the list-based reference give the same
    # canonical form, rank and null-space basis, entry for entry
    rng = random.Random(seed)
    for m in random_matrices(rng, 300):
        ref, rk = reference_rref(m)
        assert rref(m) == (ref, rk)
        assert rank(m) == rk
        assert null_space(m) == reference_null_space(m)


def test_mat_vec_examples():
    cfg = fx.gast_6_0_0_9_0()
    a = cfg.adjacency()
    assert mat_vec(a, (0, 0, 0, 0, 0, 0)) == (0,) * 9
    assert mat_vec(a, (A, 1, 1, A, 1, 1)) == (0,) * 9
    wz = drop_rows(fx.gast_6_2_2_5_2().adjacency(), [7, 8])
    assert mat_vec(wz, (A2, 1, 1, 1, A, A)) == (0,) * 7
    with pytest.raises(DimensionMismatchError):
        mat_vec(a, (1, 2, 3))


def test_in_span_and_spans_equal():
    f = gf4()
    base = [(1, 0, 1), (0, 1, A)]
    assert in_span(base, (1, 1, f.add(1, A)), f)
    assert not in_span(base, (0, 0, 1), f)
    scaled = [tuple(f.mul(A, x) for x in v) for v in base]
    assert spans_equal(base, scaled, f)
    assert not spans_equal(base, [(1, 0, 1)], f)
    assert in_span([], (0, 0), f) and not in_span([], (1, 0), f)
