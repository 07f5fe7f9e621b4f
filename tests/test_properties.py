"""Randomized invariant suites over the fixture topologies.

Each suite runs at least 200 cases; hypothesis drives the pure linear
algebra, seeded generators drive the labeled-configuration suites so case
counts stay explicit.
"""

import itertools
import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from conftest import (
    drop_rows,
    gf16,
    naive_full_support,
    random_code,
    random_reweighting,
    random_weights,
    rank,
    reference_oracle_in_family,
    reference_smallest_b_on_rows,
    satisfied_labeling,
)
from wcmopt import fixtures as fx
from wcmopt.config import classify_unlabeled, cn_flippable_partners
from wcmopt.gf import gf4, gf8
from wcmopt.gflinalg import (
    GfMatrix,
    SearchTooLargeError,
    has_full_support_vector,
    mat_vec,
    null_space,
    rref,
)
from wcmopt.removal import (
    compute_b_for_values,
    evaluate_weight_conditions,
    is_in_Z,
    oracle_in_family,
    oracle_is_gas,
    _pack_rows,
    remove_object,
    smallest_b,
    smallest_b_on_rows,
)
from wcmopt.wcmtree import build_tree, extract_wcms, grow_tree


def matrix_strategy(field):
    return st.integers(1, 5).flatmap(
        lambda rows: st.integers(1, 5).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(0, field.q - 1), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            ).map(lambda data: GfMatrix.from_rows(data, field))
        )
    )


@settings(max_examples=120, deadline=None)
@given(matrix_strategy(gf4()))
def test_rank_nullity_gf4(m):
    assert null_space(m).dimension + rank(m) == m.cols


@settings(max_examples=120, deadline=None)
@given(matrix_strategy(gf8()))
def test_rank_nullity_gf8(m):
    assert null_space(m).dimension + rank(m) == m.cols


@settings(max_examples=200, deadline=None)
@given(matrix_strategy(gf4()))
def test_rref_idempotent(m):
    once, rk = rref(m)
    again, rk2 = rref(once)
    assert once.entries == again.entries and rk == rk2


@settings(max_examples=200, deadline=None)
@given(matrix_strategy(gf4()))
def test_full_support_matches_naive(m):
    ns = null_space(m)
    if ns.dimension > 4:
        return
    found, witness = has_full_support_vector(ns)
    assert found == naive_full_support(ns)[0]
    if found:
        assert all(x != 0 for x in witness)
        assert all(x == 0 for x in mat_vec(m, witness))


def _fixture_topologies(field=None):
    return [
        ("gast", fx.gast_6_0_0_9_0(field=field)),
        ("gast", fx.gast_6_2_2_5_2(field=field)),
        ("gast", fx.ugast_6_2_11_0(field=field)),
        ("ost", fx.ost_6_2_11_0(field=field)),
    ]


def test_component_decomposition_on_random_labelings():
    rng = random.Random(101)
    checked = 0
    for kind, base in _fixture_topologies():
        tree = build_tree(base, mode=kind)
        wcms = extract_wcms(base, tree)
        for _ in range(50):
            cfg = random_weights(base, rng)
            report = evaluate_weight_conditions(cfg, wcms)
            for rec in report.records:
                assert rec.p == sum(rec.component_dims)
                if not rec.broken:
                    assert all(d > 0 for d in rec.component_dims)
                    assert rec.p >= rec.delta
            checked += 1
    assert checked >= 200


def test_component_decomposition_on_removal_candidates():
    # the removal loop stops at the first unbroken matrix and never splits
    # components, so the identity is checked here on the re-weightings of
    # family members that it tries
    rng = random.Random(202)
    checked = 0
    for field in (gf4(), gf8(), gf16()):
        for kind, base in _fixture_topologies(field):
            wcms = extract_wcms(base, build_tree(base, mode=kind))
            for _ in range(20):
                member = satisfied_labeling(base, rng)
                cfg = member.with_weights(random_reweighting(member, rng))
                report = evaluate_weight_conditions(cfg, wcms)
                for rec in report.records:
                    assert rec.p == sum(rec.component_dims)
                    if not rec.broken:
                        assert all(d > 0 for d in rec.component_dims)
                checked += 1
    assert checked >= 200


def test_b_equal_d1_implies_all_unbroken():
    # labelings with every degree->=2 check satisfied have exactly d1
    # unsatisfied checks, and then no matrix can have broken conditions
    rng = random.Random(55)
    checked = 0
    for builder in (fx.gast_6_0_0_9_0, fx.gast_6_2_2_5_2, fx.ugast_7_9_13_0):
        base = builder()
        tree = build_tree(base)
        wcms = extract_wcms(base, tree)
        for _ in range(70):
            cfg = satisfied_labeling(base, rng)
            report = evaluate_weight_conditions(cfg, wcms)
            assert all(not rec.broken for rec in report.records)
            checked += 1
    assert checked >= 200


def test_short_wcm_state_after_removal():
    # a successfully removed object leaves every short matrix with a
    # nonzero-dimension null space whose vectors all have zero coordinates
    rng = random.Random(77)
    base = fx.gast_6_2_2_5_2()
    tree = build_tree(base)
    wcms = extract_wcms(base, tree)
    removed = 0
    attempts = 0
    while removed < 200 and attempts < 1000:
        attempts += 1
        cfg = random_weights(base, rng)
        if not is_in_Z(cfg, wcms):
            continue
        plan = remove_object(cfg, wcms)
        if plan.result != "removed":
            continue
        post = cfg.with_weights({(cn, vn): new for cn, vn, _, new in plan.changes})
        report = evaluate_weight_conditions(post, wcms)
        assert report.all_broken
        for rec, raw in zip(report.records, wcms.wcms):
            matrix = drop_rows(post.adjacency(), raw.removed_rows)
            if matrix.rows < matrix.cols:
                assert rec.p > 0
                assert rec.broken
        removed += 1
    assert removed >= 200


def test_oracle_and_wcm_membership_agree():
    rng = random.Random(31)
    checked = 0
    for kind, base in _fixture_topologies():
        tree = build_tree(base, mode=kind)
        wcms = extract_wcms(base, tree)
        assert (base.field.q - 1) ** base.num_vns <= 10**5
        for _ in range(50):
            cfg = random_weights(base, rng)
            via_wcm = is_in_Z(cfg, wcms)
            via_oracle = oracle_in_family(cfg, kind).is_member
            assert via_wcm == via_oracle
            checked += 1
    assert checked >= 200


def test_classification_label_invariance():
    rng = random.Random(13)
    checked = 0
    for _, base in _fixture_topologies():
        reference = classify_unlabeled(base)
        for _ in range(50):
            assert classify_unlabeled(random_weights(base, rng)) == reference
            checked += 1
    assert checked >= 200


def test_flippable_partner_antitonicity():
    rng = random.Random(17)
    checked = 0
    for kind, base in _fixture_topologies():
        candidates = sorted(base.deg2_cns)
        for _ in range(50):
            k = rng.randrange(0, min(3, len(candidates)))
            marked = rng.sample(candidates, k)
            extra = rng.choice([c for c in candidates if c not in marked])
            smaller = cn_flippable_partners(base, marked, mode=kind)
            larger = cn_flippable_partners(base, marked + [extra], mode=kind)
            assert larger <= smaller
            checked += 1
    assert checked >= 200


def test_membership_agreement_wider_regimes():
    # column weight 5 (two unsatisfied checks allowed per VN) and an
    # oscillating shape with a degree-3 check exercise branch behavior the
    # main agreement suite does not reach
    rng = random.Random(99)
    for builder, kind, n in (
        (fx.ugast_7_9_13_0, "gast", 40),
        (fx.ost_8_3_13_1, "ost", 30),
    ):
        base = builder()
        tree = build_tree(base, mode=kind)
        wcms = extract_wcms(base, tree)
        for _ in range(n):
            cfg = random_weights(base, rng)
            assert is_in_Z(cfg, wcms) == oracle_in_family(cfg, kind).is_member


def test_subclass_caps_agree_with_oracle():
    # the elementary cap keeps b = d1 only; the balanced cap allows
    # floor(a*g/2) unsatisfied checks in total.  Membership through the
    # capped matrix family must match the exhaustive reference at the same cap.
    rng = random.Random(47)
    base = fx.gast_6_2_2_5_2()
    for mode in ("eas", "bast"):
        tree = build_tree(base, mode)
        wcms = extract_wcms(base, tree)
        b_cap = base.d1 + tree.b_et
        for _ in range(60):
            cfg = random_weights(base, rng)
            assert is_in_Z(cfg, wcms) == reference_oracle_in_family(cfg, b_cap, "gast").is_member


def test_oracle_witness_consistency():
    # every oracle witness reproduces its own smallest b through the
    # syndrome computation
    rng = random.Random(23)
    checked = 0
    for kind, base in _fixture_topologies():
        for _ in range(50):
            cfg = random_weights(base, rng)
            res = oracle_is_gas(cfg, "os" if kind == "ost" else "gas")
            if res.is_member:
                b, _, _ = compute_b_for_values(cfg, res.witness)
                assert b == res.smallest_b
            checked += 1
    assert checked >= 200


def test_smallest_b_matches_the_family_oracle_on_random_codes():
    # the family walk against the exhaustive oracle on every shape hit of
    # random codes; each witness attains its b with only checks of degree
    # <= 2 unsatisfied and every VN keeping the kind's majority
    rng = random.Random(61)
    hits, members = {}, {}
    for field, max_a in ((gf4(), 6), (gf8(), 5)):
        for gamma in (3, 4):
            for _ in range(4):
                graph = random_code(rng, rng.randint(6, 9), 8, gamma, field)
                for kind in ("gast", "ost") if gamma % 2 == 0 else ("gast",):
                    for subset in (
                        s for k in range(1, max_a + 1) for s in itertools.combinations(range(8), k)
                    ):
                        cfg = graph.induce(subset)
                        if not classify_unlabeled(cfg).supports(kind):
                            continue
                        fam = oracle_in_family(cfg, kind)
                        hit = smallest_b(cfg, build_tree(cfg, kind))
                        assert (hit is not None) == fam.is_member, (subset, kind)
                        key = (field.q, gamma, kind)
                        hits[key] = hits.get(key, 0) + 1
                        if hit is None:
                            continue
                        members[key] = members.get(key, 0) + 1
                        b, witness = hit
                        assert b == fam.smallest_b
                        assert all(witness)
                        syndrome = mat_vec(cfg.adjacency(), witness)
                        unsat = {cn for cn, x in enumerate(syndrome) if x}
                        assert len(unsat) == b
                        assert all(len(cfg.cn_neighbors[cn]) <= 2 for cn in unsat)
                        for vn in range(cfg.num_vns):
                            u = sum(1 for cn, _ in cfg.vn_neighbors[vn] if cn in unsat)
                            assert 2 * u < gamma if kind == "gast" else 2 * u <= gamma
    assert len(members) == 6 and min(hits.values()) >= 150 and min(members.values()) >= 10, (hits, members)


def _family_cases(rng):
    """Family questions: shape hits of random GF(4)/GF(8) codes, and random and satisfied labelings of the shipped shapes.

    Each is ``(args, kind, cfg)``: ``smallest_b_on_rows``'s arguments up to
    the cap, the family's kind and the configuration the rows come from.
    """
    for field in (gf4(), gf8()):
        for gamma in (3, 4):
            kinds = ("gast", "ost") if gamma % 2 == 0 else ("gast",)
            for _ in range(3):
                graph = random_code(rng, rng.randint(6, 9), 8, gamma, field)
                for subset, topo, read in graph.shapes(6):
                    shape = None
                    for kind in kinds:
                        if topo.supports(kind):
                            shape = shape or read()
                            tree = grow_tree(shape.pairs, shape.vn_deg1_counts, topo, gamma, kind)
                            yield (shape.rows, shape.deg1_rows, tree, len(subset), field), kind, graph.induce(subset)
        for kind, base in _fixture_topologies(field):
            for make in (random_weights, satisfied_labeling):
                for _ in range(10):
                    cfg = make(base, rng)
                    rows = _pack_rows(cfg.adjacency().entries, cfg.num_vns - 1, field)
                    yield (rows, sorted(cfg.deg1_cns), build_tree(cfg, kind), cfg.num_vns, field), kind, cfg


def test_smallest_b_on_rows_matches_the_walk_over_every_set():
    # judging the leaf sets first changes no answer: the same (b, witness),
    # or the same support-cap overrun, as the walk over all t' sets, at
    # caps that overrun often, sometimes and never
    def outcome(judge, args, cap):
        try:
            return judge(*args, cap)
        except SearchTooLargeError as exc:
            return f"overrun: {exc}"

    seen = Counter()
    for args, kind, _ in _family_cases(random.Random(71)):
        tree = args[2]
        for cap in (0, 1, 12):
            got = outcome(smallest_b_on_rows, args, cap)
            assert got == outcome(reference_smallest_b_on_rows, args, cap), (args, kind, cap)
            verdict = "out" if got is None else "overrun" if isinstance(got, str) else "member"
            seen[cap, verdict, len(tree.family) > len(tree.leaf_sets())] += 1
    # every verdict a cap allows, on trees with inner sets: a member needs a
    # null space of dimension at least 1, so cap 0 overruns on each of them
    allowed = {0: ("out", "overrun"), 1: ("out", "member", "overrun"), 12: ("out", "member")}
    assert all(seen[cap, verdict, True] >= 5 for cap, verdicts in allowed.items() for verdict in verdicts), seen


def test_a_flippable_set_is_no_freer_than_a_leaf_set_holding_it():
    # the lemma behind judging the leaf sets first: a set's matrix keeps
    # every row a leaf set holding it keeps, so its null space lies in the
    # leaf's; its dimension is no larger, and a set whose matrix is unbroken
    # has every leaf holding it unbroken
    unbroken_inner = 0
    for (_, _, tree, _, _), kind, cfg in _family_cases(random.Random(73)):
        leaves = tree.leaf_sets()
        judged = {}
        for s in tree.family:
            ns = null_space(drop_rows(cfg.adjacency(), cfg.deg1_cns.union(s)))
            judged[s] = ns.dimension, has_full_support_vector(ns, cfg.num_vns)[0]
        for s, (dim, unbroken) in judged.items():
            holding = [leaf for leaf in leaves if set(s) <= set(leaf)]
            assert holding, (s, kind)
            for leaf in holding:
                assert dim <= judged[leaf][0], (s, leaf, kind)
                assert judged[leaf][1] or not unbroken, (s, leaf, kind)
            unbroken_inner += unbroken and tree.family[s] != ()
    assert unbroken_inner >= 50, unbroken_inner
