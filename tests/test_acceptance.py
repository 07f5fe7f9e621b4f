"""Acceptance gate: every criterion with its stated tolerance.

All quantities are exact integers or exact set/span equalities; run with
``pytest -s tests/test_acceptance.py`` to see one PASS line per criterion.
"""

import pathlib
import random
import time

from conftest import drop_rows, gf_matrix, in_span, ordered_view, random_weights, rank, satisfied_labeling, spans_equal
from wcmopt import fixtures as fx
from wcmopt.cli import main, parse_code, parse_targets
from wcmopt.gf import gf4, gf8
from wcmopt.gflinalg import null_space
from wcmopt.removal import (
    compute_e_min,
    evaluate_weight_conditions,
    is_in_Z,
    oracle_in_family,
    remove_object,
)
from wcmopt.wcmtree import (
    build_tree,
    count_wcms_u_symmetric,
    extract_wcms,
    z_family,
)

A, A2 = 2, 3
FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def report(n, message):
    print(f"criterion {n}: PASS — {message}")


def test_criterion_1_wcm_counts():
    start = time.perf_counter()
    cases = [
        (fx.gast_6_2_2_5_2, 2),
        (fx.ugast_7_9_13_0, 5),
        (fx.ugast_6_2_11_0, 3),
        (fx.ugast_6_0_9_0, 6),
        (fx.ugast_8_0_16_0, 24),
    ]
    for builder, expected in cases:
        cfg = builder()
        tree = build_tree(cfg)
        assert len(tree.leaf_sets()) == expected
        assert extract_wcms(cfg, tree).t == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"matrix-family counts 2, 5, 3, 6, 24 exact ({elapsed:.2f}s)")


def test_criterion_2_suboptimal_counts():
    start = time.perf_counter()
    cases = [
        (fx.gast_6_2_2_5_2, (5, 3)),
        (fx.ugast_7_9_13_0, (11, 6)),
        (fx.ugast_6_0_9_0, (34, 28)),
        (fx.ugast_8_0_16_0, (209, 185)),
    ]
    for builder, expected in cases:
        cfg = builder()
        wcms = extract_wcms(cfg, build_tree(cfg))
        assert (wcms.t_prime, wcms.t_prime - wcms.t) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"alternative-family sizes (5,3) (11,6) (34,28) (209,185) exact ({elapsed:.2f}s)")


def test_criterion_3_factorial_closed_form():
    import math

    for gamma, builder in ((3, fx.ugast_6_0_9_0), (4, fx.ugast_8_0_16_0)):
        cfg = builder()
        assert cfg.params() == (2 * gamma, 0, gamma * gamma, 0)
        tree = build_tree(cfg)
        profile = tree.u_profile()
        assert profile == tuple((gamma - j) ** 2 for j in range(gamma))
        closed = count_wcms_u_symmetric(profile)
        constructed = len(tree.leaf_sets())
        extracted = extract_wcms(cfg, tree).t
        assert closed == constructed == extracted == math.factorial(gamma)
    report(3, "factorial closed form agrees with tree and extraction for both widths")


def test_criterion_4_degree_bounds():
    cfg = fx.ugast_7_9_13_0()
    tree = build_tree(cfg)
    from wcmopt.config import classify_unlabeled

    assert classify_unlabeled(cfg).b_ut == 2
    assert cfg.d1 + tree.b_et == 11
    assert z_family(cfg, tree) == (
        (7, 9, 9, 13, 0),
        (7, 10, 9, 13, 0),
        (7, 11, 9, 13, 0),
    )
    cfg2 = fx.ugast_8_0_16_0()
    tree2 = build_tree(cfg2)
    assert classify_unlabeled(cfg2).b_ut == 4
    assert cfg2.d1 + tree2.b_et == 4
    assert classify_unlabeled(fx.ost_8_3_13_1()).b_o_ut == 6
    assert classify_unlabeled(fx.ost_6_2_11_0()).b_o_ut == 5
    report(4, "degree bounds 2/11 with 3-member family, 4/4, and 6, 5 exact")


def test_criterion_5_null_space_fixtures():
    cfg = fx.gast_6_0_0_9_0()
    tree = build_tree(cfg)
    wcms = extract_wcms(cfg, tree)
    by_group = {rec.deg2_group: drop_rows(gf_matrix(cfg.adjacency(), cfg.field), rec.removed_rows) for rec in wcms.wcms}
    ns = null_space(by_group[(0, 3, 8)])
    assert ns.dimension == 2
    assert spans_equal(
        ns.basis_vectors, [(A, 0, 0, 0, 1, 1), (0, 1, 1, A, 0, 0)], cfg.field
    )
    # remaining nine: one-dimensional span of the full-support witness
    for group, matrix in by_group.items():
        if group == (0, 3, 8):
            continue
        other = null_space(matrix)
        assert other.dimension == 1
        assert in_span(other.basis_vectors, (A, 1, 1, A, 1, 1), cfg.field)

    cfg2 = fx.gast_6_2_2_5_2()
    wcms2 = extract_wcms(cfg2, build_tree(cfg2))
    by_group2 = {rec.deg2_group: drop_rows(gf_matrix(cfg2.adjacency(), cfg2.field), rec.removed_rows) for rec in wcms2.wcms}
    short = null_space(by_group2[(1, 3)])
    assert short.dimension == 2
    for v in [(0, 1, 1, A2, 1, 0), (1, 1, 1, 0, 0, A2)]:
        assert in_span(short.basis_vectors, v, cfg2.field)
    single = null_space(by_group2[(2,)])
    assert single.dimension == 1
    assert spans_equal(single.basis_vectors, [(A2, 1, 1, 1, A, A)], cfg2.field)
    report(5, "all documented null spaces match up to change of basis, dimensions exact")


def test_criterion_6_removal_replays():
    base = fx.gast_6_0_0_9_0()
    wcms = extract_wcms(base, build_tree(base))

    first = fx.gast_6_0_0_9_0(w11=A, w61=A)
    rep1 = evaluate_weight_conditions(first, wcms)
    assert rep1.unbroken_indices() == (5, 7, 10)

    second = fx.gast_6_0_0_9_0(w11=A, w61=A2)
    rep2 = evaluate_weight_conditions(second, wcms)
    assert rep2.all_broken

    variant = fx.gast_6_0_0_9_0(w11=A)
    plan = remove_object(variant, wcms)
    assert plan.result == "removed" and len(plan.changes) == 1

    tuned = fx.gast_6_2_2_5_2(w=A)
    wcms2 = extract_wcms(fx.gast_6_2_2_5_2(), build_tree(fx.gast_6_2_2_5_2()))
    assert evaluate_weight_conditions(tuned, wcms2).all_broken
    assert not is_in_Z(tuned, wcms2)
    report(6, "replays: survivors {5,7,10}, full break, 1-change variant, tuned-weight removal")


def test_criterion_7_minimum_change_counts():
    assert compute_e_min(fx.gast_6_0_0_9_0())[:2] == (2, 2)
    assert compute_e_min(fx.gast_6_0_0_9_0(w11=A))[:2] == (1, 2)
    assert compute_e_min(fx.gast_6_2_2_5_2())[:2] == (1, 1)
    report(7, "minimum change counts (2,2), (1,2), (1,1) exact")


def test_criterion_8_property_suites():
    start = time.perf_counter()
    rng = random.Random(2024)

    # rank-nullity over GF(4) and GF(8)
    cases = 0
    for field in (gf4(), gf8()):
        for _ in range(120):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            m = gf_matrix(
                [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)],
                field,
            )
            assert null_space(m).dimension + rank(m) == cols
            cases += 1
    assert cases >= 200

    # null-space decomposition across components on random labelings
    cases = 0
    for kind, base in (
        ("gast", fx.gast_6_0_0_9_0()),
        ("gast", fx.gast_6_2_2_5_2()),
        ("ost", fx.ost_6_2_11_0()),
    ):
        wcms = extract_wcms(base, build_tree(base, mode=kind))
        for _ in range(70):
            cfg = random_weights(base, rng)
            rep = evaluate_weight_conditions(cfg, wcms)
            for rec in rep.records:
                assert rec.p == sum(rec.component_dims)
                if not rec.broken:
                    assert rec.p >= rec.delta
            cases += 1
    assert cases >= 200

    # labelings with exactly d1 unsatisfied checks keep every matrix unbroken
    cases = 0
    for builder in (fx.gast_6_0_0_9_0, fx.gast_6_2_2_5_2, fx.ugast_7_9_13_0):
        base = builder()
        wcms = extract_wcms(base, build_tree(base))
        for _ in range(70):
            cfg = satisfied_labeling(base, rng)
            rep = evaluate_weight_conditions(cfg, wcms)
            assert all(not rec.broken for rec in rep.records)
            cases += 1
    assert cases >= 200

    # short matrices after successful removals: p > 0, no full support
    base = fx.gast_6_2_2_5_2()
    wcms = extract_wcms(base, build_tree(base))
    removed = 0
    attempts = 0
    while removed < 200 and attempts < 1200:
        attempts += 1
        cfg = random_weights(base, rng)
        if not is_in_Z(cfg, wcms):
            continue
        plan = remove_object(cfg, wcms)
        if plan.result != "removed":
            continue
        post = cfg.with_weights({(cn, vn): new for cn, vn, _, new in plan.changes})
        rep = evaluate_weight_conditions(post, wcms)
        assert rep.all_broken
        for rec in rep.records:
            matrix_rows = base.num_cns - len(rec.removed_rows)
            if matrix_rows < base.num_vns:
                assert rec.p > 0 and rec.broken
        removed += 1
    assert removed >= 200

    # exhaustive oracle agrees with the matrix-based membership test, on
    # every fixture topology within the feasibility cap
    from wcmopt.config import classify_unlabeled

    cases = 0
    for name, base in fx.all_fixture_configurations().items():
        if (base.field.q - 1) ** base.num_vns > 10**5:
            continue
        topo = classify_unlabeled(base)
        kind = "gast" if topo.is_unlabeled_gast else ("ost" if topo.is_unlabeled_ost else None)
        if kind is None:
            continue
        tree = build_tree(base, mode=kind)
        wcms = extract_wcms(base, tree)
        for _ in range(25):
            cfg = random_weights(base, rng)
            assert is_in_Z(cfg, wcms) == oracle_in_family(cfg, kind).is_member
            cases += 1
    assert cases >= 200

    # coverage and minimality of the extracted family, on every fixture tree
    for name, cfg in fx.all_fixture_configurations().items():
        from wcmopt.config import classify_unlabeled

        topo = classify_unlabeled(cfg)
        kind = "gast" if topo.is_unlabeled_gast else ("ost" if topo.is_unlabeled_ost else None)
        if kind is None:
            continue
        tree = build_tree(cfg, mode=kind)
        wcms = extract_wcms(cfg, tree)
        group_sets = [set(rec.deg2_group) for rec in wcms.wcms]
        for path in ordered_view(tree).nodes():
            assert any(set(path) <= g for g in group_sets)
        for g in group_sets:
            assert [h for h in group_sets if g <= h] == [g]

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(8, f"six property suites, >=200 cases each ({elapsed:.1f}s)")


def test_criterion_9_end_to_end(tmp_path):
    start = time.perf_counter()
    code_path = str(FIXDIR / "toy_code.txt")

    def run_once(tag):
        found = tmp_path / f"found{tag}.txt"
        opt = tmp_path / f"opt{tag}.txt"
        refound = tmp_path / f"refound{tag}.txt"
        assert main(["enumerate", code_path, "--max-a", "6", "--out", str(found)]) == 0
        targets = [
            t for t in parse_targets(found.read_text())
            if len(t.vn_ids) == 6
        ]
        assert len(targets) == 1
        assert targets[0].vn_ids == (0, 1, 2, 3, 4, 5)
        assert targets[0].expected_params == (6, 0, 0, 9, 0)
        target_file = tmp_path / f"targets{tag}.txt"
        from wcmopt.cli import serialize_targets

        target_file.write_text(serialize_targets(targets))
        assert main(["optimize", code_path, str(target_file), "--out", str(opt)]) == 0
        assert main(["enumerate", str(opt), "--max-a", "6", "--out", str(refound)]) == 0
        left = [t for t in parse_targets(refound.read_text()) if len(t.vn_ids) == 6]
        assert left == []
        return found.read_text(), opt.read_text(), refound.read_text()

    first = run_once("a")
    second = run_once("b")
    assert first == second  # byte-identical across runs

    # change budget: within e_bound + 2 of the removed object
    original = parse_code(pathlib.Path(code_path).read_text())
    optimized = parse_code(first[1])
    changed = [rc for rc in original.weights if original.weights[rc] != optimized.weights[rc]]
    cfg = original.induce(range(6))
    _, e_bound, _ = compute_e_min(cfg)
    assert len(changed) <= e_bound + 2

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(9, f"enumerate -> optimize -> re-enumerate, {len(changed)} changes, deterministic ({elapsed:.1f}s)")
