import gc
import itertools
import pathlib
import random
from dataclasses import replace

import pytest

from conftest import (
    assert_valid_witness,
    compute_b_for_values,
    disjoint_union,
    drop_rows,
    gf16,
    gf_matrix,
    in_span,
    pin_workers,
    random_code,
    random_matrices,
    random_reweighting,
    random_weights,
    rank,
    reference_evaluate_weight_conditions,
    reference_first_unbroken,
    reference_oracle_in_family,
    reference_oracle_is_gas,
    reference_optimize_code,
    reference_remove_object,
    rows_with_weights,
    satisfied_labeling,
    spans_equal,
    sub_configuration,
)
from wcmopt import fixtures as fx, removal
from wcmopt.cli import parse_code, parse_config, parse_targets
from wcmopt.config import CodeGraph, Configuration, classify_unlabeled
from wcmopt.gf import gf4, gf8
from wcmopt.gflinalg import DEFAULT_SUPPORT_CAP, GfMatrix, SearchTooLargeError, mat_vec, null_space
from wcmopt.removal import (
    OracleTooLargeError,
    Target,
    compute_e_min,
    evaluate_weight_conditions,
    is_in_Z,
    optimize_code,
    oracle_in_family,
    oracle_is_gas,
    remove_object,
    select_candidate_edges,
    smallest_b,
    _ColumnMembership,
    _pack_rows,
)
from wcmopt.wcmtree import build_tree, extract_wcms

A, A2 = 2, 3
FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def pipeline(cfg, mode="gast"):
    tree = build_tree(cfg, mode=mode)
    return extract_wcms(cfg, tree)


def checked_basis(cfg, rec):
    """Null-space basis of ``rec``'s matrix; ``rec.witness``, present iff unbroken, lies in its span."""
    basis = null_space(drop_rows(gf_matrix(cfg.adjacency(), cfg.field), rec.removed_rows)).basis_vectors
    assert (rec.witness is None) == rec.broken
    assert rec.witness is None or in_span(basis, rec.witness, cfg.field)
    return basis


class TestWeightConditions:
    def test_baseline_all_unbroken(self):
        cfg = fx.gast_6_0_0_9_0()
        report = evaluate_weight_conditions(cfg, pipeline(cfg))
        assert report.unbroken_indices() == tuple(range(1, 11))
        rec = report.records[1]
        assert tuple(g + 1 for g in rec.deg2_group) == (1, 4, 9)
        assert rec.p == 2 and rec.delta == 2 and rec.component_dims == (1, 1)
        assert spans_equal(checked_basis(cfg, rec), [(A, 0, 0, 0, 1, 1), (0, 1, 1, A, 0, 0)], cfg.field)

    def test_first_change_set_leaves_three_unbroken(self):
        base = fx.gast_6_0_0_9_0()
        wcms = pipeline(base)
        cfg = fx.gast_6_0_0_9_0(w11=A, w61=A)
        report = evaluate_weight_conditions(cfg, wcms)
        assert report.unbroken_indices() == (5, 7, 10)
        survivors = [r for r in report.records if not r.broken]
        for rec in survivors:
            assert spans_equal(checked_basis(cfg, rec), [(1, 1, 1, A, 1, 1)], cfg.field)

    def test_second_change_set_breaks_all(self):
        base = fx.gast_6_0_0_9_0()
        wcms = pipeline(base)
        cfg = fx.gast_6_0_0_9_0(w11=A, w61=A2)
        report = evaluate_weight_conditions(cfg, wcms)
        assert report.all_broken
        rec2 = report.records[1]
        assert rec2.p == 1
        assert spans_equal(checked_basis(cfg, rec2), [(0, 1, 1, A, 0, 0)], cfg.field)

    def test_variant_has_two_unbroken(self):
        base = fx.gast_6_0_0_9_0()
        wcms = pipeline(base)
        cfg = fx.gast_6_0_0_9_0(w11=A)
        report = evaluate_weight_conditions(cfg, wcms)
        assert report.unbroken_indices() == (1, 2)

    def test_matrices_take_the_weights_of_the_configuration_judged(self):
        # a family extracted before a re-weighting judges the new weights
        base = fx.gast_6_0_0_9_0()
        tree = build_tree(base)
        before = extract_wcms(base, tree)
        plan = remove_object(base, before)
        post = base.with_weights({(cn, vn): new for cn, vn, _, new in plan.changes})
        for cfg in (post, fx.gast_6_0_0_9_0(w11=A)):
            report = evaluate_weight_conditions(cfg, before)
            assert report == evaluate_weight_conditions(cfg, extract_wcms(cfg, tree))
            assert before.rebuilt(cfg) == before

    def test_decomposition_invariants(self):
        for builder in (fx.gast_6_0_0_9_0, fx.gast_6_2_2_5_2):
            cfg = builder()
            report = evaluate_weight_conditions(cfg, pipeline(cfg))
            for rec in report.records:
                assert rec.p == sum(rec.component_dims)
                if not rec.broken:
                    assert all(d > 0 for d in rec.component_dims)
                    assert rec.p >= rec.delta

    def test_short_wcm_example(self):
        cfg = fx.gast_6_2_2_5_2()
        report = evaluate_weight_conditions(cfg, pipeline(cfg))
        short = next(r for r in report.records if tuple(g + 1 for g in r.deg2_group) == (2, 4))
        assert short.p == 2 and short.delta == 1 and not short.broken

    def test_removal_by_single_change(self):
        base = fx.gast_6_2_2_5_2()
        wcms = pipeline(base)
        cfg = fx.gast_6_2_2_5_2(w=A)
        report = evaluate_weight_conditions(cfg, wcms)
        assert report.all_broken
        short = next(r for r in report.records if tuple(g + 1 for g in r.deg2_group) == (2, 4))
        assert short.p == 1
        assert spans_equal(checked_basis(cfg, short), [(1, 0, 0, A2, 1, A2)], cfg.field)

    def test_matches_the_null_space_route_on_random_objects(self):
        # every shape hit of size 3 to 6 of random GF(4)/GF(8)/GF(16) codes,
        # with its induced, random and satisfied labelings, at three support
        # caps: the kernel's report has the reference route's verdicts,
        # dimensions and cap overruns, and its witness where the null space
        # is a line; every witness is a full-support null vector with a 1 at
        # the last VN
        def judged(evaluate, cfg, wcms, cap):
            try:
                return evaluate(cfg, wcms, cap)
            except SearchTooLargeError as exc:
                return str(exc)

        rng = random.Random(25)
        seen = dict.fromkeys(("raised", "line", "wider"), 0)
        for field in (gf4(), gf8(), gf16()):
            for gamma in (3, 4):
                graph = random_code(rng, rng.randint(6, 9), 8, gamma, field)
                for subset in (s for k in range(3, 7) for s in itertools.combinations(range(8), k)):
                    cfg = graph.induce(subset)
                    for kind in ("gast", "ost") if gamma == 4 else ("gast",):
                        if not classify_unlabeled(cfg).supports(kind):
                            continue
                        tree = build_tree(cfg, kind)
                        for labeled in (cfg, random_weights(cfg, rng), satisfied_labeling(cfg, rng)):
                            wcms = extract_wcms(labeled, tree)
                            for cap in (0, 1, DEFAULT_SUPPORT_CAP):
                                mine = judged(evaluate_weight_conditions, labeled, wcms, cap)
                                ref = judged(reference_evaluate_weight_conditions, labeled, wcms, cap)
                                if isinstance(ref, str):
                                    assert mine == ref
                                    seen["raised"] += 1
                                    continue
                                for rec, want in zip(mine.records, ref.records, strict=True):
                                    assert rec == replace(want, witness=rec.witness)
                                    if rec.p == 1:
                                        assert rec.witness == want.witness
                                    if rec.witness is not None:
                                        assert_valid_witness(labeled, rec.removed_rows, rec.witness)
                                        assert rec.witness[-1] == 1
                                        seen["line" if rec.p == 1 else "wider"] += 1
        assert min(seen.values()) >= 50, seen


class TestMembership:
    def test_in_family_then_out(self):
        cfg = fx.gast_6_0_0_9_0()
        wcms = pipeline(cfg)
        assert is_in_Z(cfg, wcms)
        removed = fx.gast_6_0_0_9_0(w11=A, w61=A2)
        assert not is_in_Z(removed, wcms)

    def test_b_for_values(self):
        cfg = fx.gast_6_0_0_9_0()
        b, b2, unsat = compute_b_for_values(cfg, (A, 1, 1, A, 1, 1))
        assert (b, b2, unsat) == (0, 0, ())
        b, b2, unsat = compute_b_for_values(cfg, (A2, 1, 1, A, A, A))
        assert b == 3 and b2 == 3 and tuple(u + 1 for u in unsat) == (1, 4, 9)
        with pytest.raises(ValueError):
            compute_b_for_values(cfg, (0, 1, 1, 1, 1, 1))
        with pytest.raises(ValueError):
            compute_b_for_values(cfg, (1, 1))

    def test_oracle_smallest_b(self):
        assert oracle_is_gas(fx.gast_6_0_0_9_0()).smallest_b == 0
        assert oracle_is_gas(fx.gast_6_2_2_5_2()).smallest_b == 2
        removed = fx.gast_6_0_0_9_0(w11=A, w61=A2)
        assert not oracle_is_gas(removed).is_member

    def test_oracle_cap(self):
        with pytest.raises(OracleTooLargeError):
            oracle_is_gas(fx.gast_6_0_0_9_0(), cap=10)

    def test_oracle_witness_is_valid(self):
        cfg = fx.gast_6_2_2_5_2()
        res = oracle_is_gas(cfg)
        b, _, unsat = compute_b_for_values(cfg, res.witness)
        assert b == res.smallest_b
        unsat_set = set(unsat)
        for vn in range(cfg.num_vns):
            u = sum(1 for cn, _ in cfg.vn_neighbors[vn] if cn in unsat_set)
            assert 2 * u < cfg.gamma

    def test_family_oracle_agrees_with_wcms(self):
        for builder, kind in (
            (fx.gast_6_0_0_9_0, "gast"),
            (fx.gast_6_2_2_5_2, "gast"),
            (fx.ost_6_2_11_0, "ost"),
        ):
            cfg = builder()
            tree = build_tree(cfg, mode=kind)
            wcms = extract_wcms(cfg, tree)
            fam = oracle_in_family(cfg, kind)
            assert fam.is_member == is_in_Z(cfg, wcms)

    @pytest.mark.parametrize("path", sorted(FIXDIR.glob("*.cfg")), ids=lambda p: p.stem)
    def test_gas_and_family_smallest_b_agree_on_the_shipped_shapes(self, path):
        # the README's GAS-vs-GAST note: compute_e_min reads b_vn_max off the
        # GAS oracle's witness, the paper off the object's own GAST-family
        # assignment; on every satisfied GF(4) labeling of a shipped shape
        # both smallest b (and the b_vn_max they give) are the same
        shape = parse_config(path.read_text(), str(path))
        assert shape.field.q == 4
        topo = classify_unlabeled(shape)
        rng = random.Random(path.stem)
        pairs = [(gas, fam) for gas, fam in (("gas", "gast"), ("os", "ost")) if topo.supports(fam)]
        assert pairs
        for _ in range(4):
            cfg = satisfied_labeling(shape, rng)
            for gas_kind, family_kind in pairs:
                gas = oracle_is_gas(cfg, gas_kind)
                family = oracle_in_family(cfg, family_kind)
                assert gas.is_member and family.is_member
                assert gas.smallest_b == family.smallest_b == cfg.d1
                per_vn = []
                for witness in (gas.witness, family.witness):
                    unsat = set(compute_b_for_values(cfg, witness)[2])
                    per_vn.append(max(sum(cn in unsat for cn, _ in nbrs) for nbrs in cfg.vn_neighbors))
                assert per_vn[0] == per_vn[1]
        # any labeling: the GAS assignments include the family's, so the GAS
        # smallest b is never the larger one
        if topo.supports("gast"):
            for _ in range(4):
                cfg = random_weights(shape, rng)
                family = oracle_in_family(cfg, "gast")
                if family.is_member:
                    assert oracle_is_gas(cfg, "gas").smallest_b <= family.smallest_b

    def test_gas_and_family_smallest_b_differ_off_the_shipped_shapes(self):
        # two GF(4) shape hits of random gamma=3 codes where the GAS oracle
        # leaves a degree-3 check unsatisfied: a triangle with a shared
        # check that is a GAS but outside the GAST family, and a (5,_,1,4,2)
        # object whose GAS b is below the family's
        triangle = Configuration(3, gf4(), 3, 4, [
            (0, 0, 2), (0, 1, 2), (0, 2, 2), (1, 0, 1), (1, 1, 3),
            (2, 1, 3), (2, 2, 1), (3, 0, 1), (3, 2, 1),
        ])
        assert classify_unlabeled(triangle).is_unlabeled_gast
        assert oracle_is_gas(triangle).smallest_b == 1
        assert not oracle_in_family(triangle, "gast").is_member
        five = Configuration(3, gf4(), 5, 7, [
            (0, 0, 1), (0, 1, 2), (1, 0, 3), (2, 1, 1), (2, 2, 1), (2, 4, 2), (3, 0, 3),
            (3, 3, 3), (4, 1, 2), (4, 4, 2), (5, 2, 3), (5, 3, 1), (6, 2, 2), (6, 3, 3), (6, 4, 1),
        ])
        assert five.params() == (5, 1, 4, 2)
        assert (oracle_is_gas(five).smallest_b, oracle_in_family(five, "gast").smallest_b) == (2, 3)
        assert smallest_b(five, build_tree(five))[0] == 3


class TestEdgeSelection:
    def test_e_min_values(self):
        assert compute_e_min(fx.gast_6_0_0_9_0())[:2] == (2, 2)
        assert compute_e_min(fx.gast_6_0_0_9_0(w11=A))[:2] == (1, 2)
        assert compute_e_min(fx.gast_6_2_2_5_2())[:2] == (1, 1)

    def test_e_min_oracle_fallback(self):
        e_min, e_bound, exact = compute_e_min(fx.gast_6_0_0_9_0(), oracle_cap=10)
        assert (e_min, e_bound, exact) == (2, 2, False)

    def test_e_min_ost(self):
        e_min, e_bound, exact = compute_e_min(fx.ost_6_2_11_0(), kind="ost")
        assert (e_min, e_bound, exact) == (1, 1, True)

    def test_candidate_order_borderline(self):
        cfg = fx.gast_6_2_2_5_2()
        cands = list(select_candidate_edges(cfg, 1))
        # borderline VNs v1 and v2; v1 first with its single degree-2 check,
        # then v2 with the chain head; set sizes are exactly one
        assert cands == [(0, ((4, 0),)), (1, ((0, 1),))]

    def test_candidate_order_no_degree1(self):
        cfg = fx.gast_6_0_0_9_0()
        cands = list(select_candidate_edges(cfg, 2, min_size=2))
        first_vn, first_set = cands[0]
        assert first_vn == 0
        assert first_set == ((0, 0), (5, 0))

    def test_candidate_error_when_no_degree2(self):
        assert list(select_candidate_edges(fx.gast_borderline_no_deg2(), 1)) == []


class TestRemoveObject:
    def test_e_min_exact_follows_oracle_cap(self):
        cfg = fx.gast_6_0_0_9_0()
        assert remove_object(cfg, pipeline(cfg), oracle_cap=729).e_min_exact
        plan = remove_object(cfg, pipeline(cfg), oracle_cap=728)
        assert not plan.e_min_exact and plan.e_min == plan.e_bound
        removed = fx.gast_6_0_0_9_0(w11=A, w61=A2)
        out = remove_object(removed, pipeline(cfg), oracle_cap=1)
        assert (out.result, out.e_min, out.e_min_exact) == ("not_in_z", 0, True)
        borderline = fx.gast_borderline_no_deg2()
        out = remove_object(borderline, pipeline(borderline), oracle_cap=1)
        assert (out.result, out.e_min_exact) == ("unremovable", False)

    def test_walkthrough_pair_of_changes(self):
        cfg = fx.gast_6_0_0_9_0()
        plan = remove_object(cfg, pipeline(cfg), object_id="six")
        assert plan.result == "removed"
        assert plan.changes == ((0, 0, 1, A), (5, 0, 1, A2))
        assert plan.e_min == 2 and plan.e_bound == 2 and plan.e_min_exact
        assert plan.selected_vn == 0
        # post-state verification
        post = cfg.with_weights({(cn, vn): new for cn, vn, _, new in plan.changes})
        assert not is_in_Z(post, pipeline(cfg))
        assert not oracle_is_gas(post).is_member

    def test_variant_single_change(self):
        cfg = fx.gast_6_0_0_9_0(w11=A)
        plan = remove_object(cfg, pipeline(cfg))
        assert plan.result == "removed"
        assert plan.changes == ((5, 0, 1, A2),)

    def test_borderline_single_change(self):
        cfg = fx.gast_6_2_2_5_2()
        plan = remove_object(cfg, pipeline(cfg))
        assert plan.result == "removed" and len(plan.changes) == 1
        post = cfg.with_weights({(cn, vn): new for cn, vn, _, new in plan.changes})
        assert evaluate_weight_conditions(post, pipeline(cfg)).all_broken

    def test_not_in_family_is_noop(self):
        cfg = fx.gast_6_0_0_9_0(w11=A, w61=A2)
        wcms = pipeline(fx.gast_6_0_0_9_0())
        plan = remove_object(cfg, wcms)
        assert plan.result == "not_in_z" and plan.changes == ()

    def test_unremovable_without_candidates(self):
        cfg = fx.gast_borderline_no_deg2()
        plan = remove_object(cfg, pipeline(cfg))
        assert plan.result == "unremovable"

    def test_protected_hook_rejects_first_success(self):
        cfg = fx.gast_6_0_0_9_0()
        wcms = pipeline(cfg)
        seen = []

        def protect(changes):
            seen.append(dict(changes))
            return len(seen) > 1  # reject the first breaking assignment

        plan = remove_object(cfg, wcms, protected_ok=protect)
        assert plan.result == "removed"
        assert plan.protected_checks == 2 and plan.protected_rejections == 1
        assert dict(((cn, vn), new) for cn, vn, _, new in plan.changes) == seen[1]

    def test_ost_removal_stays_out_of_both_shapes(self):
        cfg = fx.ost_6_2_11_0()
        tree = build_tree(cfg, mode="ost")
        wcms = extract_wcms(cfg, tree)
        plan = remove_object(cfg, wcms)
        assert plan.result == "removed" and len(plan.changes) == 1
        post = cfg.with_weights({(cn, vn): new for cn, vn, _, new in plan.changes})
        fam = oracle_in_family(post, "ost")
        assert not fam.is_member


class TestOptimizeCode:
    def test_single_instance(self):
        graph, target = fx.toy_code_single_instance()
        new_graph, report = optimize_code(graph, [target])
        assert report.unremovable == [] and report.skipped == []
        assert report.total_changes == 2
        assert report.reverified == [target.object_id]
        post = new_graph.induce(target.vn_ids)
        assert not oracle_is_gas(post).is_member

    def test_empty_targets_identity(self):
        graph, _ = fx.toy_code_single_instance()
        new_graph, report = optimize_code(graph, [])
        assert new_graph == graph and report.total_changes == 0

    def test_changes_replay(self):
        graph, targets = fx.toy_code_overlapping()
        new_graph, report = optimize_code(graph, targets)
        replayed = graph.apply_changes(
            {(cn, vn): new for cn, vn, _, new in report.changes}
        )
        assert replayed == new_graph

    def test_overlap_exercises_protection(self):
        graph, targets = fx.toy_code_overlapping()
        for t in targets:
            cfg = graph.induce(t.vn_ids)
            assert is_in_Z(cfg, pipeline(cfg))
        new_graph, report = optimize_code(graph, targets)
        assert [p.result for p in report.processed] == ["removed", "removed"]
        assert report.protected_checks >= 1
        assert report.total_changes >= sum(p.e_min for p in report.processed)
        assert sorted(report.reverified) == sorted(t.object_id for t in targets)
        # the second object's search went through the shared column
        second = report.processed[1]
        assert second.protected_checks >= 1

    def test_protected_checks_ask_only_removals_sharing_an_edge(self, monkeypatch):
        # four disjoint copies of the overlap code: a candidate or an
        # accepted plan re-weights one VN, and only the removals holding
        # that VN are asked what it moves, in removal order
        copies = 4
        graph, targets = disjoint_union([fx.toy_code_overlapping()] * copies)
        moved, asked = removal._ObjectColumns.moved, []

        def counted(entry, changes):
            asked.append((entry.vn_ids, {v for _, v in changes} <= set(entry.vn_ids)))
            return moved(entry, changes)

        monkeypatch.setattr(removal._ObjectColumns, "moved", counted)
        pin_workers(monkeypatch, 1)  # the calls are counted in this process
        _, report = optimize_code(graph, targets)
        assert [p.result for p in report.processed] == ["removed"] * len(targets)
        assert all(shares for _, shares in asked)
        # one entry per protected check; an accepted plan folds into its own
        # entry and into each earlier removal that holds the VN it re-weights
        held, folds = [], 0
        for plan in report.processed:
            folds += 1 + sum(plan.selected_vn in vns for vns in held)
            held.append(tuple(int(v) - 1 for v in plan.object_id.split(",")))
        assert report.protected_checks == copies
        assert len(asked) == report.protected_checks + folds

    def test_target_groups_are_the_components_of_sharing_a_vn(self):
        # random target lists against a breadth-first walk over the pairs of
        # targets that share a VN; duplicates, single targets and chains of
        # targets that share no VN pairwise all occur
        rng = random.Random("sharing-groups")
        seen = dict.fromkeys(("duplicate", "single", "chain"), 0)
        for _ in range(300):
            cols = rng.randint(1, 40)
            vn_sets = [
                tuple(sorted(rng.sample(range(cols), rng.randint(1, min(6, cols)))))
                for _ in range(rng.randint(0, 14))
            ]
            if vn_sets and rng.random() < 0.3:
                vn_sets.insert(rng.randrange(len(vn_sets)), rng.choice(vn_sets))
            left, want = set(range(len(vn_sets))), []
            while left:
                group, queue = [], [min(left)]
                left.remove(queue[0])
                while queue:
                    i = queue.pop(0)
                    group.append(i)
                    for j in sorted(left):
                        if set(vn_sets[i]) & set(vn_sets[j]):
                            left.remove(j)
                            queue.append(j)
                want.append(sorted(group))
            assert removal._sharing_groups(vn_sets) == want
            for group in want:
                seen["single"] += len(group) == 1
                seen["duplicate"] += len({vn_sets[i] for i in group}) < len(group)
                seen["chain"] += any(
                    not set(vn_sets[i]) & set(vn_sets[j]) for i in group for j in group
                )
        assert all(seen.values()), seen

    def test_skip_non_matching_topology(self):
        graph, target = fx.toy_code_single_instance()
        bogus = Target(vn_ids=(6, 7, 8), kind="gast")
        new_graph, report = optimize_code(graph, [bogus, target])
        assert report.skipped == [bogus.object_id]
        assert [p.object_id for p in report.processed] == [target.object_id]

    def test_ost_phase_runs_after_gast_phase(self):
        cfg = fx.ost_6_2_11_0()
        weights = {(cn, vn): w for cn, vn, w in cfg.edges}
        graph = CodeGraph(cfg.num_cns, cfg.num_vns, cfg.gamma, cfg.field, weights)
        target = Target(vn_ids=tuple(range(6)), kind="ost")
        new_graph, report = optimize_code(graph, [target])
        assert [p.result for p in report.processed] == ["removed"]
        post = new_graph.induce(range(6))
        assert not oracle_in_family(post, "ost").is_member

    def test_ost_phase_skipped_for_odd_gamma(self, monkeypatch):
        # no shape is an OST on an odd column weight, so the OST target is
        # skipped like any target outside its family, on any worker count
        graph, target = fx.toy_code_single_instance()
        ost_target = Target(vn_ids=(0, 1, 2, 3, 4, 5), kind="ost")
        for count in (1, 2):
            pin_workers(monkeypatch, count)
            _, report = optimize_code(graph, [ost_target, target])
            assert report.skipped == [ost_target.object_id]
            assert [p.object_id for p in report.processed] == [target.object_id]

    def test_unknown_target_kind_is_refused(self):
        # a kind outside 'gast'/'ost' is refused before any removal
        graph, target = fx.toy_code_single_instance()
        for kind in ("eas", "bogus"):
            with pytest.raises(ValueError, match="unknown target kind"):
                optimize_code(graph, [target, replace(target, kind=kind)])

    def test_processed_already_out_counts_as_processed(self):
        graph, target = fx.toy_code_single_instance()
        removed_graph, _ = optimize_code(graph, [target])
        _, report = optimize_code(removed_graph, [target])
        assert [p.result for p in report.processed] == ["not_in_z"]
        assert report.total_changes == 0

    def test_processed_and_unremovable_disjoint(self):
        # a graph-embedded copy of the no-candidate shape joins X, not P
        cfg = fx.gast_borderline_no_deg2()
        weights = {(cn, vn): w for cn, vn, w in cfg.edges}
        graph = CodeGraph(cfg.num_cns, cfg.num_vns, cfg.gamma, cfg.field, weights)
        target = Target(vn_ids=tuple(range(cfg.num_vns)), kind="gast")
        _, report = optimize_code(graph, [target])
        assert report.unremovable == [target.object_id]
        assert report.processed == []
        assert [p.result for p in report.plan_log] == ["unremovable"]
        assert not (
            {p.object_id for p in report.processed} & set(report.unremovable)
        )


class TestTwoPhase:
    def test_gast_then_ost_phases(self):
        # two disjoint blocks of a gamma=4 graph: a strict-majority object on
        # columns 1-6 and an oscillating one on columns 7-12
        gast_block = fx.ugast_6_2_11_0()
        ost_block = fx.ost_6_2_11_0()
        weights = {}
        for cn, vn, w in gast_block.edges:
            weights[(cn, vn)] = w
        for cn, vn, w in ost_block.edges:
            weights[(13 + cn, 6 + vn)] = w
        graph = CodeGraph(26, 12, 4, gast_block.field, weights)
        targets = [
            Target(vn_ids=tuple(range(6)), kind="gast"),
            Target(vn_ids=tuple(range(6, 12)), kind="ost"),
        ]
        new_graph, report = optimize_code(graph, targets)
        assert [(p.object_id, p.result) for p in report.plan_log] == [
            ("1,2,3,4,5,6", "removed"),
            ("7,8,9,10,11,12", "removed"),
        ]
        for target, kind in zip(targets, ("gast", "ost")):
            assert not oracle_in_family(new_graph.induce(target.vn_ids), kind).is_member


def shape_hit_targets(graph, sizes=range(2, 6), kind="gast"):
    """Every subset of the given sizes whose shape is in ``kind``'s family and that ``smallest_b`` finds."""
    found = []
    for subset, topo, _ in graph.shapes(max(sizes)):
        if len(subset) in sizes and topo.supports(kind):
            cfg = graph.induce(subset)
            if smallest_b(cfg, build_tree(cfg, kind)) is not None:
                found.append(Target(subset, kind))
    return sorted(found, key=lambda t: len(t.vn_ids))  # size by size, as enumerate lists them


def protected_codes(count=12):
    """Seeded random codes over GF(4) and GF(8), column weights 3 and 4, with their shape-hit targets."""
    for seed in range(count):
        rng = random.Random(f"protected:{seed}")
        gamma = 3 + seed % 2
        field = gf4() if seed % 4 < 2 else gf8()
        graph = random_code(rng, 8 + 3 * (gamma - 3), 10, gamma, field)
        yield graph, shape_hit_targets(graph)


def split_protected_codes():
    """``protected_codes``, each a single target group, then eight codes of two groups.

    Code s sits beside code s + 4, which has its field and column weight.
    """
    codes = list(protected_codes())
    return codes + [disjoint_union(codes[s:s + 5:4]) for s in range(8)]


def watch_protected_checks(monkeypatch, wrap):
    """Hand ``remove_object`` ``wrap(protected_ok, columns)`` in place of the hook ``optimize_code`` passes."""
    remove = removal.remove_object

    def watched(c, w, protected_ok=None, **kwargs):
        return remove(c, w, wrap(protected_ok, kwargs["columns"]), **kwargs)

    monkeypatch.setattr(removal, "remove_object", watched)


def revived_after_final_checks(monkeypatch):
    """Objects the final checks find back in their family, over ``split_protected_codes()``.

    Each code is optimized at one and two workers, and ``reverified`` must
    list exactly the processed objects that ``is_in_Z`` finds out of their
    family on the object re-induced from the optimized graph.
    """
    revived = 0
    for graph, targets in split_protected_codes():
        by_id = {target.object_id: target for target in targets}
        for count in (1, 2):
            pin_workers(monkeypatch, count)
            new_graph, report = optimize_code(graph, targets)
            want = []
            for plan in report.processed:
                vn_ids = by_id[plan.object_id].vn_ids
                if not is_in_Z(new_graph.induce(vn_ids), pipeline(graph.induce(vn_ids), plan.kind)):
                    want.append(plan.object_id)
            assert report.reverified == want
        revived += len(report.processed) - len(report.reverified)
    return revived


def flagged(protected_ok, inside):
    """``protected_ok`` with ``inside[0]`` true while it runs."""

    def check(changes):
        inside[0] = True
        try:
            return protected_ok(changes)
        finally:
            inside[0] = False

    return check


class TestProtectedKernels:
    def test_kernel_route_matches_reinduced_route(self, monkeypatch):
        # every protected check on a kept kernel gives the verdict of is_in_Z
        # on the re-induced object, in one process and with the independent
        # target groups split over two; the sweep must fold plans into
        # earlier removals and pack a kernel again after a fold at another
        # column (counted in the one-process runs)
        events = dict.fromkeys(("fold", "rebuild_after_other_vn"), 0)
        own, inside, dropped = [None], [False], {}
        cls = removal._ObjectColumns
        first_unbroken, fold = cls.first_unbroken, cls.fold

        def wrap(protected_ok, columns):
            own[0] = columns
            return flagged(protected_ok, inside)

        def counted_first_unbroken(self, vn, deltas):
            if inside[0] and vn not in self.kernels and vn in dropped.get(self, ()):
                events["rebuild_after_other_vn"] += 1
            return first_unbroken(self, vn, deltas)

        def counted_fold(self, vn, deltas):
            if self is not own[0]:  # an earlier removal, not the plan's own object
                events["fold"] += 1
            dropped.setdefault(self, set()).update(set(self.kernels) - {vn})
            fold(self, vn, deltas)

        watch_protected_checks(monkeypatch, wrap)
        monkeypatch.setattr(cls, "first_unbroken", counted_first_unbroken)
        monkeypatch.setattr(cls, "fold", counted_fold)
        rejections = 0
        for graph, targets in split_protected_codes():
            before = CodeGraph(graph.rows, graph.cols, graph.gamma, graph.field, graph.weights)
            want_graph, want = reference_optimize_code(graph, targets)
            for count in (1, 2):
                pin_workers(monkeypatch, count)
                got_graph, got = optimize_code(graph, targets)
                assert graph == before
                assert repr(got.plan_log) == repr(want.plan_log)
                assert (got.protected_checks, got.protected_rejections) == (
                    want.protected_checks, want.protected_rejections
                )
                assert got.reverified == want.reverified
                assert got.unremovable == want.unremovable and got.skipped == want.skipped
                assert got.processed == want.processed and got.changes == want.changes
                assert got_graph.weights == want_graph.weights
            rejections += got.protected_rejections
        assert rejections > 0
        assert all(events.values()), events

    def test_support_cap_overruns_match_reinduced_route(self, monkeypatch):
        # a kernel at another column reaches the same matrices with the same
        # null-space dimensions, so a tight cap overruns where is_in_Z does,
        # in one process and with the target groups split over two
        overruns = []

        def wrap(protected_ok, columns):
            def watched(changes):
                try:
                    return protected_ok(changes)
                except SearchTooLargeError as exc:
                    overruns.append(str(exc))
                    raise

            return watched

        watch_protected_checks(monkeypatch, wrap)

        def outcome(optimize, graph, targets):
            try:
                new_graph, report = optimize(graph, targets, support_cap=1)
            except SearchTooLargeError as exc:
                return str(exc)
            return repr(report.plan_log), report.reverified, new_graph.weights

        for graph, targets in split_protected_codes():
            want = outcome(reference_optimize_code, graph, targets)
            for count in (1, 2):
                pin_workers(monkeypatch, count)
                assert outcome(optimize_code, graph, targets) == want
        assert overruns

    def test_final_checks_catch_revivals(self, monkeypatch):
        # with protection off later plans revive earlier removals; every
        # final verdict is still is_in_Z's on the object re-induced from the
        # optimized graph, in one process and with the target groups split
        # over two, and a revived object is left out of reverified; a record
        # whose folds dropped its kernels falls back to is_in_Z, and both
        # routes run (counted in the one-process runs)
        routes, inside = {"kernel": 0, "is_in_Z": 0}, [False]
        in_family, fresh = removal._ObjectColumns.in_family, removal.is_in_Z

        def counted_is_in_Z(*args):
            routes["is_in_Z"] += inside[0]
            return fresh(*args)

        def checked_in_family(self, c):
            before, inside[0] = routes["is_in_Z"], True
            try:
                got = in_family(self, c)
            finally:
                inside[0] = False
            routes["kernel"] += routes["is_in_Z"] == before
            assert got == fresh(c, self.wcms, self.support_cap)
            return got

        watch_protected_checks(monkeypatch, lambda protected_ok, columns: lambda changes: True)
        monkeypatch.setattr(removal, "is_in_Z", counted_is_in_Z)
        monkeypatch.setattr(removal._ObjectColumns, "in_family", checked_in_family)
        assert revived_after_final_checks(monkeypatch) > 0
        assert all(routes.values()), routes

    def test_final_checks_read_the_graph_not_the_records(self, monkeypatch):
        # with every fold lost the records drift from the graph, so protected
        # checks misjudge and earlier removals come back; the final verdicts
        # are still is_in_Z's on the re-induced objects
        monkeypatch.setattr(removal._ObjectColumns, "fold", lambda self, vn, deltas: None)
        assert revived_after_final_checks(monkeypatch) > 0

    @pytest.mark.parametrize("field", [gf4(), gf8()], ids=["gf4", "gf8"])
    def test_final_check_on_another_b_falls_back(self, field, monkeypatch):
        # an object re-weighted at the kept kernel's column is judged on the
        # kernel; re-weighted at another column its B is not the kernel's
        # and is_in_Z answers; on both routes the verdict or the support-cap
        # overrun is is_in_Z's
        rng = random.Random(f"in_family:{field.q}")
        fresh, calls, outcomes = removal.is_in_Z, [0], set()

        def counted_is_in_Z(*args):
            calls[0] += 1
            return fresh(*args)

        monkeypatch.setattr(removal, "is_in_Z", counted_is_in_Z)
        for name, cfg, wcms in labeled_members(field, rng, 1):
            for cap in (0, 1, DEFAULT_SUPPORT_CAP):
                columns = removal._ObjectColumns(cfg, wcms, cap)
                vn = rng.randrange(cfg.num_vns)
                membership_outcome(lambda: columns.first_unbroken(vn, {}))  # packs the kernel at vn
                for u in (vn, (vn + rng.randrange(1, cfg.num_vns)) % cfg.num_vns):
                    at = [cn for cn, _ in cfg.vn_neighbors[u]]
                    moved = cfg.with_weights({
                        (cn, u): rng.choice([w for w in range(1, field.q) if w != cfg.weight_of(cn, u)])
                        for cn in rng.sample(at, rng.randint(1, len(at)))
                    })
                    before = calls[0]
                    got = membership_outcome(lambda: columns.in_family(moved))
                    fell_back = calls[0] > before
                    assert fell_back == (u != vn), (name, cap, vn, u)
                    assert got == membership_outcome(lambda: fresh(moved, wcms, cap)), (name, cap, vn, u)
                    outcomes.add((fell_back, type(got)))
        assert outcomes == {(False, bool), (False, str), (True, bool), (True, str)}

    def test_protected_checks_reuse_the_removals_kernels(self, monkeypatch):
        # on the shipped overlap code every protected check lands on the
        # kernel its removal's accepted candidate left, with every matrix
        # reduced: no check packs a kernel or reduces a matrix
        graph = parse_code((FIXDIR / "toy_code_overlap.txt").read_text())
        targets = parse_targets((FIXDIR / "toy_targets_overlap.txt").read_text())
        inside, work = [False], {"_reduce": 0, "__init__": 0}
        for name in work:
            method = getattr(_ColumnMembership, name)

            def counted(self, *args, _name=name, _method=method):
                work[_name] += inside[0]
                return _method(self, *args)

            monkeypatch.setattr(_ColumnMembership, name, counted)
        watch_protected_checks(monkeypatch, lambda protected_ok, columns: flagged(protected_ok, inside))
        pin_workers(monkeypatch, 1)  # the work is counted in this process
        _, report = optimize_code(graph, targets)
        assert report.protected_checks >= 1
        assert work == {"_reduce": 0, "__init__": 0}

    @pytest.mark.parametrize("field", [gf4(), gf8()], ids=["gf4", "gf8"])
    def test_column_cache_matches_reference_under_folds(self, field):
        # random judgements and folds at random columns: each judgement is
        # the reference's on the rows with every fold so far and the
        # judgement's own deltas written in, support-cap overruns included
        rng = random.Random(f"columns:{field.q}")
        outcomes = set()
        for name, cfg, wcms in labeled_members(field, rng, 1):
            groups = [rec.removed_rows for rec in wcms.wcms]
            for cap in (0, 1, 12):
                rows = [list(row) for row in cfg.adjacency()]
                columns = removal._ObjectColumns(cfg, wcms, cap)
                for _ in range(12):
                    vn = rng.randrange(cfg.num_vns)
                    at = [cn for cn, row in enumerate(rows) if row[vn]]
                    deltas = {
                        cn: rows[cn][vn] ^ rng.choice([w for w in range(1, field.q) if w != rows[cn][vn]])
                        for cn in rng.sample(at, rng.randint(0, len(at)))
                    }
                    if rng.random() < 0.8:
                        moved = [tuple(row[:vn] + [row[vn] ^ deltas.get(cn, 0)] + row[vn + 1:])
                                 for cn, row in enumerate(rows)]
                        want = membership_outcome(lambda: reference_first_unbroken(moved, groups, field, cap))
                        got = membership_outcome(lambda: columns.first_unbroken(vn, deltas))
                        assert got == want, (name, cap, vn)
                        outcomes.add(type(got))
                    if rng.random() < 0.5:
                        columns.fold(vn, deltas)
                        for cn, delta in deltas.items():
                            rows[cn][vn] ^= delta
        assert outcomes == {int, type(None), str}

    def test_one_weight_state_and_one_induce_per_object(self, monkeypatch):
        # the run copies the graph once and induces each target once and each
        # removal once more for the final re-verification, however many
        # protected checks it makes
        calls = {"induce": 0, "apply_changes": 0}
        for name in calls:
            method = getattr(CodeGraph, name)

            def counted(self, *args, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(CodeGraph, name, counted)
        pin_workers(monkeypatch, 1)  # the calls are counted in this process
        checks = objects = 0
        for graph, targets in protected_codes(4):
            for name in calls:
                calls[name] = 0
            _, report = optimize_code(graph, targets)
            assert calls["apply_changes"] <= 1
            assert calls["induce"] == len(targets) + len(report.processed)
            checks += report.protected_checks
            objects += len(targets)
        assert checks > objects


class TestLargerFields:
    def test_oracle_fallback_over_gf16(self):
        # (q-1)^a exceeds the default oracle cap, so the minimum-change
        # estimate falls back to the topological bound and the search must
        # still try smaller change sets first
        from conftest import gf16

        rng = random.Random(5)
        base = fx.ugast_6_0_9_0(field=gf16())
        wcms = pipeline(base)
        e_min, e_bound, exact = compute_e_min(base)
        assert (e_min, e_bound, exact) == (2, 2, False)
        removed = 0
        for _ in range(10):
            cfg = random_weights(base, rng)
            if not is_in_Z(cfg, wcms):
                continue
            plan = remove_object(cfg, wcms)
            assert plan.result == "removed"
            post = cfg.with_weights({(cn, vn): new for cn, vn, _, new in plan.changes})
            assert not is_in_Z(post, wcms)
            if len(plan.changes) == 1:
                removed += 1
        # at least one member needed fewer changes than the fallback bound
        assert removed >= 1

    def test_pipeline_over_gf8(self):
        from wcmopt.gf import gf8

        rng = random.Random(41)
        base = fx.ugast_6_0_9_0(field=gf8())
        wcms = pipeline(base)
        assert wcms.t == 6
        for _ in range(5):
            cfg = random_weights(base, rng)
            if not is_in_Z(cfg, wcms):
                continue
            plan = remove_object(cfg, wcms)
            if plan.result == "removed":
                post = cfg.with_weights(
                    {(cn, vn): new for cn, vn, _, new in plan.changes}
                )
                assert not is_in_Z(post, wcms)


class TestRandomizedAgreement:
    def test_scaling_invariance(self):
        rng = random.Random(3)
        base = fx.gast_6_0_0_9_0()
        wcms = pipeline(base)
        for _ in range(30):
            cfg = random_weights(base, rng)
            col = rng.randrange(cfg.num_vns)
            c = rng.randrange(2, cfg.field.q)
            scaled = cfg.with_weights(
                {
                    (cn, vn): cfg.field.mul(c, w)
                    for cn, vn, w in cfg.edges
                    if vn == col
                }
            )
            rep_a = evaluate_weight_conditions(cfg, wcms)
            rep_b = evaluate_weight_conditions(scaled, wcms)
            assert [r.broken for r in rep_a.records] == [r.broken for r in rep_b.records]

    def test_satisfied_labeling_member_via_all_wcms(self):
        rng = random.Random(9)
        base = fx.gast_6_2_2_5_2()
        wcms = pipeline(base)
        for _ in range(20):
            cfg = satisfied_labeling(base, rng)
            b, _, _ = compute_b_for_values(
                cfg, oracle_is_gas(cfg).witness
            )
            report = evaluate_weight_conditions(cfg, wcms)
            assert not report.all_broken


class TestMembershipKernel:
    @pytest.mark.parametrize("field", [gf4(), gf8(), gf16()], ids=["gf4", "gf8", "gf16"])
    def test_kernel_matches_full_report(self, field):
        # the short-circuiting kernel and its whole-matrix reference must
        # name the same first unbroken matrix as the full diagnostic, on
        # every shipped shape
        rng = random.Random(field.q)
        verdicts = []
        for name in fx.all_fixture_configurations():
            base = getattr(fx, name)(field=field)
            mode = "gast" if classify_unlabeled(base).is_unlabeled_gast else "ost"
            wcms = pipeline(base, mode)
            groups = [rec.removed_rows for rec in wcms.wcms]
            for _ in range(8):
                cfg = satisfied_labeling(base, rng)
                changes = random_reweighting(cfg, rng)
                candidate = cfg.with_weights(changes)
                report = evaluate_weight_conditions(candidate, wcms)
                rows = rows_with_weights(cfg.adjacency(), changes)
                first = reference_first_unbroken(rows, groups, field, DEFAULT_SUPPORT_CAP)
                one_shot = _ColumnMembership(
                    _pack_rows(rows, cfg.num_vns - 1, field), cfg.num_vns, field, groups, DEFAULT_SUPPORT_CAP,
                    frozenset(),
                )
                assert one_shot.first_unbroken({}) == first
                assert (first is None) == report.all_broken
                if first is not None:
                    assert first + 1 == report.unbroken_indices()[0]
                verdicts.append(first is None)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("field", [gf4(), gf8(), gf16()], ids=["gf4", "gf8", "gf16"])
    def test_one_shot_matches_reference_on_every_column(self, field):
        # every column as x, with no changeable rows and with the column's
        # degree-2 rows, at support caps from 0 up; once no scan overruns
        # a cap, larger caps give the same results, so the sweep stops
        # there.  The post-plan configurations break every matrix, so the
        # scan reaches them all
        rng = random.Random(field.q + 6)
        verdicts = set()
        for name, cfg, wcms in labeled_members(field, rng, 1):
            groups = [rec.removed_rows for rec in wcms.wcms]
            cases = [(cfg, groups)]
            plan = remove_object(cfg, wcms, oracle_cap=0)
            if plan.result == "removed":
                after = cfg.with_weights({(cn, vn): new for cn, vn, _, new in plan.changes})
                cases.append((after, groups))
            for case, case_groups in cases:
                rows = case.adjacency()
                for cap in range(case.num_vns + 1):
                    ref = membership_outcome(lambda: reference_first_unbroken(rows, case_groups, field, cap))
                    overrun = isinstance(ref, str)
                    for vn in range(case.num_vns):
                        deg2 = frozenset(cn for cn, _ in case.vn_neighbors[vn] if cn in case.deg2_cns)
                        for changeable in (frozenset(), deg2):
                            column = _ColumnMembership(
                                _pack_rows(rows, vn, field), case.num_vns, field, case_groups, cap, changeable
                            )
                            fast = membership_outcome(lambda: column.first_unbroken({}))
                            assert fast == ref, (name, vn, cap)
                            verdicts.add(type(fast))
                            if isinstance(fast, str):
                                # the overrun comes from the matrix the reference stops at
                                at = sum(r is not None for r in column.reduced) - 1
                                assert reference_first_unbroken(rows, case_groups[:at], field, cap) is None
                                assert membership_outcome(
                                    lambda: reference_first_unbroken(rows, case_groups[at:at + 1], field, cap)
                                ) == fast
                    if not overrun:
                        break
        assert verdicts == {int, type(None), str}

    @pytest.mark.parametrize("field", [gf4(), gf8(), gf16()], ids=["gf4", "gf8", "gf16"])
    def test_group_dropping_every_row(self, field):
        # B has no rows: x is in its column space and every vector is a
        # null vector, so the matrix is unbroken once the cap allows a
        # scan of all a columns (a kept small: the scan walks q^(a-2) vectors)
        cfg = sub_configuration(satisfied_labeling(fx.gast_6_0_0_9_0(field=field), random.Random(7)), (0, 1, 2))
        rows, groups = cfg.adjacency(), [tuple(range(cfg.num_cns))]
        for cap in range(cfg.num_vns + 1):
            ref = membership_outcome(lambda: reference_first_unbroken(rows, groups, field, cap))
            assert ref == (0 if cap == cfg.num_vns else f"null-space dimension 3 exceeds support search cap {cap}")
            for vn in range(cfg.num_vns):
                for changeable in (frozenset(), frozenset(range(cfg.num_cns))):
                    column = _ColumnMembership(_pack_rows(rows, vn, field), cfg.num_vns, field, groups, cap, changeable)
                    assert membership_outcome(lambda: column.first_unbroken({})) == ref
                    assert membership_outcome(lambda: column.first_unbroken(dict.fromkeys(changeable, 1))) == ref

    def test_reduce_reads_solvability_and_solution(self):
        # [m | x] with unit columns for random rows: m y = x + sum d_u e_u is
        # solvable iff the packed P x, moved by d_u P e_u, vanishes below the
        # rank, and then y0 read off it solves.  An extra row, dropped by
        # the group and sometimes changeable, lets m have no rows
        rng = random.Random(23)
        solvable = set()
        for m in random_matrices(rng, 300):
            f = m.field
            x = [rng.choice([0, rng.randrange(f.q)]) for _ in range(m.rows)]
            rows = [row + (v,) for row, v in zip(m.entries, x)]
            rows.append(tuple(rng.randrange(f.q) for _ in range(m.cols + 1)))
            units = rng.sample(range(m.rows + 1), rng.randrange(m.rows + 2))
            column = _ColumnMembership(
                _pack_rows(rows, m.cols, f), m.cols + 1, f, [(m.rows,)], DEFAULT_SUPPORT_CAP, frozenset(units)
            )
            reduced = column._reduce((m.rows,))
            assert sorted(reduced.terms) == sorted(u for u in units if u < m.rows)
            # the multiples c = 0 .. q - 1 of each vector, so entry 1 is the vector
            for times in (*reduced.null_multiples, *reduced.terms.values()):
                assert times == column.wide.multiples(times[1])
            basis = [times[1] for times in reduced.null_multiples]
            assert tuple(map(column.scan.unpack, basis)) == null_space(m).basis_vectors
            rk = rank(m)
            for _ in range(4):
                deltas = {u: rng.randrange(f.q) for u in reduced.terms}
                rhs = [v ^ deltas.get(r, 0) for r, v in enumerate(x)]
                px = column.wide.unpack(reduced.tx)
                for u, d in deltas.items():
                    px = [v ^ f.mul(d, t) for v, t in zip(px, column.wide.unpack(reduced.terms[u][1]))]
                augmented = GfMatrix(m.rows, m.cols + 1, tuple(row + (v,) for row, v in zip(m.entries, rhs)), f)
                ok = not any(px[m.cols:])
                assert ok == (rank(augmented) == rk)
                solvable.add(ok)
                if ok:
                    assert mat_vec(m, px[:m.cols]) == tuple(rhs)
        assert solvable == {True, False}

    @pytest.mark.parametrize("field", [gf4(), gf8(), gf16()], ids=["gf4", "gf8", "gf16"])
    def test_first_unbroken_with_deltas_matches_reference(self, field):
        # every column as x, with random changeable rows (degree-2 or not,
        # zero in the column or not, dropped by some matrices or not) and
        # random multi-row deltas on them, judged in turn by one instance as
        # the candidate loop does; the reference writes the re-weighted
        # rows and scans every matrix from scratch
        rng = random.Random(field.q + 8)
        verdicts = set()
        for name, cfg, wcms in labeled_members(field, rng, 1):
            groups = [rec.removed_rows for rec in wcms.wcms]
            rows = cfg.adjacency()
            for vn in range(cfg.num_vns):
                changeable = sorted(rng.sample(range(cfg.num_cns), rng.randrange(1, 5)))
                column = _ColumnMembership(
                    _pack_rows(rows, vn, field), cfg.num_vns, field, groups, DEFAULT_SUPPORT_CAP, frozenset(changeable)
                )
                for _ in range(6):
                    picked = rng.sample(changeable, rng.randrange(1, len(changeable) + 1))
                    deltas = {cn: rng.randrange(1, field.q) for cn in picked}
                    changes = {(cn, vn): rows[cn][vn] ^ d for cn, d in deltas.items()}
                    ref = reference_first_unbroken(
                        rows_with_weights(rows, changes), groups, field, DEFAULT_SUPPORT_CAP
                    )
                    assert column.first_unbroken(deltas) == ref, (name, vn, deltas)
                    verdicts.add(ref is None)
        assert verdicts == {True, False}

    def test_delta_outside_changeable_raises(self):
        cfg = fx.gast_6_0_0_9_0()
        groups = [rec.removed_rows for rec in pipeline(cfg).wcms]
        deg2 = sorted(cn for cn, _ in cfg.vn_neighbors[0] if cn in cfg.deg2_cns)
        far = next(cn for cn, row in enumerate(cfg.adjacency()) if row[0] == 0)
        column = _ColumnMembership(
            _pack_rows(cfg.adjacency(), 0, cfg.field), cfg.num_vns, cfg.field, groups, DEFAULT_SUPPORT_CAP,
            frozenset(deg2[:1]),
        )
        assert column.first_unbroken({deg2[0]: 1}) == reference_first_unbroken(
            rows_with_weights(cfg.adjacency(), {(deg2[0], 0): cfg.weight_of(deg2[0], 0) ^ 1}),
            groups, cfg.field, DEFAULT_SUPPORT_CAP,
        )
        for row in (deg2[1], far):
            with pytest.raises(ValueError, match=rf"rows \[{row}\] are not changeable"):
                column.first_unbroken({deg2[0]: 1, row: 1})


def labeled_members(field, rng, count):
    """``count`` satisfied and ``count`` random labelings of every shipped shape, with its matrices."""
    for name in fx.all_fixture_configurations():
        base = getattr(fx, name)(field=field)
        wcms = pipeline(base, "gast" if classify_unlabeled(base).is_unlabeled_gast else "ost")
        for _ in range(count):
            yield name, satisfied_labeling(base, rng), wcms
            yield name, random_weights(base, rng), wcms


def removal_outcome(remove, cfg, wcms, reject=False, **caps):
    """The plan's repr or the search error, and every change set offered to a rejecting hook."""
    offered = []

    def protected_ok(changes):
        offered.append(sorted(changes.items()))
        return False

    try:
        result = repr(remove(cfg, wcms, protected_ok if reject else None, **caps))
    except SearchTooLargeError as exc:
        result = f"SearchTooLargeError: {exc}"
    return result, offered


def membership_outcome(first_unbroken):
    try:
        return first_unbroken()
    except SearchTooLargeError as exc:
        return str(exc)


class TestColumnUpdate:
    """Column-update membership in the candidate loop against whole-matrix scans."""

    @pytest.mark.parametrize("field", [gf4(), gf8(), gf16()], ids=["gf4", "gf8", "gf16"])
    def test_plans_match_reference(self, field):
        rng = random.Random(field.q + 3)
        results = set()
        for name, cfg, wcms in labeled_members(field, rng, 3):
            fast = removal_outcome(remove_object, cfg, wcms, oracle_cap=7 ** 6)
            assert fast == removal_outcome(reference_remove_object, cfg, wcms, oracle_cap=7 ** 6), name
            results.add(fast[0].split("result='")[1].split("'")[0])
        assert {"removed", "not_in_z"} <= results

    @pytest.mark.parametrize("field, reject", [(gf4(), True), (gf8(), False), (gf16(), False)],
                             ids=["gf4-reject-all", "gf8", "gf16"])
    def test_search_errors_match_reference_at_every_cap(self, field, reject):
        # a hook that rejects every success walks the whole candidate list,
        # so the first candidate whose scan overruns the cap raises; once the
        # cap reaches the widest null space scanned nothing raises and larger
        # caps repeat that walk, so the sweep stops there
        rng = random.Random(field.q + 4)
        errors = late_errors = 0
        for name, cfg, wcms in labeled_members(field, rng, 1):
            for cap in range(cfg.num_vns + 1):
                fast = removal_outcome(remove_object, cfg, wcms, reject, support_cap=cap, oracle_cap=0)
                ref = removal_outcome(reference_remove_object, cfg, wcms, reject, support_cap=cap, oracle_cap=0)
                assert fast == ref, (name, cap)
                if not fast[0].startswith("SearchTooLargeError"):
                    break
                errors += 1
                late_errors += bool(fast[1])
        assert errors > 0 and (late_errors > 0 or not reject)

    @pytest.mark.parametrize("field", [gf4(), gf8(), gf16()], ids=["gf4", "gf8", "gf16"])
    def test_membership_matches_first_unbroken_per_candidate(self, field):
        rng = random.Random(field.q + 5)
        verdicts = set()
        for name, cfg, wcms in labeled_members(field, rng, 1):
            rows = cfg.adjacency()
            groups = [rec.removed_rows for rec in wcms.wcms]
            candidates = list(select_candidate_edges(cfg, 3))
            for cap in (0, 1, 2, DEFAULT_SUPPORT_CAP):
                columns = {}
                for vn, edge_set in candidates[:30]:
                    deg2 = frozenset(cn for cn, _ in cfg.vn_neighbors[vn] if cn in cfg.deg2_cns)
                    column = columns.setdefault(
                        vn, _ColumnMembership(_pack_rows(rows, vn, field), cfg.num_vns, field, groups, cap, deg2)
                    )
                    for _ in range(2):
                        changes = {e: rng.choice([w for w in range(1, field.q) if w != cfg.weight_of(*e)])
                                   for e in edge_set}
                        deltas = {cn: cfg.weight_of(cn, v) ^ wt for (cn, v), wt in changes.items()}
                        fast = membership_outcome(lambda: column.first_unbroken(deltas))
                        ref = membership_outcome(
                            lambda: reference_first_unbroken(rows_with_weights(rows, changes), groups, field, cap)
                        )
                        assert fast == ref, (name, cap, changes)
                        verdicts.add(type(fast))
        assert verdicts == {int, type(None), str}


def test_pipeline_leaves_no_cyclic_garbage():
    # garbage in reference cycles waits for the collector and raises the
    # peak memory of a long run of calls
    rng = random.Random(11)
    members = [
        satisfied_labeling(shape(field=field), rng)
        for field, shape in [(gf16(), fx.ugast_6_0_9_0), (gf16(), fx.ugast_8_0_16_0),
                             (gf8(), fx.ugast_6_0_9_0), (gf8(), fx.ugast_6_2_11_0)]
    ]
    gc.collect()
    gc.disable()
    try:
        for cfg in members:
            assert remove_object(cfg, extract_wcms(cfg, build_tree(cfg))).result == "removed"
        assert gc.collect() == 0
    finally:
        gc.enable()


def count_reductions(monkeypatch) -> list[int]:
    """Count ``_ColumnMembership._reduce`` calls, one per matrix reduced, in a one-element list."""
    count, reduce = [0], _ColumnMembership._reduce

    def counted(self, group):
        count[0] += 1
        return reduce(self, group)

    monkeypatch.setattr(_ColumnMembership, "_reduce", counted)
    return count


class TestPinnedCounters:
    """Work counters on the shipped fixture files, fixed so a change to the search shows."""

    @pytest.mark.parametrize("name, mode, result, tried", [
        ("gast_6_0_0_9_0", "gast", "removed", 2),
        ("gast_6_2_2_5_2", "gast", "removed", 1),
        ("gast_borderline_no_deg2", "gast", "unremovable", 0),
        ("ugast_6_0_9_0", "gast", "removed", 2),
        ("ugast_6_2_11_0", "gast", "removed", 1),
        ("ugast_7_9_13_0", "gast", "removed", 1),
        ("ugast_8_0_16_0", "gast", "removed", 1),
        ("ost_6_2_11_0", "ost", "removed", 1),
        ("ost_8_3_13_1", "ost", "not_in_z", 0),
    ])
    def test_remove_fixture_counters(self, name, mode, result, tried):
        cfg = parse_config((FIXDIR / f"{name}.cfg").read_text())
        plan = remove_object(cfg, pipeline(cfg, mode))
        assert (plan.result, plan.candidates_tried) == (result, tried)
        assert (plan.protected_checks, plan.protected_rejections) == (0, 0)

    @pytest.mark.parametrize("code, targets, per_plan, totals", [
        ("toy_code.txt", "toy_targets.txt", [(2, 1, 0)], (0, 0)),
        ("toy_code_overlap.txt", "toy_targets_overlap.txt", [(2, 1, 0), (10, 1, 0)], (1, 0)),
    ])
    def test_optimize_fixture_counters(self, code, targets, per_plan, totals):
        graph = parse_code((FIXDIR / code).read_text())
        _, report = optimize_code(graph, parse_targets((FIXDIR / targets).read_text()))
        assert [
            (p.candidates_tried, p.protected_checks, p.protected_rejections) for p in report.plan_log
        ] == per_plan
        assert (report.protected_checks, report.protected_rejections) == totals

    # matrices reduced: the entry check's and the candidates' on the
    # kernels a removal packs
    @pytest.mark.parametrize("name, mode, reductions", [
        ("gast_6_0_0_9_0", "gast", 10),
        ("gast_6_2_2_5_2", "gast", 2),
        ("gast_borderline_no_deg2", "gast", 1),
        ("ugast_6_0_9_0", "gast", 6),
        ("ugast_6_2_11_0", "gast", 3),
        ("ugast_7_9_13_0", "gast", 5),
        ("ugast_8_0_16_0", "gast", 24),
        ("ost_6_2_11_0", "ost", 28),
        ("ost_8_3_13_1", "ost", 51),
    ])
    def test_remove_fixture_reductions(self, name, mode, reductions, monkeypatch):
        cfg = parse_config((FIXDIR / f"{name}.cfg").read_text())
        wcms = pipeline(cfg, mode)
        reduced = count_reductions(monkeypatch)
        remove_object(cfg, wcms)
        assert reduced == [reductions]

    # the same for optimize: its final re-verifications reuse the kernels
    # the removals kept and reduce no matrix of their own
    @pytest.mark.parametrize("code, targets, reductions", [
        ("toy_code.txt", "toy_targets.txt", 10),
        ("toy_code_overlap.txt", "toy_targets_overlap.txt", 20),
    ])
    def test_optimize_fixture_reductions(self, code, targets, reductions, monkeypatch):
        graph = parse_code((FIXDIR / code).read_text())
        reduced = count_reductions(monkeypatch)
        pin_workers(monkeypatch, 1)  # the reductions are counted in this process
        optimize_code(graph, parse_targets((FIXDIR / targets).read_text()))
        assert reduced == [reductions]


def scan_cases(field, budget, rng):
    """Each shipped shape under a random and a satisfied labeling; a shape with
    more than ``budget`` assignments is replaced by a random VN subset that fits.

    Two more satisfied labelings put b = d1 in the scan's first row: at the
    first assignment, all ones, and at the end of that row, so every later
    unsatisfied set is at or above the best b when the scan first meets it."""
    for name in fx.all_fixture_configurations():
        shape = getattr(fx, name)(field=field)
        a = shape.num_vns
        while (field.q - 1) ** a > budget:
            a -= 1
        if a < shape.num_vns:
            shape = sub_configuration(shape, sorted(rng.sample(range(shape.num_vns), a)))
        yield name, random_weights(shape, rng)
        yield name, satisfied_labeling(shape, rng)
        early = random.Random(name)
        for tail in (1, field.q - 1):
            values = [1] * (a // 2) + [tail] * (a - a // 2)
            yield f"{name}-early-{tail}", satisfied_labeling(shape, early, values)


class TestExhaustiveScanner:
    """The packed-syndrome scanner against the one-``mat_vec``-per-assignment loop."""

    @pytest.mark.parametrize("field, budget", [(gf4(), 3 ** 8), (gf8(), 7 ** 4)], ids=["gf4", "gf8"])
    def test_oracles_match_reference(self, field, budget):
        rng = random.Random(field.q + 1)
        members = 0
        for name, cfg in scan_cases(field, budget, rng):
            kinds = ["gast", "ost"] if cfg.gamma % 2 == 0 else ["gast"]
            topo = classify_unlabeled(cfg)
            for kind in kinds:
                gas_kind = "gas" if kind == "gast" else "os"
                res = oracle_is_gas(cfg, gas_kind)
                assert res == reference_oracle_is_gas(cfg, gas_kind), name
                members += res.is_member
                # in a gast/ost shape the tree's largest set bounds b, so
                # the uncapped scanner matches the reference capped there
                caps = {99}
                if topo.supports(kind):
                    caps.add(cfg.d1 + build_tree(cfg, mode=kind).b_et)
                for b_cap in sorted(caps):
                    assert oracle_in_family(cfg, kind) == reference_oracle_in_family(
                        cfg, b_cap, kind
                    ), (name, kind, b_cap)
        assert members > 0

    def test_family_keeps_high_degree_checks_satisfied(self):
        # weak majorities alone would often let the one degree-3 check of
        # the (8,3,13,1) shape go unsatisfied at a smaller b
        rng = random.Random(1)
        for _ in range(6):
            cfg = random_weights(fx.ost_8_3_13_1(), rng)
            res = oracle_in_family(cfg, "ost")
            assert res == reference_oracle_in_family(cfg, 99, "ost")
            if res.is_member:
                assert not set(compute_b_for_values(cfg, res.witness)[2]) & cfg.high_cns

    @pytest.mark.parametrize("field, budget", [(gf4(), 3 ** 8), (gf8(), 7 ** 4)], ids=["gf4", "gf8"])
    def test_e_min_matches_reference(self, field, budget, monkeypatch):
        rng = random.Random(field.q + 2)
        cases = list(scan_cases(field, budget, rng))
        fast = [compute_e_min(cfg) for _, cfg in cases]
        monkeypatch.setattr(removal, "oracle_is_gas", reference_oracle_is_gas)
        assert fast == [compute_e_min(cfg) for _, cfg in cases]
        assert any(exact for _, _, exact in fast)

    def test_e_min_matches_reference_gf8_full_shape(self, monkeypatch):
        # the remove_gf8 shape: all 7^6 assignments of a satisfied member
        cfg = satisfied_labeling(fx.ugast_6_0_9_0(field=gf8()), random.Random(5))
        fast = compute_e_min(cfg)
        monkeypatch.setattr(removal, "oracle_is_gas", reference_oracle_is_gas)
        assert fast == compute_e_min(cfg)
        assert fast[2]

    @pytest.mark.parametrize("field", [gf4(), gf8()], ids=["gf4", "gf8"])
    def test_cap_boundary(self, field):
        cfg = fx.gast_borderline_no_deg2(field=field) if field.q == 8 else fx.gast_6_0_0_9_0()
        total = (field.q - 1) ** cfg.num_vns
        assert oracle_is_gas(cfg, cap=total) == reference_oracle_is_gas(cfg)
        assert oracle_in_family(cfg, cap=total) == reference_oracle_in_family(cfg, 99)
        with pytest.raises(OracleTooLargeError, match=f"{total} assignments exceeds oracle cap {total - 1}"):
            oracle_is_gas(cfg, cap=total - 1)
        with pytest.raises(OracleTooLargeError, match=f"exceeds oracle cap {total - 1}"):
            oracle_in_family(cfg, cap=total - 1)
