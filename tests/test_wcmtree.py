import dataclasses
import math
import random
from collections import Counter

import pytest

from conftest import drop_rows, gf_matrix, ordered_view, reference_build_tree, sub_configuration
from wcmopt import fixtures as fx
from wcmopt.config import (
    Configuration,
    ConfigurationError,
    classify_unlabeled,
)
from wcmopt.gf import gf4
from wcmopt.wcmtree import (
    TreeError,
    USymmetryViolationError,
    WrongTreeShapeError,
    build_tree,
    count_wcms_same_size,
    count_wcms_u_symmetric,
    extract_wcms,
    z_family,
)


def groups_1based(wcms):
    return [tuple(g + 1 for g in rec.deg2_group) for rec in wcms.wcms]


def test_tree_profile_mixed_depths():
    tree = build_tree(fx.gast_6_2_2_5_2())
    assert tree.u0 == 3 and tree.b_st == 1 and tree.b_et == 2
    # children (0-based): middle chain checks c2, c3, c4 = 1, 2, 3
    children = ordered_view(tree).children
    assert children[()] == (1, 2, 3)
    assert children.get((1,)) == (3,)
    assert children.get((2,)) is None   # depth-1 leaf
    assert children.get((3,)) == (1,)


def test_tree_profile_same_size():
    tree = build_tree(fx.ugast_7_9_13_0())
    assert tree.u0 == 5 and tree.b_st == 2 and tree.b_et == 2
    children = ordered_view(tree).children
    assert children[()] == (2, 3, 8, 10, 11)
    assert [len(children.get((c,), ())) for c in children[()]] == [1, 1, 3, 2, 3]


def test_tree_profile_u_symmetric():
    tree = build_tree(fx.ugast_6_0_9_0())
    assert tree.u_profile() == (9, 4, 1)
    tree44 = build_tree(fx.ugast_8_0_16_0())
    assert tree44.u_profile() == (16, 9, 4, 1)


def test_tree_child_counts_strictly_decrease():
    for builder in (fx.gast_6_0_0_9_0, fx.ugast_7_9_13_0, fx.ugast_6_0_9_0):
        children = ordered_view(build_tree(builder())).children
        for path, kids in children.items():
            if path:
                assert len(kids) < len(children[path[:-1]])


def test_tree_depth_bounds_ordering():
    from wcmopt.config import classify_unlabeled

    for builder in (
        fx.gast_6_0_0_9_0, fx.gast_6_2_2_5_2, fx.ugast_7_9_13_0,
        fx.ugast_6_0_9_0, fx.ugast_8_0_16_0, fx.ugast_6_2_11_0,
    ):
        cfg = builder()
        tree = build_tree(cfg)
        assert tree.b_st <= tree.b_et <= classify_unlabeled(cfg).b_ut
        assert all(tree.b_st <= len(s) <= tree.b_et for s in tree.leaf_sets())


def test_tree_root_only_when_nothing_flippable():
    # triangle of VNs, each with one degree-1 check: no check is flippable
    f = gf4()
    edges = [
        (0, 0, 1), (0, 1, 1),
        (1, 1, 1), (1, 2, 1),
        (2, 2, 1), (2, 0, 1),
        (3, 0, 1), (4, 1, 1), (5, 2, 1),
    ]
    cfg = Configuration(3, f, 3, 6, edges)
    tree = build_tree(cfg)
    assert tree.u0 == 0 and tree.b_st == 0 and tree.b_et == 0
    wcms = extract_wcms(cfg, tree)
    assert wcms.t == 1
    assert wcms.wcms[0].deg2_group == ()
    assert wcms.wcms[0].removed_rows == (3, 4, 5)
    assert len(tree.leaf_sets()) == 1


def test_build_tree_rejects_wrong_mode():
    with pytest.raises(ConfigurationError):
        build_tree(fx.ost_6_2_11_0(), mode="gast")
    with pytest.raises(ConfigurationError):
        build_tree(fx.gast_6_0_0_9_0(), mode="ost")


def test_loop_max_is_the_degree_bound_under_the_mode_cap():
    # eas keeps b = d1 only; bast allows floor(a*g/2) unsatisfied checks in total
    built = 0
    for name, cfg in fx.all_fixture_configurations().items():
        topo = classify_unlabeled(cfg)
        g = (cfg.gamma - 1) // 2
        caps = {"gast": None, "ost": None, "eas": 0, "bast": max(0, cfg.num_vns * g // 2 - cfg.d1)}
        for mode, cap in caps.items():
            if not (topo.is_unlabeled_ost if mode == "ost" else topo.is_unlabeled_gast):
                with pytest.raises(ConfigurationError):
                    build_tree(cfg, mode)
                continue
            bound = topo.b_o_ut if mode == "ost" else topo.b_ut
            expected = bound if cap is None else min(bound, cap)
            assert build_tree(cfg, mode).loop_max == expected, (name, mode)
            built += 1
    assert built >= 20


def ordered_build_tree(cfg, mode):
    return ordered_view(build_tree(cfg, mode))


def tree_outcome(build, cfg, mode):
    try:
        tree = build(cfg, mode)
    except (TreeError, ConfigurationError) as exc:
        return type(exc), str(exc)
    return tree.mode, tree.loop_max, tree.b_et, tree.b_st, list(tree.children.items())


def reference_shapes(seed):
    """Every shipped shape and eight VN subsets of each, whose checks lose degree."""
    rng = random.Random(seed)
    for name, cfg in fx.all_fixture_configurations().items():
        yield name, cfg
        for _ in range(8):
            yield name, sub_configuration(cfg, sorted(rng.sample(range(cfg.num_vns), rng.randint(2, cfg.num_vns - 1))))


def test_build_tree_matches_reference():
    # every field, and the full ordered tree in DFS order
    outcomes = set()
    for name, shape in reference_shapes(4):
        for mode in ("gast", "ost", "eas", "bast"):
            fast = tree_outcome(ordered_build_tree, shape, mode)
            assert fast == tree_outcome(reference_build_tree, shape, mode), (name, shape.vn_ids, mode)
            outcomes.add(isinstance(fast[0], str))
    assert outcomes == {True, False}


def test_partner_beyond_the_degree_bound_matches_reference(monkeypatch):
    # a degree bound forced below the real one leaves partners at the depth
    # cap; both builders refuse, at the same first path
    import conftest
    from wcmopt import wcmtree

    bound = {}

    def lowered(c):
        return dataclasses.replace(classify_unlabeled(c), b_ut=bound["b_ut"])

    monkeypatch.setattr(wcmtree, "classify_unlabeled", lowered)
    monkeypatch.setattr(conftest, "classify_unlabeled", lowered)
    raised = 0
    for name, cfg in fx.all_fixture_configurations().items():
        topo = classify_unlabeled(cfg)
        if not topo.is_unlabeled_gast:
            continue
        for b_ut in range(topo.b_ut):
            bound["b_ut"] = b_ut
            fast = tree_outcome(ordered_build_tree, cfg, "gast")
            assert fast == tree_outcome(reference_build_tree, cfg, "gast"), (name, b_ut)
            raised += fast[0] is TreeError
    assert raised >= 10


def test_ordered_counts_are_factorial_multiples_of_set_counts():
    # the paper's identity, on the independently built ordered tree: level j
    # holds j! orderings of each family set of size j, and depth k holds k!
    # leaves per leaf set of size k
    checked = 0
    for name, shape in reference_shapes(5):
        for mode in ("gast", "ost", "eas", "bast"):
            try:
                ref = reference_build_tree(shape, mode)
            except (TreeError, ConfigurationError):
                continue
            tree = build_tree(shape, mode)
            nodes = ref.nodes()
            sets = Counter(len(s) for s in tree.family)
            leaf_sets = Counter(len(s) for s in tree.leaf_sets())
            assert Counter(len(p) for p in nodes) == {j: math.factorial(j) * n for j, n in sets.items()}
            assert Counter(len(p) for p in nodes if p not in ref.children) == {
                k: math.factorial(k) * n for k, n in leaf_sets.items()
            }, (name, shape.vn_ids, mode)
            checked += 1
    assert checked >= 80


def test_family_is_the_suboptimal_count():
    # build_tree's work counter: one entry per distinct set, which is one
    # per sorted path of the ordered tree
    built = 0
    for name, cfg in fx.all_fixture_configurations().items():
        for mode in ("gast", "ost"):
            if classify_unlabeled(cfg).supports(mode):
                tree = build_tree(cfg, mode)
                sorted_paths = [p for p in reference_build_tree(cfg, mode).nodes() if list(p) == sorted(p)]
                t_prime = extract_wcms(cfg, tree).t_prime
                assert len(tree.family) == t_prime == len(sorted_paths), (name, mode)
                built += 1
    assert built >= 9
    for builder, sets, ordered in ((fx.ugast_6_0_9_0, 34, 82), (fx.ugast_8_0_16_0, 209, 1313)):
        cfg = builder()
        assert len(build_tree(cfg).family) == sets
        assert len(reference_build_tree(cfg).nodes()) == ordered


def test_permutation_closure():
    for builder in (fx.gast_6_0_0_9_0, fx.ugast_6_0_9_0, fx.ugast_7_9_13_0):
        tree = build_tree(builder())
        paths = set(ordered_view(tree).nodes())
        for path in paths:
            if len(path) == 2:
                assert (path[1], path[0]) in paths


def test_extract_groups_match_published_lists():
    cases = [
        (fx.gast_6_2_2_5_2(), [(2, 4), (3,)]),
        (fx.ugast_7_9_13_0(), [(3, 12), (4, 9), (9, 11), (9, 12), (11, 12)]),
        (fx.ugast_6_2_11_0(), [(1, 4), (7, 8), (9, 10)]),
        (
            fx.ugast_6_0_9_0(),
            [(1, 3, 5), (1, 4, 9), (2, 4, 6), (2, 5, 8), (3, 6, 7), (7, 8, 9)],
        ),
        (
            fx.gast_6_0_0_9_0(),
            [
                (1, 3, 5), (1, 4, 9), (2, 4, 6), (2, 5), (2, 8),
                (3, 6), (3, 8), (5, 7), (6, 7), (7, 8, 9),
            ],
        ),
    ]
    for cfg, expected in cases:
        wcms = extract_wcms(cfg, build_tree(cfg))
        assert groups_1based(wcms) == expected


def test_extract_includes_degree1_rows_and_sizes():
    cfg = fx.gast_6_2_2_5_2()
    tree = build_tree(cfg)
    wcms = extract_wcms(cfg, tree)
    for rec in wcms.wcms:
        assert set(rec.removed_rows) >= cfg.deg1_cns
        assert cfg.d1 + tree.b_st <= len(rec.removed_rows) <= cfg.d1 + tree.b_et
        matrix = drop_rows(gf_matrix(cfg.adjacency(), cfg.field), rec.removed_rows)
        assert matrix.rows == cfg.num_cns - len(rec.removed_rows)
    assert len({rec.removed_rows for rec in wcms.wcms}) == wcms.t


def test_counts_match_construction():
    expected = {
        fx.gast_6_2_2_5_2: 2,
        fx.ugast_7_9_13_0: 5,
        fx.ugast_6_2_11_0: 3,
        fx.ugast_6_0_9_0: 6,
        fx.ugast_8_0_16_0: 24,
        fx.gast_6_0_0_9_0: 10,
    }
    for builder, t in expected.items():
        cfg = builder()
        tree = build_tree(cfg)
        assert len(tree.leaf_sets()) == t
        assert extract_wcms(cfg, tree).t == t


def test_leaf_count_identity():
    # leaves at depth k come in k! orderings of each distinct removal group
    for builder in (fx.gast_6_0_0_9_0, fx.ugast_6_0_9_0, fx.gast_6_2_2_5_2):
        cfg = builder()
        wcms = extract_wcms(cfg, build_tree(cfg))
        ref = reference_build_tree(cfg)
        by_depth = Counter(len(p) for p in ref.nodes() if p not in ref.children)
        for depth, count in by_depth.items():
            distinct = sum(1 for rec in wcms.wcms if len(rec.deg2_group) == depth)
            assert count == math.factorial(depth) * distinct


def test_same_size_count():
    assert count_wcms_same_size(build_tree(fx.ugast_7_9_13_0())) == 5
    assert count_wcms_same_size(build_tree(fx.ugast_8_0_16_0())) == 24
    with pytest.raises(WrongTreeShapeError):
        count_wcms_same_size(build_tree(fx.gast_6_2_2_5_2()))


def test_same_size_single_level():
    from wcmopt.wcmtree import UnlabeledTree

    # one level with k children: k distinct groups, no dedup needed
    family = {(): (0, 1, 2, 3), (0,): (), (1,): (), (2,): (), (3,): ()}
    tree = UnlabeledTree(mode="gast", loop_max=1, family=family, b_et=1, b_st=1)
    assert count_wcms_same_size(tree) == 4
    assert len(tree.leaf_sets()) == 4


def test_u_symmetric_closed_form():
    assert count_wcms_u_symmetric((6, 1)) == 3
    assert count_wcms_u_symmetric((9, 4, 1)) == 6
    assert count_wcms_u_symmetric((16, 9, 4, 1)) == 24
    with pytest.raises(USymmetryViolationError):
        count_wcms_u_symmetric((5, 3))  # 15 not divisible by 2!
    with pytest.raises(USymmetryViolationError):
        count_wcms_u_symmetric((4, 4))  # not strictly decreasing
    with pytest.raises(USymmetryViolationError):
        count_wcms_u_symmetric(())


def test_suboptimal_counts():
    cases = [
        (fx.gast_6_2_2_5_2, 5, 3),
        (fx.ugast_7_9_13_0, 11, 6),
        (fx.ugast_6_0_9_0, 34, 28),
        (fx.ugast_8_0_16_0, 209, 185),
    ]
    for builder, t_prime, reduction in cases:
        cfg = builder()
        wcms = extract_wcms(cfg, build_tree(cfg))
        assert (wcms.t_prime, wcms.t_prime - wcms.t) == (t_prime, reduction)


def test_suboptimal_against_direct_nonleaf_sum():
    # reduction = 1 + sum over levels j < b_et of (nodes with children)/j!
    for builder in (fx.gast_6_2_2_5_2, fx.ugast_7_9_13_0, fx.gast_6_0_0_9_0, fx.ugast_6_0_9_0):
        cfg = builder()
        ref = reference_build_tree(cfg)
        direct = 1
        for level in range(1, ref.b_et):
            nonleaf = sum(1 for p in ref.children if len(p) == level)
            assert nonleaf % math.factorial(level) == 0
            direct += nonleaf // math.factorial(level)
        wcms = extract_wcms(cfg, build_tree(cfg))
        assert wcms.t_prime - wcms.t == direct


def test_family_coverage_and_minimality():
    # every tree-linked row drop retains some record as a submatrix, and no
    # record is redundant
    for builder in (fx.gast_6_2_2_5_2, fx.gast_6_0_0_9_0, fx.ugast_7_9_13_0, fx.ugast_6_0_9_0, fx.ugast_6_2_11_0):
        cfg = builder()
        tree = build_tree(cfg)
        wcms = extract_wcms(cfg, tree)
        group_sets = [set(rec.deg2_group) for rec in wcms.wcms]
        for path in ordered_view(tree).nodes():
            assert any(set(path) <= g for g in group_sets)
        for g in group_sets:
            containing = [h for h in group_sets if g <= h]
            assert containing == [g]


def _valid_marking_sets(cfg, budget):
    """Brute-force oracle: all degree-2 subsets within every VN's budget.

    A degree-2 check set can be unsatisfied together under some labeling
    exactly when no VN exceeds its per-VN unsatisfied allowance (degree-1
    neighbors always count); validity is downward closed, so the family
    groups are the maximal valid sets.
    """
    import itertools as it

    deg2 = sorted(cfg.deg2_cns)
    valid = []
    for r in range(len(deg2) + 1):
        for subset in it.combinations(deg2, r):
            ok = True
            for vn in range(cfg.num_vns):
                unsat = cfg.vn_deg1_counts[vn] + sum(
                    1 for cn in subset if any(v == vn for v, _ in cfg.cn_neighbors[cn])
                )
                if unsat > budget:
                    ok = False
                    break
            if ok:
                valid.append(frozenset(subset))
    return valid


def test_extraction_against_subset_enumeration_oracle():
    for builder, mode in (
        (fx.gast_6_2_2_5_2, "gast"),
        (fx.gast_6_0_0_9_0, "gast"),
        (fx.ugast_7_9_13_0, "gast"),
        (fx.ugast_6_0_9_0, "gast"),
        (fx.ugast_8_0_16_0, "gast"),
        (fx.ugast_6_2_11_0, "gast"),
        (fx.ost_6_2_11_0, "ost"),
    ):
        cfg = builder()
        budget = (cfg.gamma - 1) // 2 if mode == "gast" else cfg.gamma // 2
        valid = _valid_marking_sets(cfg, budget)
        maximal = [
            s for s in valid
            if not any(s < other for other in valid)
        ]
        tree = build_tree(cfg, mode=mode)
        wcms = extract_wcms(cfg, tree)
        assert sorted(map(sorted, maximal)) == sorted(
            sorted(rec.deg2_group) for rec in wcms.wcms
        )
        assert wcms.t_prime == len(valid)


def test_distinct_shapes_give_distinct_trees():
    # same (a, d1, d2, d3) parameters, different topologies
    t1 = build_tree(fx.gast_6_0_0_9_0())
    t2 = build_tree(fx.ugast_6_0_9_0())
    assert fx.gast_6_0_0_9_0().params() == fx.ugast_6_0_9_0().params()
    assert ordered_view(t1).children != ordered_view(t2).children
    assert len(t1.leaf_sets()) != len(t2.leaf_sets())


def test_b_max_and_z_family():
    cfg = fx.ugast_7_9_13_0()
    tree = build_tree(cfg)
    assert cfg.d1 + tree.b_et == 11
    assert z_family(cfg, tree) == (
        (7, 9, 9, 13, 0), (7, 10, 9, 13, 0), (7, 11, 9, 13, 0),
    )
    cfg2 = fx.ugast_8_0_16_0()
    tree2 = build_tree(cfg2)
    assert cfg2.d1 + tree2.b_et == 4
    assert len(z_family(cfg2, tree2)) == 5


def test_depth_caps_for_subclasses():
    cfg = fx.gast_6_0_0_9_0()
    assert build_tree(cfg, "eas").loop_max == 0
    assert build_tree(cfg, "bast").loop_max == 3
    assert build_tree(cfg, "gast").loop_max == classify_unlabeled(cfg).b_ut
    tree = build_tree(cfg, "eas")
    wcms = extract_wcms(cfg, tree)
    assert wcms.t == 1 and drop_rows(gf_matrix(cfg.adjacency(), cfg.field), wcms.wcms[0].removed_rows).rows == 9


def test_balanced_cap_shrinks_family():
    # with two degree-1 checks the balanced cap allows only one degree-2
    # level, so every single-check marking becomes its own family member
    cfg = fx.gast_6_2_2_5_2()
    tree = build_tree(cfg, "bast")
    assert tree.loop_max == 1
    wcms = extract_wcms(cfg, tree)
    assert groups_1based(wcms) == [(2,), (3,), (4,)]


def test_ost_tree_modes():
    cfg = fx.ost_6_2_11_0()
    tree = build_tree(cfg, mode="ost")
    assert tree.loop_max == 5
    wcms = extract_wcms(cfg, tree)
    assert wcms.kind == "ost"
    assert len(tree.leaf_sets()) == wcms.t == 28
    assert len(tree.family) == wcms.t_prime == 173
