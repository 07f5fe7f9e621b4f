import itertools
import random

import pytest

from conftest import gf16, random_code, random_weights, reference_induce
from wcmopt import fixtures as fx
from wcmopt.config import (
    CodeGraph,
    Configuration,
    MalformedConfigurationError,
    NotApplicableError,
    allowance,
    classify_unlabeled,
    cn_flippable_partners,
    keeps_majority,
)
from wcmopt.gf import FieldError, gf4, gf8
from wcmopt.gflinalg import SearchTooLargeError, SupportScan
from wcmopt.removal import compute_b_for_values, oracle_in_family, smallest_b, smallest_b_on_rows
from wcmopt.wcmtree import build_tree, grow_tree

A, A2 = 2, 3


def test_validation_rejects_bad_column_weight():
    f = gf4()
    with pytest.raises(MalformedConfigurationError):
        Configuration(3, f, 2, 2, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])


def test_validation_rejects_zero_weight_and_duplicates():
    f = gf4()
    with pytest.raises(MalformedConfigurationError):
        Configuration(1, f, 1, 1, [(0, 0, 0)])
    with pytest.raises(MalformedConfigurationError):
        Configuration(2, f, 1, 1, [(0, 0, 1), (0, 0, 2)])


M = MalformedConfigurationError


@pytest.mark.parametrize("gamma, a, ell, edges, error, message", [
    (1, 1, 1, [(0, 0, 1), (1, 0, 0)], M, "edge (1,0) out of range"),
    (1, 1, 1, [(0, 0, 0)], M, "edge (0,0) has zero weight"),
    (1, 1, 1, [(0, 0, 4)], FieldError, "value 4 outside GF(4)"),
    (2, 1, 1, [(0, 0, 2), (0, 0, 1)], M, "duplicate edge (0,0)"),
    (2, 1, 1, [(0, 0, 5), (0, 0, 1)], FieldError, "value 5 outside GF(4)"),
    (2, 2, 2, [(0, 0, 1), (1, 0, 1), (0, 1, 1)], M, "VN v2 has degree 1, column weight is 2"),
    (1, 2, 2, [(0, 0, 1)], M, "VN v2 has degree 0, column weight is 1"),
    (1, 1, 2, [(0, 0, 1)], M, "CN c2 has no edges"),
    (1, 2, 1, [(1, 0, 1), (0, 1, 0)], M, "edge (0,1) has zero weight"),
], ids=["range", "zero", "field", "duplicate", "field-before-duplicate", "vn-degree",
        "vn-before-cn", "empty-cn", "first-sorted-offender"])
def test_constructor_errors_name_the_first_offender(gamma, a, ell, edges, error, message):
    with pytest.raises(error) as exc:
        Configuration(gamma, gf4(), a, ell, edges)
    assert type(exc.value) is error and str(exc.value) == message


def test_adjacency_is_built_once_per_configuration():
    cfg = fx.gast_6_0_0_9_0()
    matrix = cfg.adjacency()
    assert cfg.adjacency() is matrix
    cn, vn, old = cfg.edges[0]
    moved = cfg.with_weights({(cn, vn): old % 3 + 1})
    assert moved.adjacency().entries[cn][vn] == old % 3 + 1
    assert cfg.adjacency() is matrix and matrix.entries[cn][vn] == old


def test_degree_bookkeeping():
    cfg = fx.gast_6_2_2_5_2()
    assert (cfg.d1, cfg.d2, cfg.d3, cfg.num_cns) == (2, 5, 2, 9)
    assert sorted(cfg.deg1_cns) == [7, 8]
    assert sorted(cfg.high_cns) == [5, 6]
    assert sum(len(nbrs) for nbrs in cfg.cn_neighbors) == cfg.num_vns * cfg.gamma


@pytest.mark.parametrize(
    "builder, expect",
    [
        (fx.ugast_7_9_13_0, ("gast", 2)),
        (fx.ugast_8_0_16_0, ("gast", 4)),
        (fx.gast_6_0_0_9_0, ("gast", 3)),
        (fx.gast_6_2_2_5_2, ("gast", 2)),
        (fx.ugast_6_2_11_0, ("gast", 2)),
        (fx.ost_8_3_13_1, ("ost", 2)),
        (fx.ost_6_2_11_0, ("ost", 2)),
    ],
)
def test_classify_fixture_shapes(builder, expect):
    kind, b_ut = expect
    topo = classify_unlabeled(builder())
    if kind == "gast":
        assert topo.is_unlabeled_gas and topo.is_unlabeled_gast
        assert not topo.is_unlabeled_os and not topo.is_unlabeled_ost
    else:
        assert topo.is_unlabeled_os and topo.is_unlabeled_ost
        assert not topo.is_unlabeled_gas and not topo.is_unlabeled_gast
    assert topo.b_ut == b_ut


def test_single_vn_never_absorbing():
    topo = classify_unlabeled(fx.not_gas_single_vn())
    assert not topo.is_unlabeled_gas and not topo.is_unlabeled_os


def test_classify_is_label_invariant():
    rng = random.Random(5)
    for builder in (fx.gast_6_0_0_9_0, fx.gast_6_2_2_5_2, fx.ost_6_2_11_0):
        base = classify_unlabeled(builder())
        for _ in range(25):
            assert classify_unlabeled(random_weights(builder(), rng)) == base


def test_b_ut_values():
    assert classify_unlabeled(fx.ugast_7_9_13_0()).b_ut == 2
    assert classify_unlabeled(fx.ugast_6_0_9_0()).b_ut == 3
    assert classify_unlabeled(fx.ugast_8_0_16_0()).b_ut == 4


def test_b_ut_clamps_negative_operand():
    cfg = fx.not_gas_single_vn()
    assert cfg.num_vns * allowance(cfg.gamma, "gast") < cfg.d1
    assert classify_unlabeled(cfg).b_ut == 0


def test_b_o_ut_values():
    assert classify_unlabeled(fx.ost_8_3_13_1()).b_o_ut == 6
    assert classify_unlabeled(fx.ost_6_2_11_0()).b_o_ut == 5
    # oscillating VNs need an even column weight
    assert classify_unlabeled(fx.gast_6_0_0_9_0()).b_o_ut is None


def test_b_o_ut_zero_operand():
    # four VNs, each with two degree-1 and two degree-2 checks: operand zero
    f = gf4()
    edges = [(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 2, 1), (2, 2, 1), (2, 3, 1), (3, 3, 1), (3, 0, 1)]
    edges += [(4 + i, i // 2, 1) for i in range(8)]
    cfg = Configuration(4, f, 4, 12, edges)
    assert cfg.d1 == 8
    assert classify_unlabeled(cfg).b_o_ut == 0


def test_b_o_ut_at_least_b_ut_for_even_gamma():
    for builder in (fx.ugast_8_0_16_0, fx.ugast_6_2_11_0, fx.ost_8_3_13_1, fx.ost_6_2_11_0):
        topo = classify_unlabeled(builder())
        assert topo.b_o_ut >= topo.b_ut


def test_flippable_partners_first_level():
    # 0-based indices: the three mid-chain checks of the (6,2,5,2) shape
    assert cn_flippable_partners(fx.gast_6_2_2_5_2(), ()) == frozenset({1, 2, 3})
    # the five checks named for the gamma=5 shape
    assert cn_flippable_partners(fx.ugast_7_9_13_0(), ()) == frozenset({2, 3, 8, 10, 11})


def test_flippable_partners_saturated():
    cfg = fx.gast_6_2_2_5_2()
    assert cn_flippable_partners(cfg, (1, 3)) == frozenset()


def test_flippable_partners_antitone():
    rng = random.Random(11)
    cfg = fx.gast_6_0_0_9_0()
    for _ in range(50):
        base = rng.sample(sorted(cfg.deg2_cns), rng.randrange(0, 3))
        bigger = base + rng.sample([c for c in cfg.deg2_cns if c not in base], 1)
        assert cn_flippable_partners(cfg, bigger) <= cn_flippable_partners(cfg, base)


def test_flippable_ost_mode_weak_threshold():
    cfg = fx.ost_6_2_11_0()
    partners = cn_flippable_partners(cfg, (), mode="ost")
    # v1 already sits at equality, so its two checks are not flippable
    assert partners == cfg.deg2_cns - {0, 1}
    with pytest.raises(NotApplicableError):
        cn_flippable_partners(fx.gast_6_0_0_9_0(), (), mode="ost")


def naive_flippable(cfg, marked, mode):
    """Recount each VN's satisfied checks from its neighbour list, per candidate."""
    threshold = (cfg.gamma + 2) // 2 if mode == "gast" else cfg.gamma // 2

    def satisfied(vn):
        return cfg.gamma - sum(
            1 for cn, _ in cfg.vn_neighbors[vn] if cn in cfg.deg1_cns or cn in marked
        )

    return frozenset(
        cn
        for cn in cfg.deg2_cns - set(marked)
        if all(satisfied(v) > threshold for v, _ in cfg.cn_neighbors[cn])
    )


def test_flippable_partners_match_naive_recount():
    rng = random.Random(23)
    for name, cfg in fx.all_fixture_configurations().items():
        modes = ("gast", "ost") if cfg.gamma % 2 == 0 else ("gast",)
        low = sorted(cfg.deg1_cns | cfg.deg2_cns)
        for mode in modes:
            for _ in range(40):
                marked = rng.sample(low, rng.randrange(0, min(len(low), 5) + 1))
                assert cn_flippable_partners(cfg, marked, mode) == naive_flippable(
                    cfg, set(marked), mode
                ), (name, mode, marked)


@pytest.mark.parametrize("gamma", range(1, 10))
def test_majority_rule_matches_the_formulas(gamma):
    # each VN's count u of unsatisfied checks: strict majority 2u < gamma,
    # weak 2u <= gamma, and 'os' is weak with 2u == gamma at some VN
    us = range(gamma + 1)
    for u in us:
        assert (u <= allowance(gamma, "gas")) == (u <= allowance(gamma, "gast")) == (2 * u < gamma)
        assert (u <= allowance(gamma, "os")) == (u <= allowance(gamma, "ost")) == (2 * u <= gamma)
        # flipping one more check keeps the majority: the old thresholds
        assert (u < allowance(gamma, "gast")) == (gamma - u > (gamma + 2) // 2)
        if gamma % 2 == 0:
            assert (u < allowance(gamma, "ost")) == (gamma - u > gamma / 2)
    for counts in [(u,) for u in us] + [(u, v) for u in us for v in us]:
        twice = [2 * u for u in counts]
        assert keeps_majority(gamma, counts, "gas") == all(x < gamma for x in twice)
        assert keeps_majority(gamma, counts, "gast") == all(x < gamma for x in twice)
        assert keeps_majority(gamma, counts, "ost") == all(x <= gamma for x in twice)
        assert keeps_majority(gamma, counts, "os") == (
            all(x <= gamma for x in twice) and gamma in twice
        )
    with pytest.raises(ValueError):
        allowance(gamma, "eas")


def test_with_weights_round_trip():
    cfg = fx.gast_6_0_0_9_0()
    changed = cfg.with_weights({(0, 0): A, (5, 0): A2})
    assert changed.weight_of(0, 0) == A and changed.weight_of(5, 0) == A2
    assert cfg.weight_of(0, 0) == 1  # original untouched
    with pytest.raises(KeyError):
        cfg.with_weights({(0, 5): 1})
    with pytest.raises(MalformedConfigurationError):
        cfg.with_weights({(0, 0): 0})


def test_codegraph_induce_matches_fixture():
    graph, target = fx.toy_code_single_instance()
    cfg = graph.induce(target.vn_ids)
    assert cfg.adjacency().entries == fx.gast_6_0_0_9_0().adjacency().entries
    assert cfg.vn_ids == (0, 1, 2, 3, 4, 5)
    assert cfg.cn_ids == tuple(range(9))


def test_codegraph_validation_and_changes():
    f = gf4()
    with pytest.raises(MalformedConfigurationError):
        CodeGraph(2, 2, 2, f, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    graph, _ = fx.toy_code_single_instance()
    changed = graph.apply_changes({(0, 0): A})
    assert changed.weights[(0, 0)] == A and graph.weights[(0, 0)] == 1
    with pytest.raises(KeyError):
        graph.apply_changes({(0, 2): 1})
    with pytest.raises(MalformedConfigurationError):
        graph.apply_changes({(0, 0): 0})
    with pytest.raises(FieldError):
        graph.apply_changes({(0, 0): graph.field.q})
    before = dict(graph.weights)
    e1, e2 = sorted(before)[:2]
    first = graph.apply_changes({e1: A})
    second = first.apply_changes({e1: A2, e2: A})
    assert graph.weights == before
    assert first.weights == {**before, e1: A}
    assert second.weights == {**before, e1: A2, e2: A}


@pytest.mark.parametrize("bad", [99, -1])
def test_codegraph_induce_rejects_vn_ids_outside_the_code(bad):
    graph, target = fx.toy_code_single_instance()
    with pytest.raises(MalformedConfigurationError):
        graph.induce([*target.vn_ids, bad])


def test_codegraph_induce_matches_reference_scan():
    rng = random.Random(31)
    for _ in range(20):
        graph = random_code(rng, rng.randint(4, 14), rng.randint(3, 16))
        keys = sorted(graph.weights)
        for step in range(6):
            for _ in range(8):
                vns = rng.choices(range(graph.cols), k=rng.randint(0, graph.cols + 2))
                got, want = graph.induce(vns), reference_induce(graph, vns)
                assert (got.edges, got.vn_ids, got.cn_ids) == (
                    want.edges, want.vn_ids, want.cn_ids
                ), (step, vns)
            changes = {e: rng.randrange(1, 4) for e in rng.sample(keys, rng.randint(1, 4))}
            graph = graph.apply_changes(changes)


def test_walk_classes_match_induced_configurations():
    # every subset of small random codes, sizes 0 .. cols + 1
    rng = random.Random(7)
    for gamma in (2, 3, 4):
        for _ in range(6):
            graph = random_code(rng, rng.randint(gamma, 9), rng.randint(1, 8), gamma)
            for size in range(graph.cols + 2):
                walked = [(subset, topo) for subset, topo, _ in graph.shapes(size)]
                subsets = list(itertools.combinations(range(graph.cols), size))
                assert [s for s, _ in walked] == subsets
                for subset, topo in walked:
                    assert topo == classify_unlabeled(graph.induce(subset)), subset


def test_walk_hits_match_induced_configurations():
    # every subset of small random codes, sizes 0 .. cols + 1: what the walk
    # hands over is what induce gives, and the family test on it is
    # smallest_b on the induced configuration, support-cap overruns included;
    # where the exhaustive family oracle is cheap it checks b and the
    # witness apart from the membership kernel
    def outcome(judge, cap):
        try:
            return judge(cap)
        except SearchTooLargeError:
            return "support cap"

    rng = random.Random(11)
    for field in (gf4(), gf8(), gf16()):
        for gamma in (2, 3, 4):
            kinds = ("gast", "ost") if gamma % 2 == 0 else ("gast",)
            for _ in range(5):
                graph = random_code(rng, rng.randint(gamma, 9), rng.randint(1, 8), gamma, field)
                for size in range(graph.cols + 2):
                    scan, wide = SupportScan(field, size - 1), SupportScan(field, size * (gamma + 1))
                    for subset, topo, read in graph.shapes(size):
                        shape, cfg = read(), graph.induce(subset)
                        packing = SupportScan(field, len(subset))
                        assert shape.rows == tuple(map(packing.pack, cfg.adjacency().entries)), subset
                        assert shape.deg1_rows == tuple(sorted(cfg.deg1_cns))
                        assert list(shape.pairs.items()) == [
                            (cn, tuple(v for v, _ in cfg.cn_neighbors[cn])) for cn in sorted(cfg.deg2_cns)
                        ]
                        assert shape.vn_deg1_counts == cfg.vn_deg1_counts
                        assert (shape.d1, shape.d2, shape.d3) == (cfg.d1, cfg.d2, cfg.d3)
                        assert shape.params(7) == cfg.params(7)
                        for kind in kinds:
                            if not topo.supports(kind):
                                continue
                            tree = grow_tree(shape.pairs, shape.vn_deg1_counts, topo, gamma, kind)
                            assert tree == build_tree(cfg, kind)
                            for cap in (0, 12):
                                walked = outcome(
                                    lambda cap: smallest_b_on_rows(shape.rows, shape.deg1_rows, tree, scan, wide, cap),
                                    cap,
                                )
                                assert walked == outcome(lambda cap: smallest_b(cfg, build_tree(cfg, kind), cap), cap), subset
                            if walked == "support cap" or (field.q - 1) ** size > 4096:
                                continue
                            oracle = oracle_in_family(cfg, kind)
                            assert (walked is not None) == oracle.is_member, subset
                            if walked is not None:
                                b, witness = walked
                                count, _, unsat = compute_b_for_values(cfg, witness)
                                assert b == count == oracle.smallest_b, subset
                                assert tuple(sorted(set(unsat) - cfg.deg1_cns)) in tree.family, subset
