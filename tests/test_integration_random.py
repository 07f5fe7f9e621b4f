"""Randomized whole-pipeline sweeps on small generated code graphs.

Each seed builds a column-weight-3 graph over GF(4), scans it for family
members the way the enumerate command does, optimizes every hit, and then
re-scans to confirm the bookkeeping: removed objects are gone, objects the
search gave up on are reported in X, and earlier removals survive later
ones.
"""

import itertools
import random
import warnings

from wcmopt.config import CodeGraph, classify_unlabeled
from wcmopt.gf import gf4
from wcmopt.removal import Target, optimize_code, oracle_in_family
from wcmopt.wcmtree import build_tree, extract_wcms


def random_graph(seed: int, cols: int = 8, rows: int = 10) -> CodeGraph:
    rng = random.Random(seed)
    while True:
        weights = {}
        for c in range(cols):
            for r in rng.sample(range(rows), 3):
                weights[(r, c)] = rng.randrange(1, 4)
        graph = CodeGraph(rows, cols, 3, gf4(), weights)
        return graph


def scan(graph: CodeGraph, max_a: int = 5) -> list[Target]:
    found = []
    for size in range(2, max_a + 1):
        for subset in itertools.combinations(range(graph.cols), size):
            cfg = graph.induce(subset)
            topo = classify_unlabeled(cfg)
            if not topo.is_unlabeled_gast:
                continue
            fam = oracle_in_family(cfg, "gast")
            if fam.is_member:
                found.append(
                    Target(vn_ids=subset, expected_params=cfg.params(fam.smallest_b))
                )
    return found


def still_member(graph: CodeGraph, target: Target) -> bool:
    cfg = graph.induce(target.vn_ids)
    topo = classify_unlabeled(cfg)
    if not topo.is_unlabeled_gast:
        return False
    return oracle_in_family(cfg, "gast").is_member


def test_random_graph_sweep():
    total_targets = 0
    for seed in range(8):
        graph = random_graph(seed)
        targets = scan(graph)
        total_targets += len(targets)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            new_graph, report = optimize_code(graph, targets)
        # the library emits no diagnostic: a plan past its bound says so in
        # its own fields, and the command line prints it
        assert caught == []
        processed_ids = {p.object_id for p in report.processed}
        assert processed_ids.isdisjoint(report.unremovable)
        assert len(report.plan_log) + len(report.skipped) == len(targets)
        # every processed object is out of its family on the final graph,
        # in both the matrix-based and the exhaustive sense
        for target in targets:
            if target.object_id in processed_ids:
                assert not still_member(new_graph, target)
                cfg = new_graph.induce(target.vn_ids)
                tree = build_tree(cfg)
                wcms = extract_wcms(cfg, tree)
                from wcmopt.removal import is_in_Z

                assert not is_in_Z(cfg, wcms)
        assert sorted(report.reverified) == sorted(processed_ids)
        # replay determinism
        replayed = graph.apply_changes(
            {(cn, vn): new for cn, vn, _, new in report.changes}
        )
        assert replayed == new_graph
        # a second pass changes nothing once X is empty
        if not report.unremovable:
            _, second = optimize_code(new_graph, targets)
            assert second.total_changes == 0
            assert all(p.result == "not_in_z" for p in second.processed)
    assert total_targets >= 5  # the sweep actually exercised removals
