"""Reference configurations used by the test suite and shipped as files.

Builders return fresh Configuration/CodeGraph values over GF(4).  Naming
follows the parameter tuple: gast_* fixtures are labeled, ugast_*/ost_*
fixtures are unlabeled shapes (weights default to 1, which never affects
classification or tree construction).
"""

from __future__ import annotations

from .config import CodeGraph, Configuration
from .gf import FieldContext, gf4
from .removal import Target

A = 2   # generator of GF(4) under the x^2+x+1 encoding
A2 = 3  # its square


def gast_6_2_2_5_2(w: int = A2, field: FieldContext | None = None) -> Configuration:
    """(6,2,2,5,2) object, gamma=3: two degree-1 and two degree-3 checks.

    ``w`` is the tunable weight on the first check's edge to v2; the default
    makes the shape a member of its removal family.
    """
    f = field or gf4()
    edges = [
        (0, 1, w), (0, 2, A2),
        (1, 2, 1), (1, 3, 1),
        (2, 3, A), (2, 4, 1),
        (3, 4, 1), (3, 5, 1),
        (4, 0, 1), (4, 5, A),
        (5, 0, A), (5, 2, A), (5, 4, A),
        (6, 1, A), (6, 3, A2), (6, 5, A2),
        (7, 1, A2),
        (8, 0, 1),
    ]
    return Configuration(3, f, 6, 9, edges)


def gast_6_0_0_9_0(w11: int = 1, w61: int = 1, field: FieldContext | None = None) -> Configuration:
    """(6,0,0,9,0) object, gamma=3: nine degree-2 checks on a chorded 6-cycle.

    ``w11``/``w61`` are the two weights the removal walkthroughs vary.
    """
    f = field or gf4()
    edges = [
        (0, 0, w11), (0, 1, A),
        (1, 1, A2), (1, 2, A2),
        (2, 2, 1), (2, 3, A2),
        (3, 3, A2), (3, 4, 1),
        (4, 4, 1), (4, 5, 1),
        (5, 0, w61), (5, 5, A),
        (6, 1, A), (6, 3, 1),
        (7, 0, A), (7, 4, A2),
        (8, 2, 1), (8, 5, 1),
    ]
    return Configuration(3, f, 6, 9, edges)


def ugast_7_9_13_0(field: FieldContext | None = None) -> Configuration:
    """(7,9,13,0) unlabeled shape for gamma=5."""
    f = field or gf4()
    deg2 = [
        (0, 0), (0, 4),    # c1  v1-v5
        (1, 1), (1, 4),    # c2  v2-v5
        (2, 0), (2, 1),    # c3  v1-v2
        (3, 0), (3, 2),    # c4  v1-v3
        (4, 1), (4, 5),    # c5  v2-v6
        (5, 2), (5, 5),    # c6  v3-v6
        (6, 2), (6, 6),    # c7  v3-v7
        (7, 3), (7, 6),    # c8  v4-v7
        (8, 1), (8, 3),    # c9  v2-v4
        (9, 3), (9, 4),    # c10 v4-v5
        (10, 0), (10, 3),  # c11 v1-v4
        (11, 2), (11, 3),  # c12 v3-v4
        (12, 5), (12, 6),  # c13 v6-v7
    ]
    deg1 = [(13, 0), (14, 1), (15, 2), (16, 4), (17, 4), (18, 5), (19, 5), (20, 6), (21, 6)]
    edges = [(cn, vn, 1) for cn, vn in deg2 + deg1]
    return Configuration(5, f, 7, 22, edges)


def ugast_6_0_9_0(field: FieldContext | None = None) -> Configuration:
    """(6,0,9,0) unlabeled shape for gamma=3 whose checks form K3,3."""
    f = field or gf4()
    pairs = [
        (0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 3), (0, 5), (1, 3), (2, 4),
    ]
    edges = []
    for cn, (x, y) in enumerate(pairs):
        edges += [(cn, x, 1), (cn, y, 1)]
    return Configuration(3, f, 6, 9, edges)


def ugast_8_0_16_0(field: FieldContext | None = None) -> Configuration:
    """(8,0,16,0) unlabeled shape for gamma=4 whose checks form K4,4."""
    f = field or gf4()
    edges = []
    for i in range(4):
        for j in range(4):
            cn = 4 * i + j
            edges += [(cn, i, 1), (cn, 4 + j, 1)]
    return Configuration(4, f, 8, 16, edges)


def ugast_6_2_11_0(field: FieldContext | None = None) -> Configuration:
    """(6,2,11,0) unlabeled shape for gamma=4: a K4 core plus two padded VNs."""
    f = field or gf4()
    deg2 = [
        (0, 0), (0, 1),    # c1  v1-v2
        (1, 0), (1, 4),    # c2  v1-v5
        (2, 1), (2, 4),    # c3  v2-v5
        (3, 2), (3, 3),    # c4  v3-v4
        (4, 2), (4, 5),    # c5  v3-v6
        (5, 3), (5, 5),    # c6  v4-v6
        (6, 0), (6, 2),    # c7  v1-v3
        (7, 1), (7, 3),    # c8  v2-v4
        (8, 0), (8, 3),    # c9  v1-v4
        (9, 1), (9, 2),    # c10 v2-v3
        (10, 4), (10, 5),  # c11 v5-v6
    ]
    deg1 = [(11, 4), (12, 5)]
    edges = [(cn, vn, 1) for cn, vn in deg2 + deg1]
    return Configuration(4, f, 6, 13, edges)


def ost_8_3_13_1(field: FieldContext | None = None) -> Configuration:
    """(8,3,13,1) unlabeled oscillating shape for gamma=4 (one degree-3 check)."""
    f = field or gf4()
    deg2 = [
        (0, 0), (0, 1),
        (1, 0), (1, 2),
        (2, 1), (2, 3),
        (3, 1), (3, 4),
        (4, 2), (4, 3),
        (5, 2), (5, 4),
        (6, 2), (6, 5),
        (7, 3), (7, 5),
        (8, 3), (8, 7),
        (9, 4), (9, 6),
        (10, 4), (10, 7),
        (11, 5), (11, 6),
        (12, 6), (12, 7),
    ]
    deg1 = [(13, 0), (14, 0), (15, 1)]
    high = [(16, 5), (16, 6), (16, 7)]
    edges = [(cn, vn, 1) for cn, vn in deg2 + deg1 + high]
    return Configuration(4, f, 8, 17, edges)


def ost_6_2_11_0(field: FieldContext | None = None) -> Configuration:
    """(6,2,11,0) unlabeled oscillating shape for gamma=4 (two degree-1 checks on v1)."""
    f = field or gf4()
    deg2 = [
        (0, 0), (0, 1),
        (1, 0), (1, 2),
        (2, 1), (2, 3),
        (3, 1), (3, 4),
        (4, 1), (4, 5),
        (5, 2), (5, 3),
        (6, 2), (6, 4),
        (7, 2), (7, 5),
        (8, 3), (8, 4),
        (9, 3), (9, 5),
        (10, 4), (10, 5),
    ]
    deg1 = [(11, 0), (12, 0)]
    edges = [(cn, vn, 1) for cn, vn in deg2 + deg1]
    return Configuration(4, f, 6, 13, edges)


def gast_borderline_no_deg2(field: FieldContext | None = None) -> Configuration:
    """(5,1,1,4,2) object, gamma=3, whose only borderline VN has no degree-2 CN.

    Its maximal-degree-1 VN sees one degree-1 and two degree-3 checks, so
    edge selection has no candidates and removal must report failure.
    """
    f = field or gf4()
    edges = [
        (0, 1, 1), (0, 2, 1),
        (1, 1, 1), (1, 3, 1),
        (2, 2, 1), (2, 4, 1),
        (3, 3, 1), (3, 4, 1),
        (4, 0, 1),
        (5, 0, 1), (5, 1, A), (5, 2, A2),
        (6, 0, 1), (6, 3, A), (6, 4, A2),
    ]
    return Configuration(3, f, 5, 7, edges)


def all_fixture_configurations() -> dict[str, Configuration]:
    return {
        "gast_6_2_2_5_2": gast_6_2_2_5_2(),
        "gast_6_0_0_9_0": gast_6_0_0_9_0(),
        "ugast_7_9_13_0": ugast_7_9_13_0(),
        "ugast_6_0_9_0": ugast_6_0_9_0(),
        "ugast_8_0_16_0": ugast_8_0_16_0(),
        "ugast_6_2_11_0": ugast_6_2_11_0(),
        "ost_8_3_13_1": ost_8_3_13_1(),
        "ost_6_2_11_0": ost_6_2_11_0(),
        "gast_borderline_no_deg2": gast_borderline_no_deg2(),
    }


def _embedded_instance_rows(w11: int = 1, w61: int = 1) -> list[tuple[int, int, int]]:
    cfg = gast_6_0_0_9_0(w11, w61)
    return [(cn, vn, w) for cn, vn, w in cfg.edges]


def toy_code_single_instance(field: FieldContext | None = None) -> tuple[CodeGraph, Target]:
    """12-VN toy graph holding exactly one (6,0,0,9,0) instance on columns 1-6.

    Padding VNs each carry two private degree-1 checks plus one shared hub
    check, so no padding VN can ever satisfy an absorbing or oscillating
    majority and the embedded instance is the only size-6 object.
    """
    f = field or gf4()
    weights: dict[tuple[int, int], int] = {}
    for cn, vn, w in _embedded_instance_rows():
        weights[(cn, vn)] = w
    row = 9
    for pad in range(6, 12):
        weights[(row, pad)] = 1
        weights[(row + 1, pad)] = 1
        row += 2
    for pad in range(6, 12):
        weights[(21, pad)] = 1
    graph = CodeGraph(22, 12, 3, f, weights)
    target = Target(vn_ids=(0, 1, 2, 3, 4, 5), kind="gast", expected_params=(6, 0, 0, 9, 0))
    return graph, target


#: Frozen weight choice for the two-instance overlap graph: the second
#: instance's private rows, as (row, (col, weight), (col, weight)).
OVERLAP_PRIVATE_ROWS: tuple[tuple[int, tuple[int, int], tuple[int, int]], ...] = (
    (9, (6, 1), (7, 1)),     # v7-v8
    (10, (7, 1), (8, 1)),    # v8-v9
    (11, (8, 1), (9, 1)),    # v9-v10
    (12, (9, 1), (10, 1)),   # v10-v11
    (13, (6, A), (8, 1)),    # v7-v9
    (14, (7, 1), (10, 1)),   # v8-v11
)

#: Weights of the second instance's extensions of the shared checks:
#: ((row, col), weight) for rows c1, c6, c8 reaching into columns 7/11/10.
OVERLAP_EXTENSIONS: tuple[tuple[tuple[int, int], int], ...] = (
    ((0, 6), 1),
    ((5, 10), 1),
    ((7, 9), 1),
)


def toy_code_overlapping(field: FieldContext | None = None) -> tuple[CodeGraph, list[Target]]:
    """Two (6,0,0,9,0) instances sharing VN v1 and its three check edges.

    The first instance sits on columns 1-6; the second reuses column 1 and
    its three checks (extended by one edge each) plus columns 7-11.  The
    frozen weights make both instances family members initially and keep the
    second one a member after the first's removal, so its removal search
    must re-verify the first through the shared edges.
    """
    f = field or gf4()
    weights: dict[tuple[int, int], int] = {}
    for cn, vn, w in _embedded_instance_rows():
        weights[(cn, vn)] = w
    for (rc, w) in OVERLAP_EXTENSIONS:
        weights[rc] = w
    for row, (c_a, w_a), (c_b, w_b) in OVERLAP_PRIVATE_ROWS:
        weights[(row, c_a)] = w_a
        weights[(row, c_b)] = w_b
    graph = CodeGraph(15, 11, 3, f, weights)
    targets = [
        Target(vn_ids=(0, 1, 2, 3, 4, 5), kind="gast", expected_params=(6, 0, 0, 9, 0)),
        Target(vn_ids=(0, 6, 7, 8, 9, 10), kind="gast", expected_params=(6, 0, 0, 9, 0)),
    ]
    return graph, targets
