"""Seeded input generators for the benchmark.

Every generator draws only from a ``random.Random`` seeded with the
workload name and ``--seed``, so the same seed gives the same inputs, byte
for byte.  The library supplies the shipped unlabeled shapes, the overlap
tile and field arithmetic; the labelings, codes and files are made here.
"""

from __future__ import annotations

import random

from wcmopt import fixtures
from wcmopt.config import Configuration
from wcmopt.gf import FieldContext

#: The GF(16) primitive polynomial x^4 + x + 1; the library has no default
#: for degree 4, so the caller supplies it.
GF16_POLY = 0b10011

#: Shape cycles of the removal workloads.  remove_gf8 runs two a=6 objects
#: of the cheaper shape per object of the gamma=4 shape, so the median falls
#: inside the cheaper latency mode.  remove_gf16 runs one a=8 object in
#: five: the a=8 mode is 20% of the samples, so p50 sits in the middle of
#: the a=6 mode and p90 in the middle of the a=8 mode, each ten percentage
#: points or more from the boundary between them.
SHAPE_CYCLES = {
    "remove_gf8": ("ugast_6_0_9_0", "ugast_6_0_9_0", "ugast_6_2_11_0"),
    "remove_gf16": ("ugast_6_0_9_0",) * 4 + ("ugast_8_0_16_0",),
}


def field_for(workload: str) -> FieldContext:
    """The field of a removal workload, with fresh tables."""
    return {"remove_gf8": lambda: FieldContext(3),
            "remove_gf16": lambda: FieldContext(4, GF16_POLY)}[workload]()


def satisfied_member(shape: Configuration, rng: random.Random) -> Configuration:
    """Random labeling of ``shape`` under which every degree->=2 check is satisfied.

    A full-support value vector is drawn first; each check of degree >= 2
    then gets random weights on all but its last edge, and the last weight
    is solved so the check annihilates the values.  Degree-1 checks get a
    random weight (they are unsatisfied whatever it is).
    """
    f = shape.field
    q = f.q
    values = [rng.randrange(1, q) for _ in range(shape.num_vns)]
    changes: dict[tuple[int, int], int] = {}
    for cn, nbrs in enumerate(shape.cn_neighbors):
        if len(nbrs) == 1:
            changes[(cn, nbrs[0][0])] = rng.randrange(1, q)
            continue
        while True:
            head = [(vn, rng.randrange(1, q)) for vn, _ in nbrs[:-1]]
            acc = 0
            for vn, w in head:
                acc ^= f.mul(w, values[vn])
            if acc:
                break
        last = nbrs[-1][0]
        changes.update(((cn, vn), w) for vn, w in head)
        changes[(cn, last)] = f.div(acc, values[last])
    return shape.with_weights(changes)


def members(workload: str, seed: int, count: int, field: FieldContext) -> list[tuple[str, Configuration]]:
    """``count`` labeled members for a removal workload, in shape-cycle order."""
    rng = random.Random(f"{workload}:{seed}")
    cycle = SHAPE_CYCLES[workload]
    shapes = {name: getattr(fixtures, name)(field) for name in dict.fromkeys(cycle)}
    out = []
    for i in range(count):
        name = cycle[i % len(cycle)]
        out.append((name, satisfied_member(shapes[name], rng)))
    return out


def code_text(rows: int, cols: int, gamma: int, field: FieldContext, weights: dict) -> str:
    """The sparse triplet code format: poly comment, header, sorted 1-based triplets."""
    lines = [
        f"# gf q={field.q} poly=0b{field.primitive_poly:b}",
        f"rows={rows} cols={cols} q={field.q} gamma={gamma}",
    ]
    lines += [f"{r + 1} {c + 1} {weights[(r, c)]}" for r, c in sorted(weights)]
    return "\n".join(lines) + "\n"


def targets_text(targets: list[tuple[int, ...]]) -> str:
    lines = ["# targets"]
    lines += ["kind=gast vns=" + ",".join(str(v + 1) for v in t) for t in targets]
    return "\n".join(lines) + "\n"


class Code:
    """A generated code: its weights, the text the program reads, and its objects."""

    def __init__(self, rows: int, cols: int, gamma: int, field: FieldContext,
                 weights: dict[tuple[int, int], int], objects: list[tuple[int, ...]]):
        self.rows = rows
        self.cols = cols
        self.gamma = gamma
        self.field = field
        self.weights = weights
        self.objects = objects  # sorted 0-based VN tuples of the planted objects
        self.text = code_text(rows, cols, gamma, field, weights)


#: Padding columns that share one hub check.
HUB_SIZE = 16


def _padding(rng: random.Random, weights: dict, pad_cols: list[int], first_row: int, q: int) -> int:
    """Padding columns: two private checks each plus one check shared by a hub.

    Two of a padding VN's three checks have degree 1 in every induced
    subgraph, so no subset holding it can meet an absorbing majority.
    Returns the number of rows used so far.
    """
    row = first_row
    for col in pad_cols:
        weights[(row, col)] = rng.randrange(1, q)
        weights[(row + 1, col)] = rng.randrange(1, q)
        row += 2
    for start in range(0, len(pad_cols), HUB_SIZE):
        for col in pad_cols[start:start + HUB_SIZE]:
            weights[(row, col)] = rng.randrange(1, q)
        row += 1
    return row


def overlap_tile_code(seed: int, tiles: int = 40, padding: int = 2560) -> Code:
    """Tiles of the two-object overlap graph among padding columns, over GF(4).

    Each tile copies ``toy_code_overlapping``: two (6,0,0,9,0) objects that
    share one VN and its three checks.  Column ids are a seeded shuffle of
    the whole code.  Within a tile the shared VN takes the smallest id and
    the first object the next five, so the objects are processed in the
    fixture's order and the second one's removal search re-verifies the
    first through the shared edges.  Every tile row except the three shared
    checks is scaled by a seeded nonzero factor: row scaling keeps each
    matrix's null space, and leaving the shared checks alone keeps the
    fixture's removal choices, so every tile costs the same.
    """
    rng = random.Random(f"optimize_code:{seed}")
    field = FieldContext(2)
    q = field.q
    tile, tile_targets = fixtures.toy_code_overlapping(field)
    first, second = (set(t.vn_ids) for t in tile_targets)
    (shared_col,) = first & second
    shared_rows = {r for r, c in tile.weights if c == shared_col}
    cols = tiles * tile.cols + padding
    ids = list(range(cols))
    rng.shuffle(ids)
    weights: dict[tuple[int, int], int] = {}
    objects = []
    for t in range(tiles):
        own = sorted(ids[t * tile.cols:(t + 1) * tile.cols])
        col_map = {shared_col: own[0]}
        for part, pool in ((first, own[1:len(first)]), (second, own[len(first):])):
            pool = list(pool)
            rng.shuffle(pool)
            col_map.update(zip(sorted(part - {shared_col}), pool))
        scale = [1 if r in shared_rows else rng.randrange(1, q) for r in range(tile.rows)]
        for (r, c), w in tile.weights.items():
            weights[(t * tile.rows + r, col_map[c])] = field.mul(scale[r], w)
        objects += [tuple(sorted(col_map[c] for c in part)) for part in (first, second)]
    rows = _padding(rng, weights, sorted(ids[tiles * tile.cols:]), tiles * tile.rows, q)
    return Code(rows, cols, tile.gamma, field, weights, sorted(objects))


def _scan_structure(shape: Configuration, extra_cols: int, extra_rows: int) -> list[list[int]]:
    """Checks of the non-object columns: one fixed random draw.

    The object's checks get one more edge each and the extra checks three,
    so every check has degree 3.  The draw does not depend on the workload
    seed, so every seed scans the same unlabeled structure and does the
    same work; the seed varies the weights and the column ids.
    """
    rng = random.Random("enumerate_scan:structure")
    slots = list(range(shape.num_cns)) + list(range(shape.num_cns, shape.num_cns + extra_rows)) * 3
    while True:
        rng.shuffle(slots)
        groups = [slots[i * shape.gamma:(i + 1) * shape.gamma] for i in range(extra_cols)]
        if all(len(set(g)) == shape.gamma for g in groups):
            return groups


def planted_scan_code(seed: int) -> Code:
    """A small random GF(4) code, gamma=3, with one planted (6,0,0,9,0) object.

    Twelve columns and twelve checks of degree 3: the object is a seeded
    satisfied labeling of the K3,3 shape, and six further columns hang off a
    fixed random structure (see ``_scan_structure``) with seeded weights.
    """
    rng = random.Random(f"enumerate_scan:{seed}")
    field = FieldContext(2)
    q = field.q
    shape = fixtures.ugast_6_0_9_0(field)
    extra_cols, extra_rows = 6, 3
    member = satisfied_member(shape, rng)
    cols = shape.num_vns + extra_cols
    ids = list(range(cols))
    rng.shuffle(ids)
    planted = ids[:shape.num_vns]
    weights = {(cn, planted[vn]): w for cn, vn, w in member.edges}
    for col, rows in zip(ids[shape.num_vns:], _scan_structure(shape, extra_cols, extra_rows)):
        for r in rows:
            weights[(r, col)] = rng.randrange(1, q)
    return Code(shape.num_cns + extra_rows, cols, shape.gamma, field, weights, [tuple(sorted(planted))])
