"""File formats, command-line surface and report emission.

Commands: analyze, remove, optimize, enumerate, verify.  All output is
line-oriented key=value blocks (or one JSON object per block with
``--format json-lines``); identical inputs always give identical output.
Each command takes only the options it reads.  Exit codes: 0 ok, 2 input
error (a file that cannot be read, written or parsed, an option the
command does not take, a negative count or cap, ``enumerate --kind ost``
on an odd column weight), 3 unremovable, 4 oracle infeasible, 5 support
search infeasible (a null space wider than ``--support-cap`` in
``remove`` or ``optimize``).
``enumerate`` never exits 5: it warns and skips a shape hit whose family
walk meets a null space wider than ``--support-cap``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Iterable, Iterator, Sequence, TextIO

from .config import (
    CodeGraph,
    Configuration,
    ConfigurationError,
    NotApplicableError,
    classify_unlabeled,
)
from .gf import FieldContext, FieldError, format_element
from .gflinalg import DEFAULT_SUPPORT_CAP, SearchTooLargeError
from .removal import (
    DEFAULT_BUDGET,
    DEFAULT_ORACLE_CAP,
    OracleTooLargeError,
    RemovalPlan,
    Target,
    enumerate_code,
    evaluate_weight_conditions,
    is_in_Z,
    optimize_code,
    oracle_in_family,
    oracle_is_gas,
    remove_object,
)
from .wcmtree import build_tree, extract_wcms, z_family

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNREMOVABLE = 3
EXIT_ORACLE = 4
EXIT_SUPPORT = 5


class ParseError(Exception):
    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


# ---------------------------------------------------------------- field setup


def _field_for(q: int, poly_comment: int | None, poly_flag: int | None) -> FieldContext:
    lam = q.bit_length() - 1
    if lam < 2 or q != 1 << lam:
        raise FieldError(f"q={q} is not a power of two >= 4")
    poly = poly_flag if poly_flag is not None else poly_comment
    return FieldContext(lam, poly)


def _poly_comment(field: FieldContext) -> str:
    return f"# gf q={field.q} poly=0b{field.primitive_poly:b}"


def _scan_poly_comment(lines: list[str], path: str) -> int | None:
    for i, line in enumerate(lines):
        if line.startswith("#") and "poly=" in line:
            token = line.split("poly=")[1].split()
            try:
                return int(token[0], 0)
            except (IndexError, ValueError):
                raise ParseError(path, i + 1, f"bad poly= value in {line.strip()!r}") from None
    return None


def _key_values(path: str, lineno: int, line: str) -> dict[str, str]:
    """The key=value tokens of a header or target line; each key at most once."""
    out: dict[str, str] = {}
    for item in line.split():
        k, eq, v = item.partition("=")
        if not eq:
            raise ParseError(path, lineno, f"expected key=value, got {item!r}")
        if k in out:
            raise ParseError(path, lineno, f"repeated key {k!r}")
        out[k] = v
    return out


def _prelude(
    text: str, path: str, poly_flag: int | None, keys: Sequence[str]
) -> tuple[int, dict[str, int], FieldContext, Iterator[tuple[int, str]]]:
    """Header line number, integer header, field, and an iterator over the numbered body lines.

    Comments and blank lines are dropped; every header count but ``q`` is at
    least 1, and the field comes from ``q``, a ``poly=`` comment and the
    ``--field-poly`` override.  The body lines are stripped as they are
    read, and no list of them is built; a ``poly=`` comment anywhere in the
    file is read before the first of them.
    """
    raw = text.splitlines()
    lines = ((i, l) for i, l in enumerate(map(str.strip, raw), 1) if l and l[0] != "#")
    lineno, header = next(lines, (1, None))
    if header is None:
        raise ParseError(path, 1, "empty file")
    h = {}
    for k, v in _key_values(path, lineno, header).items():
        try:
            h[k] = int(v)
        except ValueError:
            raise ParseError(path, lineno, f"non-integer value for {k}: {v!r}") from None
    missing = [k for k in keys if k not in h]
    if missing:
        raise ParseError(path, lineno, f"header missing {missing}")
    for k in keys:
        if k != "q" and h[k] < 1:
            raise ParseError(path, lineno, f"{k}={h[k]} is below 1")
    try:
        field = _field_for(h["q"], _scan_poly_comment(raw, path), poly_flag)
    except FieldError as exc:
        raise ParseError(path, lineno, str(exc)) from None
    return lineno, h, field, lines


# ------------------------------------------------------------- configuration


def parse_config(text: str, path: str = "<config>", poly_flag: int | None = None) -> Configuration:
    """Parse the dense configuration format: header plus an ell x a matrix."""
    lineno, h, field, lines = _prelude(text, path, poly_flag, ("q", "gamma", "a", "ell"))
    body = list(lines)
    if len(body) != h["ell"]:
        raise ParseError(path, lineno, f"expected {h['ell']} matrix rows, found {len(body)}")
    edges = []
    for row_idx, (ln, line) in enumerate(body):
        parts = line.split()
        if len(parts) != h["a"]:
            raise ParseError(path, ln, f"expected {h['a']} entries, found {len(parts)}")
        for col, tok in enumerate(parts):
            try:
                val = int(tok)
            except ValueError:
                raise ParseError(path, ln, f"non-integer entry {tok!r}") from None
            if val < 0 or val >= field.q:
                raise ParseError(path, ln, f"entry {val} outside 0..{field.q - 1}")
            if val:
                edges.append((row_idx, col, val))
    try:
        return Configuration(h["gamma"], field, h["a"], h["ell"], edges)
    except ConfigurationError as exc:
        raise ParseError(path, lineno, str(exc)) from None


def serialize_config(cfg: Configuration) -> str:
    lines = [_poly_comment(cfg.field)]
    lines.append(f"q={cfg.field.q} gamma={cfg.gamma} a={cfg.num_vns} ell={cfg.num_cns}")
    for row in cfg.adjacency():
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- code graph


def parse_code(text: str, path: str = "<code>", poly_flag: int | None = None) -> CodeGraph:
    """Parse the sparse triplet format for a full parity-check matrix."""
    lineno, h, field, body = _prelude(text, path, poly_flag, ("rows", "cols", "q", "gamma"))
    weights: dict[tuple[int, int], int] = {}
    rows, cols, q = h["rows"], h["cols"], field.q
    for ln, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(path, ln, f"expected 'row col weight', got {line!r}")
        try:
            r, c, wv = map(int, parts)
        except ValueError:
            raise ParseError(path, ln, f"non-integer triplet {line!r}") from None
        if not (1 <= r <= rows and 1 <= c <= cols):
            raise ParseError(path, ln, f"entry ({r},{c}) out of range")
        if not 1 <= wv < q:
            raise ParseError(path, ln, f"weight {wv} outside 1..{q - 1}")
        key = r - 1, c - 1
        if key in weights:
            raise ParseError(path, ln, f"duplicate entry ({r},{c})")
        weights[key] = wv
    try:
        return CodeGraph(h["rows"], h["cols"], h["gamma"], field, weights)
    except ConfigurationError as exc:
        raise ParseError(path, lineno, str(exc)) from None


def serialize_code(graph: CodeGraph) -> str:
    """The sparse triplet format; the entries go into one buffer, so no string per entry is held."""
    out = bytearray(
        f"{_poly_comment(graph.field)}\n"
        f"rows={graph.rows} cols={graph.cols} q={graph.field.q} gamma={graph.gamma}\n".encode()
    )
    weights = graph.weights
    for r, c in sorted(weights):
        out += b"%d %d %d\n" % (r + 1, c + 1, weights[r, c])
    return out.decode()


# -------------------------------------------------------------------- targets


def parse_targets(text: str, path: str = "<targets>", *, cols: int | None = None) -> list[Target]:
    """Target records, one per line; with ``cols``, VN ids must lie in 1..cols.

    A (kind, VN set) pair may be listed only once.
    """
    targets = []
    seen = set()
    for i, raw in enumerate(text.splitlines()):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = _key_values(path, i + 1, line)
        if "vns" not in fields:
            raise ParseError(path, i + 1, "target record missing vns=")
        kind = fields.get("kind", "gast")
        if kind not in ("gast", "ost"):
            raise ParseError(path, i + 1, f"unknown kind {kind!r}")
        try:
            vns = tuple(sorted(int(v) - 1 for v in fields["vns"].split(",")))
        except ValueError:
            raise ParseError(path, i + 1, f"bad vns list {fields['vns']!r}") from None
        if len(set(vns)) != len(vns) or any(v < 0 for v in vns):
            raise ParseError(path, i + 1, "vn ids must be distinct positive integers")
        params = None
        if "params" in fields:
            try:
                params = tuple(int(x) for x in fields["params"].split(","))
            except ValueError:
                raise ParseError(path, i + 1, f"bad params {fields['params']!r}") from None
        target = Target(vn_ids=vns, kind=kind, expected_params=params)
        if cols is not None and vns[-1] >= cols:
            raise ParseError(path, i + 1, f"target {target.object_id} references a VN beyond {cols}")
        if (kind, vns) in seen:
            raise ParseError(path, i + 1, f"target {kind} {target.object_id} listed twice")
        seen.add((kind, vns))
        targets.append(target)
    return targets


def _target_record(t: Target) -> dict[str, str]:
    record = {"kind": t.kind, "vns": ",".join(str(v + 1) for v in t.vn_ids)}
    if t.expected_params is not None:
        record["params"] = ",".join(str(x) for x in t.expected_params)
    return record


def serialize_targets(targets: Iterable[Target]) -> str:
    lines = ["# targets"]
    for t in targets:
        lines.append(" ".join(f"{k}={v}" for k, v in _target_record(t).items()))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ reporting


class Reporter:
    """Emits blocks as key=value lines or JSON lines."""

    def __init__(self, fmt: str, out: TextIO):
        self.fmt = fmt
        self.out = out
        self._first = True

    def block(self, name: str, data: dict) -> None:
        if self.fmt == "json-lines":
            payload = {"block": name}
            payload.update(data)
            self.out.write(json.dumps(payload, sort_keys=True) + "\n")
            return
        if not self._first:
            self.out.write("\n")
        self._first = False
        self.out.write(f"[{name}]\n")
        for key, value in data.items():
            self.out.write(f"{key}={value}\n")


def _witness_str(field: FieldContext, vec: Sequence[int] | None) -> str:
    if vec is None:
        return "-"
    return "[" + " ".join(format_element(field, v) for v in vec) + "]"


def _group_label(deg2_group: Sequence[int], has_o: bool) -> str:
    names = [f"c{g + 1}" for g in deg2_group]
    if has_o:
        names.append("O_sg")
    return "(" + ",".join(names) + ")"


def _change_str(changes: Iterable[tuple[int, int, int, int]]) -> str:
    return "; ".join(f"(c{cn + 1},v{vn + 1}): {old} -> {new}" for cn, vn, old, new in changes)


def _plan_data(plan: RemovalPlan) -> dict:
    data = {
        "object": plan.object_id or "-",
        "kind": plan.kind,
        "result": plan.result,
        "e_min": plan.e_min,
        "e_bound": plan.e_bound,
        "e_min_exact": _yn(plan.e_min_exact),
        "num_changes": len(plan.changes),
        "changes": _change_str(plan.changes) or "-",
        "candidates_tried": plan.candidates_tried,
        "protected_checks": plan.protected_checks,
        "protected_rejections": plan.protected_rejections,
    }
    if plan.selected_vn is not None:
        data["selected_vn"] = f"v{plan.selected_vn + 1}"
    return data


# ------------------------------------------------------------------- commands


def cmd_analyze(args: argparse.Namespace, rep: Reporter) -> int:
    cfg = parse_config(_read(args.config), args.config, args.field_poly)
    topo = classify_unlabeled(cfg)
    rep.block(
        "configuration",
        {
            "path": args.config,
            "q": cfg.field.q,
            "gamma": cfg.gamma,
            "a": cfg.num_vns,
            "ell": cfg.num_cns,
            "d1": cfg.d1,
            "d2": cfg.d2,
            "d3": cfg.d3,
            "unlabeled_gas": _yn(topo.is_unlabeled_gas),
            "unlabeled_gast": _yn(topo.is_unlabeled_gast),
            "unlabeled_os": _yn(topo.is_unlabeled_os),
            "unlabeled_ost": _yn(topo.is_unlabeled_ost),
            "b_ut": topo.b_ut,
            "b_o_ut": topo.b_o_ut if topo.b_o_ut is not None else "-",
        },
    )
    try:
        tree = build_tree(cfg, args.mode)
    except ConfigurationError as exc:
        rep.block("error", {"message": str(exc)})
        return EXIT_INPUT
    try:
        oracle = oracle_is_gas(cfg, "os" if tree.mode == "ost" else "gas", cap=args.oracle_cap)
        rep.block(
            "oracle",
            {
                "smallest_b": oracle.smallest_b if oracle.is_member else "-",
                "labeled_member": _yn(oracle.is_member),
                "witness": _witness_str(cfg.field, oracle.witness),
                "params": "(%s)" % ",".join(
                    str(x) for x in cfg.params(oracle.smallest_b)
                ) if oracle.is_member else "-",
            },
        )
    except OracleTooLargeError as exc:
        rep.block("warning", {"message": f"oracle skipped: {exc}"})
    wcms = extract_wcms(cfg, tree)
    profile = tree.u_profile()
    rep.block(
        "tree",
        {
            "mode": args.mode,
            "loop_max": tree.loop_max,
            "b_st": tree.b_st,
            "b_et": tree.b_et,
            "b_max": cfg.d1 + tree.b_et,
            "u0": tree.u0,
            "u_profile": ",".join(str(u) for u in profile) if profile else "-",
            "level_nodes": ",".join(str(n) for n in tree.level_node_counts()[1:]) or "-",
            "t": wcms.t,
            "t_prime": wcms.t_prime,
            "reduction": wcms.t_prime - wcms.t,
        },
    )
    rep.block(
        "z_family",
        {"members": "; ".join("(%s)" % ",".join(str(x) for x in p) for p in z_family(cfg, tree))},
    )
    try:
        report = evaluate_weight_conditions(cfg, wcms, args.support_cap)
    except SearchTooLargeError as exc:
        rep.block("warning", {"message": f"weight-condition scan skipped: {exc}"})
        return EXIT_OK
    o_sg = "(" + ",".join(f"c{i + 1}" for i in sorted(cfg.deg1_cns)) + ")"
    rep.block("o_sg", {"members": o_sg})
    for h, rec in enumerate(report.records, start=1):
        rep.block(
            f"wcm_{h:02d}",
            {
                "group": _group_label(rec.deg2_group, cfg.d1 > 0),
                "rows": cfg.num_cns - len(rec.removed_rows),
                "cols": cfg.num_vns,
                "status": "broken" if rec.broken else "unbroken",
                "p": rec.p,
                "delta": rec.delta,
                "component_dims": ",".join(str(d) for d in rec.component_dims),
                "witness": _witness_str(cfg.field, rec.witness),
            },
        )
    rep.block(
        "summary",
        {
            "in_family": _yn(not report.all_broken),
            "unbroken": ",".join(str(h) for h in report.unbroken_indices()) or "-",
        },
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, rep: Reporter) -> int:
    cfg = parse_config(_read(args.config), args.config, args.field_poly)
    topo = classify_unlabeled(cfg)
    kinds = [kind for kind in ("gast", "ost") if topo.supports(kind)]
    try:
        gas = oracle_is_gas(cfg, "gas", cap=args.oracle_cap)
        os_res = oracle_is_gas(cfg, "os", cap=args.oracle_cap) if cfg.gamma % 2 == 0 else None
        fams = {kind: oracle_in_family(cfg, kind, cap=args.oracle_cap) for kind in kinds}
    except OracleTooLargeError as exc:
        rep.block("error", {"message": str(exc)})
        return EXIT_ORACLE
    verdict = "none"
    smallest = None
    witness = None
    gast_fam, ost_fam = fams.get("gast"), fams.get("ost")
    for name, res in (
        ("OS", os_res),
        ("OST", ost_fam),
        ("GAS", gas if gas.is_member else None),
        ("GAST", gast_fam),
    ):
        if res is not None and res.is_member:
            verdict = name
            smallest, witness = res.smallest_b, res.witness
    # Matrix-based verdict on the same family, for the agreement line.
    wcm_verdict = None
    if kinds:
        wcms = extract_wcms(cfg, build_tree(cfg, kinds[0]))
        try:
            wcm_verdict = is_in_Z(cfg, wcms, args.support_cap)
        except SearchTooLargeError:
            pass
    oracle_member = verdict in ("GAST", "OST")
    data = {
        "verdict": verdict,
        "gas": _yn(gas.is_member),
        "gast": _yn(gast_fam.is_member) if gast_fam is not None else "no",
        "os": _yn(os_res.is_member) if os_res is not None else "no",
        "ost": _yn(ost_fam.is_member) if ost_fam is not None else "no",
        "params": "(%s)" % ",".join(str(x) for x in cfg.params(smallest)) if smallest is not None else "-",
        "smallest_b": smallest if smallest is not None else "-",
        "witness": _witness_str(cfg.field, witness),
        "wcm_in_family": _yn(wcm_verdict) if wcm_verdict is not None else "-",
        "wcm_agrees": _yn(wcm_verdict == oracle_member) if wcm_verdict is not None else "-",
    }
    rep.block("verify", data)
    return EXIT_OK


def cmd_remove(args: argparse.Namespace, rep: Reporter) -> int:
    cfg = parse_config(_read(args.config), args.config, args.field_poly)
    try:
        tree = build_tree(cfg, args.mode)
    except ConfigurationError as exc:
        rep.block("error", {"message": str(exc)})
        return EXIT_INPUT
    plan = remove_object(
        cfg,
        extract_wcms(cfg, tree),
        support_cap=args.support_cap,
        oracle_cap=args.oracle_cap,
        object_id=args.config,
    )
    if args.out and plan.result != "unremovable":
        updated = cfg.with_weights({(cn, vn): new for cn, vn, _, new in plan.changes})
        _write(args.out, serialize_config(updated))
    rep.block("plan", _plan_data(plan))
    if plan.result == "unremovable":
        rep.block("error", {"message": "search exhausted; object is unremovable within caps"})
        return EXIT_UNREMOVABLE
    if args.out:
        rep.block("output", {"path": args.out})
    if plan.result == "not_in_z":
        rep.block("note", {"message": "not in the removal family; nothing to do"})
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace, rep: Reporter) -> int:
    graph = parse_code(_read(args.code), args.code, args.field_poly)
    targets = parse_targets(_read(args.targets), args.targets, cols=graph.cols)
    new_graph, report = optimize_code(graph, targets, support_cap=args.support_cap, oracle_cap=args.oracle_cap)
    if args.out:
        _write(args.out, serialize_code(new_graph))
    for plan in report.plan_log:
        rep.block(f"object_{plan.object_id}", _plan_data(plan))
    rep.block(
        "optimization",
        {
            "processed": len(report.processed),
            "removed": sum(1 for p in report.processed if p.result == "removed"),
            "already_out": sum(1 for p in report.processed if p.result == "not_in_z"),
            "unremovable": "; ".join(report.unremovable) or "-",
            "skipped": "; ".join(report.skipped) or "-",
            "total_changes": report.total_changes,
            "changes": _change_str(report.changes) or "-",
            "protected_checks": report.protected_checks,
            "protected_rejections": report.protected_rejections,
            "reverified_intact": "; ".join(report.reverified) or "-",
        },
    )
    for plan in report.plan_log:
        if len(plan.changes) > plan.e_bound:
            rep.block("warning", {"message": f"removal of {plan.object_id} needed {len(plan.changes)} changes, "
                                             f"beyond the topological bound {plan.e_bound}"})
    if args.out:
        rep.block("output", {"path": args.out})
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace, rep: Reporter) -> int:
    graph = parse_code(_read(args.code), args.code, args.field_poly)
    try:
        report = enumerate_code(graph, args.kind, args.max_a, budget=args.budget, support_cap=args.support_cap)
    except NotApplicableError:
        rep.block("error", {"message": f"--kind ost needs an even column weight; the code has gamma={graph.gamma}"})
        return EXIT_INPUT
    if args.out:
        _write(args.out, serialize_targets(report.targets))
    for subset in report.skipped:
        rep.block("warning", {"message": f"support cap hit for subset {subset}; skipped"})
    if not args.out and rep.fmt == "json-lines":
        for t in report.targets:
            rep.block("target", _target_record(t))
    elif not args.out:
        rep.out.write(serialize_targets(report.targets))
    rep.block(
        "enumerate",
        {
            "kind": args.kind,
            "max_a": args.max_a,
            "subsets_examined": report.examined,
            "found": len(report.targets),
            "truncated": _yn(report.truncated),
        },
    )
    return EXIT_OK


# ----------------------------------------------------------------------- main


def _yn(flag: bool | None) -> str:
    return "yes" if flag else "no"


class InputError(Exception):
    """A file the command cannot read or write."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(exc) from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(exc) from exc


def _int_flag(value: str) -> int:
    return int(value, 0)


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def count(value: str) -> int:
        n = int(value)
        if n < minimum:
            raise argparse.ArgumentTypeError(f"{n} is below {minimum}")
        return n

    return count


# Options some commands take; each command declares only the ones it reads.
_FLAGS = {
    "--mode": dict(choices=("gast", "ost", "eas", "bast"), default="gast"),
    "--support-cap": dict(type=_at_least(0), default=DEFAULT_SUPPORT_CAP),
    "--oracle-cap": dict(type=_at_least(0), default=DEFAULT_ORACLE_CAP),
    "--out": dict(default=None, help="output path for modified files"),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every ``main`` call shares it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field-poly", type=_int_flag, default=None,
                        help="override the primitive polynomial bitmask")
    common.add_argument("--format", choices=("text", "json-lines"), default="text")

    parser = argparse.ArgumentParser(
        prog="wcmopt",
        description="Analyze and remove absorbing-set-type objects from non-binary LDPC Tanner graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=summary)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = command("analyze", cmd_analyze, "classify a configuration and report its matrix family",
                "--mode", "--support-cap", "--oracle-cap")
    p.add_argument("config")

    p = command("verify", cmd_verify, "exhaustive oracle verdict for a configuration",
                "--support-cap", "--oracle-cap")
    p.add_argument("config")

    p = command("remove", cmd_remove, "search edge re-weightings that remove the object",
                "--mode", "--support-cap", "--oracle-cap", "--out")
    p.add_argument("config")

    p = command("optimize", cmd_optimize, "remove listed objects from a full code graph",
                "--support-cap", "--oracle-cap", "--out")
    p.add_argument("code")
    p.add_argument("targets")

    p = command("enumerate", cmd_enumerate, "scan a code graph for embedded objects (desk scale)",
                "--support-cap", "--out")
    p.add_argument("code")
    p.add_argument("--max-a", type=_at_least(1), required=True)
    p.add_argument("--kind", choices=("gast", "ost"), default="gast")
    p.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rep = Reporter(args.format, sys.stdout)
    try:
        return args.func(args, rep)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OracleTooLargeError as exc:
        print(f"oracle infeasible: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except SearchTooLargeError as exc:
        print(f"support search infeasible: {exc}", file=sys.stderr)
        return EXIT_SUPPORT


if __name__ == "__main__":
    sys.exit(main())
