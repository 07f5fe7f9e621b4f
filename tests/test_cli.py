import itertools
import json
import math
import os
import pathlib
import random
import re
import signal
import sys
import time
import tracemalloc

import pytest

from conftest import (
    disjoint_union,
    drop_rows,
    gf16,
    gf_matrix,
    note,
    noted,
    pin_workers,
    random_code,
    reference_enumerate,
    satisfied_labeling,
    wait_until,
)
from wcmopt import cli, config, gflinalg, removal, wcmtree
from wcmopt import fixtures as fx
from wcmopt.cli import (
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_INPUT,
    EXIT_SUPPORT,
    EXIT_UNREMOVABLE,
    ParseError,
    main,
    parse_code,
    parse_config,
    parse_targets,
    serialize_code,
    serialize_config,
    serialize_targets,
)
from wcmopt.config import CodeGraph, Configuration, NotApplicableError, classify_unlabeled
from wcmopt.gf import gf4, gf8
from wcmopt.gflinalg import null_space
from wcmopt.removal import DEFAULT_ORACLE_CAP, Target, enumerate_code, oracle_in_family
from wcmopt.wcmtree import build_tree

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXDIR / name)


class TestFormats:
    def test_config_round_trip_all_fixtures(self):
        for name, cfg in fx.all_fixture_configurations().items():
            text = serialize_config(cfg)
            parsed = parse_config(text, name)
            assert parsed.edges == cfg.edges
            assert parsed.gamma == cfg.gamma and parsed.field == cfg.field
            assert serialize_config(parsed) == text

    def test_shipped_files_match_builders(self):
        for name, cfg in fx.all_fixture_configurations().items():
            shipped = (FIXDIR / f"{name}.cfg").read_text()
            assert shipped == serialize_config(cfg)

    def test_shipped_code_files_match_builders(self):
        graph, target = fx.toy_code_single_instance()
        assert (FIXDIR / "toy_code.txt").read_text() == serialize_code(graph)
        assert (FIXDIR / "toy_targets.txt").read_text() == serialize_targets([target])
        graph2, targets2 = fx.toy_code_overlapping()
        assert (FIXDIR / "toy_code_overlap.txt").read_text() == serialize_code(graph2)
        assert (FIXDIR / "toy_targets_overlap.txt").read_text() == serialize_targets(targets2)

    def test_code_round_trip(self):
        graph, _ = fx.toy_code_single_instance()
        text = serialize_code(graph)
        parsed = parse_code(text)
        assert parsed == graph
        assert serialize_code(parsed) == text

    def test_targets_round_trip(self):
        targets = [
            Target(vn_ids=(0, 1, 5), kind="gast", expected_params=(3, 1, 1, 2, 0)),
            Target(vn_ids=(2, 3), kind="ost"),
            Target(vn_ids=(2, 3), kind="gast"),  # the same VNs under another kind
        ]
        text = serialize_targets(targets)
        assert parse_targets(text) == targets

    def test_parse_errors_are_positioned(self):
        with pytest.raises(ParseError):
            parse_config("q=4 gamma=3 a=2 ell=1\n1 1\n")  # column weight broken
        with pytest.raises(ParseError):
            parse_config("")
        with pytest.raises(ParseError):
            parse_config("q=4 gamma=3 a=2\n")  # missing ell
        with pytest.raises(ParseError):
            parse_config("q=4 gamma=1 a=1 ell=1\n7\n")  # entry out of range
        with pytest.raises(ParseError):
            parse_code("rows=1 cols=1 q=4 gamma=1\n1 1 1\n1 1 2\n")  # duplicate
        with pytest.raises(ParseError):
            parse_targets("kind=gast\n")

    @pytest.mark.parametrize("body, line, message", [
        ("1 1", 4, "expected 'row col weight', got '1 1'"),
        ("1 1 1 1", 4, "expected 'row col weight', got '1 1 1 1'"),
        ("1 x 1", 4, "non-integer triplet '1 x 1'"),
        ("1 1 2.0", 4, "non-integer triplet '1 1 2.0'"),
        ("3 1 1", 4, "entry (3,1) out of range"),
        ("1 0 1", 4, "entry (1,0) out of range"),
        ("1 3 1", 4, "entry (1,3) out of range"),
        ("1 1 4", 4, "weight 4 outside 1..3"),
        ("1 1 0", 4, "weight 0 outside 1..3"),
        ("2 2 1\n\n2 2 3", 6, "duplicate entry (2,2)"),
        ("1 1 1\n2 2 1", 2, "column 1 has 1 entries, column weight is 2"),
        # every poly= comment is read before the first triplet is parsed
        ("1 x 1\n# gf q=4 poly=zz", 5, "bad poly= value in '# gf q=4 poly=zz'"),
        ("2 2 1\r1 x 1", 5, "non-integer triplet '1 x 1'"),
    ], ids=["short", "long", "non-integer", "non-integer-weight", "row-range", "col-zero",
            "col-range", "weight-range", "weight-zero", "duplicate", "column-weight",
            "poly-after-bad-triplet", "cr-separated"])
    def test_code_parse_errors_pin_message_and_line(self, body, line, message):
        text = f"# code\nrows=2 cols=2 q=4 gamma=2\n1 2 1\n{body}\n"
        with pytest.raises(ParseError) as caught:
            parse_code(text, "c.txt")
        assert (caught.value.line, str(caught.value)) == (line, f"c.txt:{line}: {message}")

    def test_code_parse_and_serialize_hold_no_per_line_copies(self):
        # 9000 triplets: the body is read line by line and written into one
        # buffer, so neither holds a list of per-line strings or tuples
        text = serialize_code(random_code(random.Random(3), 1500, 3000, 3))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            graph = parse_code(text)
            held, peak = tracemalloc.get_traced_memory()
            assert peak - start < 1.6 * (held - start)
            tracemalloc.reset_peak()
            out = serialize_code(graph)
            peak = tracemalloc.get_traced_memory()[1]
            assert peak - held < 3 * len(out)
        finally:
            tracemalloc.stop()
        assert out == text

    @pytest.mark.parametrize("comment", ["# gf q=4 poly=zz", "# gf q=4 poly="], ids=["bad", "empty"])
    @pytest.mark.parametrize("command, text", [
        ("analyze", "q=4 gamma=1 a=1 ell=1\n1\n"),
        ("enumerate", "rows=1 cols=1 q=4 gamma=1\n1 1 1\n"),
    ], ids=["config", "code"])
    def test_malformed_poly_comment_is_a_parse_error(self, command, text, comment, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(f"# note\n{comment}\n{text}")
        argv = [command, str(path)] + (["--max-a", "1"] if command == "enumerate" else [])
        assert main(argv) == EXIT_INPUT
        assert f"parse error: {path}:2: bad poly= value" in capsys.readouterr().err

    @pytest.mark.parametrize("command, header, message", [
        ("verify", "q=4 gamma=3 a=0 ell=0", "a=0 is below 1"),
        ("verify", "q=4 gamma=0 a=1 ell=0", "gamma=0 is below 1"),
        ("verify", "q=4 gamma=1 a=2 ell=1 a=1\n1", "repeated key 'a'"),
        ("verify", "q=0 gamma=1 a=1 ell=1\n1", "q=0 is not a power of two >= 4"),
        ("enumerate", "rows=1 cols=1 q=4 gamma=0", "gamma=0 is below 1"),
        ("enumerate", "rows=-2 cols=-1 q=4 gamma=3", "rows=-2 is below 1"),
        ("enumerate", "rows=1 cols=0 q=4 gamma=3", "cols=0 is below 1"),
    ], ids=["config-a", "config-gamma", "config-repeat", "config-q", "code-gamma", "code-rows",
            "code-cols"])
    def test_degenerate_or_repeated_header_is_a_parse_error(self, command, header, message, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(f"# note\n{header}\n")
        argv = [command, str(path)] + (["--max-a", "1"] if command == "enumerate" else [])
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert f"parse error: {path}:2: {message}" in captured.err and captured.out == ""

    @pytest.mark.parametrize("records, message", [
        ("kind=gast vns=1,2,3,4,5,6 vns=7", "repeated key 'vns'"),
        ("kind=gast vns=1,2,3,4,5,6 gast", "expected key=value, got 'gast'"),
        ("kind=gast vns=1,2,3,4,5,6\nkind=gast vns=6,5,4,3,2,1", "target gast 1,2,3,4,5,6 listed twice"),
    ], ids=["repeated-key", "bare-token", "repeated-target"])
    def test_malformed_target_record_is_a_parse_error(self, records, message, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text(f"# targets\n{records}\n")
        assert main(["optimize", fixture_path("toy_code.txt"), str(targets)]) == EXIT_INPUT
        captured = capsys.readouterr()
        line = 2 + records.count("\n")
        assert f"parse error: {targets}:{line}: {message}" in captured.err and captured.out == ""

    def test_field_poly_override(self):
        text = serialize_config(fx.gast_6_0_0_9_0())
        parsed = parse_config(text, poly_flag=0b111)
        assert parsed.field.primitive_poly == 0b111
        with pytest.raises(ParseError):
            parse_config(text, poly_flag=0b101)  # not primitive


class TestCommands:
    def test_analyze_counts(self, capsys):
        assert main(["analyze", fixture_path("gast_6_2_2_5_2.cfg")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "t=2" in out and "t_prime=5" in out and "reduction=3" in out
        assert "b_st=1" in out and "b_et=2" in out
        assert "group=(c3,O_sg)" in out and "group=(c2,c4,O_sg)" in out
        assert "o_sg" in out and "(c8,c9)" in out

    def test_analyze_membership_summary(self, capsys):
        assert main(["analyze", fixture_path("gast_6_0_0_9_0.cfg")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "smallest_b=0" in out
        assert out.count("status=unbroken") == 10
        assert "in_family=yes" in out
        assert "unbroken=1,2,3,4,5,6,7,8,9,10" in out

    def test_analyze_json_lines(self, capsys):
        assert main(["analyze", fixture_path("gast_6_2_2_5_2.cfg"), "--format", "json-lines"]) == EXIT_OK
        out = capsys.readouterr().out
        blocks = [json.loads(line) for line in out.splitlines()]
        tree = next(b for b in blocks if b["block"] == "tree")
        assert tree["t"] == 2 and tree["t_prime"] == 5 and tree["reduction"] == 3

    def test_analyze_parse_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("q=4 gamma=3 a=2 ell=1\n1 1\n")
        assert main(["analyze", str(bad)]) == EXIT_INPUT

    @pytest.mark.parametrize("command", ["analyze", "optimize", "enumerate"])
    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8", "out_directory"])
    def test_unreadable_file_is_an_input_error(self, command, case, tmp_path, capsys):
        # one error line and exit 2, no traceback and nothing on stdout;
        # analyze writes no file, so its --out case runs remove on the same
        # configuration
        files = {"analyze": ["gast_6_0_0_9_0.cfg"], "optimize": ["toy_code.txt", "toy_targets.txt"],
                 "enumerate": ["toy_code.txt"]}[command]
        argv = [command, *map(fixture_path, files)] + (["--max-a", "2"] if command == "enumerate" else [])
        directory, bad = tmp_path / "dir", tmp_path / "bad.txt"
        directory.mkdir()
        bad.write_bytes(b"\xff\xfe q=4\n")
        if case == "out_directory":
            argv = ["remove" if command == "analyze" else command, *argv[1:], "--out", str(directory)]
            want = f"error: [Errno 21] Is a directory: '{directory}'\n"
        elif case == "not_utf8":
            argv[len(files)] = str(bad)
            want = f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        else:
            path = directory if case == "directory" else tmp_path / "missing.txt"
            argv[len(files)] = str(path)
            want = (f"error: [Errno 21] Is a directory: '{path}'\n" if case == "directory"
                    else f"error: [Errno 2] No such file or directory: '{path}'\n")
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == want
        assert captured.out == ""  # a failed --out write comes before any report block

    @pytest.mark.parametrize("command", ["analyze", "remove"])
    @pytest.mark.parametrize("name, mode", [("gast_6_0_0_9_0", "ost"), ("ost_6_2_11_0", "gast")])
    def test_unsupported_shape_is_an_input_error(self, command, name, mode, tmp_path, capsys):
        out_path = tmp_path / "out.cfg"
        argv = [command, fixture_path(f"{name}.cfg"), "--mode", mode]
        assert main(argv + (["--out", str(out_path)] if command == "remove" else [])) == EXIT_INPUT
        out = capsys.readouterr().out
        assert out.endswith(f"[error]\nmessage=configuration is not an unlabeled {mode}\n")
        assert "[tree]" not in out and not out_path.exists()

    @pytest.mark.parametrize("command, files, flags", [
        ("analyze", ["gast_6_0_0_9_0.cfg"], ["--out", "OUT"]),
        ("verify", ["gast_6_0_0_9_0.cfg"], ["--mode", "ost"]),
        ("remove", ["gast_6_0_0_9_0.cfg"], ["--phases", "gast"]),
        ("optimize", ["toy_code.txt", "toy_targets.txt"], ["--mode", "gast"]),
        ("optimize", ["toy_code.txt", "toy_targets.txt"], ["--phases", "gast+ost"]),
        ("enumerate", ["toy_code.txt"], ["--max-a", "1", "--oracle-cap", "10"]),
    ], ids=["analyze", "verify", "remove", "optimize", "optimize-phases", "enumerate"])
    def test_stray_flag_is_an_input_error(self, command, files, flags, tmp_path, capsys):
        # a flag its command does not read is refused, not silently ignored
        out_path = tmp_path / "out.txt"
        flags = [str(out_path) if f == "OUT" else f for f in flags]
        with pytest.raises(SystemExit) as exc:
            main([command, *map(fixture_path, files), *flags])
        assert exc.value.code == EXIT_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv, flag, bad", [
        (["enumerate", "toy_code.txt", "--max-a", "3"], "--budget", "-5"),
        (["enumerate", "toy_code.txt"], "--max-a", "0"),
        (["analyze", "gast_6_0_0_9_0.cfg"], "--support-cap", "-1"),
        (["verify", "gast_6_0_0_9_0.cfg"], "--oracle-cap", "-1"),
    ], ids=["budget", "max-a", "support-cap", "oracle-cap"])
    def test_negative_count_is_an_input_error(self, argv, flag, bad, capsys):
        command, path, *rest = argv
        with pytest.raises(SystemExit) as exc:
            main([command, fixture_path(path), *rest, flag, bad])
        assert exc.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert f"argument {flag}: {bad} is below" in captured.err and captured.out == ""

    def test_analyze_ost_mode(self, capsys):
        assert main(["analyze", fixture_path("ost_6_2_11_0.cfg"), "--mode", "ost"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "unlabeled_ost=yes" in out
        assert "b_o_ut=5" in out

    def test_analyze_eas_mode_single_matrix(self, capsys):
        assert main(["analyze", fixture_path("gast_6_2_2_5_2.cfg"), "--mode", "eas"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "t=1" in out and "group=(O_sg)" in out

    @pytest.mark.parametrize("name, mode, loop_max, t, changes, tried", [
        ("gast_6_2_2_5_2", "eas", 0, 1, "(c5,v1): 1 -> 2", 1),
        ("gast_6_2_2_5_2", "bast", 1, 3, "(c5,v1): 1 -> 2", 1),
        ("gast_6_0_0_9_0", "eas", 0, 1, "(c1,v1): 1 -> 2; (c6,v1): 1 -> 2", 1),
        ("gast_6_0_0_9_0", "bast", 3, 10, "(c1,v1): 1 -> 2; (c6,v1): 1 -> 3", 2),
    ])
    def test_subclass_modes_analyze_and_remove(self, name, mode, loop_max, t, changes, tried, capsys):
        path = fixture_path(f"{name}.cfg")
        assert main(["analyze", path, "--mode", mode]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"[tree]\nmode={mode}\nloop_max={loop_max}\n" in out and f"\nt={t}\n" in out
        assert main(["remove", path, "--mode", mode]) == EXIT_OK
        out = capsys.readouterr().out
        assert "kind=gast\nresult=removed\n" in out
        assert f"\nchanges={changes}\ncandidates_tried={tried}\n" in out

    def test_verify_oscillating_member(self, capsys):
        assert main(["verify", fixture_path("ost_6_2_11_0.cfg")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict=OST" in out
        assert "wcm_agrees=yes" in out

    def test_verify_member(self, capsys):
        assert main(["verify", fixture_path("gast_6_0_0_9_0.cfg")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict=GAST" in out
        assert "params=(6,0,0,9,0)" in out
        assert "wcm_agrees=yes" in out
        assert main(["verify", fixture_path("gast_6_2_2_5_2.cfg")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict=GAST" in out and "params=(6,2,2,5,2)" in out

    def test_verify_judges_membership_up_to_the_first_unbroken_matrix(self, capsys):
        # a null space wider than the cap after the first unbroken matrix is
        # never scanned, so the agreement line is printed, as remove judges
        path = fixture_path("gast_6_0_0_9_0.cfg")
        assert main(["verify", path, "--support-cap", "1"]) == EXIT_OK
        assert capsys.readouterr().out.endswith("wcm_in_family=yes\nwcm_agrees=yes\n")
        assert main(["remove", path, "--support-cap", "1"]) == EXIT_OK
        assert "result=removed" in capsys.readouterr().out

    def test_verify_oracle_cap(self, capsys):
        assert main(["verify", fixture_path("gast_6_0_0_9_0.cfg"), "--oracle-cap", "10"]) == EXIT_ORACLE

    def test_analyze_oracle_cap_partial_report(self, capsys):
        # caps degrade analyze to a partial report with a warning, exit 0
        assert main(["analyze", fixture_path("gast_6_0_0_9_0.cfg"), "--oracle-cap", "10"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "oracle skipped" in out
        assert "t=10" in out  # the tree portion still ran

    def test_analyze_takes_no_dense_null_space_route(self, monkeypatch, capsys):
        # every matrix's report comes off the membership kernel: analyze on
        # every shipped configuration, in every mode and format, exits and
        # prints the same with the dense-matrix route refusing to run
        def runs():
            seen = []
            for path in sorted(FIXDIR.glob("*.cfg")):
                for mode in ("gast", "ost", "eas", "bast"):
                    for fmt in ("text", "json-lines"):
                        code = main(["analyze", str(path), "--mode", mode, "--format", fmt])
                        seen.append((code, capsys.readouterr().out))
            return seen

        def refuse(*args, **kwargs):
            raise AssertionError("analyze took the dense null-space route")

        expected = runs()
        assert sum("wcm_01" in out for _, out in expected) >= 40
        bound = [m for name, m in sys.modules.items() if name.split(".")[0] == "wcmopt"]
        assert {gflinalg, removal, cli} <= set(bound)
        for module in bound:
            for name in ("null_space", "has_full_support_vector", "rref"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert runs() == expected

    def test_oracle_cap_boundary(self, capsys):
        # 3^6 = 729 assignments: a cap of 729 scans, 728 refuses
        path = fixture_path("gast_6_0_0_9_0.cfg")
        assert main(["verify", path, "--oracle-cap", "729"]) == EXIT_OK
        assert "verdict=GAST" in capsys.readouterr().out
        assert main(["verify", path, "--oracle-cap", "728"]) == EXIT_ORACLE
        assert "exceeds oracle cap 728" in capsys.readouterr().out
        assert main(["analyze", path, "--oracle-cap", "729"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[oracle]" in out and "oracle skipped" not in out
        assert main(["analyze", path, "--oracle-cap", "728"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[oracle]" not in out and "oracle skipped" in out

    @pytest.mark.parametrize("cap, exact", [("729", "yes"), ("728", "no")])
    def test_remove_reports_e_min_exact(self, cap, exact, capsys):
        path = fixture_path("gast_6_0_0_9_0.cfg")
        assert main(["remove", path, "--oracle-cap", cap]) == EXIT_OK
        text = capsys.readouterr().out
        assert f"e_bound=2\ne_min_exact={exact}\n" in text
        assert main(["remove", path, "--oracle-cap", cap, "--format", "json-lines"]) == EXIT_OK
        plan = json.loads(capsys.readouterr().out.splitlines()[0])
        assert plan["block"] == "plan" and plan["e_min_exact"] == exact

    def test_optimize_reports_e_min_exact(self, capsys):
        argv = ["optimize", fixture_path("toy_code.txt"), fixture_path("toy_targets.txt")]
        assert main(argv + ["--oracle-cap", "5"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "[object_1,2,3,4,5,6]\n" in text and "e_min_exact=no" in text
        assert main(argv + ["--format", "json-lines"]) == EXIT_OK
        blocks = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [b["e_min_exact"] for b in blocks if b["block"].startswith("object_")] == ["yes"]

    def test_remove_and_idempotence(self, tmp_path, capsys):
        out_path = tmp_path / "removed.cfg"
        assert main(["remove", fixture_path("gast_6_0_0_9_0.cfg"), "--out", str(out_path)]) == EXIT_OK
        first = capsys.readouterr().out
        assert "result=removed" in first and "num_changes=2" in first
        assert main(["remove", str(out_path), "--out", str(tmp_path / "again.cfg")]) == EXIT_OK
        second = capsys.readouterr().out
        assert "result=not_in_z" in second and "nothing to do" in second
        assert (tmp_path / "again.cfg").read_text() == out_path.read_text()

    def test_remove_unremovable_exit(self, tmp_path, capsys):
        code = main(["remove", fixture_path("gast_borderline_no_deg2.cfg"), "--out", str(tmp_path / "x.cfg")])
        assert code == EXIT_UNREMOVABLE

    def test_remove_oscillating_mode(self, tmp_path, capsys):
        out_path = tmp_path / "removed.cfg"
        assert main([
            "remove", fixture_path("ost_6_2_11_0.cfg"), "--mode", "ost", "--out", str(out_path),
        ]) == EXIT_OK
        out = capsys.readouterr().out
        assert "result=removed" in out and "num_changes=1" in out
        # the object must not survive as either shape of its family
        assert main(["verify", str(out_path)]) == EXIT_OK
        verify_out = capsys.readouterr().out
        assert "ost=no" in verify_out and "gast=no" in verify_out

    def test_remove_verified_post_state(self, tmp_path, capsys):
        out_path = tmp_path / "removed.cfg"
        main(["remove", fixture_path("gast_6_2_2_5_2.cfg"), "--out", str(out_path)])
        capsys.readouterr()
        assert main(["verify", str(out_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict=none" in out or "verdict=GAS\n" not in out
        assert "wcm_agrees=yes" in out

    def test_optimize_writes_replayable_output(self, tmp_path, capsys):
        out_path = tmp_path / "opt.txt"
        assert main([
            "optimize", fixture_path("toy_code.txt"), fixture_path("toy_targets.txt"),
            "--out", str(out_path),
        ]) == EXIT_OK
        report = capsys.readouterr().out
        assert "total_changes=2" in report
        original = parse_code((FIXDIR / "toy_code.txt").read_text())
        optimized = parse_code(out_path.read_text())
        diff = {
            rc for rc in original.weights
            if original.weights[rc] != optimized.weights[rc]
        }
        assert len(diff) == 2
        assert all(rc[1] == 0 for rc in diff)

    @pytest.mark.parametrize("argv", [
        ["remove", "gast_6_0_0_9_0.cfg"],
        ["optimize", "toy_code.txt", "toy_targets.txt"],
    ], ids=["remove", "optimize"])
    def test_support_cap_overrun_exit(self, argv, tmp_path, capsys):
        out_path = tmp_path / "out.txt"
        command, *files = argv
        code = main([command, *map(fixture_path, files), "--support-cap", "0", "--out", str(out_path)])
        assert code == EXIT_SUPPORT
        captured = capsys.readouterr()
        assert "support search infeasible: null-space dimension 1 exceeds support search cap 0" in captured.err
        assert captured.out == "" and not out_path.exists()

    def test_target_beyond_code_length_names_its_line(self, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("# targets\nkind=gast vns=1,2,13\n")
        assert main(["optimize", fixture_path("toy_code.txt"), str(targets)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{targets}:2: target 1,2,13 references a VN beyond 12" in err

    def test_optimize_empty_targets_identity(self, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("# targets\n")
        out_path = tmp_path / "opt.txt"
        assert main(["optimize", fixture_path("toy_code.txt"), str(targets), "--out", str(out_path)]) == EXIT_OK
        assert out_path.read_text() == (FIXDIR / "toy_code.txt").read_text()

    def test_optimize_json_lines(self, tmp_path, capsys):
        out_path = tmp_path / "opt.txt"
        assert main([
            "optimize", fixture_path("toy_code.txt"), fixture_path("toy_targets.txt"),
            "--out", str(out_path), "--format", "json-lines",
        ]) == EXIT_OK
        blocks = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        summary = next(b for b in blocks if b["block"] == "optimization")
        assert summary["total_changes"] == 2 and summary["removed"] == 1

    def test_verify_json_lines(self, capsys):
        assert main(["verify", fixture_path("gast_6_0_0_9_0.cfg"), "--format", "json-lines"]) == EXIT_OK
        blocks = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        verdict = next(b for b in blocks if b["block"] == "verify")
        assert verdict["verdict"] == "GAST" and verdict["gas"] == "yes"

    def test_optimize_overlap_reports_protection(self, tmp_path, capsys):
        out_path = tmp_path / "opt.txt"
        assert main([
            "optimize", fixture_path("toy_code_overlap.txt"), fixture_path("toy_targets_overlap.txt"),
            "--out", str(out_path),
        ]) == EXIT_OK
        report = capsys.readouterr().out
        assert "protected_checks=1" in report
        assert "unremovable=-" in report

    def test_enumerate_finds_single_instance(self, tmp_path, capsys):
        out_path = tmp_path / "targets.txt"
        assert main([
            "enumerate", fixture_path("toy_code.txt"), "--max-a", "6", "--out", str(out_path),
        ]) == EXIT_OK
        found = parse_targets(out_path.read_text())
        size6 = [t for t in found if len(t.vn_ids) == 6]
        assert len(size6) == 1
        assert size6[0].vn_ids == (0, 1, 2, 3, 4, 5)
        assert size6[0].expected_params == (6, 0, 0, 9, 0)

    def test_enumerate_json_lines_without_out(self, capsys):
        assert main(["enumerate", fixture_path("toy_code.txt"), "--max-a", "6", "--format", "json-lines"]) == EXIT_OK
        blocks = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        targets = [b for b in blocks if b["block"] == "target"]
        assert {tuple(b) for b in targets} == {("block", "kind", "params", "vns")}
        assert {"block": "target", "kind": "gast", "vns": "1,2,3,4,5,6", "params": "6,0,0,9,0"} in targets
        assert blocks[-1]["block"] == "enumerate" and blocks[-1]["found"] == len(targets)

    def test_enumerate_max_a_below_instance(self, tmp_path, capsys):
        out_path = tmp_path / "targets.txt"
        main(["enumerate", fixture_path("toy_code.txt"), "--max-a", "2", "--out", str(out_path)])
        assert parse_targets(out_path.read_text()) == []

    def test_enumerate_budget_truncation(self, capsys):
        assert main(["enumerate", fixture_path("toy_code.txt"), "--max-a", "6", "--budget", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "truncated=yes" in out

    def test_enumerate_count_non_increasing_after_optimize(self, tmp_path, capsys):
        before = tmp_path / "before.txt"
        opt = tmp_path / "opt.txt"
        after = tmp_path / "after.txt"
        main(["enumerate", fixture_path("toy_code.txt"), "--max-a", "6", "--out", str(before)])
        main([
            "optimize", fixture_path("toy_code.txt"), fixture_path("toy_targets.txt"),
            "--out", str(opt),
        ])
        main(["enumerate", str(opt), "--max-a", "6", "--out", str(after)])
        assert len(parse_targets(after.read_text())) <= len(parse_targets(before.read_text()))
        assert not [t for t in parse_targets(after.read_text()) if len(t.vn_ids) == 6]

    def test_enumerate_two_disjoint_instances(self, tmp_path, capsys):
        # duplicate the embedded instance into two disjoint column blocks;
        # mixed-block subsets form unions of smaller objects with different
        # parameter tuples, so filtering by the full tuple isolates the two
        graph, _ = fx.toy_code_single_instance()
        weights = dict(graph.weights)
        for (r, c), w in list(graph.weights.items()):
            if r < 9 and c < 6:
                weights[(22 + r, 12 + c)] = w
        big = CodeGraph(31, 18, 3, graph.field, weights)
        code_path = tmp_path / "two.txt"
        code_path.write_text(serialize_code(big))
        out_path = tmp_path / "found.txt"
        assert main(["enumerate", str(code_path), "--max-a", "6", "--out", str(out_path)]) == EXIT_OK
        full = [
            t for t in parse_targets(out_path.read_text())
            if t.expected_params == (6, 0, 0, 9, 0)
        ]
        assert [t.vn_ids for t in full] == [tuple(range(6)), tuple(range(12, 18))]

    def test_enumerate_ost_needs_an_even_column_weight(self, capsys):
        argv = ["enumerate", fixture_path("toy_code.txt"), "--max-a", "3", "--kind", "ost"]
        assert main(argv) == EXIT_INPUT
        out = capsys.readouterr().out
        assert out.startswith("[error]") and "gamma=3" in out
        assert "[enumerate]" not in out

    @pytest.mark.parametrize("workers", [1, 2])
    def test_enumerate_code_refuses_a_kind_it_cannot_scan(self, monkeypatch, workers):
        # both refusals come before the walk, so no worker is forked
        def refuse_fork():
            raise AssertionError("a refused scan forked")

        pin_workers(monkeypatch, workers)
        monkeypatch.setattr(os, "fork", refuse_fork)
        graph = parse_code((FIXDIR / "toy_code.txt").read_text())
        for kind in ("bogus", "eas", "gas"):
            with pytest.raises(ValueError, match=f"unknown kind '{kind}'"):
                enumerate_code(graph, kind, 6)
        with pytest.raises(NotApplicableError, match="gamma=3"):
            enumerate_code(graph, "ost", 3)

    @pytest.mark.parametrize("gamma", [3, 4])
    def test_enumerate_matches_reference_loop(self, tmp_path, capsys, monkeypatch, gamma):
        # targets and their order, support-cap warnings and their order,
        # subsets examined and truncation agree with combinations -> induce
        # -> classify -> smallest_b, size by size; the budgets stop the scan
        # at each size boundary and inside a size, with and without skips,
        # judged in one process and split over two, through the command line
        # and through the library call.
        # The full scan's targets also agree with the exhaustive oracle.
        rng = random.Random(40 + gamma)
        kinds = ("gast", "ost") if gamma % 2 == 0 else ("gast",)
        hits = dict.fromkeys(kinds, 0)
        warned = truncated_warned = 0
        for trial in range(3):
            graph = random_code(rng, rng.randint(6, 9), 8, gamma)
            n = graph.cols
            total = sum(math.comb(n, k) for k in range(1, 6))
            inside = n + math.comb(n, 2) + math.comb(n, 3) // 2
            code_path = tmp_path / f"code{trial}.txt"
            code_path.write_text(serialize_code(graph))
            out_path = tmp_path / "found.txt"
            # cap 1 skips a few size-5 hits; cap 0 skips every hit, at every
            # size from 2 up, so the walk interleaves warnings of different sizes
            runs = [(n + 1, {}), (6, {"budget": 2 ** n // 3})]
            runs += [(n + 1, {"support_cap": cap}) for cap in (0, 1)]
            for budget in (0, n, n + 1, inside, total - 1, total):
                runs += [(5, {"budget": budget}), (5, {"budget": budget, "support_cap": 0})]
            for kind in kinds:
                for max_a, limits in runs:
                    reference = reference_enumerate(graph, max_a, kind, **limits)
                    found, examined, truncated, skipped = reference
                    flags = [f"--{k.replace('_', '-')}={v}" for k, v in limits.items()]
                    for workers in (1, 2):
                        pin_workers(monkeypatch, workers)
                        assert enumerate_code(graph, kind, max_a, **limits) == reference
                        assert main([
                            "enumerate", str(code_path), "--max-a", str(max_a), "--kind", kind,
                            "--format", "json-lines", "--out", str(out_path), *flags,
                        ]) == EXIT_OK
                        blocks = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
                        assert out_path.read_text() == serialize_targets(found)
                        assert [b["message"] for b in blocks[:-1]] == [
                            f"support cap hit for subset {s}; skipped" for s in skipped
                        ]
                        assert blocks[-1]["subsets_examined"] == examined
                        assert blocks[-1]["truncated"] == ("yes" if truncated else "no")
                    if not limits:  # no skips: the exhaustive oracle lists the same targets
                        assert found == [
                            Target(s, kind, cfg.params(fam.smallest_b))
                            for k in range(1, n + 1)
                            for s in itertools.combinations(range(n), k)
                            for cfg in [graph.induce(s)]
                            if classify_unlabeled(cfg).supports(kind)
                            for fam in [oracle_in_family(cfg, kind)]
                            if fam.is_member
                        ]
                    hits[kind] += len(found) + len(skipped)
                    warned += len(skipped)
                    truncated_warned += truncated and len(skipped) > 0
        assert all(hits.values()) and warned and truncated_warned, (hits, warned, truncated_warned)

    def test_enumerate_lists_a_gf16_object_past_the_oracle_cap(self, tmp_path, capsys):
        # 15^8 assignments exceed the default oracle cap; the family walk
        # judges the planted object without them
        field = gf16()
        cfg = satisfied_labeling(fx.ugast_8_0_16_0(field), random.Random(8))
        weights = {(cn, vn): w for cn, vn, w in cfg.edges}
        code = CodeGraph(cfg.num_cns, cfg.num_vns, cfg.gamma, field, weights)
        assert field.primitive_poly == 0b10011 and (field.q - 1) ** 8 > DEFAULT_ORACLE_CAP
        code_path = tmp_path / "gf16.txt"
        code_path.write_text(serialize_code(code))
        out_path = tmp_path / "found.txt"
        assert main(["enumerate", str(code_path), "--max-a", "8", "--out", str(out_path)]) == EXIT_OK
        assert "[warning]" not in capsys.readouterr().out
        assert Target(tuple(range(8)), "gast", (8, 0, 0, 16, 0)) in parse_targets(out_path.read_text())

    def test_enumerate_support_cap_warns_and_skips(self, capsys, monkeypatch):
        # with cap 0 a shape hit is skipped exactly when some matrix of its
        # family has a nonzero null space; the others are out of the family
        path = fixture_path("toy_code.txt")
        graph = parse_code((FIXDIR / "toy_code.txt").read_text())
        skipped = []
        for subset in (s for k in range(1, 7) for s in itertools.combinations(range(graph.cols), k)):
            cfg = graph.induce(subset)
            if not classify_unlabeled(cfg).is_unlabeled_gast:
                continue
            if any(
                null_space(drop_rows(gf_matrix(cfg.adjacency(), cfg.field), cfg.deg1_cns.union(s))).dimension
                for s in build_tree(cfg).family
            ):
                skipped.append(subset)
        assert tuple(range(6)) in skipped
        for workers in (1, 2):
            pin_workers(monkeypatch, workers)
            argv = ["enumerate", path, "--max-a", "6", "--support-cap", "0", "--format", "json-lines"]
            assert main(argv) == EXIT_OK
            captured = capsys.readouterr()
            blocks = [json.loads(line) for line in captured.out.splitlines()]
            assert [b["message"] for b in blocks if b["block"] == "warning"] == [
                f"support cap hit for subset {s}; skipped" for s in skipped
            ]
            assert blocks[-1]["block"] == "enumerate" and blocks[-1]["found"] == 0
            assert "Traceback" not in captured.err

    def test_enumerate_calls_no_oracle(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerate called an exhaustive oracle")

        for module in (cli, removal):
            monkeypatch.setattr(module, "oracle_in_family", refuse)
            monkeypatch.setattr(module, "oracle_is_gas", refuse)
        # a refusal in a forked worker reaches this process as an error too
        for workers in (1, 2):
            pin_workers(monkeypatch, workers)
            assert main(["enumerate", fixture_path("toy_code.txt"), "--max-a", "6"]) == EXIT_OK
            assert "kind=gast vns=1,2,3,4,5,6 params=6,0,0,9,0" in capsys.readouterr().out

    def test_enumerate_builds_no_configuration(self, monkeypatch, capsys):
        # each shape hit is judged on the subset walk's own rows
        def refuse(*args, **kwargs):
            raise AssertionError("enumerate built or classified a configuration")

        monkeypatch.setattr(CodeGraph, "induce", refuse)
        monkeypatch.setattr(Configuration, "__init__", refuse)
        bound = [m for name, m in sys.modules.items() if name.split(".")[0] == "wcmopt"]
        for module in bound:
            if hasattr(module, "classify_unlabeled"):
                monkeypatch.setattr(module, "classify_unlabeled", refuse)
        assert {removal, wcmtree, config, cli} <= set(bound)
        for workers in (1, 2):
            pin_workers(monkeypatch, workers)
            assert main(["enumerate", fixture_path("toy_code.txt"), "--max-a", "6"]) == EXIT_OK
            assert "kind=gast vns=1,2,3,4,5,6 params=6,0,0,9,0" in capsys.readouterr().out

    def test_enumerate_output_is_the_same_on_three_workers(self, tmp_path, monkeypatch, capsys):
        # the benchmark's planted scan codes, whole, cut inside size 5 and
        # with every hit of a nonzero null space skipped with a warning;
        # no run leaves a child process behind
        monkeypatch.syspath_prepend(str(FIXDIR.parent / "perfbench"))
        monkeypatch.delitem(sys.modules, "inputs", raising=False)
        import inputs

        try:
            for seed in (1, 41):
                code = inputs.planted_scan_code(seed)
                path = tmp_path / f"scan{seed}.txt"
                path.write_text(code.text)
                inside = sum(math.comb(code.cols, k) for k in range(1, 5)) + math.comb(code.cols, 5) // 2
                for limits in ([], ["--budget", str(inside), "--support-cap", "0"]):
                    for fmt in ("text", "json-lines"):
                        outputs = []
                        for workers in (1, 3):
                            pin_workers(monkeypatch, workers)
                            argv = ["enumerate", str(path), "--max-a", "6", "--format", fmt, *limits]
                            assert main(argv) == EXIT_OK
                            outputs.append(capsys.readouterr().out)
                            with pytest.raises(ChildProcessError):  # every worker was reaped
                                os.waitpid(-1, os.WNOHANG)
                        assert outputs[0] == outputs[1], (seed, limits, fmt)
                        assert ("warning" if limits else "vns") in outputs[0]
        finally:
            sys.modules.pop("inputs", None)

    @pytest.mark.parametrize("fault, message", [
        ("raise", r"enumerate worker \d+ failed: ValueError: judged in a worker"),
        ("kill", rf"enumerate worker \d+ failed: exited with status -{signal.SIGKILL}"),
    ])
    def test_enumerate_reports_a_failed_worker(self, monkeypatch, tmp_path, capsys, fault, message):
        # this process holds its first shape hit until the worker has failed
        # at one of its own, whichever roots each of them pulls
        parent, grow, failed = os.getpid(), removal.grow_tree, tmp_path / "failed.txt"

        def grow_in_parent(*args):
            if os.getpid() != parent:
                note(failed, os.getpid())
                if fault == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ValueError("judged in a worker")
            wait_until(failed.exists, "the worker's failure")
            return grow(*args)

        monkeypatch.setattr(removal, "grow_tree", grow_in_parent)
        pin_workers(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=message):
            main(["enumerate", fixture_path("toy_code.txt"), "--max-a", "6"])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_enumerate_kills_its_workers_when_its_own_share_fails(self, monkeypatch, capsys):
        # each worker stalls for a minute at its first hit; the parent's
        # error ends them at once
        parent, grow, stalled = os.getpid(), removal.grow_tree, []

        def stall_in_worker(*args):
            if os.getpid() == parent:
                raise ValueError("judged in the parent")
            if not stalled:
                stalled.append(True)
                time.sleep(60)
            return grow(*args)

        monkeypatch.setattr(removal, "grow_tree", stall_in_worker)
        pin_workers(monkeypatch, 3)
        start = time.monotonic()
        with pytest.raises(ValueError, match="judged in the parent"):
            main(["enumerate", fixture_path("toy_code.txt"), "--max-a", "6"])
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_optimize_output_is_the_same_on_any_worker_count(self, tmp_path, monkeypatch, capsys):
        # stdout in both formats, the --out bytes and the exit code agree on
        # one, two and three workers; no run leaves a child behind, and a
        # code whose targets chain into one group never forks
        def write(name, graph, targets):
            code, listed = tmp_path / f"{name}.txt", tmp_path / f"{name}_targets.txt"
            code.write_text(serialize_code(graph))
            listed.write_text(serialize_targets(targets))
            return str(code), str(listed)

        def enumerated(graph, kinds):
            code = write("scan", graph, [])[0]
            found = tmp_path / "found.txt"
            targets = []
            for kind in kinds:
                assert main(["enumerate", code, "--max-a", "5", "--kind", kind, "--out", str(found)]) == EXIT_OK
                targets += parse_targets(found.read_text())
            return targets

        def refuse_fork():
            raise AssertionError("a single target group forked")

        overlap = fixture_path("toy_code_overlap.txt"), fixture_path("toy_targets_overlap.txt")
        cases = [(overlap, False), (write("tiles", *disjoint_union([fx.toy_code_overlapping()] * 3)), False)]
        # random GF(4)/GF(8) codes whose enumerated targets chain into one
        # group, over both kinds on gamma 4; the GF(4) ones each have a
        # removal beyond the topological bound.  Two copies of the gamma-4
        # code side by side, the first without its last target: whichever
        # process removes each copy's group, the warnings come out in
        # processing order
        pin_workers(monkeypatch, 1)
        for seed, gamma, field in ((0, 3, gf4()), (2, 3, gf8()), (1, 4, gf4())):
            graph = random_code(random.Random(f"optimize-workers:{seed}"), 8 + 3 * (gamma - 3), 10, gamma, field)
            targets = enumerated(graph, ("gast", "ost")[: gamma - 2])
            cases.append((write(f"chain{seed}", graph, targets), True))
        chains = disjoint_union([(graph, targets[:-1]), (graph, targets)])
        cases.append((write("chains", *chains), False))
        capsys.readouterr()
        out_path = tmp_path / "out.txt"
        warned = 0
        for files, one_group in cases:
            for fmt in ("text", "json-lines"):
                outputs = []
                for count in (1, 2, 3):
                    pin_workers(monkeypatch, count)
                    with monkeypatch.context() as forks:
                        if one_group:
                            forks.setattr(os, "fork", refuse_fork)
                        out_path.unlink(missing_ok=True)
                        rc = main(["optimize", *files, "--format", fmt, "--out", str(out_path)])
                    captured = capsys.readouterr()
                    outputs.append((rc, captured.out, captured.err, out_path.read_bytes()))
                    with pytest.raises(ChildProcessError):  # every worker was reaped
                        os.waitpid(-1, os.WNOHANG)
                assert outputs[0] == outputs[1] == outputs[2], (files, fmt)
                assert outputs[0][0] == EXIT_OK and "removed" in outputs[0][1]
                beyond = outputs[0][1].count("beyond the topological bound")
                assert beyond == beyond_bound_plans(outputs[0][1], fmt), (files, fmt)
                warned += beyond
        assert warned >= 2 * 4, warned

    def test_optimize_raises_the_earliest_overrun_on_any_worker_count(self, tmp_path, monkeypatch, capsys):
        # two groups overrun --support-cap 0: a (6,2,2,5,2) object first in
        # processing order at dimension 2, then the overlap code's two
        # targets at dimension 1.  Each group is removed once, in whichever
        # process pulls it; on two workers the groups are held apart, each
        # process meets one overrun, and the earlier one wins
        cfg = fx.gast_6_2_2_5_2()
        alone = CodeGraph(cfg.num_cns, cfg.num_vns, cfg.gamma, cfg.field, {(cn, vn): w for cn, vn, w in cfg.edges})
        graph, targets = disjoint_union([(alone, [Target(tuple(range(6)))]), fx.toy_code_overlapping()])
        code, listed = tmp_path / "code.txt", tmp_path / "targets.txt"
        code.write_text(serialize_code(graph))
        listed.write_text(serialize_targets(targets))
        out_path = tmp_path / "out.txt"
        parent, remove_group = os.getpid(), removal._remove_group
        worked, begun = tmp_path / "worked.txt", tmp_path / "begun.txt"

        def watched(current, order, group, *caps):
            if count == 2 and os.getpid() == parent:  # the child holds the other group
                begun.touch()
                wait_until(lambda: noted(worked), "the child's group")
            elif count == 2:  # until this process holds one
                wait_until(begun.exists, "this process's group")
            records = remove_group(current, order, group, *caps)
            note(worked, f"{os.getpid()} {','.join(map(str, group))}")
            return records

        monkeypatch.setattr(removal, "_remove_group", watched)
        for count in (1, 2, 3):
            pin_workers(monkeypatch, count)
            worked.unlink(missing_ok=True)
            begun.unlink(missing_ok=True)
            argv = ["optimize", str(code), str(listed), "--support-cap", "0", "--out", str(out_path)]
            assert main(argv) == EXIT_SUPPORT
            captured = capsys.readouterr()
            assert captured.out == "" and not out_path.exists()
            assert captured.err == (
                "support search infeasible: null-space dimension 2 exceeds support search cap 0\n"
            )
            pids, groups = zip(*map(str.split, noted(worked)))
            assert sorted(groups) == ["0", "1,2"]
            if count == 1:
                assert groups == ("0", "1,2") and set(pids) == {str(parent)}
            elif count == 2:
                assert len(set(pids)) == 2 and str(parent) in pids
            else:
                assert len(set(pids)) <= count
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)


def readme_schema() -> dict[str, set[str]]:
    """Block name -> key set, from the README's Report-schema bullets."""
    readme = (FIXDIR.parent / "README.md").read_text()
    section = readme.split("## Report schema", 1)[1].split("\n## ", 1)[0]
    schema = {}
    for bullet in section.split("\n* ")[1:]:
        head, body = " ".join(bullet.split()).split(" — ", 1)
        keys = re.match(r"`([^`]*)`", body)
        assert keys, f"README bullet {head} lists no keys"
        keys = set(keys.group(1).split())
        for name in re.findall(r"`([^`]+)`", head):
            schema[name] = keys
    return schema


def text_keys(out: str) -> list[tuple[str, list[str]]]:
    """(name, keys) per ``[name]`` block; lines outside a block are skipped."""
    blocks, keys = [], None
    for line in out.splitlines():
        if re.fullmatch(r"\[.+\]", line):
            keys = []
            blocks.append((line[1:-1], keys))
        elif not line:
            keys = None
        elif keys is not None:
            keys.append(line.split("=", 1)[0])
    return blocks


def beyond_bound_plans(out: str, fmt: str) -> int:
    """How many ``object_*`` blocks of an ``optimize`` output have ``num_changes`` above ``e_bound``."""
    if fmt == "json-lines":
        plans = [b for b in map(json.loads, out.splitlines()) if b["block"].startswith("object_")]
    else:
        plans = [dict(line.split("=", 1) for line in block.splitlines()[1:])
                 for block in out.split("\n\n") if block.startswith("[object_")]
    return sum(int(plan["num_changes"]) > int(plan["e_bound"]) for plan in plans)


def schema_name(block: str) -> str:
    return re.sub(r"^wcm_\d\d$", "wcm_NN", re.sub(r"^object_.*", "object_<id>", block))


class TestReportSchema:
    def test_blocks_match_readme_in_both_formats(self, tmp_path, capsys):
        schema = readme_schema()
        removed = str(tmp_path / "removed.cfg")
        configs = sorted(p.stem for p in FIXDIR.glob("*.cfg"))
        runs = [
            *(["analyze", fixture_path(f"{n}.cfg"), "--mode", "ost" if n.startswith("ost") else "gast"]
              for n in configs),
            ["analyze", fixture_path("gast_6_0_0_9_0.cfg"), "--oracle-cap", "1"],
            *(["verify", fixture_path(f"{n}.cfg")] for n in configs),
            ["remove", fixture_path("gast_6_0_0_9_0.cfg"), "--out", removed],
            ["remove", removed],
            ["remove", fixture_path("gast_borderline_no_deg2.cfg")],
            ["optimize", fixture_path("toy_code.txt"), fixture_path("toy_targets.txt"),
             "--out", str(tmp_path / "opt.txt")],
            ["enumerate", fixture_path("toy_code.txt"), "--max-a", "6"],
        ]
        seen = set()
        for argv in runs:
            main(argv)
            text = text_keys(capsys.readouterr().out)
            main(argv + ["--format", "json-lines"])
            blocks = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            # text prints found targets as the target-list file, not as blocks
            assert [(b["block"], sorted(b.keys() - {"block"})) for b in blocks if b["block"] != "target"] == [
                (name, sorted(keys)) for name, keys in text
            ], argv
            for b in blocks:
                name = schema_name(b.pop("block"))
                expected = set(schema[name])
                if name in ("plan", "object_<id>") and b["result"] != "removed":
                    expected.discard("selected_vn")
                assert set(b) == expected, (argv, name)
                seen.add(name)
        assert seen == set(schema)
