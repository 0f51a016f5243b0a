"""CLI smoke tests."""

import pathlib

import pytest

from repro.cli import main


class TestCompare:
    def test_compare_prints_table(self, capsys):
        assert main(["compare", "ep", "-n", "4", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "cypress" in out and "scalatrace" in out


class TestTraceReplayPredict:
    def test_pipeline(self, tmp_path, capsys):
        trace = str(tmp_path / "t.cyp")
        assert main(
            ["trace", "leslie3d", "-n", "8", "--scale", "0.2", "-o", trace]
        ) == 0
        assert main(["replay", trace, "-r", "0", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "MPI_" in out
        assert main(["predict", trace]) == 0
        out = capsys.readouterr().out
        assert "predicted time" in out

    def test_gzip_output(self, tmp_path):
        trace = str(tmp_path / "t.cyp.gz")
        assert main(
            ["trace", "ep", "-n", "4", "--scale", "0.5", "-o", trace, "--gzip"]
        ) == 0
        with open(trace, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"


class TestCst:
    def test_cst_from_file(self, tmp_path, capsys):
        path = tmp_path / "prog.mpi"
        path.write_text(
            "func main() { for (var i = 0; i < 3; i = i + 1) { mpi_barrier(); } }"
        )
        assert main(["cst", str(path)]) == 0
        out = capsys.readouterr().out
        assert "loop" in out and "mpi_barrier" in out


class TestPatterns:
    def test_heatmap(self, capsys):
        assert main(["patterns", "leslie3d", "-n", "8", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "message sizes" in out


GOLDEN = str(pathlib.Path(__file__).parent / "data" / "golden_mg_v8.cyp")


class TestValidation:
    def test_bad_proc_count(self, capsys):
        assert main(["trace", "bt", "-n", "7"]) == 2
        assert capsys.readouterr().err == (
            "error: bt does not run on 7 processes "
            "(valid: 4, 9, 16, ..., 1024)\n"
        )

    @pytest.mark.parametrize("argv", [
        ["trace", "fig11", "-n", "3"],
        ["compare", "fig11", "-n", "3"],
        ["patterns", "fig11", "-n", "3"],
        ["submit", "fig11", "-n", "3", "--port", "1", "--job", "j"],
    ])
    def test_invalid_proc_count_is_one_line(self, argv, capsys):
        # fig11's ring pairs even senders with odd receivers; its 2048
        # valid counts print in a short form.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: fig11 does not run on 3 processes "
            "(valid: 2, 4, 6, ..., 4096)\n"
        )

    @pytest.mark.parametrize("argv, message", [
        # rank_leaves would slice [:-1] and drop the last call site;
        # replay would print all but the last event and count 124 more.
        (["hotspots", GOLDEN, "--top", "-1"], "negative count '-1'"),
        (["replay", GOLDEN, "--limit", "-1"], "negative count '-1'"),
        (["query", GOLDEN, "critical-leaves", "--top", "-1"],
         "negative count '-1'"),
        *(([cmd, "no-such.cyp"], "no such trace file 'no-such.cyp'")
          for cmd in ("replay", "predict", "info", "check", "export")),
    ])
    def test_bad_argument_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["trace", "nope", "-n", "4"])

    @pytest.mark.parametrize("flag", [
        *(f"--{stage}-workers" for stage in ("compress", "merge")),
        "--retry", "--task-timeout",
    ])
    def test_removed_pool_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "ep", "-n", "4", flag, "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments" in err

    @pytest.mark.parametrize("flag", [
        "--high-watermark", "--low-watermark", "--session-watermark",
    ])
    def test_serve_has_no_watermark_flags(self, flag, capsys):
        # The daemon holds no batch in memory, so there is no buffer
        # for a watermark to bound.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        assert "watermark" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", flag, "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


    @pytest.mark.parametrize("argv", [
        ["trace", "cg", "-n", "8", "--scale", "0.3"],
        ["serve"],
    ])
    @pytest.mark.parametrize("size", ["-5", "-1K"])
    def test_negative_memory_budget_is_rejected(self, argv, size, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, f"--memory-budget={size}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"negative byte size '{size}'" in err


class TestFaultFlags:
    def test_trace_strict_and_quarantine_out(self, tmp_path, capsys):
        # Both are gone from ``trace``: it compresses live, no capture
        # is ever checked against the CST afterwards, so neither could
        # change what it does.
        trace = str(tmp_path / "t.cyp")
        for flag in (["--strict"], ["--quarantine-out", "q.json"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["trace", "ep", "-n", "4", "-o", trace, *flag])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_replay_salvage_of_truncated_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "t.cyp")
        assert main(
            ["trace", "ep", "-n", "4", "--scale", "0.5", "-o", trace]
        ) == 0
        capsys.readouterr()
        data = open(trace, "rb").read()
        with open(trace, "wb") as fh:
            fh.write(data[:-6])
        from repro.cli import EXIT_CORRUPT_TRACE

        with pytest.raises(SystemExit) as excinfo:
            main(["replay", trace, "-r", "0"])
        assert excinfo.value.code == EXIT_CORRUPT_TRACE
        err = capsys.readouterr().err
        assert "--salvage" in err
        assert main(["replay", trace, "-r", "0", "--salvage"]) == 0
        err = capsys.readouterr().err
        assert "salvaged" in err

    def test_corrupt_trace_exit_codes_replay_and_query(
        self, tmp_path, capsys
    ):
        # Satellite: a corrupted trace without --salvage exits with the
        # *distinct* code 3 (not the generic 1, not argparse's 2) and a
        # one-line hint naming --salvage, for both replay and query.
        from repro.cli import EXIT_CORRUPT_TRACE

        trace = str(tmp_path / "t.cyp")
        assert main(
            ["trace", "ep", "-n", "4", "--scale", "0.5", "-o", trace]
        ) == 0
        capsys.readouterr()
        data = open(trace, "rb").read()
        bad = bytearray(data)
        bad[len(bad) // 2] ^= 0xFF  # mid-file bit damage
        with open(trace, "wb") as fh:
            fh.write(bytes(bad))
        for argv in (
            ["replay", trace, "-r", "0"],
            ["query", trace, "traffic"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == EXIT_CORRUPT_TRACE
            err = capsys.readouterr().err
            assert "hint" in err and "--salvage" in err

    def test_query_salvage_flag_recovers(self, tmp_path, capsys):
        trace = str(tmp_path / "t.cyp")
        assert main(
            ["trace", "ep", "-n", "4", "--scale", "0.5", "-o", trace]
        ) == 0
        capsys.readouterr()
        data = open(trace, "rb").read()
        with open(trace, "wb") as fh:
            fh.write(data[:-6])
        assert main(["query", trace, "traffic", "--salvage"]) == 0

    def test_info_salvage_flag(self, tmp_path, capsys):
        trace = str(tmp_path / "t.cyp")
        assert main(
            ["trace", "ep", "-n", "4", "--scale", "0.5", "-o", trace]
        ) == 0
        assert main(["info", trace, "--salvage"]) == 0
        # A version no reader is left for is refused either way.
        from repro.cli import EXIT_CORRUPT_TRACE

        data = open(trace, "rb").read()
        with open(trace, "wb") as fh:
            fh.write(data[:4] + b"\x06" + data[5:])
        capsys.readouterr()
        for argv in (["info", trace], ["info", trace, "--salvage"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == EXIT_CORRUPT_TRACE
            assert "unsupported trace version 6" in capsys.readouterr().err

    def test_info_on_resealed_invalid_utf8_exits_corrupt(
        self, tmp_path, capsys
    ):
        # A CRC-valid container whose header string table is not UTF-8:
        # the decode error must surface as a corrupt trace (exit 3 and
        # the --salvage hint), not as a traceback.
        import os

        from repro.cli import EXIT_CORRUPT_TRACE
        from repro.core import serialize

        golden = os.path.join(
            os.path.dirname(__file__), "data", "golden_fig11_v8.cyp"
        )
        data = open(golden, "rb").read()
        sections, complete, _ = serialize.read_sections(data, 5, False)
        assert complete
        header = serialize.ByteReader(sections[0][1])
        header.u()  # nranks
        assert header.u() > 0  # string count
        header.u()  # first string's length
        bad = bytearray(sections[0][1])
        bad[header.pos] = 0xFF  # never valid in UTF-8
        w = serialize.ByteWriter()
        w.raw(data[:5])
        for i, (kind, body) in enumerate(sections):
            serialize.write_section(w, kind, bytes(bad) if i == 0 else body)
        trace = str(tmp_path / "resealed.cyp")
        with open(trace, "wb") as fh:
            fh.write(w.bytes())
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["info", trace])
        assert excinfo.value.code == EXIT_CORRUPT_TRACE
        err = capsys.readouterr().err
        assert "hint" in err and "--salvage" in err

    def test_diff_salvage_warns_about_truncated_container(
        self, tmp_path, capsys
    ):
        import os

        golden = os.path.join(
            os.path.dirname(__file__), "data", "golden_fig11_v7.cyp"
        )
        data = open(golden, "rb").read()
        cut = str(tmp_path / "cut.cyp")
        with open(cut, "wb") as fh:
            fh.write(data[: len(data) * 2 // 3])
        assert main(["diff", golden, cut, "--salvage"]) == 1
        captured = capsys.readouterr()
        assert "ranks only in A" in captured.out
        assert "salvaged" in captured.err and "cut.cyp" in captured.err
        assert "golden_fig11_v7.cyp" not in captured.err  # intact side is quiet


class TestQueryUsageErrors:
    """A rank or gid the trace does not have is a usage error: one line,
    exit 2 — not an empty answer or a traceback.  The golden trace has 8
    ranks."""

    @pytest.mark.parametrize("argv, message", [
        (["rank-profile", "--rank", "8"], "rank 8 outside [0, 8)"),
        (["rank-profile", "--rank", "-1"], "rank -1 outside [0, 8)"),
        (["rank-profile", "--rank", "8", "-o", "-"],
         "rank 8 outside [0, 8)"),
        (["ordering", "--gid-a", "1", "--gid-b", "6", "--rank", "8"],
         "rank 8 outside [0, 8)"),
        (["ordering", "--gid-a", "999", "--gid-b", "6", "--rank", "0"],
         "no vertex with gid 999 in this trace"),
    ])
    def test_exits_2_with_one_line(self, argv, message, capsys):
        assert main(["query", GOLDEN, *argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"repro query {argv[0]}: {message}\n"

    def test_rank_in_range_still_answers(self, capsys):
        assert main(
            ["query", GOLDEN, "rank-profile", "--rank", "5"]
        ) == 0
        assert "rank 5" in capsys.readouterr().out


class TestRankArgumentErrors:
    """``replay -r`` and ``export --ranks`` refuse a rank the golden
    trace (8 ranks) does not have the way ``repro query`` does: one
    line, exit 2, nothing written."""

    @pytest.mark.parametrize("argv, message", [
        (["replay", GOLDEN, "-r", "99"], "rank 99 outside [0, 8)"),
        (["replay", GOLDEN, "-r", "-1"], "rank -1 outside [0, 8)"),
        (["export", GOLDEN, "--ranks", "99"], "rank 99 outside [0, 8)"),
        (["export", GOLDEN, "--ranks", "1,8"], "rank 8 outside [0, 8)"),
    ])
    def test_exits_2_with_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"

    def test_export_rank_list_is_parsed_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["export", GOLDEN, "--ranks", "x"])
        assert exc.value.code == 2
        assert "argument --ranks: invalid rank list 'x'" in (
            capsys.readouterr().err
        )

    def test_ranks_in_range_still_answer(self, capsys):
        assert main(["replay", GOLDEN, "-r", "7", "--limit", "1"]) == 0
        assert capsys.readouterr().out.startswith("rank 7: ")
        assert main(["export", GOLDEN, "--ranks", "1,7"]) == 0
        out = capsys.readouterr().out
        assert "# rank 1:" in out and "# rank 7:" in out
        assert "# rank 0:" not in out


class TestFaultsmoke:
    """The fault harness is not a ``repro`` command: the batch matrix is
    ``python -m tests.faults.matrix``, the server matrix
    ``python -m tests.faults.smoke``."""

    def test_matrix_passes_and_writes_report(self, tmp_path, capsys):
        # The batch fault matrix: payload damage, stream corruption,
        # container truncation and bit flips.
        from tests.faults import matrix

        out = str(tmp_path / "report.json")
        assert matrix.main([
            "cg", "-n", "4", "--scale", "0.25", "-o", out,
        ]) == 0
        import json

        with open(out) as fh:
            report = json.load(fh)
        assert report["ok"] is True
        assert report["workload"] == "cg" and report["nprocs"] == 4
        entries = {e["kind"]: e for e in report["entries"]}
        for kind in ("container:truncate", "container:bitflip"):
            assert entries[kind]["detected"] is True
        streams = [e for k, e in entries.items() if k.startswith("stream:")]
        assert len(streams) == 3
        for entry in streams:  # strict raise, then exactly rank 3 quarantined
            assert entry["detected"] is True
            assert entry["description"].endswith("quarantined: [3]")
        assert "PASSED" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["cg", "-n", "4"], ["--server"]])
    def test_batch_arguments_are_rejected(self, argv, capsys):
        # The smoke harness is the server matrix alone.
        from tests.faults import smoke

        with pytest.raises(SystemExit) as excinfo:
            smoke.main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["faultsmoke"],
        ["check", "cg", "--fault-matrix"],
        ["check", "cg", "--seed", "1"],
        ["serve", "--kill-after-checkpoints", "1"],
        # The workload suite and the oracle cross-check are test code:
        # python -m tests.verify.check, python -m tests.query.check.
        ["check", GOLDEN, "--differential"],
        ["check", GOLDEN, "-n", "8"],
        ["check", "all"],
        ["query", GOLDEN, "traffic", "--oracle"],
    ])
    def test_harness_options_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()
