"""CLI smoke tests."""

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


class TestValidation:
    def test_bad_proc_count(self):
        with pytest.raises(ValueError):
            main(["trace", "bt", "-n", "7"])

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


class TestFaultFlags:
    def test_trace_strict_and_quarantine_out(self, tmp_path, capsys):
        # Both are gone from ``trace``: it compresses live, no capture
        # is ever checked against the CST afterwards, so neither could
        # change what it does (``run_cypress(strict=, fault_plan=)`` is
        # the door the fault-smoke job uses).
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


class TestFaultsmoke:
    def test_matrix_passes_and_writes_report(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert main([
            "faultsmoke", "cg", "-n", "4", "--scale", "0.25",
            "--flips", "4", "-o", out,
        ]) == 0
        import json

        with open(out) as fh:
            report = json.load(fh)
        assert report["passed"] is True
        assert len(report["scenarios"]) == 3
        assert report["quarantine"]["quarantined_ranks"] == 2
        stdout = capsys.readouterr().out
        assert "PASSED" in stdout
