"""CLI surface of the integrity suite: ``repro check`` and the
``--selfcheck`` flag on ``trace``."""

import json
import sys

sys.path.insert(0, "tests")

import pytest  # noqa: E402

from repro.cli import main  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402


class TestCheckCommand:
    def test_single_workload_passes(self, capsys):
        assert main(["check", "cg", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out and "PASSED" in out

    def test_wildcard_findings_are_informational(self, capsys):
        # The farm is nondeterministic by design; the audit reports it
        # but the exit code stays 0 — findings are not violations.
        assert main(["check", "farm", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "wildcard finding" in out

    def test_json_report_with_matrix(self, tmp_path, capsys):
        out_path = tmp_path / "check.json"
        rc = main([
            "check", "cg", "--scale", "0.3", "--fault-matrix",
            "--differential", "-o", str(out_path),
        ])
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["ok"] is True
        (entry,) = report["workloads"]
        assert entry["workload"] == "cg"
        assert entry["violations"] == []
        assert entry["fault_matrix"]["ok"] is True
        assert entry["differential"]["ok"] is True
        capsys.readouterr()

    @pytest.mark.parametrize("argv, runs", [
        (["check", "cg", "--differential", "--fault-matrix"], 1),
        (["check", "all"], len(WORKLOADS)),
    ])
    def test_each_workload_runs_once(self, monkeypatch, capsys, argv, runs):
        # The check pass, the differential and the fault matrix all
        # start from one simulated run of the workload.
        from repro.mpisim.runtime import Runtime

        calls = []
        run = Runtime.run

        def counting(self, *args, **kwargs):
            calls.append(self)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(Runtime, "run", counting)
        assert main(argv) == 0
        assert len(calls) == runs
        capsys.readouterr()

    def test_quarantined_rank_is_a_violation(self, monkeypatch, capsys):
        # compress_streams quarantines a rank whose stream does not fit
        # the CST; check counts it and checks and merges the kept ranks.
        from repro.core import intra
        from repro.mpisim.pmpi import OP_LOOP_POP

        compress = intra.compress_streams

        def damaging(cst, streams, *args, **kwargs):
            streams = {**streams, 2: [(OP_LOOP_POP, 12345), *streams[2]]}
            return compress(cst, streams, *args, **kwargs)

        monkeypatch.setattr(intra, "compress_streams", damaging)
        assert main(["check", "cg", "-n", "4", "--scale", "0.3"]) == 1
        out = capsys.readouterr()
        assert "1 violation(s)" in out.out and "FAILED" in out.out
        assert "[rank-quarantined] rank 2: loop exit marker 12345" in out.err


class TestSelfcheckFlags:
    def test_trace_selfcheck(self, tmp_path, capsys):
        rc = main([
            "trace", "cg", "-n", "4", "--scale", "0.3",
            "--selfcheck", "-o", str(tmp_path / "t.cyp"),
        ])
        assert rc == 0
        assert "selfcheck: trace invariants OK" in capsys.readouterr().out

    def test_verify_selfcheck(self, capsys):
        rc = main(["check", "cg", "-n", "4", "--scale", "0.3",
                   "--differential"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out and "differential: ok" in out

    def test_check_publishes_metrics(self, capsys):
        assert main(["check", "cg", "--scale", "0.3", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "verify.checks" in out
