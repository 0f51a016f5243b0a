"""CLI surface of the integrity suite: ``repro check`` and the
``--selfcheck`` flags on ``trace``/``verify``."""

import json
import sys

sys.path.insert(0, "tests")

from repro.cli import main  # noqa: E402


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


class TestSelfcheckFlags:
    def test_trace_selfcheck(self, tmp_path, capsys):
        rc = main([
            "trace", "cg", "-n", "4", "--scale", "0.3",
            "--selfcheck", "-o", str(tmp_path / "t.cyp"),
        ])
        assert rc == 0
        assert "selfcheck: trace invariants OK" in capsys.readouterr().out

    def test_verify_selfcheck(self, capsys):
        rc = main(["verify", "cg", "-n", "4", "--scale", "0.3",
                   "--selfcheck"])
        assert rc == 0
        assert "selfcheck: trace invariants OK" in capsys.readouterr().out

    def test_check_publishes_metrics(self, capsys):
        assert main(["check", "cg", "--scale", "0.3", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "verify.checks" in out
