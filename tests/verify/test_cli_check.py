"""``repro check FILE`` and ``trace --selfcheck``, which check a trace
file, and the workload-driven integrity suite
(``python -m tests.verify.check``), which checks the tool."""

import json
import sys
from pathlib import Path

sys.path.insert(0, "tests")

import pytest  # noqa: E402
from helpers import default_procs  # noqa: E402

from repro.cli import EXIT_CORRUPT_TRACE, main  # noqa: E402
from repro.core import run_cypress, serialize  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402
from tests.faults.data import bitflip, truncate  # noqa: E402
from tests.faults.matrix import EXPECTED_CODES  # noqa: E402
from tests.faults.payload import PAYLOAD_KINDS, corrupt_merged  # noqa: E402
from tests.faults.plan import FaultPlan  # noqa: E402
from tests.verify import check  # noqa: E402

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDENS = sorted(DATA.glob("golden_*_v[789].cyp"))

#: Payload damage a file can carry.  ``signature-stale`` cannot: the
#: stale key lives in the merge's payload index, which a file does not
#: hold, so it never reaches the checker.
SAVED_KINDS = [k for k in PAYLOAD_KINDS if k != "signature-stale"]


class TestCheckFile:
    def test_goldens_are_clean(self, capsys):
        assert len(GOLDENS) == 12
        for path in GOLDENS:
            assert main(["check", str(path)]) == 0, path
            assert "0 violation(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_fresh_trace_is_clean(self, workload, tmp_path, capsys):
        path = str(tmp_path / "t.cyp")
        nprocs = str(default_procs(WORKLOADS[workload]))
        assert main(["trace", workload, "-n", nprocs, "--scale", "0.1",
                     "-o", path]) == 0
        assert main(["check", path]) == 0
        assert "PASSED" in capsys.readouterr().out

    @pytest.mark.parametrize("workload, nprocs", [("cg", 4), ("mg", 8)])
    @pytest.mark.parametrize("kind", SAVED_KINDS)
    def test_saved_payload_damage_is_a_violation(
        self, workload, nprocs, kind, tmp_path, capsys
    ):
        w = WORKLOADS[workload]
        merged = run_cypress(w.source, nprocs,
                             defines=w.defines(nprocs, 0.3)).merge()
        corrupt_merged(merged, kind, FaultPlan(seed=20260807).rng(
            "payload", kind), nranks=nprocs, saved=True)
        path, report = str(tmp_path / "bad.cyp"), tmp_path / "report.json"
        serialize.save(merged, path)
        assert main(["check", path, "-o", str(report)]) == 1
        codes = {v["code"] for v in json.loads(report.read_text())[
            "violations"]}
        assert codes & EXPECTED_CODES[kind], codes
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", [
        lambda blob: truncate(blob, fraction=0.8),
        lambda blob: bitflip(blob, FaultPlan(seed=20260807).rng("c")),
    ], ids=["truncate", "bitflip"])
    def test_damaged_container_exits_3(self, damage, tmp_path, capsys):
        path = tmp_path / "damaged.cyp"
        path.write_bytes(damage((DATA / "golden_mg_v8.cyp").read_bytes()))
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(path)])
        assert excinfo.value.code == EXIT_CORRUPT_TRACE
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupted trace {str(path)!r}")
        assert "--salvage" not in err  # check has no such flag


class TestCheckCommand:
    """The workload-driven suite, ``python -m tests.verify.check``."""

    def test_single_workload_passes(self, capsys):
        assert check.main(["cg", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out and "PASSED" in out

    def test_wildcard_findings_are_informational(self, capsys):
        # The farm is nondeterministic by design; the audit reports it
        # but the exit code stays 0 — findings are not violations.
        assert check.main(["farm", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "wildcard finding" in out

    def test_json_report_with_matrix(self, tmp_path, capsys):
        out_path = tmp_path / "check.json"
        rc = check.main([
            "cg", "--scale", "0.3", "--differential", "-o", str(out_path),
        ])
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["ok"] is True
        (entry,) = report["workloads"]
        assert entry["workload"] == "cg"
        assert entry["violations"] == []
        assert entry["differential"]["ok"] is True
        assert entry["differential"]["divergences"] == []
        capsys.readouterr()

    @pytest.mark.parametrize("argv, runs", [
        (["cg", "--differential"], 1),
        (["all"], len(WORKLOADS)),
    ])
    def test_each_workload_runs_once(self, monkeypatch, capsys, argv, runs):
        # The check pass and the differential both start from one
        # simulated run of the workload.
        from repro.mpisim.runtime import Runtime

        calls = []
        run = Runtime.run

        def counting(self, *args, **kwargs):
            calls.append(self)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(Runtime, "run", counting)
        assert check.main(argv) == 0
        assert len(calls) == runs
        capsys.readouterr()

    def test_quarantined_rank_is_a_violation(self, monkeypatch, capsys):
        # compress_streams quarantines a rank whose stream does not fit
        # the CST; the suite counts it and checks and merges the kept
        # ranks.
        from repro.core import intra
        from repro.mpisim.pmpi import OP_LOOP_POP

        compress = intra.compress_streams

        def damaging(cst, streams, *args, **kwargs):
            streams = {**streams, 2: [(OP_LOOP_POP, 12345), *streams[2]]}
            return compress(cst, streams, *args, **kwargs)

        monkeypatch.setattr(intra, "compress_streams", damaging)
        assert check.main(["cg", "-n", "4", "--scale", "0.3"]) == 1
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

    def test_trace_selfcheck_reads_the_written_file(
        self, tmp_path, monkeypatch, capsys
    ):
        # A serializer that writes a tree the checker rejects fails the
        # selfcheck: it checks the file, not the tree in memory (which
        # stays intact here).
        save = serialize.save

        def damaging(merged, path, **kwargs):
            written = serialize.loads(serialize.dumps(merged))
            corrupt_merged(written, "loop-negative",
                           FaultPlan(seed=1).rng("payload", "x"))
            return save(written, path, **kwargs)

        monkeypatch.setattr(serialize, "save", damaging)
        rc = main([
            "trace", "cg", "-n", "4", "--scale", "0.3",
            "--selfcheck", "-o", str(tmp_path / "t.cyp"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "SELFCHECK FAILED" in err and "[loop-negative]" in err

    def test_verify_selfcheck(self, capsys):
        rc = check.main(["cg", "-n", "4", "--scale", "0.3",
                         "--differential"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out and "differential: ok" in out

    def test_check_publishes_metrics(self, capsys):
        golden = str(DATA / "golden_mg_v8.cyp")
        assert main(["check", golden, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "verify.checks" in out
