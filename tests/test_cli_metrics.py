"""CLI tests for the --metrics / --metrics-out flags, plus smoke tests
for previously-untested flag combinations (merge schedules and the
budgeted deferred path through the CLI)."""

import json

import jsonschema
import pytest

from repro import obs
from repro.cli import main
from repro.obs import METRICS_SCHEMA


@pytest.fixture(autouse=True)
def _no_global_registry():
    obs.disable()
    yield
    obs.disable()


def _trace(tmp_path, *extra, name="t.cyp"):
    out = str(tmp_path / name)
    rc = main(
        ["trace", "ep", "-n", "4", "--scale", "0.4", "-o", out, *extra]
    )
    assert rc == 0
    return out


class TestMetricsOut:
    def test_trace_writes_schema_valid_json(self, tmp_path, capsys):
        mpath = tmp_path / "m.json"
        _trace(tmp_path, "--metrics-out", str(mpath))
        assert f"metrics -> {mpath}" in capsys.readouterr().out
        doc = json.loads(mpath.read_text())
        jsonschema.validate(doc, METRICS_SCHEMA)
        # Stage spans for the whole pipeline, in execution order.
        paths = [s["path"] for s in doc["spans"]]
        for stage in ("static.compile", "trace.run", "intra.compress",
                      "inter.merge", "serialize.dumps"):
            assert any(p.endswith(stage) for p in paths), paths
        assert doc["counters"]["intra.events"] > 0
        assert doc["counters"]["serialize.bytes.total"] > 0
        assert 0.0 <= doc["gauges"]["intra.mono_cache_hit_rate"] <= 1.0

    def test_metrics_leave_trace_bytes_identical(self, tmp_path):
        plain = _trace(tmp_path, name="plain.cyp")
        observed = _trace(
            tmp_path, "--metrics-out", str(tmp_path / "m.json"),
            name="observed.cyp",
        )
        with open(plain, "rb") as a, open(observed, "rb") as b:
            assert a.read() == b.read()

    def test_registry_disabled_after_command(self, tmp_path):
        _trace(tmp_path, "--metrics-out", str(tmp_path / "m.json"))
        assert obs.active() is None

    def test_deferred_totals_match_inline(self, tmp_path):
        """The deferred path (what ``--memory-budget`` runs) may take
        different slow-path branches than inline compression but must
        agree on the totals."""
        mpath = tmp_path / "m.json"

        def counters(name, *extra):
            _trace(tmp_path, "--metrics-out", str(mpath), *extra, name=name)
            return json.loads(mpath.read_text())["counters"]

        inline = counters("a.cyp")
        deferred = counters("b.cyp", "--memory-budget", "1")
        for key in ("intra.events", "intra.records", "intra.ranks"):
            assert inline[key] == deferred[key]
        assert deferred["budget.folds"] == 4


class TestMetricsPrint:
    def test_trace_prints_summary(self, tmp_path, capsys):
        _trace(tmp_path, "--metrics")
        out = capsys.readouterr().out
        assert "stage spans:" in out
        assert "counters:" in out
        assert "intra.events" in out

    def test_replay_metrics(self, tmp_path, capsys):
        trace = _trace(tmp_path)
        assert main(["replay", trace, "-r", "1", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "replay.events" in out and "replay.rank_seconds" in out

    def test_verify_metrics_out(self, tmp_path, capsys):
        mpath = tmp_path / "verify.json"
        assert main(
            ["verify", "ep", "-n", "4", "--scale", "0.4",
             "--metrics-out", str(mpath)]
        ) == 0
        assert "OK" in capsys.readouterr().out
        doc = json.loads(mpath.read_text())
        jsonschema.validate(doc, METRICS_SCHEMA)
        assert doc["counters"]["intra.events"] > 0


class TestFlagCombos:
    """Smoke coverage for flag combinations no test exercised before."""

    def test_trace_fold_schedule(self, tmp_path):
        fold = _trace(tmp_path, "--merge-schedule", "fold", name="fold.cyp")
        tree = _trace(tmp_path, "--merge-schedule", "tree", name="tree.cyp")
        # Serialization is canonical: the schedule must not leak into
        # the bytes.
        with open(fold, "rb") as a, open(tree, "rb") as b:
            assert a.read() == b.read()

    def test_trace_budgeted_matches_inline(self, tmp_path):
        inline = _trace(tmp_path, name="inline.cyp")
        budgeted = _trace(
            tmp_path, "--memory-budget", "1", name="budgeted.cyp"
        )
        with open(inline, "rb") as a, open(budgeted, "rb") as b:
            assert a.read() == b.read()

    def test_verify_fold(self, capsys):
        assert main(
            ["verify", "ep", "-n", "4", "--scale", "0.4",
             "--merge-schedule", "fold"]
        ) == 0
        assert "OK" in capsys.readouterr().out
