"""CLI tests for the --metrics / --metrics-out flags, plus smoke tests
for previously-untested flag combinations (the budgeted path through
the CLI)."""

import json
import os
import subprocess
import sys

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
        """``--memory-budget`` folds each rank away as it finalizes; the
        totals must still agree with the unbudgeted run's."""
        mpath = tmp_path / "m.json"

        def counters(name, *extra):
            _trace(tmp_path, "--metrics-out", str(mpath), *extra, name=name)
            return json.loads(mpath.read_text())["counters"]

        inline = counters("a.cyp")
        budgeted = counters("b.cyp", "--memory-budget", "1")
        for key in ("intra.events", "intra.records", "intra.ranks"):
            assert inline[key] == budgeted[key]
        assert budgeted["budget.folds"] == 4


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


class TestFlagCombos:
    """Smoke coverage for flag combinations no test exercised before."""

    def test_trace_budgeted_matches_inline(self, tmp_path):
        inline = _trace(tmp_path, name="inline.cyp")
        budgeted = _trace(
            tmp_path, "--memory-budget", "1", name="budgeted.cyp"
        )
        with open(inline, "rb") as a, open(budgeted, "rb") as b:
            assert a.read() == b.read()

    def test_memory_budget_costs_no_more_memory_than_none(self, tmp_path):
        """``trace --memory-budget`` traces live and folds a rank when
        it finalizes.  It once captured the whole run first and
        compressed the capture under the budget — 1.4x the peak RSS of
        no budget at all at this size."""
        script = (
            "import resource, sys\n"
            "from repro.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print('ru_maxrss', rss)\n"
            "sys.exit(rc)\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}

        def run(name, *extra):
            out = subprocess.run(
                [sys.executable, "-c", script, "trace", "cg", "-n", "8",
                 "--scale", "4", "-o", str(tmp_path / name), *extra],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            return int(out.rsplit("ru_maxrss", 1)[1])

        mpath = tmp_path / "m.json"
        plain = run("plain.cyp")
        budgeted = run(
            "budgeted.cyp", "--memory-budget", "1",
            "--metrics-out", str(mpath),
        )
        assert budgeted <= 1.15 * plain
        assert (tmp_path / "budgeted.cyp").read_bytes() == (
            tmp_path / "plain.cyp").read_bytes()
        counters = json.loads(mpath.read_text())["counters"]
        assert counters["budget.folds"] == 8
