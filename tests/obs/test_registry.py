"""Unit tests for the observability registry and exporters."""

import json

import jsonschema
import pytest

from repro import obs
from repro.obs import METRICS_SCHEMA, MetricsRegistry, NULL_SPAN, TimerStat


@pytest.fixture(autouse=True)
def _no_global_registry():
    """Every test starts and ends with observability off."""
    obs.disable()
    yield
    obs.disable()


class TestCountersGauges:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter_add("a")
        reg.counter_add("a", 4)
        assert reg.counters["a"] == 5

    def test_gauge_set_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge_set("g", 2.0)
        reg.gauge_set("g", 1.0)
        assert reg.gauges["g"] == 1.0

    def test_gauge_max_keeps_maximum(self):
        reg = MetricsRegistry()
        reg.gauge_max("g", 2.0)
        reg.gauge_max("g", 1.0)
        reg.gauge_max("g", 3.0)
        assert reg.gauges["g"] == 3.0


class TestTimers:
    def test_observe_aggregates(self):
        reg = MetricsRegistry()
        for s in (0.2, 0.1, 0.4):
            reg.observe("t", s)
        t = reg.timers["t"]
        assert t.count == 3
        assert t.total == pytest.approx(0.7)
        assert t.minimum == pytest.approx(0.1)
        assert t.maximum == pytest.approx(0.4)

    def test_merge(self):
        a, b = TimerStat(), TimerStat()
        a.observe(1.0)
        b.observe(0.5)
        b.observe(2.0)
        a.merge(b)
        assert a.count == 3
        assert a.minimum == pytest.approx(0.5)
        assert a.maximum == pytest.approx(2.0)

    def test_merge_empty_is_noop(self):
        a = TimerStat()
        a.observe(1.0)
        a.merge(TimerStat())
        assert a.count == 1 and a.minimum == pytest.approx(1.0)

    def test_dict_roundtrip(self):
        a = TimerStat()
        a.observe(0.25)
        a.observe(0.75)
        back = TimerStat.from_dict(a.to_dict())
        assert back.to_dict() == a.to_dict()

    def test_empty_dict_roundtrip_keeps_inf_sentinel(self):
        back = TimerStat.from_dict(TimerStat().to_dict())
        back.observe(0.5)  # min must not be stuck at the exported 0.0
        assert back.minimum == pytest.approx(0.5)


class TestSpans:
    def test_nesting_builds_dotted_paths(self):
        reg = MetricsRegistry()
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        assert [span["path"] for span in reg.spans] == ["outer/inner", "outer"]
        inner, outer = reg.spans
        assert inner["seconds"] <= outer["seconds"]
        assert outer["start_s"] <= inner["start_s"]

    def test_exception_unwinds_stack(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("outer"):
                with reg.span("inner"):
                    raise RuntimeError("boom")
        assert reg._span_stack == []
        assert [span["path"] for span in reg.spans] == ["outer/inner", "outer"]

    def test_attribute_span_backdates(self):
        reg = MetricsRegistry()
        with reg.span("outer"):
            reg.attribute_span("piecewise", 1.5)
        span = reg.spans[0]
        assert span["path"] == "outer/piecewise"
        assert span["seconds"] == pytest.approx(1.5)
        assert span["end_s"] - span["start_s"] == pytest.approx(1.5)


class TestActivation:
    def test_disabled_by_default(self):
        assert obs.active() is None
        assert not obs.enabled()
        assert obs.span("x") is NULL_SPAN

    def test_enable_disable(self):
        reg = obs.enable()
        assert obs.active() is reg
        assert obs.enabled()
        with obs.span("stage"):
            pass
        assert obs.disable() is reg
        assert obs.active() is None
        assert [span["path"] for span in reg.spans] == ["stage"]

    def test_enable_installs_given_registry(self):
        mine = MetricsRegistry()
        assert obs.enable(mine) is mine
        assert obs.active() is mine

    def test_null_span_is_reusable_context_manager(self):
        with NULL_SPAN as s:
            assert s is NULL_SPAN
        with NULL_SPAN:
            pass


class TestExport:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter_add("events", 42)
        reg.gauge_set("rate", 0.75)
        reg.observe("worker_s", 0.1)
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        return reg

    def test_json_matches_schema(self):
        doc = json.loads(obs.to_json(self._populated()))
        jsonschema.validate(doc, METRICS_SCHEMA)

    def test_schema_rejects_malformed(self):
        doc = json.loads(obs.to_json(self._populated()))
        doc["counters"]["events"] = "not-an-int"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, METRICS_SCHEMA)
        doc = json.loads(obs.to_json(self._populated()))
        del doc["spans"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, METRICS_SCHEMA)

    def test_write_json(self, tmp_path):
        path = tmp_path / "m.json"
        obs.write_json(self._populated(), str(path))
        doc = json.loads(path.read_text())
        jsonschema.validate(doc, METRICS_SCHEMA)
        assert doc["counters"]["events"] == 42

    def test_format_text_sections(self):
        text = obs.format_text(self._populated())
        for header in ("stage spans:", "counters:", "gauges:", "timers:"):
            assert header in text
        assert "events" in text and "42" in text
        # Nested span is indented one level deeper than its parent.
        lines = text.splitlines()
        outer = next(li for li in lines if "outer" in li)
        inner = next(li for li in lines if "inner" in li)
        assert len(inner) - len(inner.lstrip()) > len(outer) - len(outer.lstrip())

    def test_format_text_empty(self):
        assert obs.format_text(MetricsRegistry()) == "(no metrics recorded)"
