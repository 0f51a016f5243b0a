"""Exporters for :class:`~repro.obs.registry.MetricsRegistry`.

Two renderings of the same snapshot:

* :func:`to_json` / :func:`write_json` — the machine-readable form the
  CLI's ``--metrics-out`` writes and CI uploads as an artifact.  The
  document shape is pinned by :data:`METRICS_SCHEMA` (draft 2020-12) so
  consumers — tests, dashboards, the bench harness — can validate it.
* :func:`format_text` — the human-readable summary ``--metrics`` prints:
  the span tree with durations, then counters, gauges and timers.
"""

from __future__ import annotations

import json

from .registry import MetricsRegistry

#: JSON Schema for the exported metrics document (draft 2020-12).
METRICS_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "CYPRESS pipeline metrics",
    "type": "object",
    "required": ["version", "counters", "gauges", "timers", "spans"],
    "properties": {
        # 2: live tracing publishes its drain count and buffer peak.
        # 3: ``serialize.dumps`` publishes what its stats tables hold.
        "version": {"const": 3},
        "counters": {
            "type": "object",
            "properties": {
                "intra.live_drains": {"type": "integer", "minimum": 0},
                "serialize.bytes.stats_table": {
                    "type": "integer", "minimum": 0,
                },
                "serialize.stats_blocks": {"type": "integer", "minimum": 0},
                "serialize.stats_blocks_distinct": {
                    "type": "integer", "minimum": 0,
                },
            },
            "additionalProperties": {"type": "integer"},
        },
        "gauges": {
            "type": "object",
            "properties": {
                "intra.live_buffer_peak_items": {
                    "type": "number", "minimum": 0,
                },
            },
            "additionalProperties": {"type": "number"},
        },
        "timers": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["count", "total_s", "min_s", "max_s", "mean_s"],
                "properties": {
                    "count": {"type": "integer", "minimum": 0},
                    "total_s": {"type": "number"},
                    "min_s": {"type": "number"},
                    "max_s": {"type": "number"},
                    "mean_s": {"type": "number"},
                },
                "additionalProperties": False,
            },
        },
        "spans": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "path", "start_s", "end_s", "seconds"],
                "properties": {
                    "name": {"type": "string"},
                    "path": {"type": "string"},
                    "start_s": {"type": "number"},
                    "end_s": {"type": "number"},
                    "seconds": {"type": "number"},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}


def to_json(registry: MetricsRegistry, indent: int | None = 2) -> str:
    return json.dumps(registry.to_dict(), indent=indent, sort_keys=True) + "\n"


def write_json(registry: MetricsRegistry, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(to_json(registry))


def format_text(registry: MetricsRegistry) -> str:
    """Human-readable snapshot: span tree, counters, gauges, timers."""
    lines: list[str] = []
    if registry.spans:
        lines.append("stage spans:")
        for span in registry.spans:
            depth = span["path"].count("/")
            lines.append(
                f"  {'  ' * depth}{span['name']:<24s} {span['seconds']:10.4f} s"
            )
    if registry.counters:
        lines.append("counters:")
        for name in sorted(registry.counters):
            lines.append(f"  {name:<36s} {registry.counters[name]:>14,d}")
    if registry.gauges:
        lines.append("gauges:")
        for name in sorted(registry.gauges):
            lines.append(f"  {name:<36s} {registry.gauges[name]:>14.4f}")
    if registry.timers:
        lines.append("timers:")
        for name in sorted(registry.timers):
            t = registry.timers[name]
            lines.append(
                f"  {name:<36s} n={t.count:<6d} total={t.total:9.4f}s "
                f"mean={t.total / t.count if t.count else 0.0:9.6f}s"
            )
    if not lines:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)
