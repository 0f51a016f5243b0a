"""The benchmark's own span recorder and the self-time report built on it.

Spans are recorded from the benchmark's files only, around the calls
into each layer's public functions; nothing under ``src/`` is touched.
A span is ``(id, name, parent, start, end)`` plus the workload and the
run id every span of one benchmark run shares.  Spans stay in memory and
are written once, when the run ends.

A disabled recorder (the untraced pass) hands out a shared no-op context,
so the same measurement code serves both passes.

Single-threaded by design: only the benchmark's main thread opens spans
(the ``serve_mixed`` sender threads report samples, not spans).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class Recorder:
    def __init__(self, workload: str, run_id: str, enabled: bool) -> None:
        self.workload = workload
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[str] = []

    def span(self, name: str):
        """Context manager recording one span under the innermost open one."""
        return self._span(name) if self.enabled else _NULL

    @contextmanager
    def _span(self, name: str):
        span = {
            "id": f"{self.run_id}:{len(self.spans)}",
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the untraced half of the
        tracing-overhead pairs)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def write(self, path: str) -> None:
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_seconds(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def path_shares(spans: list[dict]) -> dict[str, dict]:
    """Per blocking path (a root span, named ``path.*``): its total wall
    over all rounds, and each layer's self time inside it as a share of
    that wall.  ``covered`` is the share held by named layer spans, i.e.
    everything but the root's own self time."""
    by_id = {s["id"]: s for s in spans}
    own = self_seconds(spans)

    def root_of(span: dict) -> dict:
        while span["parent"] is not None:
            span = by_id[span["parent"]]
        return span

    out: dict[str, dict] = {}
    for s in spans:
        root = root_of(s)
        if not root["name"].startswith("path."):
            continue
        entry = out.setdefault(
            root["name"], {"wall_s": 0.0, "layers": {}, "covered": 0.0}
        )
        if s is root:
            entry["wall_s"] += s["end"] - s["start"]
        else:
            layers = entry["layers"]
            layers[s["name"]] = layers.get(s["name"], 0.0) + own[s["id"]]
    for entry in out.values():
        wall = entry["wall_s"]
        entry["layers"] = {
            name: secs / wall
            for name, secs in sorted(
                entry["layers"].items(), key=lambda kv: -kv[1]
            )
        }
        entry["covered"] = sum(entry["layers"].values())
    return out


def format_shares(workload: str, shares: dict[str, dict]) -> list[str]:
    """The per-workload table: layer self time as a share of each
    blocking path, largest first."""
    lines = [f"[{workload}] layer self time as a share of each blocking path"]
    for path, entry in shares.items():
        lines.append(
            f"  {path}: {entry['wall_s']:.3f} s over all rounds, "
            f"{entry['covered']:.1%} in named layer spans"
        )
        for name, share in entry["layers"].items():
            lines.append(f"    {share:7.1%}  {name}")
    return lines
