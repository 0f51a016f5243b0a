"""Process-global metrics/tracing registry.

The observability layer has one hard requirement (ROADMAP: "runs as fast
as the hardware allows" presumes you can measure it *without changing
it*): **zero cost when off**.  The design keeps the hot paths honest:

* Instrumentation sites at *stage* granularity (compile, trace, merge,
  serialize, replay) call :func:`span` / :meth:`MetricsRegistry.observe`.
  When no registry is active, :func:`span` returns a shared no-op
  context manager — one module-global load and two empty method calls
  per *stage*, never per event.
* Per-event statistics (mono-cache hit rate, key-interning hit rate,
  fallback entries, wildcard queue depth) are **not** sampled on the hot
  path at all.  The intra-process compressor keeps plain integer
  counters that are incremented only on its *slow* paths (a cache miss
  already costs a dict lookup; one more integer add is noise), and the
  totals they are rated against are derived after the fact from CTT
  state (``leaf_visits`` already counts every dispatched event).  See
  :meth:`repro.core.intra.IntraProcessCompressor.metrics_counters`.

The registry itself is deliberately small: counters (monotonic ints),
gauges (last-write-wins floats with a ``gauge_max`` variant), timers
(count/total/min/max aggregates) and spans (wall-clock stage intervals
with a dotted hierarchy path built from the active span stack).
"""

from __future__ import annotations

import time


class TimerStat:
    """Count/total/min/max aggregate of observed durations (seconds)."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.minimum:
            self.minimum = seconds
        if seconds > self.maximum:
            self.maximum = seconds

    def merge(self, other: "TimerStat") -> None:
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total,
            "min_s": self.minimum if self.count else 0.0,
            "max_s": self.maximum,
            "mean_s": self.total / self.count if self.count else 0.0,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimerStat":
        st = cls()
        st.count = data["count"]
        st.total = data["total_s"]
        st.minimum = data["min_s"] if st.count else float("inf")
        st.maximum = data["max_s"]
        return st


class _SpanHandle:
    """Active span: context manager recording one stage interval."""

    __slots__ = ("_registry", "name", "path", "start", "end")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self.name = name
        self.path = name
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "_SpanHandle":
        reg = self._registry
        stack = reg._span_stack
        self.path = f"{stack[-1].path}/{self.name}" if stack else self.name
        stack.append(self)
        self.start = time.perf_counter() - reg._t0
        return self

    def __exit__(self, *exc) -> None:
        reg = self._registry
        self.end = time.perf_counter() - reg._t0
        if reg._span_stack and reg._span_stack[-1] is self:
            reg._span_stack.pop()
        else:  # unbalanced exit (a stage raised through a nested span)
            reg._span_stack = [s for s in reg._span_stack if s is not self]
        reg.spans.append(
            {"name": self.name, "path": self.path,
             "start_s": self.start, "end_s": self.end,
             "seconds": self.end - self.start}
        )


class _NullSpan:
    """Shared no-op context manager returned when observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


NULL_SPAN = _NullSpan()


class MetricsRegistry:
    """One process's metric store for one observed pipeline run."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.timers: dict[str, TimerStat] = {}
        self.spans: list[dict] = []
        self._span_stack: list[_SpanHandle] = []
        self._t0 = time.perf_counter()

    # -- counters / gauges ------------------------------------------------

    def counter_add(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge_set(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    # -- timers / spans ---------------------------------------------------

    def observe(self, name: str, seconds: float) -> None:
        timer = self.timers.get(name)
        if timer is None:
            timer = self.timers[name] = TimerStat()
        timer.observe(seconds)

    def span(self, name: str) -> _SpanHandle:
        return _SpanHandle(self, name)

    def attribute_span(self, name: str, seconds: float) -> None:
        """Record a stage whose time accumulated piecewise inside an
        enclosing stage (inline intra-process compression interleaves
        with the traced run, so it has no contiguous interval): the span
        ends now and is back-dated by its accumulated duration."""
        now = time.perf_counter() - self._t0
        stack = self._span_stack
        path = f"{stack[-1].path}/{name}" if stack else name
        self.spans.append(
            {"name": name, "path": path, "start_s": now - seconds,
             "end_s": now, "seconds": seconds}
        )

    def span_paths(self) -> list[str]:
        return [s["path"] for s in self.spans]

    # -- export -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 3,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": {k: t.to_dict() for k, t in self.timers.items()},
            "spans": list(self.spans),
        }


# ---------------------------------------------------------------------------
# Process-global activation.

_ACTIVE: MetricsRegistry | None = None


def active() -> MetricsRegistry | None:
    """The installed registry, or ``None`` when observability is off."""
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE is not None


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the process-global store."""
    global _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    return _ACTIVE


def disable() -> MetricsRegistry | None:
    """Turn observability off; returns the registry that was active."""
    global _ACTIVE
    registry, _ACTIVE = _ACTIVE, None
    return registry


def span(name: str):
    """Stage span against the active registry; no-op singleton when off."""
    registry = _ACTIVE
    if registry is None:
        return NULL_SPAN
    return registry.span(name)
