"""Timing, sampling and op-counting helpers shared by the workloads."""

from __future__ import annotations

import gc
import statistics
import time
from collections import deque
from dataclasses import dataclass, field

from .spans import Recorder


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation past the sample)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]


class Samples:
    """Named lists of measurements taken over the interleaved rounds."""

    def __init__(self) -> None:
        self.values: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def get(self, name: str) -> list[float]:
        return self.values.get(name, [])

    def median(self, name: str) -> float:
        return statistics.median(self.values[name])

    def keep(self, *prefixes: str) -> None:
        """Drop every series whose name starts with none of ``prefixes``
        (the gate's calls are warm-ups, not samples)."""
        self.values = {
            k: v for k, v in self.values.items() if k.startswith(prefixes)
        }


@dataclass
class Ops:
    """The correctness gate: every check is one attempted operation."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, label: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label)
        return ok

    def expect(self, ok: bool, label: str) -> None:
        """Re-check, in a timed round, something the gate already counted:
        it becomes an operation only when it fails, so the number
        attempted does not depend on how many rounds fit the run."""
        if not ok:
            self.check(False, label)


def timed_series(samples: Samples, names: list[str]) -> dict[str, list[float]]:
    """The per-layer metrics that are plain call times: ``layer.call_s``
    (or ``_ms``) is the series filed under ``layer.call``."""
    series = {}
    for name in names:
        if name.endswith("_ms"):
            base, scale = name[:-3], 1e3
        elif name.endswith("_s") and not name.endswith("per_s"):
            base, scale = name[:-2], 1.0
        else:
            continue
        if samples.get(base):
            series[name] = [x * scale for x in samples.get(base)]
    return series


@dataclass
class Outcome:
    """What one (workload, pass) run hands back to ``run.py``."""

    ops: Ops
    #: metrics that are not the median of a series: counts, sizes, ratios
    #: of two medians
    values: dict[str, float]
    #: metric name -> one value per repetition, in the metric's unit
    series: dict[str, list[float]]


#: The calibration kernel's time on the box this was sized on, when quiet.
#: It only fixes the unit: a calibrated second is a wall second there.
CALIBRATION_NOMINAL_S = 0.0018


class _Cell:
    __slots__ = ("a", "b")


def calibration_kernel() -> int:
    """A fixed couple of milliseconds of interpreter work (dict, tuple,
    attribute and list traffic) that is no part of the system under test:
    how long it takes now, against its nominal time, says how slow the box
    is running now."""
    table: dict = {}
    out = []
    cell = _Cell()
    cell.a, cell.b = 0, 1
    for i in range(6000):
        key = (i & 63, "k")
        table[key] = table.get(key, 0) + i
        cell.a, cell.b = cell.b, (cell.a + i) & 0xFFFF
        out.append((i, cell.a))
        if len(out) > 256:
            del out[:128]
    return len(table)


class Timer:
    """Times calls for one pass: one span per call (a no-op when the
    recorder is disabled) and the duration filed under the span's name.
    Calls nest — a blocking path is a timed call whose body makes the
    layer calls — and the outermost one runs ``gc.collect()`` first and
    keeps the collector off until it returns.

    Durations are **calibrated seconds**: before every outermost call the
    calibration kernel is timed, and the call's wall time (and that of the
    calls nested in it) is divided by how slow the box is running — the
    median of the last five kernel times over the nominal one.  The shared
    box this runs on slows everything by up to 2x for minutes at a time;
    see README, "How a number is made".  Spans keep raw clock readings."""

    def __init__(self, recorder: Recorder, samples: Samples) -> None:
        self.recorder = recorder
        self.samples = samples
        #: wall seconds of the same calls, for ratios of adjacent calls
        #: (what disturbs one disturbs the other; no calibration wanted)
        self.wall = Samples()
        self._depth = 0
        self._kernel_s: deque = deque(maxlen=5)
        self.scale = 1.0  # calibrated seconds per wall second, right now
        self.slowdowns: list[float] = []  # 1 / scale, one per calibration

    def calibrate(self) -> float:
        t0 = time.perf_counter()
        calibration_kernel()
        self._kernel_s.append(time.perf_counter() - t0)
        slowdown = statistics.median(self._kernel_s) / CALIBRATION_NOMINAL_S
        self.slowdowns.append(slowdown)
        self.scale = 1.0 / slowdown
        return self.scale

    def call(self, name: str, fn, *args, **kwargs):
        seconds, result = self.measure(name, fn, *args, **kwargs)
        self.samples.add(name, seconds)
        self.wall.add(name, seconds / self.scale)
        return result

    def measure(self, name: str, fn, *args, **kwargs):
        outermost = self._depth == 0
        if outermost:
            gc.collect()
            gc.disable()
            self.calibrate()
        self._depth += 1
        try:
            with self.recorder.span(name):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                seconds = time.perf_counter() - t0
        finally:
            self._depth -= 1
            if outermost:
                gc.enable()
        return seconds * self.scale, result

    def repeat(self, name: str, most: int, budget_s: float, fn, *args
               ) -> list[tuple]:
        """Time ``fn`` up to ``most`` times or until ``budget_s`` is spent
        (always at least once), filing every duration under ``name``;
        returns the ``(seconds, result)`` pairs.  For paths that cost a
        fraction of a round: more repetitions, bounded in time."""
        out = []
        started = time.perf_counter()
        while True:
            seconds, result = self.measure(name, fn, *args)
            self.samples.add(name, seconds)
            out.append((seconds, result))
            if (len(out) >= most
                    or time.perf_counter() - started + seconds > budget_s):
                return out


def rounds(seconds: float, minimum: int):
    """Yield round numbers for about ``seconds``: always ``minimum``
    rounds, then more while the next one is expected to fit."""
    start = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if done >= minimum and elapsed + elapsed / max(done, 1) > seconds:
            return
        yield done
        done += 1


def drive(bench, recorder: Recorder, seconds: float, traced: bool,
          smoke: bool, names: list[str]) -> Outcome:
    """One (workload, pass): set up, gate, measure, hand back the numbers.
    ``bench`` is a ``BatchRun`` or a ``ServeRun``."""
    # The import was timed before any kernel was: fill the calibration
    # window now and convert it like every later duration.
    for _ in range(5):
        bench.timer.calibrate()
    bench.import_s *= bench.timer.scale
    with recorder.paused():
        bench.set_up(repetitions=1 if smoke else 3)
        bench.gate()
    # Inputs and ground truth live for the whole run: keep them out of
    # the gc.collect() before every timed call.
    gc.collect()
    gc.freeze()
    bench.measure(seconds, minimum=1 if smoke else 3, traced=traced)
    values, series = bench.per_layer(names) if traced else bench.end_to_end()
    return Outcome(bench.ops, values, series)
