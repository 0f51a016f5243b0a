"""PMPI-style tracing layer.

The simulated runtime reports every MPI call — and, when CYPRESS
instrumentation is active, every control-structure marker — to a
:class:`TraceSink`.  This mirrors the paper's customised MPI communication
library built on the MPI profiling layer, including the two instrumented
functions ``PMPI_COMM_Structure`` / ``PMPI_COMM_Structure_Exit`` (Fig. 9),
which appear here as the loop, branch and recursion marker items.

One sink contract, two calls: a producer (the runtime, the interpreter,
the Python frontend) asks the sink once per rank for an *emitter*,
``emit = sink.stream(rank)``, and hands it every item of that rank as
one opcode tuple ``(opcode, *args)`` — the ``OP_*`` codes below, the
rank's ``MPI_Finalize`` included as the ``(OP_FINALIZE,)`` item.  Marker
items carry no run-time values, so the interpreter builds each one once,
at compile time.  Whoever drives a sink calls ``flush()`` once after the
last item, so a sink that defers work (the CYPRESS compressor buffers
items) completes it inside the run —
:meth:`Runtime.run <repro.mpisim.runtime.Runtime.run>` does, and
:class:`MultiSink` / :class:`TimingSink` pass it on.

Every sink builds its own emitter: :class:`StreamCaptureSink` keeps the
tuples (its emitter is the rank list's ``append``),
:class:`~repro.core.intra.IntraProcessCompressor` buffers a bounded
number and drains them through its batched ingest loop,
:class:`MultiSink` / :class:`TimingSink` compose the emitters of the
sinks they wrap, and the event-level sinks (:class:`RecordingSink`, the
baselines) take the emitter of :func:`event_emitter`, which reads only
events and request completions.

A captured stream can be handed to
:func:`repro.core.intra.compress_streams`, or fed to any sink later
through its emitters (``emit = sink.stream(rank)``, then ``flush()``).
"""

from __future__ import annotations

import time
from dataclasses import replace

from .events import CommEvent

# Opcodes of the items every emitter takes (and StreamCaptureSink.streams
# keeps): one tuple per item, (opcode, *args), with the rank implied by
# the emitter (the per-rank stream the tuple is stored in).
(
    OP_LOOP_PUSH,
    OP_LOOP_ITER,
    OP_LOOP_POP,
    OP_BRANCH_ENTER,
    OP_BRANCH_EXIT,
    OP_RECURSE_ENTER,
    OP_RECURSE_EXIT,
    OP_EVENT,
    OP_REQ_COMPLETE,
    OP_FINALIZE,
) = range(10)


def _ignore(item: tuple) -> None:
    """The emitter of a sink that wants nothing."""


def event_emitter(rank: int, on_event, on_request_complete):
    """The emitter of an event-level sink: ``(OP_EVENT, ev)`` calls
    ``on_event(rank, ev)``, ``(OP_REQ_COMPLETE, rid, source, nbytes,
    when)`` calls ``on_request_complete(rank, rid, source, nbytes,
    when)`` — the completion that resolves a wildcard receive's source —
    and every other item is dropped."""

    def emit(item):
        code = item[0]
        if code == OP_EVENT:
            on_event(rank, item[1])
        elif code == OP_REQ_COMPLETE:
            on_request_complete(rank, *item[1:])
    return emit


class TraceSink:
    """The one contract every trace consumer implements.  The default
    ignores everything (tracing disabled: the uninstrumented baseline)."""

    def stream(self, rank: int):
        """The emitter of ``rank``: a one-argument callable that takes
        each of the rank's items, in order, as an ``(opcode, *args)``
        tuple."""
        return _ignore

    def flush(self) -> None:
        """Called once after the last item of a run (by
        :meth:`~repro.mpisim.runtime.Runtime.run`, after the last rank
        finishes): a sink that defers work completes it here."""

    wants_markers: bool = False  # runtimes skip marker plumbing when False


#: Tracing disabled: the default sink under its historical name.
NullSink = TraceSink


class MultiSink(TraceSink):
    """Broadcast every item to several sinks."""

    def __init__(self, sinks: list[TraceSink]) -> None:
        self.sinks = list(sinks)
        self.wants_markers = any(s.wants_markers for s in sinks)

    def stream(self, rank):
        emitters = [s.stream(rank) for s in self.sinks]

        def emit(item):
            for e in emitters:
                e(item)
        return emit

    def flush(self):
        for s in self.sinks:
            s.flush()


class TimingSink(TraceSink):
    """Wraps a sink, accumulating the CPU time spent inside it.

    ``elapsed`` (seconds) is the intra-process compression overhead
    attributable to the wrapped compressor — the quantity Fig. 16 plots
    relative to application time.  ``calls`` counts the items and
    flushes timed.
    """

    def __init__(self, inner: TraceSink) -> None:
        self.inner = inner
        self.elapsed = 0.0
        self.calls = 0
        self.wants_markers = inner.wants_markers

    def stream(self, rank):
        inner = self.inner.stream(rank)
        clock = time.perf_counter

        def emit(item):
            t0 = clock()
            inner(item)
            self.elapsed += clock() - t0
            self.calls += 1
        return emit

    def flush(self):
        t0 = time.perf_counter()
        self.inner.flush()
        self.elapsed += time.perf_counter() - t0
        self.calls += 1


class RecordingSink(TraceSink):
    """Collects raw per-rank event lists — ground truth for tests and for
    the replay-correctness checks (sequence preservation).  A rank with
    no events has no key in ``events``."""

    def __init__(self) -> None:
        self.events: dict[int, list[CommEvent]] = {}

    def stream(self, rank):
        return event_emitter(rank, self._event, self._request_complete)

    def _event(self, rank: int, event: CommEvent) -> None:
        self.events.setdefault(rank, []).append(event)

    def _request_complete(self, rank, rid, source, nbytes, when):
        # Resolve wildcard receives in the recorded ground truth the same
        # way compressors do, so comparisons line up.  The list gets a
        # resolved copy: every other sink of the run holds the event.
        events = self.events.get(rank, ())
        for i in range(len(events) - 1, -1, -1):
            ev = events[i]
            if ev.req == rid and ev.op == "MPI_Irecv" and ev.wildcard:
                events[i] = replace(ev, peer=source, nbytes=nbytes)
                break


class StreamCaptureSink(TraceSink):
    """Records the complete per-rank item stream.

    A rank's emitter is its list's own ``append`` — capturing costs one
    call per item and no work beyond it, which is what makes deferred
    compression worthwhile: the traced run finishes at near-uninstrumented
    speed and the captured streams are compressed afterwards, per rank.
    ``flush()`` drops the lists of ranks that emitted nothing, so
    ``streams`` holds exactly the ranks with items.
    """

    wants_markers = True

    def __init__(self) -> None:
        self.streams: dict[int, list] = {}

    def stream(self, rank):
        return self.streams.setdefault(rank, []).append

    def flush(self):
        for rank in [r for r, items in self.streams.items() if not items]:
            del self.streams[rank]
