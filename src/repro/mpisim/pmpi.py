"""PMPI-style tracing layer.

The simulated runtime reports every MPI call — and, when CYPRESS
instrumentation is active, every control-structure marker — to a
:class:`TraceSink`.  This mirrors the paper's customised MPI communication
library built on the MPI profiling layer, including the two instrumented
functions ``PMPI_COMM_Structure`` / ``PMPI_COMM_Structure_Exit`` (Fig. 9),
which appear here as the loop, branch and recursion marker items.

One hand-off: a producer (the runtime, the interpreter, the Python
frontend) asks the sink once per rank for an *emitter*,
``emit = sink.stream(rank)``, and hands it every item of that rank as
one opcode tuple ``(opcode, *args)`` — the ``OP_*`` codes below.  Marker
items carry no run-time values, so the interpreter builds each one once,
at compile time.  ``on_finalize(rank)`` and ``flush()`` stay calls.

Two kinds of sink meet behind that one door:

* an :class:`ItemSink` consumes the tuples themselves:
  :class:`StreamCaptureSink` keeps them all (its emitter is the rank
  list's ``append``), :class:`~repro.core.intra.IntraProcessCompressor`
  buffers a bounded number and drains them through its batched ingest
  loop, and :class:`MultiSink` / :class:`TimingSink` compose the
  emitters of the sinks they wrap;
* a callback sink (the :class:`TraceSink` default, e.g.
  :class:`RecordingSink` and the ScalaTrace compressors) overrides the
  ``on_*`` callbacks, and its emitter is the one adapter that calls them.

Deferred work: a sink may buffer items and process them later (the
CYPRESS compressor does), so whoever drives a sink calls ``flush()`` once
after the last item — :meth:`Runtime.run <repro.mpisim.runtime.Runtime.run>`
does, and :class:`MultiSink` / :class:`TimingSink` pass it on.

A captured stream can be replayed into any sink later (``replay_into``)
or handed to :func:`repro.core.intra.compress_streams`.
"""

from __future__ import annotations

import time

from .events import CommEvent

# Opcodes of the items every emitter takes (and StreamCaptureSink.streams
# keeps): one tuple per item, (opcode, *args), with the rank implied by
# the emitter (the per-rank stream the tuple is stored in).  The order is
# TraceSink.stream's dispatch table.
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


class TraceSink:
    """Interface every trace consumer implements.  Default: ignore all.

    Producers reach a sink only through :meth:`stream`; a callback sink
    overrides the ``on_*`` methods and inherits the adapter that
    dispatches each item to them.
    """

    def stream(self, rank: int):
        """The emitter of ``rank``: a one-argument callable that takes
        each of the rank's items, in order, as an ``(opcode, *args)``
        tuple.  This default dispatches every item to the ``on_*``
        callback its opcode names."""
        calls = (
            self.on_loop_push, self.on_loop_iter, self.on_loop_pop,
            self.on_branch_enter, self.on_branch_exit,
            self.on_recurse_enter, self.on_recurse_exit,
            self.on_event, self.on_request_complete, self.on_finalize,
        )

        def emit(item):
            calls[item[0]](rank, *item[1:])
        return emit

    # -- structural markers (CYPRESS instrumentation only) ---------------

    def on_loop_push(self, rank: int, ast_id: int) -> None: ...

    def on_loop_iter(self, rank: int, ast_id: int) -> None: ...

    def on_loop_pop(self, rank: int, ast_id: int) -> None: ...

    def on_branch_enter(self, rank: int, ast_id: int, path: int) -> None: ...

    def on_branch_exit(self, rank: int, ast_id: int) -> None: ...

    def on_recurse_enter(self, rank: int, ast_id: int) -> None: ...

    def on_recurse_exit(self, rank: int, ast_id: int) -> None: ...

    # -- communication events ------------------------------------------

    def on_event(self, rank: int, event: CommEvent) -> None: ...

    def on_request_complete(
        self, rank: int, rid: int, source: int, nbytes: int, when: float
    ) -> None:
        """Called when a nonblocking request completes — resolves wildcard
        receive sources (the paper delays their compression until here)."""

    def on_finalize(self, rank: int) -> None:
        """Called when ``rank`` executes MPI_Finalize."""

    def flush(self) -> None:
        """Called once after the last item of a run (by
        :meth:`~repro.mpisim.runtime.Runtime.run`, after the last rank
        finishes): a sink that defers work completes it here."""

    # -- hints -----------------------------------------------------------

    wants_markers: bool = False  # runtimes skip marker plumbing when False


class NullSink(TraceSink):
    """Tracing disabled (used to measure the uninstrumented baseline)."""

    def stream(self, rank: int):
        return _ignore


def _reverse_adapter(opcode: int):
    """An ``on_*`` method that builds its item and emits it."""
    def on(self, rank, *args):
        self.stream(rank)((opcode, *args))
    return on


class ItemSink(TraceSink):
    """A sink that consumes the opcode tuples themselves: a subclass
    defines :meth:`stream`.  Its ``on_*`` methods are the reverse
    adapter — each builds its item and hands it to the rank's emitter —
    kept for callers that drive a sink by callback (the tree-walking
    interpreter in ``tests/spec_interp.py``, ``bench_micro_compressor``
    and tests); producers in the product use :meth:`stream`.

    Per-rank item order is preserved exactly, which is the only ordering
    the intra-process compressor depends on (rank states never
    interact).
    """

    wants_markers = True

    def stream(self, rank: int):
        raise NotImplementedError

    on_loop_push = _reverse_adapter(OP_LOOP_PUSH)
    on_loop_iter = _reverse_adapter(OP_LOOP_ITER)
    on_loop_pop = _reverse_adapter(OP_LOOP_POP)
    on_branch_enter = _reverse_adapter(OP_BRANCH_ENTER)
    on_branch_exit = _reverse_adapter(OP_BRANCH_EXIT)
    on_recurse_enter = _reverse_adapter(OP_RECURSE_ENTER)
    on_recurse_exit = _reverse_adapter(OP_RECURSE_EXIT)
    on_event = _reverse_adapter(OP_EVENT)
    on_request_complete = _reverse_adapter(OP_REQ_COMPLETE)
    on_finalize = _reverse_adapter(OP_FINALIZE)


class MultiSink(ItemSink):
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

    def on_finalize(self, rank):
        for s in self.sinks:
            s.on_finalize(rank)

    def flush(self):
        for s in self.sinks:
            s.flush()


class TimingSink(ItemSink):
    """Wraps a sink, accumulating the CPU time spent inside it.

    ``elapsed`` (seconds) is the intra-process compression overhead
    attributable to the wrapped compressor — the quantity Fig. 16 plots
    relative to application time.  ``calls`` counts the items, finalize
    calls and flushes timed.
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

    def _timed(self, fn, *args) -> None:
        t0 = time.perf_counter()
        fn(*args)
        self.elapsed += time.perf_counter() - t0
        self.calls += 1

    def on_finalize(self, rank):
        self._timed(self.inner.on_finalize, rank)

    def flush(self):
        self._timed(self.inner.flush)


class RecordingSink(TraceSink):
    """Collects raw per-rank event lists — ground truth for tests and for
    the replay-correctness checks (sequence preservation)."""

    def __init__(self) -> None:
        self.events: dict[int, list[CommEvent]] = {}

    def on_event(self, rank: int, event: CommEvent) -> None:
        self.events.setdefault(rank, []).append(event)

    def on_request_complete(self, rank, rid, source, nbytes, when):
        # Resolve wildcard receives in the recorded ground truth the same
        # way compressors do, so comparisons line up.
        for ev in reversed(self.events.get(rank, ())):
            if ev.req == rid and ev.op == "MPI_Irecv" and ev.wildcard:
                ev.peer = source
                ev.nbytes = nbytes
                break


class StreamCaptureSink(ItemSink):
    """Records the complete per-rank item stream.

    A rank's emitter is its list's own ``append`` — capturing costs one
    call per item and no work beyond it, which is what makes deferred
    compression worthwhile: the traced run finishes at near-uninstrumented
    speed and the captured streams are compressed afterwards, per rank.
    ``flush()`` drops the lists of ranks that emitted nothing, so
    ``streams`` holds exactly the ranks with items.
    """

    def __init__(self) -> None:
        self.streams: dict[int, list] = {}

    def stream(self, rank):
        return self.streams.setdefault(rank, []).append

    def flush(self):
        for rank in [r for r, items in self.streams.items() if not items]:
            del self.streams[rank]

    def replay_into(self, sink: TraceSink, ranks=None) -> None:
        """Re-drive ``sink`` from the captured streams, one rank at a
        time, through its emitters (a finalize item through
        ``on_finalize``, as the runtime does).  Only per-rank order is
        preserved (sufficient for any sink whose state is per-rank, like
        the compressors).  Ends with ``sink.flush()``, as every driver of
        a sink does."""
        for rank in sorted(self.streams) if ranks is None else ranks:
            emit = sink.stream(rank)
            for item in self.streams.get(rank, ()):
                if item[0] == OP_FINALIZE:
                    sink.on_finalize(rank)
                else:
                    emit(item)
        sink.flush()
