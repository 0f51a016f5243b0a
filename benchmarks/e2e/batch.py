"""The four batch workloads: one program traced, compressed, merged,
serialized, queried and replayed in this process.

Both passes run the same four blocking paths every round, interleaved —
``path.trace_wall`` (inline-compressor run, merge, save),
``path.compress`` (captured streams to container bytes),
``path.open_query`` and ``path.replay`` — next to an untraced
``NullSink`` run.  The traced pass adds one call per remaining layer
function, and the ``budget_cg`` workload swaps the compress path for the
chunked, budgeted ingest.
"""

from __future__ import annotations

import os
import random
import resource
import statistics

from repro.core import packed, serialize
from repro.core.api import run_cypress
from repro.core.inter import merge_all
from repro.core.intra import (
    CypressConfig,
    IntraProcessCompressor,
    close_shared_sessions,
    compress_streams,
)
from repro.driver import run_compiled
from repro.mpisim.pmpi import NullSink, StreamCaptureSink
from repro.static.instrument import compile_minimpi

from . import pipeline
from .harness import (
    Ops, Outcome, Samples, Timer, drive, percentile, rounds, timed_series,
)
from .spans import Recorder
from .workloads import Spec

CHUNK_ITEMS = 4096
BUDGET_BYTES = 1


def _chunked_ingest(comp, streams: dict[int, list], order: list[int]) -> None:
    """Feed every rank round-robin in ``CHUNK_ITEMS`` slices, sealing a
    rank when its stream ends (a no-op unless the fold is armed)."""
    cursors = dict.fromkeys(order, 0)
    live = list(order)
    while live:
        for rank in list(live):
            stream, at = streams[rank], cursors[rank]
            if at >= len(stream):
                comp.seal_rank(rank)
                live.remove(rank)
                continue
            comp.ingest_stream(rank, stream[at:at + CHUNK_ITEMS])
            cursors[rank] = at + CHUNK_ITEMS


class BatchRun:
    def __init__(self, spec: Spec, seed: int, recorder: Recorder,
                 tmp: str, import_s: float) -> None:
        self.job = spec.jobs[0]
        self.nprocs = self.job.nprocs
        self.rng = random.Random(seed)
        self.samples = Samples()
        self.timer = Timer(recorder, self.samples)
        self.ops = Ops()
        self.import_s = import_s  # wall seconds until drive() calibrates it
        self.path = os.path.join(tmp, "trace.cyp")
        self.budget = spec.kind == "budget"
        self.config = (
            CypressConfig(
                memory_budget_bytes=BUDGET_BYTES,
                spill_dir=os.path.join(tmp, "spill"),
            )
            if self.budget else None
        )
        self.budget_counters = None

    # -- set-up and the correctness gate ----------------------------------

    def set_up(self, repetitions: int) -> None:
        for _ in range(repetitions):
            self.inp = pipeline.capture_inputs(self.job, self.timer)
        self.cst = self.inp.compiled.cst
        self.chunk_order = list(range(self.nprocs))
        self.rng.shuffle(self.chunk_order)

    def gate(self) -> None:
        """Every path to a container must give the same bytes, and that
        container must replay and answer queries exactly.  Runs before
        the timed rounds, so it is also each path's discarded warm-up."""
        inp, ops = self.inp, self.ops
        pipeline.record_truth(inp)
        self.blob = pipeline.inline_container(inp, self.config)
        ops.check(
            self._compress_path() == self.blob,
            "deferred (compress_streams) bytes == inline bytes",
        )
        if self.budget:
            ops.check(
                self._chunked_path(budgeted=True) == self.blob,
                "budgeted chunked bytes == inline bytes",
            )
            ops.check(
                self._chunked_path(budgeted=False) == self.blob,
                "unbudgeted chunked bytes == inline bytes",
            )
        merged = serialize.loads(self.blob)
        self.gzip_bytes = len(serialize.dumps(merged, gzip=True))
        serialize.save(merged, self.path)
        self.qargs = pipeline.pick_query_args(self.rng, merged, self.nprocs)
        pipeline.check_container(ops, self.path, inp, self.qargs, "inline")
        self.samples.keep("setup.")  # gate calls were warm-ups, not samples

    # -- the blocking paths -----------------------------------------------

    def _trace_path(self) -> None:
        timer, inp = self.timer, self.inp
        run = timer.call(
            "mpisim.live_run", run_cypress, inp.compiled, self.nprocs,
            defines=inp.defines, config=self.config,
        )
        timer.call("inter.merge_tree", run.merge, "tree")
        timer.call("serialize.save", run.save, self.path)
        run.compressor.close_spill()

    def _compress_path(self) -> bytes:
        timer = self.timer
        comp = timer.call(
            "intra.compress_streams", compress_streams,
            self.cst, self.inp.streams, nranks=self.nprocs,
        )
        self.last_comp = comp
        ctts = [comp.ctt(r) for r in range(self.nprocs)]
        merged = timer.call(
            "inter.merge_tree", merge_all, ctts,
            schedule="tree", nranks=self.nprocs,
        )
        self.last_merged = merged
        return timer.call("serialize.dumps", serialize.dumps, merged)

    def _chunked_path(self, budgeted: bool) -> bytes:
        """``budget_cg``'s compress path: the same chunks in the same
        order, with the spill/reload/fold machinery armed or not."""
        timer = self.timer
        comp = IntraProcessCompressor(
            self.cst, config=self.config if budgeted else None
        )
        if budgeted:
            comp.enable_incremental_fold(
                nranks=self.nprocs, domain=range(self.nprocs)
            )
        timer.call(
            "budget.ingest" if budgeted else "budget.unbudgeted_ingest",
            _chunked_ingest, comp, self.inp.streams, self.chunk_order,
        )
        if budgeted:
            merged = timer.call(
                "budget.fold_finish", comp.merged, nranks=self.nprocs
            )
            self.budget_counters = comp.budget_counters
        else:
            merged = timer.call(
                "inter.merge_tree", merge_all,
                [comp.ctt(r) for r in range(self.nprocs)],
                schedule="tree", nranks=self.nprocs,
            )
        blob = timer.call("serialize.dumps", serialize.dumps, merged)
        comp.close_spill()
        return blob

    def _main_compress_path(self) -> bytes:
        if self.budget:
            return self._chunked_path(budgeted=True)
        return self._compress_path()

    def _one_round(self) -> None:
        timer, inp = self.timer, self.inp
        timer.call(
            "mpisim.null_run", run_compiled, inp.compiled, self.nprocs,
            defines=inp.defines, tracer=NullSink(),
        )
        timer.call("path.trace_wall", self._trace_path)
        # The paths below cost a fraction of the two program runs above,
        # so each gets several repetitions a round, bounded in time.
        for _, blob in timer.repeat("path.compress", 8, 0.4,
                                    self._main_compress_path):
            self.ops.expect(blob == self.blob, "compress path bytes == gate's")
        taken = timer.repeat("path.open_query", 12, 0.25,
                             pipeline.open_query_path,
                             timer, [self.path], [self.qargs])
        self.samples.add("round.open_query_p50",
                         statistics.median(s for s, _ in taken))
        timer.repeat("path.replay", 4, 0.5, pipeline.replay_path,
                     timer, [self.path])

    # -- the traced pass's extra layer calls ------------------------------

    def _ingest_all(self, method: str, sources: dict) -> IntraProcessCompressor:
        comp = IntraProcessCompressor(self.cst)
        ingest = getattr(comp, method)
        for rank, source in sources.items():
            ingest(rank, source)
        return comp

    def _warm_pool(self) -> None:
        """First ``workers=2`` call: pays the pool's fork and ring set-up."""
        with self.timer.recorder.paused():
            self.pool_cold_s, _ = self.timer.measure(
                "respool.compress_w2_cold", compress_streams,
                self.cst, self.inp.streams, workers=2, nranks=self.nprocs,
            )

    def _layer_round(self) -> None:
        timer, inp, samples = self.timer, self.inp, self.samples
        timer.call("static.compile", compile_minimpi, inp.source)
        timer.call(
            "mpisim.capture_run", run_compiled, inp.compiled, self.nprocs,
            defines=inp.defines, tracer=StreamCaptureSink(),
        )
        run = timer.call(
            "intra.live_measured_run", run_cypress, inp.compiled,
            self.nprocs, defines=inp.defines, measure_overhead=True,
        )
        samples.add("intra.live_callbacks", run.intra_seconds)
        blobs = timer.call("packed.encode", lambda: {
            rank: packed.encode_stream(stream).to_bytes()
            for rank, stream in inp.streams.items()
        })
        self.packed_bytes = sum(len(b) for b in blobs.values())
        timer.call("packed.decode", lambda: [
            packed.decode_stream(blob) for blob in blobs.values()
        ])
        timer.call("intra.ingest_runs", self._ingest_all, "ingest_runs", blobs)
        timer.call("intra.ingest_stream", self._ingest_all,
                   "ingest_stream", inp.streams)
        timer.call(
            "respool.compress_w2", compress_streams,
            self.cst, inp.streams, workers=2, nranks=self.nprocs,
        )
        if self.budget:
            # The paths budget_cg's own compress path replaces: deferred
            # compression, and the same chunks without the budget.
            timer.call("path.deferred_compress", self._compress_path)
            timer.call("path.unbudgeted_chunked", self._chunked_path, False)
        ctts = [self.last_comp.ctt(r) for r in range(self.nprocs)]
        timer.call("inter.merge_fold", merge_all, ctts,
                   schedule="fold", nranks=self.nprocs)
        timer.call("serialize.dumps_gzip", serialize.dumps,
                   self.last_merged, gzip=True)
        timer.call("serialize.loads", serialize.loads, self.blob)
        # Tracing overhead: the compress path with the recorder on and off,
        # back to back, taking turns at going first (the second call finds
        # the caches warm).
        for recorder_first in (True, False):
            pair = {}
            for on in (recorder_first, not recorder_first):
                if on:
                    pair[on], _ = timer.measure(
                        "path.compress", self._main_compress_path)
                else:
                    with timer.recorder.paused():
                        pair[on], _ = timer.measure(
                            "path.compress", self._main_compress_path)
            samples.add("bench.tracing_pair", pair[True] / pair[False])

    # -- driving ----------------------------------------------------------

    def measure(self, seconds: float, minimum: int, traced: bool) -> None:
        if traced:
            self._warm_pool()
        for _ in rounds(seconds, minimum):
            self._one_round()
            if traced:
                self._layer_round()
        close_shared_sessions()

    # -- metrics ----------------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        s, events = self.samples, self.inp.events
        series = {
            "trace_wall_s": s.get("path.trace_wall"),
            "trace_overhead_ratio": [
                live / null for live, null in zip(
                    self.timer.wall.get("mpisim.live_run"),
                    self.timer.wall.get("mpisim.null_run"),
                )
            ],
            "compress_events_per_s": [
                events / x for x in s.get("path.compress")
            ],
            "open_query_ms_p50": [
                x * 1e3 for x in s.get("round.open_query_p50")
            ],
            "replay_events_per_s": [events / x for x in s.get("path.replay")],
            "setup_s": [
                self.import_s + compile_s + capture_s
                for compile_s, capture_s in
                zip(s.get("setup.compile"), s.get("setup.capture"))
            ],
        }
        values = {
            "container_bytes": len(self.blob),
            "container_gzip_bytes": self.gzip_bytes,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return values, series

    def per_layer(self, names: list[str]) -> tuple[dict, dict]:
        s, inp = self.samples, self.inp
        events, items = inp.events, inp.items
        med = s.median
        series = timed_series(s, names)
        records = self.last_comp.metrics_counters()["intra.records"]
        vertices = list(self.last_merged.root.preorder())
        values = {
            "mpisim.capture_overhead_ratio":
                med("mpisim.capture_run") / med("mpisim.null_run"),
            "mpisim.events": events,
            "mpisim.items": items,
            "packed.encode_events_per_s": events / med("packed.encode"),
            "packed.bytes": self.packed_bytes,
            "packed.bytes_per_item": self.packed_bytes / items,
            "intra.ingest_runs_events_per_s":
                events / med("intra.ingest_runs"),
            "intra.ingest_stream_events_per_s":
                events / med("intra.ingest_stream"),
            "intra.records": records,
            "intra.events_per_record": events / records,
            "intra.live_bytes": self.last_comp.total_live_bytes(),
            "respool.pool_setup_s":
                self.pool_cold_s - med("respool.compress_w2"),
            "respool.w2_vs_serial_ratio":
                med("respool.compress_w2") / med("intra.compress_streams"),
            "inter.groups": sum(len(v.groups) for v in vertices),
            "inter.vertices": len(vertices),
            "inter.merge_us_per_rank":
                med("inter.merge_tree") * 1e6 / self.nprocs,
            "query.open_query_ms_p95":
                percentile(s.get("path.open_query"), 95) * 1e3,
            "decompress.events_per_s": events / med("decompress.all"),
            "bench.tracing_overhead_ratio": med("bench.tracing_pair"),
            "bench.calibration_factor":
                statistics.median(self.timer.slowdowns),
        }
        if self.budget:
            counters = self.budget_counters
            values.update({
                "budget.slowdown_ratio":
                    med("budget.ingest") / med("budget.unbudgeted_ingest"),
                "budget.spills": counters.spills,
                "budget.reloads": counters.reloads,
                "budget.spill_bytes": counters.spill_bytes,
                "budget.reload_bytes": counters.reload_bytes,
                "budget.folds": counters.folds,
                "budget.peak_live_bytes": counters.peak_live_bytes,
            })
        return values, series


def run(spec: Spec, seed: int, seconds: float, traced: bool, smoke: bool,
        recorder: Recorder, tmp: str, import_s: float,
        names: list[str]) -> Outcome:
    bench = BatchRun(spec, seed, recorder, tmp, import_s)
    return drive(bench, recorder, seconds, traced, smoke, names)
