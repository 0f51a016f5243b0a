"""End-to-end instrumentation coverage: one observed pipeline run must
produce stage spans and counters for every stage (static CST build,
tracing, intra-process compression, inter-process merge, serialization,
replay), and compressing a captured run afterwards must reproduce the
inline counters."""

import pytest

from repro import obs
from repro.core import serialize
from repro.core.api import run_cypress
from repro.core.decompress import decompress_all
from repro.core.intra import compress_streams
from repro.driver import run_compiled
from repro.mpisim.pmpi import StreamCaptureSink
from repro.static.instrument import compile_minimpi

SOURCE = """
func main() {
  var rank = mpi_comm_rank();
  for (var i = 0; i < 6; i = i + 1) {
    if (rank % 2 == 0) {
      mpi_send(rank, 64, 3);
      mpi_recv(rank, 64, 3);
    } else {
      mpi_send(rank, 32, 5);
      mpi_recv(rank, 32, 5);
    }
    mpi_allreduce(8);
  }
}
"""

STAGES = (
    "static.compile",
    "trace.run",
    "intra.compress",
    "inter.merge",
    "serialize.dumps",
)


@pytest.fixture(autouse=True)
def _no_global_registry():
    obs.disable()
    yield
    obs.disable()


def _observed_run(**kwargs):
    registry = obs.enable()
    try:
        run = run_cypress(SOURCE, nprocs=4, **kwargs)
        merged = run.merge()
        blob = serialize.dumps(merged)
        replays = decompress_all(merged)
    finally:
        obs.disable()
    return registry, run, blob, replays


class TestStageCoverage:
    def test_every_stage_has_a_span(self):
        registry, _, _, _ = _observed_run()
        paths = registry.span_paths()
        for stage in STAGES + ("replay.decompress_all",):
            assert any(p.endswith(stage) for p in paths), (
                f"no span for stage {stage}: {paths}"
            )

    def test_intra_counters_and_hit_rates(self):
        registry, run, _, _ = _observed_run()
        c = registry.counters
        assert c["intra.events"] == run.run_result.total_events
        assert c["intra.events"] == c["trace.total_events"]
        assert c["intra.ranks"] == 4
        assert c["intra.records"] > 0
        # Hit rates are derived from the slow-path miss counters.
        assert registry.gauges["intra.mono_cache_hit_rate"] == pytest.approx(
            1.0 - c["intra.mono_cache_miss"] / c["intra.events"]
        )
        assert registry.gauges["intra.key_cache_hit_rate"] == pytest.approx(
            1.0 - c["intra.key_builds"] / c["intra.events"]
        )
        # Loops repeat identical events: key interning must mostly hit.
        assert registry.gauges["intra.key_cache_hit_rate"] >= 0.5

    def test_live_tracing_publishes_drains_and_buffer_peak(self):
        import jsonschema

        registry, run, _, _ = _observed_run()
        # SOURCE never calls mpi_finalize and fits one buffer a rank:
        # everything drains in the end-of-run flush, one drain per rank.
        assert registry.counters["intra.live_drains"] == 4
        items = registry.gauges["intra.live_buffer_peak_items"]
        assert run.run_result.total_events < items <= 32768
        doc = registry.to_dict()
        assert doc["version"] == 3
        jsonschema.validate(doc, obs.METRICS_SCHEMA)
        doc["counters"]["intra.live_drains"] = -1
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, obs.METRICS_SCHEMA)

    def test_merge_and_serialize_counters(self):
        registry, _, blob, _ = _observed_run()
        c = registry.counters
        assert c["inter.ranks_merged"] == 4
        assert c["inter.add_rank"] == 4  # one walk per rank
        assert c["inter.intern_hits"] + c["inter.intern_misses"] > 0
        assert 0.0 <= registry.gauges["inter.intern_hit_rate"] <= 1.0
        assert c["serialize.bytes.total"] == len(blob)
        assert (
            c["serialize.bytes.header"]
            + c["serialize.bytes.topology"]
            + c["serialize.bytes.payload"]
            == c["serialize.bytes.total"]
        )
        # The stats tables are part of the payload: every record names
        # two blocks, the tables hold each distinct one once a chunk
        # (34 bytes a mean/std block, one count varint a table).
        merged = serialize.loads(blob)
        nrecords = sum(
            len(g.records) for v in merged.vertices()
            for g in v.groups.values() if g.records
        )
        assert c["serialize.stats_blocks"] == 2 * nrecords
        distinct = c["serialize.stats_blocks_distinct"]
        assert 0 < distinct < c["serialize.stats_blocks"]
        assert c["serialize.bytes.stats_table"] == 34 * distinct + 1
        assert c["serialize.bytes.stats_table"] < c["serialize.bytes.payload"]
        assert registry.gauges["serialize.ratio_vs_raw"] > 1.0

    def test_replay_counters(self):
        registry, run, _, replays = _observed_run()
        c = registry.counters
        assert c["replay.ranks"] == 4
        assert c["replay.events"] == sum(len(ev) for ev in replays.values())
        assert c["replay.events"] == run.run_result.total_events

    def test_static_counters(self):
        registry, run, _, _ = _observed_run()
        assert registry.counters["static.compiles"] == 1
        assert (
            registry.counters["static.cst_vertices"] == run.compiled.cst.size()
        )

    def test_inline_compression_attributed_as_span(self):
        registry, _, _, _ = _observed_run()
        assert any(p.endswith("intra.compress") for p in registry.span_paths())


class TestDeferredCounters:
    def test_deferred_counters_match_inline(self):
        inline, run, blob, _ = _observed_run()
        deferred = obs.enable()
        try:
            compiled = compile_minimpi(SOURCE)
            capture = StreamCaptureSink()
            run_compiled(compiled, 4, tracer=capture)
            comp = compress_streams(compiled.cst, capture.streams, nranks=4)
            comp.publish_metrics(deferred)
            deferred_blob = serialize.dumps(comp.merged(nranks=4))
        finally:
            obs.disable()
        assert deferred_blob == blob
        for name in ("intra.events", "intra.records", "intra.ranks"):
            assert deferred.counters[name] == inline.counters[name], name
        assert deferred.counters["intra.events"] == run.run_result.total_events
        # Deferred compression has no live buffers to drain.
        assert deferred.counters["intra.live_drains"] == 0
