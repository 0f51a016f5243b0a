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
from repro.driver import capture_run
from repro.frontend import S, run_python
from tests.record_fields import duration, pre_gap

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
        paths = [span["path"] for span in registry.spans]
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
        assert c["serialize.bytes.total"] == len(blob)
        assert (
            c["serialize.bytes.header"]
            + c["serialize.bytes.topology"]
            + c["serialize.bytes.payload"]
            == c["serialize.bytes.total"]
        )
        # The stats tables are part of the payload: every record names
        # two blocks, the tables hold each distinct one once a chunk
        # (a mean/std block is a form, a count and four doubles, one of a
        # single value a form, a count and one double; one count varint
        # a table).
        merged = serialize.loads(blob)
        records = [
            rec for v in merged.vertices()
            for g in v.groups if g.records for rec in g.records
        ]
        assert c["serialize.stats_blocks"] == 2 * len(records)
        distinct = c["serialize.stats_blocks_distinct"]
        assert 0 < distinct < c["serialize.stats_blocks"]
        blocks = {
            (st.count, st.mean, st.m2, st.minimum, st.maximum)
            for rec in records for st in (duration(rec), pre_gap(rec))
        }
        assert len(blocks) == distinct
        assert all(count < 128 for count, *_ in blocks)
        one = sum(
            m2 == 0.0 and mean == low == high
            for _, mean, m2, low, high in blocks
        )
        assert c["serialize.bytes.stats_table"] == (
            34 * (distinct - one) + 10 * one + 1
        )
        assert c["serialize.bytes.stats_table"] < c["serialize.bytes.payload"]
        assert registry.gauges["serialize.ratio_vs_raw"] > 1.0

    def test_replay_counters(self):
        registry, run, _, replays = _observed_run()
        c = registry.counters
        assert c["replay.ranks"] == 4
        # Ranks that hold the same group at every vertex share one walk:
        # SOURCE's even and odd ranks take one branch each.
        assert c["replay.walks"] <= c["replay.ranks"]
        assert c["replay.walks"] == 2
        assert registry.timers["replay.rank_seconds"].count == 4
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
        assert any(p.endswith("intra.compress") for p in [span["path"] for span in registry.spans])

    def test_python_frontend_attributes_inline_compression_too(self):
        # run_python shares run_cypress's set-up: under an active
        # registry the compressor is timed, and its time is a span.
        def rank_main(tc):
            yield from tc.mpi("mpi_init")
            for _ in tc.loop("steps", range(4)):
                yield from tc.mpi("mpi_barrier")

        spec = S.root(
            S.call("mpi_init"), S.loop("steps", S.call("mpi_barrier"))
        )
        registry = obs.enable()
        try:
            run = run_python(rank_main, spec, 3)
        finally:
            obs.disable()
        paths = [span["path"] for span in registry.spans]
        assert any(p.endswith("intra.compress") for p in paths), paths
        assert registry.counters["trace.total_events"] == 15
        assert registry.counters["intra.events"] == 15
        assert run.compressor.ranks() == [0, 1, 2]


class TestDeferredCounters:
    def test_deferred_counters_match_inline(self):
        inline, run, blob, _ = _observed_run()
        deferred = obs.enable()
        try:
            cap = capture_run(SOURCE, 4)
            comp = compress_streams(cap.compiled.cst, cap.streams, nranks=4)
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
